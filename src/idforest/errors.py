"""Error types shared across the package."""


class SizeLimitError(ValueError):
    """Input exceeds the documented desk-scale guard of an operation."""


class NotPresentError(ValueError):
    """A vertex or edge referenced by an operation is not in the graph."""


class InvalidBlockError(ValueError):
    """A partition block is empty, overlaps another block, or leaves the graph."""


class WorkerLostError(RuntimeError):
    """A worker process of a parallel scan died (killed, or out of memory)
    before returning its chunk; the scan stops instead of waiting for it."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input.  `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset

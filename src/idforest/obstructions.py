"""Canonical enumeration of small graphs and minor-minimal obstruction sets.

Graphs are enumerated one isomorphism class at a time by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", 1998): a child on
n+1 vertices is kept exactly when deleting its canonical last vertex
reproduces the parent it was grown from, so no global seen-set is needed and
independent branches parallelize trivially.  Only children whose new vertex
lies in the last cell of their refined colouring are searched (McKay's
vertex-invariant test): refinement keeps cell order and so puts the
canonical last vertex there.  Enumeration and both scans grow their levels
through one loop, `_grow`, which passes each tried child, as adjacency
rows, to a classifier: a member joins the next level, a non-member is
collected, and any other child is dropped.  `enumerate_graphs` keeps every
child as a member, reaches 9 vertices and recomputes the levels below n on
every call.

The obstruction scans find the minor-minimal graphs outside "vertex cover at
most k" and outside "identification distance to a forest at most k".  Both
classes are minor-closed and a child's canonical parent is a proper minor of
it, so a scan augments only the members of each level, never the full level:
a child inside the class joins the next level, and a child outside it is
tested against its edge deletions and contractions, which imply its vertex
deletions when it has no isolated vertex.  Holding only its members, a scan
reaches its 2k+2 or 2k+4 vertex bound (10 vertices for idf at k = 3) past the
enumerator's limit.  A scan classifies each tried child on its raw
adjacency rows (`_classify`) before any canonical work: membership and
minimality depend only on the class, so a child that is neither a member
nor a minimal non-member is dropped before it is refined or searched.  The
last level feeds no further level, so there a scan keeps obstructions only:
a member is dropped like any other child, the degree and bridge tests that
rule out minimality come before the membership test, and neighbour sets
that would leave a vertex of too small a degree are not tried at all.  At
every level, a neighbour set that contains the set of a child already found
outside the class is not tried either: that child is a proper minor of the
new one, so the new one is outside and not minimal.  On
top of the scans sit a battery of structural cross-checks relating the two
sets, and a report reconciling the three named families against the
computed ground truth.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

from .canon import _refine, _search, _twins, canonical_form
from .errors import SizeLimitError, WorkerLostError
from .graph import (Graph, _bits, _core, _relabel, bridges, connected_components,
                    delete_vertex, disjoint_union, induced_subgraph, is_2_connected)
from .graphio import graph6_bytes, graph6_str, graph6_to_graph
from .minors import gen_cycle, gen_marguerite, gen_triangles
from .oracle import brute_minor
from .solver import idf_exact
from .vc import _at_most, vc_exact

ENUMERATION_MAX_VERTICES = 9
_CHUNK = 16

Classifier = Callable[[list[int], bool, list[int]], bool | None]


def _twin_classes(adj: tuple[int, ...]) -> list[int]:
    """Vertex masks of the twin classes with at least two vertices.

    Open twins (N(u) = N(v)) and closed twins (N[u] = N[v]) never chain into
    each other, so "twin" is an equivalence, and any permutation inside one
    class is an automorphism."""
    classes: list[int] = []
    for v in range(len(adj)):
        for i, mask in enumerate(classes):
            if _twins(adj, v, (mask & -mask).bit_length() - 1):
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return [mask for mask in classes if mask & (mask - 1)]


def _keep(rows: list[int], last: bool, outside: list[int]) -> bool:
    """Enumeration's classifier: every child is a member."""
    return True


def _augmented_children(parent: Graph, classify: Classifier, *, last: bool = False,
                        min_degree: int = 0) -> list[tuple[Graph, bool]]:
    """Canonical children of a canonical parent with their verdicts, sorted
    by canonical code.

    Each tried child is first passed, as its adjacency rows in the raw
    labelling, to `classify(rows, last, outside)`, which must depend only on
    the child's class and must not change the rows: a child it returns None
    for is dropped before any canonical work, and any other verdict comes
    back with the kept child.  Only neighbour sets that leave every vertex of
    the child at least `min_degree` neighbours are tried: each parent vertex
    one short must be picked, a parent with a vertex two short has no
    children at all, and the set itself needs that many vertices.  A scan
    passes its minimum degree only for its last level, where it keeps
    obstructions alone (see `_LAST_MIN_DEGREE`).

    `classify` appends the neighbour set, `rows[-1]`, to `outside` when it
    has decided that the child lies outside a minor-closed class.  A later
    set that contains one of those is skipped untried: its child has the
    outside child as a proper spanning subgraph, so it is outside too and
    not minimal, and the classifier would return None for it.  The sets are
    visited in increasing order as integers, which puts every proper subset
    of a set before the set, so each such skip is found.  Only a failed
    membership test may append: a child dropped for another reason, a member
    at the last level or one with an isolated vertex or a bridge, says
    nothing about its supersets.

    A child is kept when deleting the vertex that its own canonical labeling
    puts last gives back the parent's class; the parent is canonical, so its
    graph6 code is its canonical form.  `_refine` keeps cell order, so
    that vertex lies in the last cell of the child's refined colouring, and
    its first pass ranks by degree, so that cell has maximum degree.  A
    neighbour set is therefore tried only when the new vertex has maximum
    degree, and searched only when the new vertex lies in the last cell:
    each kept class is still reached through the set that makes the new
    vertex its canonical last vertex.  Swapping two twins of the parent is
    an automorphism of it, so a set is also tried only when it takes the
    lowest-labelled vertices of each twin class; a set skipped gives a child
    isomorphic to a tried one by a map fixing the new vertex, and the keep
    rule depends only on the child's class.  The degree rule depends on the
    class too, so it drops no class that the other rules keep.  A searched
    child costs one canonical search from its refined colouring, and a
    second one on the deleted graph only when the new vertex is not
    canonically last and the class is not yet kept for this parent.  Across
    parents the acceptance rule already guarantees disjointness.
    """
    n = parent.n
    adj = parent.adj_masks
    degrees = [mask.bit_count() for mask in adj]
    if any(d < min_degree - 1 for d in degrees):
        return []
    need = sum(1 << v for v in range(n) if degrees[v] < min_degree)
    top = max(degrees, default=0)
    top_mask = sum(1 << v for v in range(n) if degrees[v] == top)
    twin_classes = _twin_classes(adj)
    parent_code = graph6_bytes(parent)
    new_bit = 1 << n
    kept: dict[bytes, tuple[Graph, bool]] = {}
    outside: list[int] = []
    for bits in range(1 << n):
        size = bits.bit_count()
        if (size < top or (size == top and bits & top_mask) or size < min_degree
                or bits & need != need):
            continue
        # within each class, the picked vertices must be its lowest ones
        if any(mask & ((1 << (bits & mask).bit_length()) - 1) != bits & mask
               for mask in twin_classes):
            continue
        if any(bits & out == out for out in outside):
            continue
        rows = [row | new_bit if bits >> v & 1 else row for v, row in enumerate(adj)]
        rows.append(bits)
        verdict = classify(rows, last, outside)
        if verdict is None:
            continue
        colors = _refine(n + 1, rows, [0] * (n + 1))
        if colors[n] != max(colors):
            continue
        _, perm = _search(n + 1, rows, colors)
        rep = _relabel(rows, perm)
        code = graph6_bytes(rep)
        if code in kept:
            continue
        drop = perm.index(n)
        if drop == n or canonical_form(delete_vertex(Graph._from_rows(rows), drop)) == parent_code:
            kept[code] = rep, verdict
    return [kept[code] for code in sorted(kept)]


def _pmap(fn: Callable, items: list, workers: int) -> Iterator:
    """fn over items, in order: serially when workers <= 1 or the list is
    short, otherwise on one process pool.  A pool worker that dies raises
    `WorkerLostError` at once, where a `multiprocessing.Pool` would wait
    for its lost chunk for ever."""
    if workers <= 1 or len(items) < 2 * _CHUNK:
        yield from map(fn, items)
        return
    # here, so that serial runs never pay for the import
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(workers) as pool:
        try:
            yield from pool.map(fn, items, chunksize=_CHUNK)
        except BrokenProcessPool as exc:
            raise WorkerLostError("a worker process died before returning its chunk") from exc


def _replace_file(path: str, lines: Iterable[str]):
    """Write lines to path through a temporary file and os.replace, so that a
    crash leaves the old file or the new one at path, never a cut-off one.  A
    write that raises removes its temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_lines(path: str) -> list[str]:
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def _grow_worker(parent_line: str, classify: Classifier, last: bool = False,
                 min_degree: int = 0) -> tuple[list[str], list[str]]:
    """The member children and the non-member children that `classify`
    keeps, of one parent, as graph6 lines in the parent's child order."""
    members: list[str] = []
    found: list[str] = []
    for child, member in _augmented_children(graph6_to_graph(parent_line), classify,
                                             last=last, min_degree=min_degree):
        (members if member else found).append(graph6_str(child))
    return members, found


def _grow(classify: Classifier, max_n: int, *, min_degree: int = 0, workers: int,
          stem: str | None) -> tuple[list[str], list[str]]:
    """Grow levels 1..max_n from the empty graph, each from the members of
    the level before, as graph6 lines: the members of level max_n, and the
    non-members of every level.  Level max_n is grown with `last` set and
    with `min_degree` (see `_augmented_children`).

    With a stem, each level writes its non-members as the whole file
    `{stem}-n{n}.found.g6`, and each level below max_n then writes its
    members as `{stem}-n{n}.members.g6`.  A scan's classifier keeps no
    member at its last level, so that level has no member file.  A rerun
    reads back each level below max_n whose member file exists, and level
    max_n when its found file exists: the non-members of a level do not
    depend on max_n.  The last level of an earlier, shorter scan has no
    member file, so a scan that goes further grows that level again."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    members = [graph6_str(Graph(0))]
    found: list[str] = []
    for n in range(1, max_n + 1):
        last = n == max_n
        if stem is not None:
            found_path, members_path = f"{stem}-n{n}.found.g6", f"{stem}-n{n}.members.g6"
            if os.path.exists(found_path if last else members_path):
                found.extend(_read_lines(found_path))
                members = [] if last else _read_lines(members_path)
                continue
        worker = partial(_grow_worker, classify=classify, last=last,
                         min_degree=min_degree if last else 0)
        level_members: list[str] = []
        level_found: list[str] = []
        for child_members, child_found in _pmap(worker, members, workers):
            level_members.extend(child_members)
            level_found.extend(child_found)
        if stem is not None:
            os.makedirs(os.path.dirname(stem), exist_ok=True)
            _replace_file(found_path, level_found)
            if not last:
                _replace_file(members_path, level_members)
        found.extend(level_found)
        members = level_members
    return members, found


def enumerate_graphs(n: int, *, workers: int = 1) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of simple graphs
    on n vertices, in a deterministic order.  Each call grows levels 0..n-1
    again, keeping every child, and keeps nothing afterwards."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > ENUMERATION_MAX_VERTICES:
        raise SizeLimitError(
            f"enumeration supports up to {ENUMERATION_MAX_VERTICES} vertices, got {n}")
    level, _ = _grow(_keep, n, workers=workers, stem=None)
    return map(graph6_to_graph, level)


# ---------------------------------------------------------------------------
# obstruction scans

PROV_VC_OBSTRUCTION = "bridgeless_vc_obstruction"
PROV_EDGE_AUGMENTED = "edge_augmented"
PROV_OTHER = "other"


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str


@dataclass(frozen=True)
class ObstructionReport:
    """Result of one obstruction scan plus any attached verification."""

    kind: str  # "vc" or "idf"
    k: int
    obstructions: tuple[Graph, ...]
    provenance: dict[str, str] = field(default_factory=dict)
    checks: dict[str, CheckResult] = field(default_factory=dict)

    def graph6_lines(self) -> list[str]:
        return [graph6_str(g) for g in self.obstructions]

    def as_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "count": len(self.obstructions),
            "obstructions": self.graph6_lines(),
            "provenance": dict(sorted(self.provenance.items())),
            "checks": {name: {"passed": r.passed, "detail": r.detail}
                       for name, r in sorted(self.checks.items())},
        }


# At its last level a scan keeps only minor-minimal non-members, and each
# vertex of one has at least this many neighbours: a non-member with an
# isolated vertex is not minimal, nor is an idf non-member with a pendant
# edge, which is a bridge.
_LAST_MIN_DEGREE = {"vc": 1, "idf": 2}


def _member(rows: list[int], kind: str, k: int) -> bool:
    """`vc_decision` or `idf_decision` on the graph with these rows."""
    if kind == "idf":
        rows = _core(rows)
    return _at_most(rows, k)


def _edge_minor_rows(rows: list[int]) -> Iterator[list[int]]:
    """The rows of each minor one edge deletion or contraction away.  A
    contraction of uv keeps the vertex count: v is left isolated, and its
    neighbours join u's."""
    for u, row in enumerate(rows):
        bu = 1 << u
        for v in _bits(row >> u + 1 << u + 1):
            bv = 1 << v
            deleted = list(rows)
            deleted[u] ^= bv
            deleted[v] ^= bu
            yield deleted
            contracted = list(rows)
            for w in _bits(rows[v] & ~bu):
                contracted[w] = contracted[w] & ~bv | bu
            contracted[u] = (row | rows[v]) & ~(bu | bv)
            contracted[v] = 0
            yield contracted


def _minimal(rows: list[int], kind: str, k: int) -> bool:
    """Minor-minimality for the kind's decision, on rows: no vertex is
    isolated, every edge minor is a member and the graph is not.  Each G - v
    is then a subgraph of some G - e, and an isolated vertex changes neither
    value.  The graph's own test comes last, so a scan child, which has just
    failed it, repeats it only when minimal."""
    return (all(rows) and all(_member(minor, kind, k) for minor in _edge_minor_rows(rows))
            and not _member(rows, kind, k))


def _spanning_rows(g: Graph, m: int) -> Iterator[list[int]]:
    """The rows of each spanning subgraph of g with m edges."""
    for keep in combinations(sorted(g.edges), m):
        rows = [0] * g.n
        for u, v in keep:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        yield rows


def _classify(rows: list[int], last: bool, outside: list[int], kind: str,
              k: int) -> bool | None:
    """True for a member, False for a minor-minimal non-member, None for any
    other child, which at a scan's last level includes every member.  A
    child that fails the membership test has its neighbour set, `rows[-1]`,
    appended to `outside` (see `_augmented_children`).  A child with an
    isolated vertex is not minimal (`_minimal`), nor is an idf child with a
    bridge, since bridge removal preserves the identification number.  At
    the last level these tests come before the membership test, so a child
    they drop there is never appended; below it a member must be kept
    whatever its degrees and bridges.  The core is computed once: an idf
    child is a member exactly when its core is a vc member."""
    if last and not all(rows):
        return None
    core = _core(rows) if kind == "idf" else rows
    if last and core != rows:
        return None
    if _member(core, "vc", k):
        return None if last else True
    outside.append(rows[-1])
    return False if core == rows and _minimal(rows, kind, k) else None


def _scan(kind: str, k: int, max_n: int, *, workers: int,
          checkpoint_dir: str | None) -> tuple[Graph, ...]:
    """Minor-minimal non-members on up to max_n vertices, grown from members
    only: both predicates are minor-closed, and a canonical child's parent is
    a proper minor of it, so every minimal non-member has a member parent.
    Each found line is the graph6 code of a canonical labelling, so sorting
    the lines sorts the graphs by canonical form.  Checkpoint files are
    named `scan-{kind}-k{k}-n{n}.*.g6` (see `_grow`)."""
    stem = None if checkpoint_dir is None else os.path.join(checkpoint_dir,
                                                             f"scan-{kind}-k{k}")
    _, found = _grow(partial(_classify, kind=kind, k=k), max_n,
                     min_degree=_LAST_MIN_DEGREE[kind], workers=workers, stem=stem)
    return tuple(map(graph6_to_graph, sorted(found)))


def _check_budget(k: int, long_run: bool):
    if k < 0 or k > 3:
        raise ValueError(f"supported budgets are 0..3, got {k}")
    if k == 3 and not long_run:
        raise ValueError("k = 3 scans take a while; pass long_run=True to opt in")


def obs_vc(k: int, *, long_run: bool = False, workers: int = 1,
           checkpoint_dir: str | None = None) -> ObstructionReport:
    """Minor-minimal graphs with vertex cover number above k, complete up to
    the 2k+2 vertex bound.  k = 3 is a deliberate long run."""
    _check_budget(k, long_run)
    members = _scan("vc", k, 2 * k + 2, workers=workers, checkpoint_dir=checkpoint_dir)
    return ObstructionReport(kind="vc", k=k, obstructions=members)


def _spanning_vc_minimal(g: Graph, target: int) -> str:
    """Provenance of an obstruction g with value target+1: does deleting some
    edge set (possibly empty) leave a minor-minimal graph for cover budget
    target on the same vertices?  The answer depends only on the fewest
    edges deleted, so each size stops at its first minimal subgraph."""
    for size in range(g.m + 1):
        if any(_minimal(rows, "vc", target) for rows in _spanning_rows(g, g.m - size)):
            return PROV_VC_OBSTRUCTION if size == 0 else PROV_EDGE_AUGMENTED
    return PROV_OTHER


def obs_idf(k: int, *, long_run: bool = False, workers: int = 1,
            checkpoint_dir: str | None = None) -> ObstructionReport:
    """Minor-minimal graphs that no order-k identification turns into a
    forest, complete up to the 2k+4 vertex bound (k <= 2; k = 3 scans ten
    vertices and is a deliberate long run).

    Each member is annotated with how it relates to the cover obstructions:
    it is one itself, or an edge deletion away from one, or neither.
    """
    _check_budget(k, long_run)
    members = _scan("idf", k, 2 * k + 4, workers=workers, checkpoint_dir=checkpoint_dir)
    provenance = {graph6_str(g): _spanning_vc_minimal(g, idf_exact(g).value - 1)
                  for g in members}
    return ObstructionReport(kind="idf", k=k, obstructions=members,
                             provenance=provenance)


# ---------------------------------------------------------------------------
# structural verification

def _has_spanning_copy(g: Graph, h: Graph) -> bool:
    """Is some spanning subgraph of g (same vertex count) isomorphic to h
    padded with isolated vertices?"""
    if h.n > g.n or h.m > g.m:
        return False
    target = canonical_form(disjoint_union(h, Graph(g.n - h.n)))
    degs = sorted([row.bit_count() for row in h.adj_masks] + [0] * (g.n - h.n))
    return any(sorted(row.bit_count() for row in rows) == degs
               and canonical_form(Graph._from_rows(rows)) == target
               for rows in _spanning_rows(g, h.m))


def _spanning_failures(g: Graph, vc_obstructions: Iterable[Graph]) -> list[tuple[str, str]]:
    """Check f's failures on an identification obstruction g of value k+1:
    no cover obstruction is a minor of g, or one that is has no spanning copy."""
    minors_of_g = [h for h in vc_obstructions if brute_minor(h, g) is not None]
    if not minors_of_g:
        return [(graph6_str(g), "no cover obstruction is a minor")]
    return [(graph6_str(g), f"no edge set deletes down to {graph6_str(h)}")
            for h in minors_of_g if not _has_spanning_copy(g, h)]


def verify_section4(vc_report: ObstructionReport,
                    idf_report: ObstructionReport) -> dict[str, CheckResult]:
    """Evaluate the structural cross-checks tying a cover report and an
    identification report of one budget together.  Each check lists the
    members that violate it; it passes when the list is empty.  Failures
    come back as report entries, never exceptions; reports of another kind
    or of two budgets raise ValueError."""
    if (vc_report.kind, idf_report.kind) != ("vc", "idf") or vc_report.k != idf_report.k:
        raise ValueError(
            "need a vc report and an idf report of one budget, got "
            f"{vc_report.kind} k={vc_report.k} and {idf_report.kind} k={idf_report.k}")
    k = vc_report.k
    vcs, idfs = vc_report.obstructions, idf_report.obstructions
    vc_values = [vc_exact(g).value for g in vcs]
    idf_values = [idf_exact(g).value for g in idfs]
    idf_forms = {canonical_form(g) for g in idfs}
    examined = [g for g, value in zip(idfs, idf_values) if value == k + 1]
    checks = [
        ("a_bridgeless", "every member bridgeless", "bridged members",
         [graph6_str(g) for g in idfs if bridges(g)]),
        ("b_bridgeless_vc_members", "bridgeless cover obstructions all present", "absent",
         [graph6_str(g) for g in vcs
          if not bridges(g) and canonical_form(g) not in idf_forms]),
        ("c_components_2_connected", "every component 2-connected", "violations",
         [graph6_str(g) for g in vcs
          if not all(is_2_connected(induced_subgraph(g, comp)[0])
                     for comp in connected_components(g))]),
        ("d_vc_value_exact", f"all cover values equal {k + 1}", "off-value members",
         [(graph6_str(g), value) for g, value in zip(vcs, vc_values) if value != k + 1]),
        ("e_idf_value_window", f"all values in [{k + 1}, {k + 2}]", "out of window",
         [(graph6_str(g), value) for g, value in zip(idfs, idf_values)
          if not k + 1 <= value <= k + 2]),
        ("f_spanning_vc_obstruction", f"checked {len(examined)} members of value {k + 1}",
         "failures", [failure for g in examined for failure in _spanning_failures(g, vcs)]),
        ("g_size_bound", f"all members within {2 * k + 4} vertices", "oversized",
         [graph6_str(g) for g in idfs if g.n > 2 * k + 4]),
    ]
    return {name: CheckResult(not bad, f"{label}: {bad}" if bad else ok)
            for name, ok, label, bad in checks}


# ---------------------------------------------------------------------------
# the named families against the computed sets

@dataclass(frozen=True)
class FamilyClaim:
    family: str
    description: str
    graph: Graph | None
    claimed_member: bool | None  # None marks an informational row
    computed_member: bool | None
    agrees: bool | None
    note: str = ""


def family_obstruction_report(k: int) -> tuple[FamilyClaim, ...]:
    """For each named family at parameter k, test minor-minimality against
    the order-k identification class and compare with the stated membership,
    flagging any disagreement.  A corrected marguerite row (one index lower)
    is appended for information."""
    if k < 0 or k > 2:
        raise ValueError(f"supported parameters are 0..2, got {k}")
    rows: list[FamilyClaim] = []

    def claim(family: str, description: str, g: Graph | None,
              claimed: bool | None, note: str = "") -> FamilyClaim:
        if g is None:
            return FamilyClaim(family, description, None, claimed, None, None, note)
        computed = _minimal(list(g.adj_masks), "idf", k)
        agrees = None if claimed is None else computed == claimed
        return FamilyClaim(family, description, g, claimed, computed, agrees, note)

    if 2 * k + 1 >= 3:
        rows.append(claim("cycle", f"C{2 * k + 1}", gen_cycle(2 * k + 1), True))
    else:
        rows.append(claim("cycle", f"C{2 * k + 1}", None, True,
                          note="no cycle this short exists; clause inapplicable"))
    m = k // 2 + 1
    rows.append(claim("triangles", f"{m} disjoint triangles", gen_triangles(m), True))
    rows.append(claim("marguerite", f"{k + 1}-petal marguerite",
                      gen_marguerite(k + 1), True))
    if k >= 1:
        rows.append(claim("marguerite", f"{k}-petal marguerite (shifted index)",
                          gen_marguerite(k), None,
                          note="informational: the index one lower"))
    return tuple(rows)


# ---------------------------------------------------------------------------
# catalog files

def write_catalog(report: ObstructionReport, directory: str) -> tuple[str, str]:
    """Write the newline-separated graph6 catalog and its JSON sidecar;
    returns the two paths."""
    os.makedirs(directory, exist_ok=True)
    stem = f"obs-{report.kind}-k{report.k}"
    g6_path = os.path.join(directory, stem + ".g6")
    json_path = os.path.join(directory, stem + ".json")
    _replace_file(g6_path, report.graph6_lines())
    _replace_file(json_path, [json.dumps(report.as_json_dict(), indent=2, sort_keys=True)])
    return g6_path, json_path

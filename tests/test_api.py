"""The package's public surface: every exported name resolves, a star
import works, and the names that moved into the tests stay out of the
library."""

from __future__ import annotations

import idforest
from idforest import Graph, graph, identify, obstructions, oracle

MOVED_TO_TESTS = {
    graph: ["complete_bipartite_graph"],
    identify: ["identify_set"],
    obstructions: ["is_minor_minimal", "one_step_minors", "Predicate"],
}


def test_every_exported_name_resolves():
    assert len(set(idforest.__all__)) == len(idforest.__all__)
    assert [name for name in idforest.__all__ if not hasattr(idforest, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from idforest import *", namespace)
    assert set(idforest.__all__) <= namespace.keys()


def test_removed_names_stay_removed():
    for module, names in MOVED_TO_TESTS.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(idforest, name) and name not in idforest.__all__, name
    assert not hasattr(Graph, "adj")
    assert not hasattr(oracle, "_connected_in") and not hasattr(oracle, "_touching")

"""The public API: awgraph.__all__ against the names awgraph/__init__.py imports."""

import ast
import types
from pathlib import Path

import awgraph


def test_all_matches_the_public_imports():
    # A name dropped from the imports but left in __all__ would break
    # `from awgraph import *`; one imported but not listed would be hidden.
    missing = [name for name in awgraph.__all__ if not hasattr(awgraph, name)]
    assert missing == []
    assert len(set(awgraph.__all__)) == len(awgraph.__all__)
    tree = ast.parse(Path(awgraph.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        name
        for name in imported
        if not name.startswith("_") and not isinstance(getattr(awgraph, name), types.ModuleType)
    }
    assert sorted(public - set(awgraph.__all__)) == []
    # Helpers only the tests use live in tests/prop_helpers.py or inline.
    gone = (
        "find_polychromatic_path", "induced_subgraph", "is_isometric_subgraph",
        "layer_vertices", "connected_graphs", "colors_used", "is_canonical",
        "canonicalize",
    )
    assert [name for name in gone if hasattr(awgraph, name)] == []
    # The search has one public stream, and a table one named view.
    assert not hasattr(awgraph.search, "iter_rainbow_free_colorings")
    assert not hasattr(awgraph.ApTable, "sets")

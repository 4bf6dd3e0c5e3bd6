"""Recompute perfbench/frozen.json, the values the benchmark's oracles expect.

    python3 perfbench/freeze.py

Run from the repository root; it takes about a minute.  It records, from
the program at the current commit:

- for each of the 853 connected 7-vertex graphs H of the networkx atlas,
  aw(P_2 box H, 3), with the graphs listed in order of the CPU time that
  verify_product_bound took on them (the strata product-sweep samples from);
- for each extremal-enum row, the number of canonical rainbow-free exact
  r-colorings.

Rerun it only when the benchmark's inputs change, never to make a changed
program pass.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import networkx  # noqa: E402

import awgraph  # noqa: E402
from awgraph.cli import parse_graph_spec  # noqa: E402
from workloads import EXTREMAL_OPS, FROZEN_PATH, extremal_argv  # noqa: E402


def product_sweep() -> dict:
    p2 = awgraph.build_path(2)
    rows = []
    for index, h in enumerate(networkx.graph_atlas_g()):
        if h.number_of_nodes() != 7 or not networkx.is_connected(h):
            continue
        g = awgraph.Graph.from_edges(7, [(min(u, v), max(u, v)) for u, v in h.edges()])
        start = time.process_time()
        aw = awgraph.verify_product_bound(p2, g).aw
        rows.append((time.process_time() - start, index, aw))
    rows.sort()
    return {
        "atlas_index": [index for _, index, _ in rows],
        "aw": "".join(str(aw) for _, _, aw in rows),
    }


def extremal() -> dict:
    out = {}
    for spec, k, r in EXTREMAL_OPS:
        g, _ = parse_graph_spec(spec)
        table = awgraph.enumerate_k_aps(awgraph.all_pairs_distances(g), k)
        count = len(awgraph.enumerate_rainbow_free_colorings(table, g.n, r))
        out[" ".join(extremal_argv(spec, k, r))] = count
    return out


def main() -> None:
    frozen = {"product_sweep": product_sweep(), "extremal": extremal()}
    with open(FROZEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

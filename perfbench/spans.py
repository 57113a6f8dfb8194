"""Spans around pathpart's module boundaries, installed from the benchmark's side.

Each public function is wrapped where its caller looks it up: the solver and
the CLI hold their own bindings of the classify and discharge functions, the
solver reads the move finders from the `moves` module and its own
`canonicalize`/`initial_partition` from its globals, and the move builder
reaches `PathPartition.copy` through the class. Spans stay in memory as
[name, start, end, parent, call] and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, class or None, attribute, span name, record hits)
BINDINGS = [
    ("pathpart.solver", None, "classify_edges", "classify.classify_edges", False),
    ("pathpart.cli", None, "classify_edges", "classify.classify_edges", False),
    ("pathpart.solver", None, "classify_vertices", "classify.classify_vertices", False),
    ("pathpart.cli", None, "classify_vertices", "classify.classify_vertices", False),
    ("pathpart.moves", None, "find_basic_move", "moves.find_basic_move", True),
    ("pathpart.moves", None, "eliminate_singletons", "moves.eliminate_singletons", True),
    ("pathpart.moves", None, "find_derived_move", "moves.find_derived_move", True),
    ("pathpart.moves", None, "find_pair_move", "moves.find_pair_move", True),
    ("pathpart.moves", None, "find_compound_move", "moves.find_compound_move", True),
    ("pathpart.moves", None, "apply_move", "moves.apply_move", False),
    ("pathpart.partition", "PathPartition", "copy", "partition.copy", False),
    ("pathpart.solver", None, "initial_partition", "solver.initial_partition", False),
    ("pathpart.solver", None, "canonicalize", "solver.canonicalize", False),
    ("pathpart.solver", None, "apply_rules", "discharge.apply_rules", False),
    ("pathpart.cli", None, "apply_rules", "discharge.apply_rules", False),
    ("pathpart.solver", None, "certify", "discharge.certify", False),
    ("pathpart.cli", None, "audit_block_bounds", "discharge.audit_block_bounds", False),
    ("pathpart.graphs", None, "gen_random_regular", "graphs.gen", False),
    ("pathpart.graphs", None, "gen_disjoint_cliques", "graphs.gen", False),
    ("pathpart.graphs", None, "contains_k6", "graphs.contains_k6", False),
    ("pathpart.graphs", None, "read_edge_list", "graphs.read_edge_list", False),
    ("pathpart.oracle", None, "exact_pi_p", "oracle.exact_pi_p", False),
]

# the span the benchmark opens around each pathpart.cli.main call
ROOT = "cli"

# per span name: calls, calls that returned non-None, inclusive and self seconds
STATS = ("calls", "hits", "s", "self_s")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, call id, hit]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.unbound: list[str] = []  # bindings this version of pathpart lacks
        self._call = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self._call, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, call_id: int, fn, *args):
        """Run fn(*args) under a root span belonging to one CLI call."""
        self._call = call_id
        rec = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self._call = -1

    def _wrap(self, orig, name: str, hits: bool):
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if hits:
                rec[5] = result is not None
            return result
        return traced

    def install(self) -> None:
        self.unbound = []
        for module, cls, attr, name, hits in BINDINGS:
            owner = sys.modules.get(module)
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or not hasattr(owner, attr):
                self.unbound.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, hits))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def layer_stats(self, calls: set[int]) -> dict[str, dict[str, float]]:
        """calls, hits, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, call, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(STATS, 0))
        for i, (name, start, end, parent, call, hit) in enumerate(self.spans):
            if call not in calls:
                continue
            st = stats[name]
            st["calls"] += 1
            st["hits"] += bool(hit)
            st["s"] += end - start
            st["self_s"] += end - start - child[i]
        return stats

    def write(self, path: Path, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, call, _ in self.spans:
                f.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                    parent, call]) + "\n")


def median_stats(per_pass: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Median (the lower one of an even count) of each layer statistic over several
    passes, so counts stay whole."""
    names = {name for stats in per_pass for name in stats}
    zero = dict.fromkeys(STATS, 0)
    return {name: {k: statistics.median_low(p.get(name, zero)[k] for p in per_pass)
                   for k in STATS} for name in names}

"""Driver: greedy initial partition, move loop to a fixed point, certification."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import moves
from .classify import VertexClassification, classify_edges, classify_vertices
from .discharge import (Certificate, PointLedger, RuleSet, apply_rules, certify,
                        ruleset_for_degree)
from .graphs import Graph, infer_degree
from .partition import PathPartition, validate_partition


def initial_partition(g: Graph, seed: int = 0) -> PathPartition:
    """Greedy DFS path growing: start at an unused vertex, extend both ends
    through unused neighbors; whatever stays unreachable becomes singletons."""
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    prio = {v: i for i, v in enumerate(order)}
    used = [False] * g.n
    paths, singletons = [], []
    for start in order:
        if used[start]:
            continue
        used[start] = True
        path = [start]
        for at_tail in (True, False):
            while True:
                tip = path[-1] if at_tail else path[0]
                cands = [w for w in g.adj[tip] if not used[w]]
                if not cands:
                    break
                nxt = min(cands, key=prio.__getitem__)
                used[nxt] = True
                if at_tail:
                    path.append(nxt)
                else:
                    path.insert(0, nxt)
        if len(path) == 1:
            singletons.append(start)
        else:
            paths.append(path)
    return PathPartition.from_lists(g.n, paths=paths, singletons=singletons)


@dataclass
class SolveReport:
    partition: PathPartition
    vc: VertexClassification  # the final partition's vertex classes
    move_counts: dict[str, int]
    wall_time: float
    potential_trace: list[tuple[int, int, int]]
    trace: list[dict] = field(default_factory=list)
    certificate: Certificate | None = None
    ledger: PointLedger | None = None
    escalated: bool = False

    @property
    def component_count(self) -> int:
        return self.partition.component_count()

    @property
    def cycle_count(self) -> int:
        return self.partition.cycle_count()

    def to_json(self, timings: bool = False) -> str:
        import json
        payload = {
            "component_count": self.component_count,
            "cycle_count": self.cycle_count,
            "move_counts": dict(sorted(self.move_counts.items())),
            "potential_trace_length": len(self.potential_trace),
            "escalated": self.escalated,
        }
        if timings:
            payload["wall_time_s"] = round(self.wall_time, 3)
        return json.dumps(payload) + "\n"


def _next_move(g, p):
    """The first applicable move, with the classification it was found on.

    When no move applies, the move is None and the classification is that of
    the fixed point; certification reads it from there.
    """
    mv = moves.find_basic_move(g, p)
    if mv:
        return mv, None, None
    mv = moves.eliminate_singletons(g, p)
    if mv:
        return mv, None, None
    ec = classify_edges(g, p)
    vc = classify_vertices(g, p, ec)
    mv = moves.find_derived_move(g, p, ec, vc)
    if mv:
        return mv, ec, vc
    return moves.find_pair_move(g, p, ec, vc), ec, vc


def _focus_for(ec, failing_vertices):
    focus = set(failing_vertices)
    ring = set(failing_vertices)
    for _ in range(2):
        nxt = set()
        for u, v in ec.free_edges:
            if u in ring:
                nxt.add(v)
            if v in ring:
                nxt.add(u)
        focus |= nxt
        ring = nxt
    return focus


def canonicalize(g: Graph, p: PathPartition, depth: int = 4,
                 rules: RuleSet | None = None, record_trace: bool = False,
                 validate_each: bool = False) -> SolveReport:
    """Apply the first available move until none applies, then certify.

    Move priority: basic, singleton elimination, derived, pair exchange. If
    certification fails, a bounded compound search focused on the failing
    components runs at `depth`, escalating once to depth+2, before giving up
    and reporting the failing certificate.
    """
    t0 = time.perf_counter()
    p = p.copy()
    counts: dict[str, int] = {}
    phis = [p.potential()]
    trace: list[dict] = []
    step = 0

    def run_loop():
        """Move to a fixed point and return its edge and vertex classification."""
        nonlocal step
        while True:
            mv, ec, vc = _next_move(g, p)
            if mv is None:
                return ec, vc
            moves.apply_move(g, p, mv)
            if validate_each:
                ok, viol = validate_partition(g, p)
                if not ok:
                    raise moves.MoveEngineError(f"invalid partition after move: {viol}")
            counts[mv.kind] = counts.get(mv.kind, 0) + 1
            phis.append(p.potential())
            if record_trace:
                trace.append({"step": step, "move_kind": mv.kind,
                              "primitives": [list(x) for x in mv.primitives],
                              "phi_before": list(mv.phi_before),
                              "phi_after": list(mv.phi_after)})
            step += 1

    ec, vc = run_loop()
    report = SolveReport(partition=p, vc=vc, move_counts=counts, wall_time=0.0,
                         potential_trace=phis, trace=trace)

    if rules is None:
        d = infer_degree(g)
        rules = ruleset_for_degree(d) if d in (5, 6) else None
    if rules is not None:
        search_depth = depth
        while True:
            ledger = apply_rules(g, p, ec, vc, rules)
            cert = certify(g, p, ledger, rules)
            report.certificate = cert
            report.ledger = ledger
            if cert.verdict:
                break
            failing = [v for viol in cert.violations for v in viol["component"]]
            focus = _focus_for(ec, failing)
            mv = moves.find_compound_move(g, p, depth=search_depth, focus=focus)
            if mv is None and search_depth == depth:
                # the partition is unchanged, so only the search reruns
                search_depth = depth + 2
                report.escalated = True
                mv = moves.find_compound_move(g, p, depth=search_depth, focus=focus)
            if mv is None:
                break
            moves.apply_move(g, p, mv)
            counts["compound"] = counts.get("compound", 0) + 1
            phis.append(p.potential())
            ec, vc = run_loop()
            report.vc = vc
    report.wall_time = time.perf_counter() - t0
    return report


def solve(g: Graph, seed: int = 0, depth: int = 4,
          rules: RuleSet | None = None, record_trace: bool = False) -> SolveReport:
    """Initial partition plus canonicalize, the one-call pipeline."""
    return canonicalize(g, initial_partition(g, seed), depth=depth, rules=rules,
                        record_trace=record_trace)

"""Driver: greedy initial partition, move loop to a fixed point, certification."""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from functools import partial

from . import moves
from .classify import (VertexClassification, classify_edges, classify_vertices,
                       edge_is_free, reclassify)
from .discharge import (Certificate, PointLedger, RuleSet, apply_rules, certify,
                        ruleset_for_degree)
from .graphs import Graph, infer_degree
from .partition import ALONE, INNER, PATH, PathPartition, validate_partition


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
    vc: VertexClassification  # the final partition's free edges and vertex classes
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


class SolveState:
    """The live partition's classification, basic-move and singleton
    candidates, and derived-scan memory.

    The classification is built the first time a step reads it, once basic
    moves first run out. After that, each move marks the vertices it touched
    dirty, and the next read rebuilds the free-neighbour list of each dirty
    vertex and reclassifies only the region around them; the first build is
    the same `reclassify` run over every vertex. A primitive changes whether
    an edge is free only when both its ends are among the vertices it
    touched, so a clean vertex's list stays right.
    Every edge is named by its (u, v) pair, u < v, as in `g.edges`; pairs
    sort in edge order. Join candidates are a min-heap of edges, closure
    candidates a min-heap of path ids and singleton candidates a min-heap of
    vertices, each validated lazily. The join heap starts with the joinable
    edges, found at the V1 vertices. A move pushes the joinable edges at the
    V1 vertices of the components it touched, which hold every edge it made
    joinable, the id of each path it touched, and each touched vertex left
    a singleton (only a split makes one, and the cut pair is touched), so the
    first valid entry is the one a scan of E, of the components or of the
    roles would find.
    The derived scan's memory is a `moves.DerivedFailures`: `apply` hands it
    each move's steps before building the move (see
    `DerivedFailures.retire`), the first read of the classification opens
    every vertex there, and each later read re-opens the region
    `reclassify` recomputed.
    """

    def __init__(self, g: Graph, p: PathPartition):
        self.g, self.p = g, p
        # sorted, hence heaps
        self.joins = sorted(set(self._joins_at(v for v in range(g.n) if p.role[v] != INNER)))
        self.paths = sorted(cid for cid, c in p.components.items() if c.kind == PATH)
        self.singletons = [v for v in range(g.n) if p.role[v] == ALONE]
        self.dirty: set[int] = set()
        self.vc: VertexClassification | None = None
        self.derived_failures = moves.DerivedFailures(g.n)
        # the heap peeks' validity tests
        self._is_join = lambda edge: moves.joinable(p, *edge)
        self._is_closable = partial(moves.closable, g, p)
        self._is_singleton = lambda v: p.role[v] == ALONE

    def apply(self, mv: moves.Move) -> list[tuple]:
        """Build the move on the live partition; returns its primitives."""
        self.derived_failures.retire(self.p, mv.steps)
        prims, touched = moves.apply_move(self.g, self.p, mv)
        self.dirty |= touched
        if self.p.singleton_count():
            role = self.p.role
            for v in touched:
                if role[v] == ALONE:
                    heapq.heappush(self.singletons, v)
        for cid in {self.p.owner[v] for v in touched}:
            comp = self.p.components[cid]
            joinable = comp.vertices
            if comp.kind == PATH:
                heapq.heappush(self.paths, cid)
                joinable = (joinable[0], joinable[-1])
            for edge in self._joins_at(joinable):
                heapq.heappush(self.joins, edge)
        return prims

    def _joins_at(self, vertices):
        """The joinable edges (u, v), u < v, at the given V1 vertices: those
        whose far end is V1 in another component."""
        adj, role, owner = self.g.adj, self.p.role, self.p.owner
        for v in vertices:
            cid = owner[v]
            for x in adj[v]:
                if role[x] != INNER and owner[x] != cid:
                    yield (v, x) if v < x else (x, v)

    def first_join(self) -> tuple[int, int] | None:
        return _first_valid(self.joins, self._is_join)

    def first_closable(self) -> int | None:
        return _first_valid(self.paths, self._is_closable)

    def first_singleton(self) -> int | None:
        return _first_valid(self.singletons, self._is_singleton)

    def classification(self) -> VertexClassification:
        """The live partition's classification."""
        g, p = self.g, self.p
        if self.vc is None:
            self.vc = classify_vertices(g, p, classify_edges(g, p))
            self.derived_failures.reopen(p, self.vc, range(g.n))
        elif self.dirty:
            nbrs = self.vc.free_nbrs
            for v in self.dirty:
                nbrs[v] = [w for w in g.adj[v] if edge_is_free(p, v, w)]
            self.derived_failures.reopen(p, self.vc, reclassify(g, p, self.vc, self.dirty))
        self.dirty = set()
        return self.vc

    def check(self) -> None:
        """Raise MoveEngineError where the basic move, the least singleton or,
        once built, the classification or the derived move differs from one
        computed from scratch."""
        g, p = self.g, self.p
        if moves.find_basic_move(g, p, self) != moves.find_basic_move(g, p):
            raise moves.MoveEngineError("basic-move candidates diverged from a scan of E")
        if self.first_singleton() != (p.role.index(ALONE) if p.singleton_count() else None):
            raise moves.MoveEngineError("singleton candidates diverged from a scan of the roles")
        if self.vc is None:
            return
        vc = self.classification()
        if vc != classify_vertices(g, p, classify_edges(g, p)):
            raise moves.MoveEngineError("incremental classification diverged from scratch")
        if (moves.find_derived_move(g, p, vc, self.derived_failures)
                != moves.find_derived_move(g, p, vc)):
            raise moves.MoveEngineError("derived-scan memory diverged from a full scan")


def _first_valid(heap: list, valid):
    """The least entry of `heap` that passes `valid`, popping the entries
    below it, which fail; None once the heap is empty."""
    while heap:
        if valid(heap[0]):
            return heap[0]
        heapq.heappop(heap)
    return None


def _next_move(g: Graph, p: PathPartition, state: SolveState) -> moves.Move | None:
    """The first applicable move, or None at a fixed point."""
    mv = moves.find_basic_move(g, p, state) or moves.eliminate_singletons(g, p, state)
    if mv:
        return mv
    vc = state.classification()
    return (moves.find_derived_move(g, p, vc, state.derived_failures)
            or moves.find_pair_move(g, p, vc))


def _focus_for(vc: VertexClassification, failing_vertices) -> set[int]:
    """The failing vertices and every vertex within two free edges of them."""
    focus = ring = set(failing_vertices)
    for _ in range(2):
        ring = {w for v in ring for w in vc.free_nbrs[v]}
        focus = focus | ring
    return focus


def canonicalize(g: Graph, p: PathPartition, rules: RuleSet | None = None,
                 record_trace: bool = False, validate_each: bool = False) -> SolveReport:
    """Apply the first available move until none applies, then certify.

    Move priority: basic, singleton elimination, derived, pair exchange. If
    certification fails, a bounded compound search focused on the failing
    components runs at `moves.COMPOUND_DEPTH`, escalating once to two more,
    before giving up and reporting the failing certificate. Every move must
    strictly lower the potential (MoveEngineError otherwise), and with
    `record_trace` each one is traced with its primitives. With
    `validate_each`, every move is followed by a partition validity check and
    `SolveState.check`.
    """
    t0 = time.perf_counter()
    p = p.copy()
    counts: dict[str, int] = {}
    phis = [p.potential()]
    trace: list[dict] = []
    state = SolveState(g, p)

    def apply(mv: moves.Move) -> None:
        prims = state.apply(mv)
        phi_before, phi_after = phis[-1], p.potential()
        if not phi_after < phi_before:
            raise moves.MoveEngineError(
                f"{mv.kind} move does not improve: {phi_before} -> {phi_after}")
        if validate_each:
            ok, viol = validate_partition(g, p)
            if not ok:
                raise moves.MoveEngineError(f"invalid partition after move: {viol}")
            state.check()
        counts[mv.kind] = counts.get(mv.kind, 0) + 1
        phis.append(phi_after)
        if record_trace:
            trace.append({"step": len(trace), "move_kind": mv.kind,
                          "primitives": [list(x) for x in prims],
                          "phi_before": list(phi_before),
                          "phi_after": list(phi_after)})

    def run_loop():
        """Move to a fixed point and return its classification."""
        while True:
            mv = _next_move(g, p, state)
            if mv is None:
                return state.classification()
            apply(mv)

    vc = run_loop()
    report = SolveReport(partition=p, vc=vc, move_counts=counts, wall_time=0.0,
                         potential_trace=phis, trace=trace)

    if rules is None:
        d = infer_degree(g)
        rules = ruleset_for_degree(d) if d in (5, 6) else None
    if rules is not None:
        depth = moves.COMPOUND_DEPTH
        while True:
            ledger = apply_rules(g, p, vc, rules)
            cert = certify(g, p, ledger, rules)
            report.certificate = cert
            report.ledger = ledger
            if cert.verdict:
                break
            failing = [v for viol in cert.violations for v in viol["component"]]
            focus = _focus_for(vc, failing)
            mv = moves.find_compound_move(g, p, depth=depth, focus=focus)
            if mv is None and depth == moves.COMPOUND_DEPTH:
                # the partition is unchanged, so only the search reruns
                depth += 2
                report.escalated = True
                mv = moves.find_compound_move(g, p, depth=depth, focus=focus)
            if mv is None:
                break
            apply(mv)
            vc = run_loop()
            report.vc = vc
    report.wall_time = time.perf_counter() - t0
    return report


def solve(g: Graph, seed: int = 0, rules: RuleSet | None = None,
          record_trace: bool = False) -> SolveReport:
    """Initial partition plus canonicalize, the one-call pipeline."""
    return canonicalize(g, initial_partition(g, seed), rules=rules,
                        record_trace=record_trace)

"""Edge trichotomy and the six-way vertex classification driving the discharge rules."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph
from .partition import CYCLE, PATH, SINGLETON, PathPartition

V1 = "V1"
V2A = "V2a"
V2B = "V2b"
V3 = "V3"
V4 = "V4"
V5 = "V5"

V2_CLASSES = (V2A, V2B)


class CrossCycleError(ValueError):
    """An edge joins two distinct cycle components; the partition is not canonical yet."""

    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"edge {edge} joins two different cycle components")
        self.edge = edge


@dataclass
class EdgeClassification:
    """The free edges of E: those that are neither path nor cycle edges."""

    free_edges: list[tuple[int, int]]


def edge_is_free(p: PathPartition, u: int, v: int) -> bool:
    """Whether (u, v) is free: neither a partition edge of a path nor inside one
    cycle (chords included). CrossCycleError if it joins two distinct cycles."""
    cu, cv = p.owner[u], p.owner[v]
    ku = p.components[cu].kind
    kv = p.components[cv].kind
    if cu == cv and ku == CYCLE:
        return False
    if ku == CYCLE and kv == CYCLE:
        raise CrossCycleError((u, v))
    return not (cu == cv and ku == PATH and p.part_adjacent(u, v))


def classify_edges(g: Graph, p: PathPartition) -> EdgeClassification:
    """Collect the free edges, in edge order.

    Requires no edge between two distinct cycle components (run the solver's
    basic moves first), otherwise CrossCycleError carries the first such edge.
    """
    return EdgeClassification(free_edges=[e for e in g.edges if edge_is_free(p, *e)])


@dataclass
class VertexClassification:
    """First-applicable classes V1/V2a/V2b/V3/V4/V5 plus the V2 refinements.

    V1: path end-vertices, cycle vertices (and singleton vertices, for move
    detection only). V2: path vertices with a free edge into V1, split by
    whether a path neighbor is also V2. V3/V4: path vertices with two/exactly
    one path neighbor in V2. V5: the rest. A balanced edge is a free edge
    joining V2 to V1; each V2 vertex carries its balanced targets split by
    what they land on.
    """

    cls: list[str]
    balanced_path_ends: dict[int, list[int]] = field(default_factory=dict)
    balanced_cycles: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    balanced_singletons: dict[int, list[int]] = field(default_factory=dict)
    moderate: set[int] = field(default_factory=set)
    heavy: set[int] = field(default_factory=set)
    dangerous: set[int] = field(default_factory=set)

    def is_v2(self, v: int) -> bool:
        return self.cls[v] in V2_CLASSES

    def balanced_targets(self, v: int) -> list[int]:
        """All balanced targets of a V2 vertex, sorted."""
        out = list(self.balanced_path_ends.get(v, ()))
        out.extend(t for t, _ in self.balanced_cycles.get(v, ()))
        out.extend(self.balanced_singletons.get(v, ()))
        return sorted(out)


def is_v1(p: PathPartition, v: int) -> bool:
    """v is a path end, a singleton or a cycle vertex: V1, and joinable by a basic move."""
    comp = p.components[p.owner[v]]
    return comp.kind != PATH or v == comp.vertices[0] or v == comp.vertices[-1]


def classify_vertices(g: Graph, p: PathPartition, ec: EdgeClassification) -> VertexClassification:
    free_nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in ec.free_edges:
        free_nbrs[u].append(v)
        free_nbrs[v].append(u)
    vc = VertexClassification(cls=[""] * g.n)
    reclassify(g, p, vc, free_nbrs, [False] * g.n, [False] * g.n, range(g.n))
    return vc


def reclassify(g: Graph, p: PathPartition, vc: VertexClassification, free_nbrs,
               in_v1: list[bool], is_v2: list[bool], dirty) -> None:
    """Bring `vc`, `in_v1` and `is_v2` up to date in place after the vertices in
    `dirty` changed component, kind, end status or free edges (`free_nbrs`
    must be current already); with every vertex dirty this classifies afresh.

    Each layer reaches one hop further: V1 is a vertex's own matter, V2 and the
    balanced targets read its free neighbours, the class reads its path
    neighbours' V2 membership, and dangerous their heavy and moderate marks.
    """
    every = len(dirty) == g.n
    for v in dirty:
        in_v1[v] = is_v1(p, v)
    near = dirty if every else {w for v in dirty for w in (v, *g.adj[v])}
    for v in near:
        is_v2[v] = _balance(p, vc, v, free_nbrs[v], in_v1)
    wide = near if every else {w for v in near for w in (v, *p.path_neighbors(v))}
    for v in wide:
        if in_v1[v]:
            vc.cls[v] = V1
            continue
        nb2 = sum(1 for w in p.path_neighbors(v) if is_v2[w])
        vc.cls[v] = (V2B if nb2 else V2A) if is_v2[v] else (V5, V4, V3)[nb2]
    for v in wide:
        danger = False
        if vc.cls[v] == V3:
            a, b = p.path_neighbors(v)
            danger = ((a in vc.heavy and b in vc.moderate)
                      or (b in vc.heavy and a in vc.moderate))
        (vc.dangerous.add if danger else vc.dangerous.discard)(v)


def _balance(p: PathPartition, vc: VertexClassification, v: int, free_nbrs,
             in_v1: list[bool]) -> bool:
    """Record v's balanced targets and its moderate and heavy marks; True when v is V2."""
    ends, cyc, singles = [], [], []
    if not in_v1[v]:
        for w in free_nbrs:
            if not in_v1[w]:
                continue
            comp = p.components[p.owner[w]]
            if comp.kind == CYCLE:
                cyc.append((w, len(comp.vertices)))
            elif comp.kind == SINGLETON:
                singles.append(w)
            else:
                ends.append(w)
    n_bal = len(ends) + len(cyc) + len(singles)
    if n_bal:
        vc.balanced_path_ends[v] = sorted(ends)
        vc.balanced_cycles[v] = sorted(cyc)
        vc.balanced_singletons[v] = sorted(singles)
    else:
        vc.balanced_path_ends.pop(v, None)
        vc.balanced_cycles.pop(v, None)
        vc.balanced_singletons.pop(v, None)
    (vc.moderate.add if ends and n_bal >= 2 else vc.moderate.discard)(v)
    (vc.heavy.add if len(ends) >= 3 else vc.heavy.discard)(v)
    return n_bal > 0

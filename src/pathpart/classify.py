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


def classify_edges(g: Graph, p: PathPartition) -> EdgeClassification:
    """Collect the free edges.

    Path edges are the partition edges of path components; cycle edges are all
    edges inside one cycle component (chords included); the rest are free.
    Requires no edge between two distinct cycle components (run the solver's
    basic moves first), otherwise CrossCycleError carries the offending edge.
    """
    free = []
    for e in g.edges:
        u, v = e
        cu, cv = p.owner[u], p.owner[v]
        ku = p.components[cu].kind
        kv = p.components[cv].kind
        if cu == cv and ku == CYCLE:
            continue
        if ku == CYCLE and kv == CYCLE:
            raise CrossCycleError(e)
        if not (cu == cv and ku == PATH and p.part_adjacent(u, v)):
            free.append(e)
    return EdgeClassification(free_edges=free)


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


def classify_vertices(g: Graph, p: PathPartition, ec: EdgeClassification) -> VertexClassification:
    cls = [""] * g.n
    in_v1 = [False] * g.n
    for comp in p.components.values():
        if comp.kind == CYCLE:
            for v in comp.vertices:
                in_v1[v] = True
        elif comp.kind == SINGLETON:
            in_v1[comp.vertices[0]] = True
        else:
            in_v1[comp.vertices[0]] = True
            in_v1[comp.vertices[-1]] = True

    free_nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in ec.free_edges:
        free_nbrs[u].append(v)
        free_nbrs[v].append(u)

    is_v2 = [False] * g.n
    for v in range(g.n):
        if in_v1[v]:
            cls[v] = V1
        elif any(in_v1[w] for w in free_nbrs[v]):
            is_v2[v] = True

    for v in range(g.n):
        if cls[v] == V1:
            continue
        nb2 = sum(1 for w in p.path_neighbors(v) if is_v2[w])
        if is_v2[v]:
            cls[v] = V2B if nb2 >= 1 else V2A
        elif nb2 == 2:
            cls[v] = V3
        elif nb2 == 1:
            cls[v] = V4
        else:
            cls[v] = V5

    vc = VertexClassification(cls=cls)
    for v in range(g.n):
        if not is_v2[v]:
            continue
        ends, cyc, singles = [], [], []
        for w in free_nbrs[v]:
            if not in_v1[w]:
                continue
            comp = p.components[p.owner[w]]
            if comp.kind == CYCLE:
                cyc.append((w, len(comp.vertices)))
            elif comp.kind == SINGLETON:
                singles.append(w)
            else:
                ends.append(w)
        vc.balanced_path_ends[v] = sorted(ends)
        vc.balanced_cycles[v] = sorted(cyc)
        vc.balanced_singletons[v] = sorted(singles)
        n_bal = len(ends) + len(cyc) + len(singles)
        if len(ends) >= 1 and n_bal >= 2:
            vc.moderate.add(v)
        if len(ends) >= 3:
            vc.heavy.add(v)

    for v in range(g.n):
        if cls[v] != V3:
            continue
        a, b = p.path_neighbors(v)
        if (a in vc.heavy and b in vc.moderate) or (b in vc.heavy and a in vc.moderate):
            vc.dangerous.add(v)
    return vc

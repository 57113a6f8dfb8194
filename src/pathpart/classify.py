"""Edge trichotomy and the six-way vertex classification driving the discharge rules."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph
from .partition import END, INNER, ON_CYCLE, PathPartition

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


def edge_is_free(p: PathPartition, u: int, v: int) -> bool:
    """Whether (u, v) is free: neither a partition edge of a path nor inside one
    cycle (chords included). CrossCycleError if it joins two distinct cycles."""
    role, owner = p.role, p.owner
    if role[u] == ON_CYCLE and role[v] == ON_CYCLE:
        if owner[u] == owner[v]:
            return False
        raise CrossCycleError((u, v))
    # a path edge joins consecutive vertices of one path; any other edge is free
    return owner[u] != owner[v] or abs(p.pos[u] - p.pos[v]) != 1


def classify_edges(g: Graph, p: PathPartition) -> list[list[int]]:
    """Each vertex's free neighbours, ascending.

    Requires no edge between two distinct cycle components (run the solver's
    basic moves first), otherwise CrossCycleError carries the first such edge
    in edge order.
    """
    free_nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        if edge_is_free(p, u, v):
            free_nbrs[u].append(v)
            free_nbrs[v].append(u)
    return free_nbrs


@dataclass
class VertexClassification:
    """First-applicable classes V1/V2a/V2b/V3/V4/V5 plus the V2 refinements.

    V1: path end-vertices, cycle vertices (and singleton vertices, for move
    detection only). V2: path vertices with a free edge into V1, split by
    whether a path neighbor is also V2. V3/V4: path vertices with two/exactly
    one path neighbor in V2. V5: the rest. A balanced edge is a free edge
    joining V2 to V1. Each V2 vertex has its balanced targets in `balanced`
    and those that are path ends in `balanced_path_ends`, both ascending;
    only V2 vertices have entries in those dicts. `free_nbrs` lists each
    vertex's free neighbours in ascending order.
    """

    cls: list[str]
    free_nbrs: list[list[int]]
    balanced: dict[int, list[int]] = field(default_factory=dict)
    balanced_path_ends: dict[int, list[int]] = field(default_factory=dict)
    moderate: set[int] = field(default_factory=set)
    heavy: set[int] = field(default_factory=set)
    dangerous: set[int] = field(default_factory=set)

    def is_v2(self, v: int) -> bool:
        return self.cls[v] in V2_CLASSES

    def free_edges(self):
        """The free edges (u, v), u < v, in edge order, generated lazily."""
        for u, nbrs in enumerate(self.free_nbrs):
            for v in nbrs:
                if v > u:
                    yield u, v

    def balanced_targets(self, v: int) -> list[int]:
        """All balanced targets of v, ascending (none unless v is V2)."""
        return self.balanced.get(v, [])


def classify_vertices(g: Graph, p: PathPartition,
                      free_nbrs: list[list[int]]) -> VertexClassification:
    """Classify every vertex, given `classify_edges`' free-neighbour lists."""
    vc = VertexClassification(cls=[""] * g.n, free_nbrs=free_nbrs)
    reclassify(g, p, vc, range(g.n))
    return vc


def reclassify(g: Graph, p: PathPartition, vc: VertexClassification, dirty) -> None:
    """Bring `vc` up to date in place after the vertices in `dirty` changed
    component, kind, end status or free edges (`vc.free_nbrs` must be current
    already); with every vertex dirty this classifies afresh.

    Each layer reaches one hop further, and is redone only where its inputs
    changed. V1 status, kind and path neighbours change only at dirty vertices,
    and free edges only at edges with a dirty end. So V2 membership, the
    balanced targets and the heavy and moderate marks, which read a vertex's
    free neighbours and their V1 status and kind, can change only in `near`,
    the dirty vertices and their graph neighbours. The class reads a vertex's
    own V1 status and V2 membership and its path neighbours' V2 membership, and
    dangerous its class and its path neighbours' heavy and moderate marks. Both
    therefore change only at a dirty vertex, at a `near` vertex whose V2
    membership or marks flipped, or at a path neighbour of a flipped one; path
    adjacency is symmetric, so the flipped vertices' path neighbours in the
    current partition are exactly the vertices that read them.
    """
    if len(dirty) == g.n:
        for v in dirty:
            _balance(p, vc, v)
        region = dirty
    else:
        near = {w for v in dirty for w in (v, *g.adj[v])}
        flipped = [v for v in near if _balance(p, vc, v)]
        region = dirty.union(flipped, [w for v in flipped for w in p.path_neighbors(v)])
    v2 = vc.balanced_path_ends  # keyed by exactly the V2 vertices
    role = p.role
    for v in region:
        if role[v] != INNER:
            vc.cls[v] = V1
            continue
        nb2 = sum(1 for w in p.path_neighbors(v) if w in v2)
        vc.cls[v] = (V2B if nb2 else V2A) if v in v2 else (V5, V4, V3)[nb2]
    for v in region:
        danger = False
        if vc.cls[v] == V3:
            a, b = p.path_neighbors(v)
            danger = ((a in vc.heavy and b in vc.moderate)
                      or (b in vc.heavy and a in vc.moderate))
        (vc.dangerous.add if danger else vc.dangerous.discard)(v)


def _balance(p: PathPartition, vc: VertexClassification, v: int) -> bool:
    """Record v's balanced targets and its moderate and heavy marks; whether
    its V2 membership or either mark changed."""
    targets, ends = [], []
    role = p.role
    if role[v] == INNER:
        for w in vc.free_nbrs[v]:  # ascending, so both lists are too
            r = role[w]
            if r != INNER:
                targets.append(w)
                if r == END:
                    ends.append(w)
    was_v2 = v in vc.balanced
    if targets:
        vc.balanced[v] = targets
        vc.balanced_path_ends[v] = ends
    elif was_v2:
        del vc.balanced[v], vc.balanced_path_ends[v]
    moderate = bool(ends) and len(targets) >= 2
    heavy = len(ends) >= 3
    flipped = (was_v2 != bool(targets) or moderate != (v in vc.moderate)
               or heavy != (v in vc.heavy))
    (vc.moderate.add if moderate else vc.moderate.discard)(v)
    (vc.heavy.add if heavy else vc.heavy.discard)(v)
    return flipped

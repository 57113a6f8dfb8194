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


def edge_is_free(p: PathPartition, u: int, v: int) -> bool:
    """Whether (u, v) is free: neither a partition edge of a path nor an edge
    between two vertices of one cycle (chords included). An edge between two
    different cycles is free."""
    if p.owner[u] != p.owner[v]:
        return True
    # inside one component: every edge of a cycle is used, and of a path only
    # those joining consecutive vertices
    return p.role[u] != ON_CYCLE and abs(p.pos[u] - p.pos[v]) != 1


def classify_edges(g: Graph, p: PathPartition) -> list[list[int]]:
    """Each vertex's free neighbours, ascending."""
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
    only V2 vertices have entries in those dicts. A V2 vertex is moderate if
    it has a balanced target that is a path end and at least two balanced
    targets, and heavy if at least three of its balanced targets are path
    ends. A V3 vertex is dangerous if one of its path neighbours is heavy and
    the other moderate. `free_nbrs` lists each vertex's free neighbours in
    ascending order.
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


def reclassify(g: Graph, p: PathPartition, vc: VertexClassification, dirty):
    """Bring `vc` up to date in place after the vertices in `dirty` changed
    component, kind, end status or free edges (`vc.free_nbrs` must be current
    already); `classify_vertices` runs it with every vertex dirty. Returns
    the region whose classes and dangerous marks it recomputed.

    Each layer reaches one hop further, and is redone only where its inputs
    changed. V1 status, kind and path neighbours change only at dirty vertices,
    and free edges only at edges with a dirty end. So V2 membership, the
    balanced targets and the heavy and moderate marks, which read a vertex's
    free neighbours and their V1 status and kind, can change only in `near`,
    the dirty vertices and their graph neighbours; one loop over `near` redoes
    them and notes the vertices where any of the three flipped. The class
    reads a vertex's own V1 status and V2 membership and its path neighbours'
    V2 membership, and dangerous its class and its path neighbours' heavy and
    moderate marks. Both therefore change only at a dirty vertex, at a flipped
    vertex, or at a path neighbour of a flipped one; path adjacency is
    symmetric, so the flipped vertices' path neighbours in the current
    partition are exactly the vertices that read them. A second loop redoes
    both there, reading an interior vertex's two path neighbours from its
    component's vertex list.
    """
    full = len(dirty) == g.n
    near = dirty
    if not full:
        near = set(dirty)
        for v in dirty:
            near.update(g.adj[v])
    role, free_nbrs = p.role, vc.free_nbrs
    balanced, v2, moderate, heavy = vc.balanced, vc.balanced_path_ends, vc.moderate, vc.heavy
    flipped = []
    for v in near:
        # free_nbrs[v] ascends, so the targets and their path ends do too
        targets = [w for w in free_nbrs[v] if role[w] != INNER] if role[v] == INNER else ()
        if not targets:
            if v in balanced:  # no longer V2, so neither moderate nor heavy
                del balanced[v], v2[v]
                moderate.discard(v)
                heavy.discard(v)
                flipped.append(v)
            continue
        ends = [w for w in targets if role[w] == END]
        is_moderate = bool(ends) and len(targets) >= 2
        is_heavy = len(ends) >= 3
        if (v not in balanced or is_moderate != (v in moderate)
                or is_heavy != (v in heavy)):
            flipped.append(v)
            (moderate.add if is_moderate else moderate.discard)(v)
            (heavy.add if is_heavy else heavy.discard)(v)
        balanced[v] = targets
        v2[v] = ends
    region = dirty if full else dirty.union(
        flipped, [w for v in flipped for w in p.path_neighbors(v)])
    cls, dangerous = vc.cls, vc.dangerous
    comps, owner, pos = p.components, p.owner, p.pos
    for v in region:
        danger = False
        if role[v] != INNER:
            cls[v] = V1
        else:
            verts, i = comps[owner[v]].vertices, pos[v]
            a, b = verts[i - 1], verts[i + 1]
            if v in v2:
                cls[v] = V2B if a in v2 or b in v2 else V2A
            elif a in v2 and b in v2:
                cls[v] = V3
                danger = (a in heavy and b in moderate) or (b in heavy and a in moderate)
            else:
                cls[v] = V4 if a in v2 or b in v2 else V5
        (dangerous.add if danger else dangerous.discard)(v)
    return region

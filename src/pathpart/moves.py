"""Partition rewiring: edit primitives, the move catalog, and bounded search.

Every move is decided on the live partition as a list of steps that name
vertices, and built once, by `apply_move`, into primitives that keep the
partition valid and strictly decrease the lexicographic potential
(components, -cycles, singletons).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass

from .classify import V2A, V5, VertexClassification, is_v1
from .graphs import Graph
from .partition import CYCLE, PATH, SINGLETON, Component, PathPartition


# search budgets: singleton-shift states expanded, compound-search nodes; and
# the compound search's depth before its one escalation to depth + 2
SHIFT_STATE_BUDGET = 100000
COMPOUND_NODE_BUDGET = 20000
COMPOUND_DEPTH = 4


class MoveEngineError(RuntimeError):
    pass


class SingletonEliminationError(MoveEngineError):
    """The singleton-shift search closed without an improving move.

    Unreachable for regular input by a degree-counting argument; seeing it
    means a bug or an invalid instance.
    """


@dataclass
class Move:
    """A decided move: `_Builder` steps that name vertices, e.g.
    `("split_at", (a, b))`, `("join", (u, v))`, `("close_of", (v,))` or
    `("attach", (u, t))`. Nothing is built until `apply_move` runs them."""

    kind: str
    steps: list[tuple]


# -- primitive application --------------------------------------------------

def apply_primitive(g: Graph, p: PathPartition, prim: tuple) -> set[int]:
    """Apply one primitive in place and return the vertices it touched: the
    split pair or the joined pair (every new piece holds one), or the whole
    component for a close or an open."""
    op = prim[0]
    if op == "split":
        _, cid, a, b = prim
        if not p.owner.get(a) == p.owner.get(b) == cid:
            raise MoveEngineError(f"split pair ({a}, {b}) not in component {cid}")
        comp = p.components[cid]
        if comp.kind != PATH:
            raise MoveEngineError(f"split on non-path component {cid}")
        i, j = p.pos[a], p.pos[b]
        if abs(i - j) != 1:
            raise MoveEngineError(f"split at non-consecutive pair ({a}, {b})")
        cut = max(i, j)
        verts = comp.vertices
        p.remove(cid)
        for piece in (verts[:cut], verts[cut:]):
            p.add(Component(SINGLETON if len(piece) == 1 else PATH, piece))
        return {a, b}
    if op == "join":
        _, u, v = prim
        cu, cv = p.owner[u], p.owner[v]
        if cu == cv:
            raise MoveEngineError(f"join inside one component ({u}, {v})")
        if not (p.is_end(u) and p.is_end(v) and g.has_edge(u, v)):
            raise MoveEngineError(f"illegal join ({u}, {v})")
        a = p.remove(cu).vertices
        b = p.remove(cv).vertices
        if a[-1] != u:
            a.reverse()
        if b[0] != v:
            b.reverse()
        p.add(Component(PATH, a + b))
        return {u, v}
    if op == "close":
        _, cid = prim
        comp = p.components[cid]
        verts = comp.vertices
        if comp.kind != PATH or len(verts) < 3 or not g.has_edge(verts[0], verts[-1]):
            raise MoveEngineError(f"illegal close of component {cid}")
        comp.kind = CYCLE
        return set(verts)
    if op == "open":
        _, cid, a, b = prim
        if not p.owner.get(a) == p.owner.get(b) == cid:
            raise MoveEngineError(f"open pair ({a}, {b}) not in component {cid}")
        comp = p.components[cid]
        if comp.kind != CYCLE:
            raise MoveEngineError(f"open on non-cycle component {cid}")
        verts = comp.vertices
        k = len(verts)
        i, j = p.pos[a], p.pos[b]
        if (i + 1) % k == j:
            start = j
        elif (j + 1) % k == i:
            start = i
        else:
            raise MoveEngineError(f"open at non-cycle-edge ({a}, {b})")
        p.remove(cid)
        p.add(Component(PATH, [verts[(start + t) % k] for t in range(k)]))
        return set(verts)
    raise MoveEngineError(f"unknown primitive {prim!r}")


def apply_move(g: Graph, p: PathPartition, move: Move) -> tuple[list[tuple], set[int]]:
    """Build the move in place: the primitives its steps applied, and the
    vertices those touched."""
    bld = _Builder(g, p)
    bld.run(move.steps)
    return bld.prims, bld.touched


class _Builder:
    """Runs steps on `p` in place, recording the primitives they apply and the
    vertices those touched.

    `apply_move` builds every applied move this way, on the live partition.
    The singleton shift and compound searches build each state they expand,
    on a copy of the state they expand it from.
    """

    def __init__(self, g: Graph, p: PathPartition):
        self.g = g
        self.p = p
        self.prims: list[tuple] = []
        self.touched: set[int] = set()

    def _do(self, prim: tuple) -> None:
        self.touched |= apply_primitive(self.g, self.p, prim)
        self.prims.append(prim)

    def run(self, steps) -> None:
        """Run `(method name, args)` steps, e.g. `("join", (u, v))`."""
        for name, args in steps:
            getattr(self, name)(*args)

    def split_at(self, a: int, b: int) -> None:
        self._do(("split", self.p.owner[a], a, b))

    def join(self, u: int, v: int) -> None:
        self._do(("join", u, v))

    def open_at(self, v: int) -> None:
        # cut the cycle edge toward v's smaller cyclic neighbor; v becomes an end
        nb = min(self.p.path_neighbors(v))
        self._do(("open", self.p.owner[v], v, nb))

    def open_edge(self, a: int, b: int) -> None:
        self._do(("open", self.p.owner[a], a, b))

    def close_of(self, v: int) -> None:
        self._do(("close", self.p.owner[v]))

    def attach(self, u: int, t: int) -> None:
        """Join u to t, opening t's cycle first when needed. Consumes edge (u, t)."""
        if self.p.components[self.p.owner[t]].kind == CYCLE:
            self.open_at(t)
        self.join(u, t)


# -- basic moves -------------------------------------------------------------

def joinable(p: PathPartition, u: int, v: int) -> bool:
    """A basic move can join u and v: different components, both in V1."""
    return p.owner[u] != p.owner[v] and is_v1(p, u) and is_v1(p, v)


def closable(g: Graph, p: PathPartition, cid: int) -> bool:
    """Component cid exists and is a path of 3 or more whose ends are adjacent."""
    comp = p.components.get(cid)
    return (comp is not None and comp.kind == PATH and len(comp.vertices) >= 3
            and g.has_edge(comp.vertices[0], comp.vertices[-1]))


def find_basic_move(g: Graph, p: PathPartition, candidates=None) -> Move | None:
    """First component-reducing join in edge order (path ends, singletons,
    cycle openings, two-cycle merges), else the first path by id closable into
    a cycle.

    Without `candidates` both are found by scanning E and the components. With
    them, `candidates.first_join()` and `candidates.first_closable()` must
    return the same edge and id (see solver.SolveState).
    """
    if candidates is None:
        edge = next((e for e in g.edges if joinable(p, *e)), None)
    else:
        edge = candidates.first_join()
    if edge is not None:
        opens = [("open_at", (x,)) for x in edge if p.kind_of(x) == CYCLE]
        return Move("basic", opens + [("join", edge)])
    if candidates is None:
        cid = next((c for c in p.sorted_ids() if closable(g, p, c)), None)
    else:
        cid = candidates.first_closable()
    if cid is None:
        return None
    return Move("basic", [("close_of", (p.components[cid].vertices[0],))])


# -- singleton elimination ----------------------------------------------------

def _partition_signature(p: PathPartition) -> frozenset:
    out = []
    for comp in p.components.values():
        seq = tuple(comp.vertices)
        if comp.kind != CYCLE and seq[0] > seq[-1]:
            seq = seq[::-1]
        out.append((comp.kind, seq))
    return frozenset(out)


def eliminate_singletons(g: Graph, p: PathPartition) -> Move | None:
    """Absorb one singleton via the shift search.

    A singleton adjacent to an end, a cycle, or a splittable path interior is
    absorbed outright. Otherwise every neighbor is the middle of a size-3
    path; shifting the singleton to such a path's end costs nothing, and the
    search explores shift sequences breadth-first until an absorbing position
    appears, building each shifted state on a copy. Returns None when the
    partition has no singleton.
    """
    v0 = min((c.vertices[0] for c in p.components.values() if c.kind == SINGLETON),
             default=None)
    if v0 is None:
        return None
    queue = deque([(p, v0, [])])
    seen = {(v0, _partition_signature(p))}
    expanded = 0
    while queue:
        state, v, prefix = queue.popleft()
        expanded += 1
        if expanded > SHIFT_STATE_BUDGET:
            raise SingletonEliminationError("singleton shift search budget exceeded")
        for w in g.adj[v]:
            kw = state.components[state.owner[w]].kind
            if kw == SINGLETON or (kw == PATH and state.is_end(w)):
                return Move("singleton", prefix + [("join", (v, w))])
            if kw == CYCLE:
                return Move("singleton", prefix + [("attach", (v, w))])
        for w in g.adj[v]:
            comp = state.components[state.owner[w]]
            if comp.kind != PATH or state.is_end(w) or len(comp.vertices) < 4:
                continue
            verts = comp.vertices
            i = state.pos[w]
            cut = (w, verts[i + 1]) if i <= len(verts) - 3 else (verts[i - 1], w)
            return Move("singleton", prefix + [("split_at", cut), ("join", (v, w))])
        for w in g.adj[v]:
            comp = state.components[state.owner[w]]
            if comp.kind != PATH or len(comp.vertices) != 3 or state.pos[w] != 1:
                continue
            x, _, z = comp.vertices
            for popped, cut in ((x, (x, w)), (z, (w, z))):
                steps = [("split_at", cut), ("join", (v, w))]
                shifted = state.copy()
                _Builder(g, shifted).run(steps)
                key = (popped, _partition_signature(shifted))
                if key not in seen:
                    seen.add(key)
                    queue.append((shifted, popped, prefix + steps))
    raise SingletonEliminationError(
        f"no absorbing position reachable from singleton {v0}")


# -- derived moves -------------------------------------------------------------

class _CutView:
    """The pieces that cutting (sa, a) and (sb, b) and then joining a-b would
    make, read from positions on the live partition instead of built.

    A cut path falls into segments (cid, lo, hi) of its vertex list; every
    other component is one segment. A vertex's piece after the build is its
    segment, or JOIN for the segments of a and b, which the join merges.
    """

    JOIN = "join"

    def __init__(self, p: PathPartition, sa: int, a: int, sb: int, b: int):
        self.p = p
        self.bounds: dict[int, list[int]] = {}
        for s, x in ((sa, a), (sb, b)):
            cid = p.owner[x]
            bounds = self.bounds.setdefault(cid, [0, len(p.components[cid].vertices)])
            insort(bounds, max(p.pos[s], p.pos[x]))  # split's cut index
        self.joined = (self._segment(a), self._segment(b))
        # the joined path runs from a's far end to b's far end
        self.ends = (self._far(self.joined[0], a), self._far(self.joined[1], b))

    def _segment(self, v: int) -> tuple[int, int, int]:
        cid = self.p.owner[v]
        bounds = self.bounds.get(cid)
        if bounds is None:
            return (cid, 0, len(self.p.components[cid].vertices))
        k = bisect_right(bounds, self.p.pos[v])
        return (cid, bounds[k - 1], bounds[k])

    def _far(self, seg: tuple[int, int, int], v: int) -> int:
        cid, lo, hi = seg
        verts = self.p.components[cid].vertices
        return verts[hi - 1] if verts[lo] == v else verts[lo]

    def owner(self, v: int):
        """v's piece after the build, comparable with other pieces only."""
        seg = self._segment(v)
        return self.JOIN if seg in self.joined else seg

    def other_end(self, v: int) -> int:
        """The far end of the piece end-vertex v lies on (v for a singleton)."""
        seg = self._segment(v)
        if seg in self.joined:
            return self.ends[1] if v == self.ends[0] else self.ends[0]
        return self._far(seg, v)

    def is_cycle(self, v: int) -> bool:
        """v's component is a cycle (the cuts and the join touch only paths)."""
        return self.p.components[self.p.owner[v]].kind == CYCLE


def _plan_reconnection(view: _CutView, w1: int, w2: int,
                         vc: VertexClassification) -> list[tuple] | None:
    """Plan the steps that turn a one-extra-component split into an improving
    move, or None.

    w1, w2 are the freshly exposed ends (V2 in the source partition). Succeeds
    whenever one of them is heavy; otherwise opportunistically.
    """
    if w2 in vc.heavy and w1 not in vc.heavy:
        w1, w2 = w2, w1
    x1, x2 = w1, w2
    q1 = view.owner(x1)
    t1 = vc.balanced_path_ends.get(x1, [])
    t2 = vc.balanced_targets(x2)
    if view.owner(x2) == q1:
        # both new ends on one piece (or a single popped vertex)
        for ox2 in t2:
            c2 = view.owner(ox2)
            if c2 == q1:
                continue
            for ox1 in t1:
                if ox1 == ox2 or view.owner(ox1) in (q1, c2):
                    continue
                return [("attach", (x2, ox2)), ("attach", (x1, ox1))]
        return None
    q2 = view.owner(x2)
    o1 = view.other_end(x1)
    o2 = view.other_end(x2)
    for ox2 in t2:
        c2 = view.owner(ox2)
        if c2 == q2:
            # ox2 == o2: the x2 piece closes into a cycle; merge the x1 piece away
            ox1 = next((t for t in t1 if t not in (o1, o2)), None)
            if ox1 is None:
                continue
            return [("close_of", (x2,)), ("attach", (x1, ox1))]
        if c2 == q1:
            # ox2 == o1: chain the two pieces, then merge outward
            ox1 = next((t for t in t1 if t not in (o1, o2)), None)
            if ox1 is None:
                continue
            return [("join", (x2, ox2)), ("attach", (x1, ox1))]
        # closing the x1 piece only pays when no cycle was spent absorbing the
        # x2 piece, so demand a plain join target in that case
        if view.is_cycle(ox2):
            ox1 = next((t for t in t1 if t not in (ox2, o1)), None)
        else:
            ox1 = next((t for t in t1 if t != ox2), None)
        if ox1 is None:
            continue
        return [("attach", (x2, ox2)),
                ("close_of", (x1,)) if ox1 == o1 else ("attach", (x1, ox1))]
    return None


# an interior vertex of these classes has no V2 path neighbour to cut at
_NO_V2_NEIGHBOUR = (V2A, V5)


def find_derived_move(g: Graph, p: PathPartition, vc: VertexClassification,
                      failures: dict | None = None) -> Move | None:
    """Split one or two paths around a free edge so that both new end-vertices
    are V2, then reconnect the pieces into fewer components (or equal
    components with one more cycle). Also covers the dangerous-vertex
    configurations whose balanced edges point the wrong way.

    Each candidate is decided on a `_CutView` of the live partition; nothing
    is built. With `failures` (see solver.SolveState), a free edge that
    decided a view and found no move is recorded with the components its
    verdict read, `_watches`, and skipped while each is alive with the same
    kind; the scan still returns the first hit in edge order.
    """
    cls = vc.cls
    comps = p.components
    for a, b in vc.free_edges():
        if cls[a] in _NO_V2_NEIGHBOUR or cls[b] in _NO_V2_NEIGHBOUR:
            continue
        if comps[p.owner[a]].kind != PATH or comps[p.owner[b]].kind != PATH:
            continue
        if failures is not None:
            watches = failures.get((a, b))
            if watches is not None and all(
                    cid in comps and comps[cid].kind == kind for cid, kind in watches):
                continue
        same = p.owner[a] == p.owner[b]
        viewed = False
        for sa in p.path_neighbors(a):
            if not vc.is_v2(sa):
                continue
            for sb in p.path_neighbors(b):
                if not vc.is_v2(sb):
                    continue
                if same:
                    pa, pb = p.pos[a], p.pos[b]
                    lo_v, lo_p, hi_v, hi_p = (a, pa, b, pb) if pa < pb else (b, pb, a, pa)
                    s_lo = sa if lo_v == a else sb
                    s_hi = sb if lo_v == a else sa
                    # both cuts facing outward would close the middle into a cycle
                    if p.pos[s_lo] < lo_p and p.pos[s_hi] > hi_p:
                        continue
                viewed = True
                steps = _plan_reconnection(_CutView(p, sa, a, sb, b), sa, sb, vc)
                if steps is not None:
                    return Move("derived", [("split_at", (sa, a)), ("split_at", (sb, b)),
                                            ("join", (a, b))] + steps)
        # an edge rejected before any view is cheaper to re-check than to watch
        if viewed and failures is not None:
            failures[a, b] = _watches(g, p, a, b)
    steps = _find_dangerous_move(p, vc)
    return None if steps is None else Move("derived", steps)


def _watches(g: Graph, p: PathPartition, a: int, b: int) -> list[tuple[int, str]]:
    """(cid, kind) of every component the verdict on free edge (a, b) reads:
    those of a and b, which hold the cuts, the pieces and the path neighbours,
    and those of each path neighbour's graph neighbours, which decide its V2
    class, heavy mark and balanced targets and own the targets the
    reconnection reads. A split, join or open makes a fresh id and a close
    changes the kind, so while these all stand the verdict stands."""
    cids = {p.owner[a], p.owner[b]}
    for x in (a, b):
        for s in p.path_neighbors(x):
            cids.update(p.owner[w] for w in g.adj[s])
    return [(cid, p.components[cid].kind) for cid in cids]


def _find_dangerous_move(p, vc):
    """Reconnections for the one free-edge shape a dangerous vertex may keep.

    For heavy x1 next to dangerous v3 with a free edge (v3, u) into a vertex
    with one V2 path neighbor x2 beyond it, the partition is only stable if
    x2's sole balanced edge and all of the far neighbor y1's balanced path
    edges land on the end beyond x2. Any other target yields a rewiring.
    """
    for v3 in sorted(vc.dangerous):
        nbrs = p.path_neighbors(v3)
        for x1 in sorted(nbrs):
            if x1 not in vc.heavy:
                continue
            y1 = nbrs[0] if nbrs[1] == x1 else nbrs[1]
            cid = p.owner[v3]
            verts = p.components[cid].vertices
            i3 = p.pos[v3]
            sign = 1 if p.pos[y1] > i3 else -1
            o2 = verts[-1] if sign > 0 else verts[0]
            o1 = verts[0] if sign > 0 else verts[-1]
            for u in vc.free_nbrs[v3]:
                if p.owner[u] != cid or (p.pos[u] - i3) * sign <= 0:
                    continue
                v2nb = [w for w in p.path_neighbors(u) if vc.is_v2(w)]
                if len(v2nb) != 1:
                    continue
                x2 = v2nb[0]
                if (p.pos[x2] - p.pos[u]) * sign <= 0:
                    continue
                steps = (_stray_inner_anchor_move(p, vc, v3, x1, y1, u, x2, o1, o2)
                         or _stray_far_neighbor_move(vc, v3, x1, y1, u, x2, o1, o2))
                if steps:
                    return steps
    return None


def _heavy_external_target(vc, x1, exclude):
    return next((t for t in vc.balanced_path_ends.get(x1, []) if t not in exclude), None)


def _stray_inner_anchor_move(p, vc, v3, x1, y1, u, x2, o1, o2):
    # every balanced edge of x2 must go to o2
    for t in vc.balanced_targets(x2):
        if t == o2:
            continue
        if t == o1:
            # rotate the path so y1 becomes an end, then use a spare balanced edge of y1
            s = next((s for s in vc.balanced_targets(y1) if s != o1), None)
            if s is None:
                return None
            return [("split_at", (v3, y1)), ("split_at", (u, x2)), ("join", (x2, o1)),
                    ("join", (v3, u)),
                    ("close_of", (y1,)) if s == o2 else ("attach", (y1, s))]
        if p.components[p.owner[t]].kind == CYCLE:
            oy = next(iter(vc.balanced_path_ends.get(y1, [])), None)
            if oy is None:
                return None
            if oy != o1:
                return [("split_at", (v3, y1)), ("split_at", (u, x2)), ("join", (v3, u)),
                        ("join", (y1, oy)), ("attach", (x2, t))]
            ox1 = _heavy_external_target(vc, x1, (o1, o2))
            if ox1 is None:
                return None
            return [("split_at", (x1, v3)), ("split_at", (v3, y1)), ("split_at", (u, x2)),
                    ("join", (x1, ox1)), ("join", (y1, o1)), ("join", (v3, u)),
                    ("attach", (x2, t))]
        # t is an end of an external path: free the middle as a new cycle
        ox1 = _heavy_external_target(vc, x1, (o1, t))
        if ox1 is None:
            return None
        return [("split_at", (x1, v3)), ("split_at", (u, x2)), ("close_of", (v3,)),
                ("join", (x1, ox1)), ("join", (x2, t))]
    return None


def _stray_far_neighbor_move(vc, v3, x1, y1, u, x2, o1, o2):
    # given x2 anchored to o2, y1's balanced path edges must also go to o2
    if o2 not in vc.balanced_targets(x2):
        return None
    for t in vc.balanced_path_ends.get(y1, []):
        if t == o2:
            continue
        if t != o1:
            return [("split_at", (v3, y1)), ("split_at", (u, x2)), ("join", (v3, u)),
                    ("join", (y1, t)), ("close_of", (x2,))]
        ox1 = _heavy_external_target(vc, x1, (o1, o2))
        if ox1 is None:
            return None
        return [("split_at", (x1, v3)), ("split_at", (v3, y1)), ("split_at", (u, x2)),
                ("join", (x1, ox1)), ("join", (y1, o1)), ("join", (v3, u)),
                ("close_of", (x2,))]
    return None


# -- adjacent-V2-pair exchanges ------------------------------------------------

def _target_kinds(p, vc, v, o1, o2):
    out = []
    for t in vc.balanced_targets(v):
        if t == o1:
            out.append((t, "o1"))
        elif t == o2:
            out.append((t, "o2"))
        else:
            kind = p.components[p.owner[t]].kind
            if kind == CYCLE:
                out.append((t, "cyc"))
            elif kind == PATH:
                out.append((t, "ext"))
    return out


def _cycle_adjacent(p, t, t2):
    cid = p.owner[t]
    if cid != p.owner[t2] or t == t2:
        return False
    k = len(p.components[cid].vertices)
    return (p.pos[t] - p.pos[t2]) % k in (1, k - 1)


def find_pair_move(g: Graph, p: PathPartition, vc: VertexClassification) -> Move | None:
    """Exchanges for adjacent V2 pairs whose balanced targets are incompatible.

    On a path o1..a b..o2 with a, b in V2, the only target pairs a stable
    partition can keep are: both to the same end, a to the near end with b to
    an end or a cycle (and mirrored), both to one external end, or both into
    one cycle at non-consecutive vertices. Every other combination rewires
    into fewer components or one more cycle, as does a-to-o1/b-to-o2 with a
    heavy vertex elsewhere on the path.
    """
    for cid in p.sorted_ids():
        comp = p.components[cid]
        if comp.kind != PATH or len(comp.vertices) < 4:
            continue
        verts = comp.vertices
        o1, o2 = verts[0], verts[-1]
        for i in range(1, len(verts) - 2):
            a, b = verts[i], verts[i + 1]
            if not (vc.is_v2(a) and vc.is_v2(b)):
                continue
            for ta, ka in _target_kinds(p, vc, a, o1, o2):
                for tb, kb in _target_kinds(p, vc, b, o1, o2):
                    steps = _pair_exchange(p, a, b, o1, o2, ta, ka, tb, kb)
                    if steps:
                        return Move("pair", steps)
            steps = _splitting_inners_move(p, vc, verts, i, a, b, o1, o2)
            if steps:
                return Move("pair", steps)
    return None


def _pair_exchange(p, a, b, o1, o2, ta, ka, tb, kb):
    split = ("split_at", (a, b))
    if ka == "o2":
        if kb == "o2":
            return None
        return [split, ("join", (a, o2)),
                ("close_of", (b,)) if kb == "o1" else ("attach", (b, tb))]
    if ka == "o1":
        if kb != "ext":
            return None
        return [split, ("close_of", (a,)), ("join", (b, tb))]
    if ka == "cyc":
        if kb == "o2":
            return None
        if kb == "cyc":
            if p.owner[ta] == p.owner[tb]:
                if not _cycle_adjacent(p, ta, tb):
                    return None
                return [("open_edge", (ta, tb)), split, ("join", (a, ta)), ("join", (b, tb))]
            return [split, ("attach", (a, ta)), ("attach", (b, tb))]
        if kb == "o1":
            return [split, ("join", (b, o1)), ("attach", (a, ta))]
        return [split, ("attach", (a, ta)), ("join", (b, tb))]
    # ka == "ext"
    if kb == "ext" and tb == ta:
        return None
    if kb == "o1":
        return [split, ("join", (b, o1)), ("join", (a, ta))]
    if kb == "o2":
        return [split, ("join", (a, ta)), ("close_of", (b,))]
    return [split, ("join", (a, ta)), ("attach", (b, tb))]


def _splitting_inners_move(p, vc, verts, i, a, b, o1, o2):
    if o1 not in vc.balanced_targets(a) or o2 not in vc.balanced_targets(b):
        return None
    for hu in verts[1:i]:
        if hu not in vc.heavy:
            continue
        t = _heavy_external_target(vc, hu, (o1, o2))
        if t is None:
            continue
        return [("split_at", (a, b)), ("close_of", (b,)),
                ("split_at", (hu, verts[p.pos[hu] + 1])), ("join", (a, o1)), ("join", (hu, t))]
    for hu in verts[i + 2:-1]:
        if hu not in vc.heavy:
            continue
        t = _heavy_external_target(vc, hu, (o1, o2))
        if t is None:
            continue
        return [("split_at", (a, b)), ("close_of", (a,)),
                ("split_at", (verts[p.pos[hu] - 1], hu)), ("join", (b, o2)), ("join", (hu, t))]
    return None


# -- bounded generic search ------------------------------------------------------

def find_compound_move(g: Graph, p: PathPartition, depth: int = COMPOUND_DEPTH,
                       focus: set[int] | None = None) -> Move | None:
    """Iterative-deepening search over rewiring steps seeded at free edges
    incident to the focus set.

    Depth counts the free edges a move consumes (one per join or close);
    splits and cycle openings are enablers and cost nothing. At depth 1 this
    finds a move exactly when find_basic_move does.
    """
    phi0 = p.potential()
    budget = [COMPOUND_NODE_BUDGET]
    for limit in range(1, depth + 1):
        steps = _compound_dfs(g, p, phi0, limit, focus, budget)
        if steps is not None:
            return Move("compound", steps)
        if budget[0] <= 0:
            break
    return None


def _end_variants(state, v):
    """Step prefixes that leave v joinable: none, a split, or a cycle opening."""
    comp = state.components[state.owner[v]]
    if comp.kind == SINGLETON or (comp.kind == PATH and state.is_end(v)):
        return [[]]
    if comp.kind == CYCLE:
        n1, n2 = state.path_neighbors(v)
        return [[("open_edge", (v, n1))], [("open_edge", (v, n2))]]
    n1, n2 = state.path_neighbors(v)
    return [[("split_at", (n1, v))], [("split_at", (v, n2))]]


def _edge_steps(state, u, v):
    """Ways to consume free edge (u, v): joins after enablers, or a closure."""
    cu, cv = state.owner[u], state.owner[v]
    if cu == cv:
        comp = state.components[cu]
        if comp.kind != PATH:
            return
        verts = comp.vertices
        plo, phi_ = sorted((state.pos[u], state.pos[v]))
        if phi_ - plo < 2:
            return
        # curl the u..v stretch into a cycle, shedding the outside stubs
        step = []
        if plo > 0:
            step.append(("split_at", (verts[plo - 1], verts[plo])))
        if phi_ < len(verts) - 1:
            step.append(("split_at", (verts[phi_], verts[phi_ + 1])))
        step.append(("close_of", (u,)))
        yield step
        return
    for var_u in _end_variants(state, u):
        for var_v in _end_variants(state, v):
            yield var_u + var_v + [("join", (u, v))]


def _compound_dfs(g, state, phi0, remaining, focus, budget):
    """Steps from `state` to a partition below phi0, each state built on a copy."""
    for u, v in g.edges:
        if focus is not None and u not in focus and v not in focus:
            continue
        if state.part_adjacent(u, v):
            continue
        if (state.owner[u] == state.owner[v]
                and state.components[state.owner[u]].kind == CYCLE):
            continue
        for step in _edge_steps(state, u, v):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            nxt = state.copy()
            try:
                _Builder(g, nxt).run(step)
            except MoveEngineError:
                continue
            if nxt.potential() < phi0:
                return step
            if remaining > 1:
                rest = _compound_dfs(g, nxt, phi0, remaining - 1, focus, budget)
                if rest is not None:
                    return step + rest
    return None

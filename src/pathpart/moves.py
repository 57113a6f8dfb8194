"""Partition rewiring: edit primitives, the move catalog, and bounded search.

Every move is decided on the live partition as a list of steps that name
vertices, and built once, by `apply_move`, into primitives that keep the
partition valid and strictly decrease the lexicographic potential
(components, -cycles, singletons).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import chain

from .classify import V2_CLASSES, V2A, V5, VertexClassification, edge_is_free
from .graphs import Graph
from .partition import (ALONE, CYCLE, END, INNER, ON_CYCLE, PATH, SINGLETON, Component,
                        PathPartition)


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
    `("attach", (u, t))`, a join that first opens t's cycle when t is on one.
    Nothing is built until `apply_move` runs them."""

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
        if not p.owner_of(a) == p.owner_of(b) == cid:
            raise MoveEngineError(f"split pair ({a}, {b}) not in component {cid}")
        comp = p.components[cid]
        if comp.kind != PATH:
            raise MoveEngineError(f"split on non-path component {cid}")
        i, j = p.pos[a], p.pos[b]
        if abs(i - j) != 1:
            raise MoveEngineError(f"split at non-consecutive pair ({a}, {b})")
        cut = max(i, j)
        verts = comp.vertices
        p.replace([cid], [Component(SINGLETON if len(piece) == 1 else PATH, piece)
                          for piece in (verts[:cut], verts[cut:])])
        return {a, b}
    if op == "join":
        _, u, v = prim
        cu, cv = p.owner_of(u), p.owner_of(v)
        if cu is None or cv is None:
            raise MoveEngineError(f"join of a vertex outside the partition ({u}, {v})")
        if cu == cv:
            raise MoveEngineError(f"join inside one component ({u}, {v})")
        if not (p.is_end(u) and p.is_end(v) and g.has_edge(u, v)):
            raise MoveEngineError(f"illegal join ({u}, {v})")
        a = p.components[cu].vertices
        b = p.components[cv].vertices
        if a[-1] != u:
            a.reverse()
        if b[0] != v:
            b.reverse()
        p.replace([cu, cv], [Component(PATH, a + b)])
        return {u, v}
    if op == "close":
        _, cid = prim
        if cid not in p.components:
            raise MoveEngineError(f"close of missing component {cid}")
        comp = p.components[cid]
        verts = comp.vertices
        if comp.kind != PATH or len(verts) < 3 or not g.has_edge(verts[0], verts[-1]):
            raise MoveEngineError(f"illegal close of component {cid}")
        p.set_kind(cid, CYCLE)
        return set(verts)
    if op == "open":
        _, cid, a, b = prim
        if not p.owner_of(a) == p.owner_of(b) == cid:
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
        p.replace([cid], [Component(PATH, verts[start:] + verts[:start])])
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
        self.open_edge(v, min(self.p.path_neighbors(v)))

    def open_edge(self, a: int, b: int) -> None:
        self._do(("open", self.p.owner[a], a, b))

    def close_of(self, v: int) -> None:
        self._do(("close", self.p.owner[v]))

    def attach(self, u: int, t: int) -> None:
        """Join u to t, opening t's cycle first when t is on one; at a path
        end or a singleton this is a plain join. Consumes edge (u, t)."""
        if self.p.role[t] == ON_CYCLE:
            self.open_at(t)
        self.join(u, t)


# -- basic moves -------------------------------------------------------------

def joinable(p: PathPartition, u: int, v: int) -> bool:
    """A basic move can join u and v: different components, both in V1."""
    role = p.role
    return role[u] != INNER and role[v] != INNER and p.owner[u] != p.owner[v]


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
        opens = [("open_at", (x,)) for x in edge if p.role[x] == ON_CYCLE]
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


def eliminate_singletons(g: Graph, p: PathPartition, candidates=None) -> Move | None:
    """Absorb the least singleton via the shift search.

    A singleton adjacent to an end, a cycle, or a splittable path interior is
    absorbed outright. Otherwise every neighbor is the middle of a size-3
    path; shifting the singleton to such a path's end costs nothing, and the
    search explores shift sequences breadth-first until an absorbing position
    appears, building each shifted state on a copy. Returns None when the
    partition has no singleton. The states already queued are keyed by the
    shifted singleton and the partition's signature, which costs O(n) and is
    built, for the root too, only once a shift is needed.

    Without `candidates` the least singleton is found by scanning the roles.
    With them, `candidates.first_singleton()` must return the same vertex
    (see solver.SolveState).
    """
    if not p.singleton_count():
        return None
    v0 = p.role.index(ALONE) if candidates is None else candidates.first_singleton()
    queue = deque([(p, v0, [])])
    seen = None
    expanded = 0
    while queue:
        state, v, prefix = queue.popleft()
        expanded += 1
        if expanded > SHIFT_STATE_BUDGET:
            raise SingletonEliminationError("singleton shift search budget exceeded")
        role = state.role
        for w in g.adj[v]:
            if role[w] == ALONE or role[w] == END:
                return Move("singleton", prefix + [("join", (v, w))])
            if role[w] == ON_CYCLE:
                return Move("singleton", prefix + [("attach", (v, w))])
        for w in g.adj[v]:  # every neighbour is a path interior now
            verts = state.components[state.owner[w]].vertices
            if len(verts) < 4:
                continue
            i = state.pos[w]
            cut = (w, verts[i + 1]) if i <= len(verts) - 3 else (verts[i - 1], w)
            return Move("singleton", prefix + [("split_at", cut), ("join", (v, w))])
        for w in g.adj[v]:  # each the middle of a path of 3
            x, _, z = state.components[state.owner[w]].vertices
            for popped, cut in ((x, (x, w)), (z, (w, z))):
                steps = [("split_at", cut), ("join", (v, w))]
                shifted = state.copy()
                _Builder(g, shifted).run(steps)
                if seen is None:
                    seen = {(v0, _partition_signature(p))}
                key = (popped, _partition_signature(shifted))
                if key not in seen:
                    seen.add(key)
                    queue.append((shifted, popped, prefix + steps))
    raise SingletonEliminationError(
        f"no absorbing position reachable from singleton {v0}")


# -- steps the catalog shares -------------------------------------------------

def _first_outside(targets, exclude):
    """The first of `targets` not in `exclude`, or None."""
    return next((t for t in targets if t not in exclude), None)


def _attach_or_close(x, t, far):
    """The step that attaches x to t, or closes x's piece when t is its far end."""
    return ("close_of", (x,)) if t == far else ("attach", (x, t))


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
    t1 = vc.balanced_path_ends.get(x1, [])
    t2 = vc.balanced_targets(x2)
    if view.owner(x2) == view.owner(x1):
        # both new ends on one piece (or a single popped vertex); its vertices
        # were path interiors, so no target lies on it
        for ox2 in t2:
            c2 = view.owner(ox2)
            ox1 = next((t for t in t1 if view.owner(t) != c2), None)
            if ox1 is not None:
                return [("attach", (x2, ox2)), ("attach", (x1, ox1))]
        return None
    # a piece's only targets are its ends, so a target on x1's or x2's piece
    # is its far end
    o1 = view.other_end(x1)
    o2 = view.other_end(x2)
    for ox2 in t2:
        if ox2 in (o1, o2):
            # the x2 piece closes into a cycle (o2) or chains onto the x1
            # piece (o1); either way merge the x1 piece away
            ox1 = _first_outside(t1, (o1, o2))
            if ox1 is not None:
                return [("close_of", (x2,)) if ox2 == o2 else ("join", (x2, ox2)),
                        ("attach", (x1, ox1))]
            continue
        # closing the x1 piece only pays when no cycle was spent absorbing the
        # x2 piece, so demand a plain join target in that case
        ox1 = _first_outside(t1, (ox2, o1) if view.p.role[ox2] == ON_CYCLE else (ox2,))
        if ox1 is not None:
            return [("attach", (x2, ox2)), _attach_or_close(x1, ox1, o1)]
    return None


# an interior vertex of these classes has no V2 path neighbour to cut at
_NO_V2_NEIGHBOUR = (V2A, V5)
_OFF_PATH = (ON_CYCLE, ALONE)


def find_derived_move(g: Graph, p: PathPartition, vc: VertexClassification,
                      failures: DerivedFailures | None = None) -> Move | None:
    """Split one or two paths around a free edge so that both new end-vertices
    are V2, then reconnect the pieces into fewer components (or equal
    components with one more cycle). Also covers the dangerous-vertex
    configurations whose balanced edges point the wrong way.

    Vertex a owns the free edges (a, b) with b > a, and the scan walks each
    owner's neighbour list in ascending order of owners, which is edge
    order. An owner that cannot be cut at (not on a path, or with no V2 path
    neighbour, as no V2a or V5 vertex has) is never open in `failures` (see
    `DerivedFailures.reopen`), so the scan passes over its whole list.

    Each candidate is decided on a `_CutView` of the live partition; nothing
    is built. A candidate whose new ends sa and sb have one and the same
    balanced target t is rejected before its view, because
    `_plan_reconnection` cannot plan it. A vertex with one target is not
    heavy, so there is no swap: x1 = sa, x2 = sb, t2 = [t] and t1 ⊆ [t]. If
    t is no path end, t1 is empty, and every branch takes ox1 from t1. If t
    is a path end, it is neither a nor b, since sa-a and sb-b are path edges
    and not free; so t ends whichever piece holds it: t = o2 on x2's piece,
    t = o1 on x1's piece, and otherwise it lies outside both. Every branch
    needs an ox1 other than ox2 = t, or outside {o1, o2}, so none plans.
    Every branch takes ox1 from t1, the balanced path ends of x1 (sb if sb
    alone is heavy, else sa), so a candidate whose x1 has none is rejected
    before its view too. So is a candidate on one path whose new ends' targets
    all end that path, at E0 or E1. The cuts do not both face outward. If
    both face inward, sa and sb share the middle piece and E0 and E1 lie on
    the joined one, so every ox2 lies off x1's piece and every ox1 on ox2's.
    Otherwise one new end lies on the joined piece and the other on an outer
    one, and the far ends o1 and o2 of those pieces are E0 and E1. Every
    target is then o1 or o2, on x1's or x2's piece, so only the branches for
    ox2 = o2 and ox2 = o1 apply, and both need an ox1 outside {o1, o2}.

    The owners are the vertices `failures` holds open, in ascending order,
    and each owner walked is decided edge by edge. A free edge with a V2 cut
    pair at each end whose candidates found no move (by a view, by one of
    those rejections, or because both cuts face outward on one path) has its
    ends' watches registered there, so that a move that may change its
    verdict re-opens its owner (see `DerivedFailures`); the scan still
    returns the first hit in edge order. Without `failures` it runs on fresh
    memory: every vertex it can cut at open, and no watches.
    """
    if failures is None:
        failures = DerivedFailures(g.n)
        failures.reopen(p, vc, range(g.n))
    cls = vc.cls
    owner, pos, role = p.owner, p.pos, p.role
    balanced, path_ends, heavy = vc.balanced, vc.balanced_path_ends, vc.heavy
    free_nbrs = vc.free_nbrs
    for a in failures.pop_open():  # each on a path, neither V2a nor V5
        cuts_a = [s for s in p.path_neighbors(a) if cls[s] in V2_CLASSES]
        if not cuts_a:
            continue
        for b in free_nbrs[a]:
            if b <= a or cls[b] in _NO_V2_NEIGHBOUR or role[b] in _OFF_PATH:
                continue
            cuts_b = [s for s in p.path_neighbors(b) if cls[s] in V2_CLASSES]
            # an edge with no V2 cut pair is cheaper to re-check than to watch
            if not cuts_b:
                continue
            same = owner[a] == owner[b]
            if same:
                verts = p.components[owner[a]].vertices
                tips = (verts[0], verts[-1])
                # the positions of a's and b's path neighbours facing away from each other
                step = 1 if pos[a] < pos[b] else -1
                away_a, away_b = pos[a] - step, pos[b] + step
            for sa in cuts_a:
                for sb in cuts_b:
                    ta, tb = balanced[sa], balanced[sb]
                    # both cuts facing outward would close the middle into a cycle
                    if same and pos[sa] == away_a and pos[sb] == away_b:
                        continue
                    if len(ta) == 1 and ta == tb:
                        continue  # one shared target: no plan (see the docstring)
                    if not path_ends[sb if sb in heavy and sa not in heavy else sa]:
                        continue  # x1 has no path-end target: no plan (ditto)
                    if same and all(t in tips for t in ta) and all(t in tips for t in tb):
                        continue  # every target ends the path: no plan (ditto)
                    steps = _plan_reconnection(_CutView(p, sa, a, sb, b), sa, sb, vc)
                    if steps is not None:
                        return Move("derived", [("split_at", (sa, a)), ("split_at", (sb, b)),
                                                ("join", (a, b))] + steps)
            failures.record(g, p, a, b)
    steps = _find_dangerous_move(p, vc)
    return None if steps is None else Move("derived", steps)


class DerivedFailures:
    """The derived scan's memory between calls: the vertices whose free
    edges may hold a move, and the watches that re-open them.

    **Watches.** The verdict on a free edge (a, b) whose candidates found no
    move reads the components in watch(a) ∪ watch(b), where watch(x) is x's
    own component and those of the graph neighbours of x's path neighbours:
    the first holds the cuts, the pieces, the path neighbours and the
    positions that tell whether both cuts face outward, the others decide
    each path neighbour's V2 class, heavy mark and balanced targets and own
    the targets the reconnection reads. While none of those components dies
    or changes kind, x keeps its path neighbours and they keep their
    neighbours' components, so watch(x) and the verdict stand. `record`
    registers an end's watch in `watchers` (component id -> watching
    vertices) and sets `watched[x]`, and registers none again while it is
    set. `retire` bumps each vertex still watched under a component it
    retires: it clears the mark, and the vertex waits in `bumped` for the
    next `reopen`. A vertex bumped and then registered again keeps its
    entries under its earlier watch, and each of them can bump it once more
    than needed. That only re-opens an owner whose edges the next scan
    decides again, so it hides no move. Whoever applies moves must pass each
    move's steps to `retire` before building it.

    **Open set.** Vertex a owns the free edges (a, b) with b > a. `heap` is
    a lazily validated min-heap of open owners, marked in `is_open`; an
    entry whose vertex closed is dropped when it comes up. `pop_open` yields
    them in ascending order, and an owner the scan moves past closes, as it
    decided each of its edges: by class or role, by having no V2 cut pair at
    one end, or by candidates that found no move, whose ends it then
    watches. The owner of a hit stays open. Whoever applies moves must call
    `reopen` with every vertex once the classification is built, and after
    that with each region `reclassify` recomputes; `reopen` adds the
    vertices `retire` bumped since its last call. Class and role change only
    in the region, and so do path neighbours and their V2 status; a new
    free edge has both ends there; and a verdict falls only with a bumped
    end. `reopen` also opens each free neighbour w < v of such a vertex v,
    the owner of the edge (w, v). Only vertices the scan can cut at (on a
    path, neither V2a nor V5) are opened: any other owns no candidate and
    ends none, and it is back in the region before that changes. So every
    cuttable vertex above `top`, the highest owner a scan has closed, is
    open, and `reopen` looks only at the neighbours w <= `top`.
    """

    def __init__(self, n: int):
        self.watched = [False] * n
        self.watchers: dict[int, list[int]] = {}
        self.bumped: list[int] = []  # by `retire` since the last `reopen`
        self.heap: list[int] = []
        self.is_open = [False] * n
        self.top = -1  # the highest owner a scan has closed

    def record(self, g: Graph, p: PathPartition, a: int, b: int) -> None:
        """Record that free edge (a, b), a < b, has no derived move on p: watch
        each end not yet watched."""
        watched, watchers, owner = self.watched, self.watchers, p.owner
        for x in (a, b):
            if watched[x]:
                continue
            watched[x] = True
            cids = {owner[x]}
            for s in p.path_neighbors(x):
                cids.update([owner[w] for w in g.adj[s]])
            for cid in cids:
                watchers.setdefault(cid, []).append(x)

    def retire(self, p: PathPartition, steps) -> None:
        """Bump every vertex watched under a component the move of these
        steps may kill or re-kind, on p before the move is built.

        Those are taken as the components of every vertex the steps name, a
        superset: every primitive acts on the component of a vertex it
        names, and a component that stood before the move still holds the
        same vertices when a step reaches it. Their watcher lists are
        dropped, and each vertex on them still watched loses its mark and
        waits for the next `reopen`. While no watch is registered nothing is
        worked out.
        """
        watchers = self.watchers
        if not watchers:
            return
        watched, bumped, owner = self.watched, self.bumped, p.owner
        for cid in {owner[x] for _, args in steps for x in args}:
            for x in watchers.pop(cid, ()):
                if watched[x]:
                    watched[x] = False
                    bumped.append(x)

    def pop_open(self):
        """Yield the open vertices in ascending order, closing each once the
        caller asks for the next; the last one yielded to a caller that
        stops stays open. Entries closed by `reopen` are dropped unseen."""
        heap, is_open = self.heap, self.is_open
        while heap:
            v = heap[0]
            if is_open[v]:
                yield v
                is_open[v] = False
                if v > self.top:
                    self.top = v
            heapq.heappop(heap)

    def reopen(self, p: PathPartition, vc: VertexClassification, vertices) -> None:
        """Open each vertex v given or bumped since the last call, and each
        free neighbour w < v of it, that the scan can cut at; close each
        such v that it cannot."""
        heap, is_open, top = self.heap, self.is_open, self.top
        cls, role, free_nbrs = vc.cls, p.role, vc.free_nbrs
        no_v2, off_path = _NO_V2_NEIGHBOUR, _OFF_PATH
        bumped, self.bumped = self.bumped, []
        for v in chain(vertices, bumped):
            if cls[v] in no_v2 or role[v] in off_path:
                is_open[v] = False
                continue
            if not is_open[v]:
                is_open[v] = True
                heapq.heappush(heap, v)
            for w in free_nbrs[v]:
                if w > v or w > top:
                    break
                if not (is_open[w] or cls[w] in no_v2 or role[w] in off_path):
                    is_open[w] = True
                    heapq.heappush(heap, w)


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
                steps = _stray_move(p, vc, v3, x1, y1, u, x2, o1, o2)
                if steps:
                    return steps
    return None


def _stray_move(p, vc, v3, x1, y1, u, x2, o1, o2):
    """The rewiring for x2's first balanced target t other than o2, or, if
    x2 has none (its one target is o2), for y1's first balanced path end ty
    other than o2; None if y1 has none either.

    x1 is heavy, with at least three balanced path ends, so one lies outside
    any two vertices. y1 is moderate (a heavy vertex is too), with a balanced
    path end and a target besides o1.
    """
    t = _first_outside(vc.balanced_targets(x2), (o2,))
    if t == o1:
        # rotate the path so y1 becomes an end, then use a spare balanced edge of y1
        s = _first_outside(vc.balanced_targets(y1), (o1,))
        return [("split_at", (v3, y1)), ("split_at", (u, x2)), ("join", (x2, o1)),
                ("join", (v3, u)), _attach_or_close(y1, s, o2)]
    if t is None:
        # x2 anchored to o2 closes its piece; y1 must reach past o2
        t, ty = o2, _first_outside(vc.balanced_path_ends[y1], (o2,))
        if ty is None:
            return None
    elif p.role[t] == ON_CYCLE:
        ty = vc.balanced_path_ends[y1][0]
    else:
        # t is an end of an external path: free the middle as a new cycle
        ox1 = _first_outside(vc.balanced_path_ends[x1], (o1, t))
        return [("split_at", (x1, v3)), ("split_at", (u, x2)), ("close_of", (v3,)),
                ("join", (x1, ox1)), ("join", (x2, t))]
    # swing y1 onto ty (onto o1 once x1 has left for an outside end), then x2 onto t
    x2_step = _attach_or_close(x2, t, o2)
    if ty != o1:
        return [("split_at", (v3, y1)), ("split_at", (u, x2)), ("join", (v3, u)),
                ("join", (y1, ty)), x2_step]
    ox1 = _first_outside(vc.balanced_path_ends[x1], (o1, o2))
    return [("split_at", (x1, v3)), ("split_at", (v3, y1)), ("split_at", (u, x2)),
            ("join", (x1, ox1)), ("join", (y1, o1)), ("join", (v3, u)), x2_step]


# -- adjacent-V2-pair exchanges ------------------------------------------------

_OUT = ("cyc", "ext")  # target kinds off the pair's path


def _target_kinds(p, vc, v, o1, o2):
    out = []
    for t in vc.balanced_targets(v):
        if t == o1:
            out.append((t, "o1"))
        elif t == o2:
            out.append((t, "o2"))
        elif p.role[t] == ON_CYCLE:
            out.append((t, "cyc"))
        elif p.role[t] == END:
            out.append((t, "ext"))
    return out


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
    """The steps for a's target ta of kind ka and b's target tb of kind kb
    (`_target_kinds`), or None where a stable partition can keep the pair.

    In the order the table is read, with "out" for cyc or ext (`attach`
    makes a plain join at a path end), after splitting a from b:

        a    b    steps
        o2   o1   join a-o2, close b's piece
        o2   out  join a-o2, attach b
        out  o1   join b-o1, attach a
        o1   ext  close a's piece, join b-tb
        ext  o2   join a-ta, close b's piece
        out  out  attach a, attach b; never when ta == tb, and with ta and
                  tb on one cycle only when adjacent there, opening the
                  cycle between them before the split
        any other pair: None
    """
    split = ("split_at", (a, b))
    if ka == "o2" and kb != "o2":
        return [split, ("join", (a, o2)), _attach_or_close(b, tb, o1)]
    if kb == "o1" and ka != "o1":
        return [split, ("join", (b, o1)), ("attach", (a, ta))]
    if ka == "o1" and kb == "ext":
        return [split, ("close_of", (a,)), ("join", (b, tb))]
    if ka == "ext" and kb == "o2":
        return [split, ("join", (a, ta)), ("close_of", (b,))]
    if ka in _OUT and kb in _OUT and ta != tb:
        cid = p.owner[ta]
        if cid != p.owner[tb] or ka == "ext":
            return [split, ("attach", (a, ta)), ("attach", (b, tb))]
        k = len(p.components[cid].vertices)
        if (p.pos[ta] - p.pos[tb]) % k in (1, k - 1):
            return [("open_edge", (ta, tb)), split, ("join", (a, ta)), ("join", (b, tb))]
    return None


def _splitting_inners_move(p, vc, verts, i, a, b, o1, o2):
    """With a anchored to o1 and b to o2, a heavy interior vertex hu off the
    pair is cut toward it and joined to a balanced path end outside {o1, o2}
    (it has at least three), and the pair's far side closes into a cycle."""
    if o1 not in vc.balanced_targets(a) or o2 not in vc.balanced_targets(b):
        return None
    heavy, ends = vc.heavy, vc.balanced_path_ends
    for hu in verts[1:i]:
        if hu in heavy:
            return [("split_at", (a, b)), ("close_of", (b,)),
                    ("split_at", (hu, verts[p.pos[hu] + 1])), ("join", (a, o1)),
                    ("join", (hu, _first_outside(ends[hu], (o1, o2))))]
    for hu in verts[i + 2:-1]:
        if hu in heavy:
            return [("split_at", (a, b)), ("close_of", (a,)),
                    ("split_at", (verts[p.pos[hu] - 1], hu)), ("join", (b, o2)),
                    ("join", (hu, _first_outside(ends[hu], (o1, o2))))]
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
    if state.is_end(v):
        return [[]]
    if state.role[v] == ON_CYCLE:
        n1, n2 = state.path_neighbors(v)
        return [[("open_edge", (v, n1))], [("open_edge", (v, n2))]]
    n1, n2 = state.path_neighbors(v)
    return [[("split_at", (n1, v))], [("split_at", (v, n2))]]


def _edge_steps(state, u, v):
    """Ways to consume free edge (u, v), each legal on `state`: a join after
    enablers on the two components, or a closure of a path stretch whose
    ends are adjacent."""
    cu, cv = state.owner[u], state.owner[v]
    if cu == cv:
        # `_compound_dfs` offers only free edges: u, v lie 2+ apart on a path
        verts = state.components[cu].vertices
        plo, phi_ = sorted((state.pos[u], state.pos[v]))
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
        if not edge_is_free(state, u, v):
            continue
        for step in _edge_steps(state, u, v):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            nxt = state.copy()
            _Builder(g, nxt).run(step)
            if nxt.potential() < phi0:
                return step
            if remaining > 1:
                rest = _compound_dfs(g, nxt, phi0, remaining - 1, focus, budget)
                if rest is not None:
                    return step + rest
    return None

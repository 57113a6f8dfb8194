"""Partition rewiring: edit primitives, the move catalog, and bounded search.

Every move is a primitive sequence that keeps the partition valid and strictly
decreases the lexicographic potential (components, -cycles, singletons).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .classify import EdgeClassification, VertexClassification
from .graphs import Graph
from .partition import CYCLE, PATH, SINGLETON, Component, PathPartition


class MoveEngineError(RuntimeError):
    pass


class SingletonEliminationError(MoveEngineError):
    """The singleton-shift search closed without an improving move.

    Unreachable for regular input by a degree-counting argument; seeing it
    means a bug or an invalid instance.
    """


@dataclass
class Move:
    kind: str
    primitives: list[tuple]
    phi_before: tuple[int, int, int]
    phi_after: tuple[int, int, int]


# -- primitive application --------------------------------------------------

def apply_primitive(g: Graph, p: PathPartition, prim: tuple) -> None:
    op = prim[0]
    if op == "split":
        _, cid, a, b = prim
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
    elif op == "join":
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
    elif op == "close":
        _, cid = prim
        comp = p.components[cid]
        verts = comp.vertices
        if comp.kind != PATH or len(verts) < 3 or not g.has_edge(verts[0], verts[-1]):
            raise MoveEngineError(f"illegal close of component {cid}")
        comp.kind = CYCLE
    elif op == "open":
        _, cid, a, b = prim
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
    else:
        raise MoveEngineError(f"unknown primitive {prim!r}")


def apply_move(g: Graph, p: PathPartition, move: Move) -> None:
    for prim in move.primitives:
        apply_primitive(g, p, prim)
    if p.potential() != move.phi_after:
        raise MoveEngineError("move replay diverged from recorded potential")


class _Builder:
    """Applies primitives to a scratch copy while recording them."""

    def __init__(self, g: Graph, p: PathPartition):
        self.g = g
        self.p = p.copy()
        self.prims: list[tuple] = []

    def _do(self, prim: tuple) -> None:
        apply_primitive(self.g, self.p, prim)
        self.prims.append(prim)

    def split_at(self, a: int, b: int) -> None:
        self._do(("split", self.p.owner[a], a, b))

    def join(self, u: int, v: int) -> None:
        self._do(("join", u, v))

    def close_comp(self, cid: int) -> None:
        self._do(("close", cid))

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

    def finish(self, kind: str, phi_before: tuple) -> Move:
        phi_after = self.p.potential()
        if not phi_after < phi_before:
            raise MoveEngineError(f"{kind} move does not improve: {phi_before} -> {phi_after}")
        return Move(kind, self.prims, phi_before, phi_after)


# -- basic moves -------------------------------------------------------------

def find_basic_move(g: Graph, p: PathPartition) -> Move | None:
    """First component-reducing join (path ends, singletons, cycle openings,
    two-cycle merges), else the first path closable into a cycle."""
    phi0 = p.potential()
    for u, v in g.edges:
        if p.owner[u] == p.owner[v]:
            continue
        ku = p.components[p.owner[u]].kind
        kv = p.components[p.owner[v]].kind
        if not ((p.is_end(u) or ku == CYCLE) and (p.is_end(v) or kv == CYCLE)):
            continue
        b = _Builder(g, p)
        if ku == CYCLE:
            b.open_at(u)
        if kv == CYCLE:
            b.open_at(v)
        b.join(u, v)
        return b.finish("basic", phi0)
    for cid in p.sorted_ids():
        comp = p.components[cid]
        if (comp.kind == PATH and len(comp.vertices) >= 3
                and g.has_edge(comp.vertices[0], comp.vertices[-1])):
            b = _Builder(g, p)
            b.close_comp(cid)
            return b.finish("basic", phi0)
    return None


# -- singleton elimination ----------------------------------------------------

def _partition_signature(p: PathPartition) -> frozenset:
    out = []
    for comp in p.components.values():
        seq = tuple(comp.vertices)
        if comp.kind != CYCLE and seq[0] > seq[-1]:
            seq = seq[::-1]
        out.append((comp.kind, seq))
    return frozenset(out)


def eliminate_singletons(g: Graph, p: PathPartition,
                         state_budget: int = 100000) -> Move | None:
    """Absorb one singleton via the shift search.

    A singleton adjacent to an end, a cycle, or a splittable path interior is
    absorbed outright. Otherwise every neighbor is the middle of a size-3
    path; shifting the singleton to such a path's end costs nothing, and the
    search explores shift sequences breadth-first until an absorbing position
    appears. Returns None when the partition has no singleton.
    """
    singles = sorted(v for v, cid in p.owner.items()
                     if p.components[cid].kind == SINGLETON)
    if not singles:
        return None
    phi0 = p.potential()
    v0 = singles[0]
    queue = deque([(p, v0, [])])
    seen = {(v0, _partition_signature(p))}
    expanded = 0
    while queue:
        state, v, prefix = queue.popleft()
        expanded += 1
        if expanded > state_budget:
            raise SingletonEliminationError("singleton shift search budget exceeded")
        for w in g.adj[v]:
            kw = state.components[state.owner[w]].kind
            if kw == SINGLETON or (kw == PATH and state.is_end(w)):
                b = _Builder(g, state)
                b.join(v, w)
                return Move("singleton", prefix + b.prims, phi0, b.p.potential())
            if kw == CYCLE:
                b = _Builder(g, state)
                b.attach(v, w)
                return Move("singleton", prefix + b.prims, phi0, b.p.potential())
        for w in g.adj[v]:
            comp = state.components[state.owner[w]]
            if comp.kind != PATH or state.is_end(w) or len(comp.vertices) < 4:
                continue
            verts = comp.vertices
            i = state.pos[w]
            b = _Builder(g, state)
            if i <= len(verts) - 3:
                b.split_at(w, verts[i + 1])
            else:
                b.split_at(verts[i - 1], w)
            b.join(v, w)
            return Move("singleton", prefix + b.prims, phi0, b.p.potential())
        for w in g.adj[v]:
            comp = state.components[state.owner[w]]
            if comp.kind != PATH or len(comp.vertices) != 3 or state.pos[w] != 1:
                continue
            x, _, z = comp.vertices
            for popped in (x, z):
                b = _Builder(g, state)
                if popped == x:
                    b.split_at(x, w)
                else:
                    b.split_at(w, z)
                b.join(v, w)
                key = (popped, _partition_signature(b.p))
                if key not in seen:
                    seen.add(key)
                    queue.append((b.p, popped, prefix + b.prims))
    raise SingletonEliminationError(
        f"no absorbing position reachable from singleton {v0}")


# -- derived moves -------------------------------------------------------------

def _other_end(p: PathPartition, cid: int, v: int) -> int:
    comp = p.components[cid]
    if comp.kind == SINGLETON:
        return v
    return comp.vertices[-1] if comp.vertices[0] == v else comp.vertices[0]


def _replay_reconnection(bld: _Builder, w1: int, w2: int,
                         vc: VertexClassification, phi0: tuple) -> Move | None:
    """Turn a one-extra-component split into an improving move.

    w1, w2 are the freshly exposed ends (V2 in the source partition). Succeeds
    whenever one of them is heavy; otherwise opportunistically.
    """
    if w2 in vc.heavy and w1 not in vc.heavy:
        w1, w2 = w2, w1
    x1, x2 = w1, w2
    p0 = bld.p
    q1 = p0.owner[x1]
    t1 = vc.balanced_path_ends.get(x1, [])
    t2 = vc.balanced_targets(x2)
    if p0.owner[x2] == q1:
        # both new ends on one piece (or a single popped vertex)
        for ox2 in t2:
            c2 = p0.owner[ox2]
            if c2 == q1:
                continue
            for ox1 in t1:
                if ox1 == ox2 or p0.owner[ox1] in (q1, c2):
                    continue
                bld.attach(x2, ox2)
                bld.attach(x1, ox1)
                return bld.finish("derived", phi0)
        return None
    q2 = p0.owner[x2]
    o1 = _other_end(p0, q1, x1)
    o2 = _other_end(p0, q2, x2)
    for ox2 in t2:
        c2 = p0.owner[ox2]
        if c2 == q2:
            # ox2 == o2: the x2 piece closes into a cycle; merge the x1 piece away
            ox1 = next((t for t in t1 if t not in (o1, o2)), None)
            if ox1 is None:
                continue
            bld.close_comp(q2)
            bld.attach(x1, ox1)
            return bld.finish("derived", phi0)
        if c2 == q1:
            # ox2 == o1: chain the two pieces, then merge outward
            ox1 = next((t for t in t1 if t not in (o1, o2)), None)
            if ox1 is None:
                continue
            bld.join(x2, ox2)
            bld.attach(x1, ox1)
            return bld.finish("derived", phi0)
        # closing the x1 piece only pays when no cycle was spent absorbing the
        # x2 piece, so demand a plain join target in that case
        if p0.components[c2].kind == CYCLE:
            ox1 = next((t for t in t1 if t not in (ox2, o1)), None)
        else:
            ox1 = next((t for t in t1 if t != ox2), None)
        if ox1 is None:
            continue
        bld.attach(x2, ox2)
        if ox1 == o1:
            bld.close_comp(q1)
        else:
            bld.attach(x1, ox1)
        return bld.finish("derived", phi0)
    return None


def find_derived_move(g: Graph, p: PathPartition, ec: EdgeClassification,
                      vc: VertexClassification) -> Move | None:
    """Split one or two paths around a free edge so that both new end-vertices
    are V2, then reconnect the pieces into fewer components (or equal
    components with one more cycle). Also covers the dangerous-vertex
    configurations whose balanced edges point the wrong way."""
    phi0 = p.potential()
    for a, b in ec.free_edges:
        if p.components[p.owner[a]].kind != PATH or p.components[p.owner[b]].kind != PATH:
            continue
        same = p.owner[a] == p.owner[b]
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
                bld = _Builder(g, p)
                bld.split_at(sa, a)
                bld.split_at(sb, b)
                bld.join(a, b)
                mv = _replay_reconnection(bld, sa, sb, vc, phi0)
                if mv:
                    return mv
    return _find_dangerous_move(g, p, ec, vc, phi0)


def _find_dangerous_move(g, p, ec, vc, phi0):
    """Reconnections for the one free-edge shape a dangerous vertex may keep.

    For heavy x1 next to dangerous v3 with a free edge (v3, u) into a vertex
    with one V2 path neighbor x2 beyond it, the partition is only stable if
    x2's sole balanced edge and all of the far neighbor y1's balanced path
    edges land on the end beyond x2. Any other target yields a rewiring.
    """
    free_nbrs: dict[int, list[int]] = {}
    for u, v in ec.free_edges:
        free_nbrs.setdefault(u, []).append(v)
        free_nbrs.setdefault(v, []).append(u)
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
            for u in sorted(free_nbrs.get(v3, ())):
                if p.owner[u] != cid or (p.pos[u] - i3) * sign <= 0:
                    continue
                v2nb = [w for w in p.path_neighbors(u) if vc.is_v2(w)]
                if len(v2nb) != 1:
                    continue
                x2 = v2nb[0]
                if (p.pos[x2] - p.pos[u]) * sign <= 0:
                    continue
                mv = _stray_inner_anchor_move(g, p, vc, phi0, v3, x1, y1, u, x2, o1, o2)
                if mv:
                    return mv
                mv = _stray_far_neighbor_move(g, p, vc, phi0, v3, x1, y1, u, x2, o1, o2)
                if mv:
                    return mv
    return None


def _heavy_external_target(vc, x1, exclude):
    return next((t for t in vc.balanced_path_ends.get(x1, []) if t not in exclude), None)


def _stray_inner_anchor_move(g, p, vc, phi0, v3, x1, y1, u, x2, o1, o2):
    # every balanced edge of x2 must go to o2
    for t in vc.balanced_targets(x2):
        if t == o2:
            continue
        if t == o1:
            # rotate the path so y1 becomes an end, then use a spare balanced edge of y1
            bld = _Builder(g, p)
            bld.split_at(v3, y1)
            bld.split_at(u, x2)
            bld.join(x2, o1)
            bld.join(v3, u)
            s = next((s for s in vc.balanced_targets(y1) if s != o1), None)
            if s is None:
                return None
            if s == o2:
                bld.close_comp(bld.p.owner[y1])
            else:
                bld.attach(y1, s)
            return bld.finish("derived", phi0)
        tcomp = p.components[p.owner[t]]
        if tcomp.kind == CYCLE:
            oy = next(iter(vc.balanced_path_ends.get(y1, [])), None)
            if oy is None:
                return None
            bld = _Builder(g, p)
            if oy == o2:
                bld.split_at(v3, y1)
                bld.split_at(u, x2)
                bld.join(v3, u)
                bld.join(y1, o2)
                bld.attach(x2, t)
            elif oy == o1:
                ox1 = _heavy_external_target(vc, x1, (o1, o2))
                if ox1 is None:
                    return None
                bld.split_at(x1, v3)
                bld.split_at(v3, y1)
                bld.split_at(u, x2)
                bld.join(x1, ox1)
                bld.join(y1, o1)
                bld.join(v3, u)
                bld.attach(x2, t)
            else:
                bld.split_at(v3, y1)
                bld.split_at(u, x2)
                bld.join(v3, u)
                bld.join(y1, oy)
                bld.attach(x2, t)
            return bld.finish("derived", phi0)
        # t is an end of an external path: free the middle as a new cycle
        ox1 = _heavy_external_target(vc, x1, (o1, t))
        if ox1 is None:
            return None
        bld = _Builder(g, p)
        bld.split_at(x1, v3)
        bld.split_at(u, x2)
        bld.close_of(v3)
        bld.join(x1, ox1)
        bld.join(x2, t)
        return bld.finish("derived", phi0)
    return None


def _stray_far_neighbor_move(g, p, vc, phi0, v3, x1, y1, u, x2, o1, o2):
    # given x2 anchored to o2, y1's balanced path edges must also go to o2
    if o2 not in vc.balanced_targets(x2):
        return None
    for t in vc.balanced_path_ends.get(y1, []):
        if t == o2:
            continue
        bld = _Builder(g, p)
        if t == o1:
            ox1 = _heavy_external_target(vc, x1, (o1, o2))
            if ox1 is None:
                return None
            bld.split_at(x1, v3)
            bld.split_at(v3, y1)
            bld.split_at(u, x2)
            bld.join(x1, ox1)
            bld.join(y1, o1)
            bld.join(v3, u)
            bld.close_comp(bld.p.owner[x2])
        else:
            bld.split_at(v3, y1)
            bld.split_at(u, x2)
            bld.join(v3, u)
            bld.join(y1, t)
            bld.close_comp(bld.p.owner[x2])
        return bld.finish("derived", phi0)
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


def find_pair_move(g: Graph, p: PathPartition, ec: EdgeClassification,
                   vc: VertexClassification) -> Move | None:
    """Exchanges for adjacent V2 pairs whose balanced targets are incompatible.

    On a path o1..a b..o2 with a, b in V2, the only target pairs a stable
    partition can keep are: both to the same end, a to the near end with b to
    an end or a cycle (and mirrored), both to one external end, or both into
    one cycle at non-consecutive vertices. Every other combination rewires
    into fewer components or one more cycle, as does a-to-o1/b-to-o2 with a
    heavy vertex elsewhere on the path.
    """
    phi0 = p.potential()
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
                    mv = _pair_exchange(g, p, phi0, a, b, o1, o2, ta, ka, tb, kb)
                    if mv:
                        return mv
            mv = _splitting_inners_move(g, p, vc, phi0, verts, i, a, b, o1, o2)
            if mv:
                return mv
    return None


def _pair_exchange(g, p, phi0, a, b, o1, o2, ta, ka, tb, kb):
    if ka == "o2":
        if kb == "o2":
            return None
        bld = _Builder(g, p)
        bld.split_at(a, b)
        bld.join(a, o2)
        if kb == "o1":
            bld.close_comp(bld.p.owner[b])
        else:
            bld.attach(b, tb)
        return bld.finish("pair", phi0)
    if ka == "o1":
        if kb != "ext":
            return None
        bld = _Builder(g, p)
        bld.split_at(a, b)
        bld.close_comp(bld.p.owner[a])
        bld.join(b, tb)
        return bld.finish("pair", phi0)
    if ka == "cyc":
        if kb == "o2":
            return None
        if kb == "cyc":
            if p.owner[ta] == p.owner[tb]:
                if not _cycle_adjacent(p, ta, tb):
                    return None
                bld = _Builder(g, p)
                bld.open_edge(ta, tb)
                bld.split_at(a, b)
                bld.join(a, ta)
                bld.join(b, tb)
                return bld.finish("pair", phi0)
            bld = _Builder(g, p)
            bld.split_at(a, b)
            bld.attach(a, ta)
            bld.attach(b, tb)
            return bld.finish("pair", phi0)
        bld = _Builder(g, p)
        bld.split_at(a, b)
        if kb == "o1":
            bld.join(b, o1)
            bld.attach(a, ta)
        else:
            bld.attach(a, ta)
            bld.join(b, tb)
        return bld.finish("pair", phi0)
    # ka == "ext"
    if kb == "ext" and tb == ta:
        return None
    bld = _Builder(g, p)
    bld.split_at(a, b)
    if kb == "o1":
        bld.join(b, o1)
        bld.join(a, ta)
    elif kb == "o2":
        bld.join(a, ta)
        bld.close_comp(bld.p.owner[b])
    else:
        bld.join(a, ta)
        bld.attach(b, tb)
    return bld.finish("pair", phi0)


def _splitting_inners_move(g, p, vc, phi0, verts, i, a, b, o1, o2):
    if o1 not in vc.balanced_targets(a) or o2 not in vc.balanced_targets(b):
        return None
    for hu in verts[1:i]:
        if hu not in vc.heavy:
            continue
        t = _heavy_external_target(vc, hu, (o1, o2))
        if t is None:
            continue
        bld = _Builder(g, p)
        bld.split_at(a, b)
        bld.close_comp(bld.p.owner[b])
        bld.split_at(hu, verts[p.pos[hu] + 1])
        bld.join(a, o1)
        bld.join(hu, t)
        return bld.finish("pair", phi0)
    for hu in verts[i + 2:-1]:
        if hu not in vc.heavy:
            continue
        t = _heavy_external_target(vc, hu, (o1, o2))
        if t is None:
            continue
        bld = _Builder(g, p)
        bld.split_at(a, b)
        bld.close_comp(bld.p.owner[a])
        bld.split_at(verts[p.pos[hu] - 1], hu)
        bld.join(b, o2)
        bld.join(hu, t)
        return bld.finish("pair", phi0)
    return None


# -- bounded generic search ------------------------------------------------------

def find_compound_move(g: Graph, p: PathPartition, depth: int = 4,
                       focus: set[int] | None = None,
                       node_budget: int = 20000) -> Move | None:
    """Iterative-deepening search over rewiring steps seeded at free edges
    incident to the focus set.

    Depth counts the free edges a move consumes (one per join or close);
    splits and cycle openings are enablers and cost nothing. At depth 1 this
    finds a move exactly when find_basic_move does.
    """
    phi0 = p.potential()
    budget = [node_budget]
    for limit in range(1, depth + 1):
        prims = _compound_dfs(g, p, phi0, limit, focus, budget)
        if prims is not None:
            scratch = p.copy()
            for prim in prims:
                apply_primitive(g, scratch, prim)
            phi_after = scratch.potential()
            if not phi_after < phi0:
                raise MoveEngineError("compound search returned non-improving move")
            return Move("compound", prims, phi0, phi_after)
        if budget[0] <= 0:
            break
    return None


def _end_variants(state, v):
    """Primitive prefixes that leave v joinable: none, a split, or a cycle opening."""
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
            bld = _Builder(g, state)
            try:
                for name, args in step:
                    getattr(bld, name)(*args)
            except MoveEngineError:
                continue
            if bld.p.potential() < phi0:
                return bld.prims
            if remaining > 1:
                rest = _compound_dfs(g, bld.p, phi0, remaining - 1, focus, budget)
                if rest is not None:
                    return bld.prims + rest
    return None

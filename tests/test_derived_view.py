"""Property tests: the derived scan, deciding each candidate on a view of the
live partition, returns the move that building every candidate on a copy
returns; and walking only the open vertices, skipping the free edges whose
recorded failures still stand, returns the move a full scan returns.
Hand-built partitions pin the candidates rejected before any view and an
edge that a split elsewhere decides again."""

import copy
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pathpart import moves
from pathpart.classify import V2A, V5, classify_edges, classify_vertices
from pathpart.graphs import Graph, gen_circulant, gen_disjoint_cliques
from pathpart.moves import MoveEngineError, _Builder, _find_dangerous_move
from pathpart.partition import ALONE, CYCLE, ON_CYCLE, PATH, SINGLETON, PathPartition
from pathpart.solver import SolveState, canonicalize, initial_partition

from conftest import draw_start, legal_primitives, step_for, switched


def _other_end(p, cid, v):
    comp = p.components[cid]
    if comp.kind == SINGLETON:
        return v
    return comp.vertices[-1] if comp.vertices[0] == v else comp.vertices[0]


def _built_reconnection(p0, w1, w2, vc):
    """The reconnection steps, decided on a copy built by the split, split and
    join."""
    if w2 in vc.heavy and w1 not in vc.heavy:
        w1, w2 = w2, w1
    x1, x2 = w1, w2
    q1 = p0.owner[x1]
    t1 = vc.balanced_path_ends.get(x1, [])
    t2 = vc.balanced_targets(x2)
    if p0.owner[x2] == q1:
        for ox2 in t2:
            c2 = p0.owner[ox2]
            if c2 == q1:
                continue
            for ox1 in t1:
                if ox1 == ox2 or p0.owner[ox1] in (q1, c2):
                    continue
                return [("attach", (x2, ox2)), ("attach", (x1, ox1))]
        return None
    q2 = p0.owner[x2]
    o1 = _other_end(p0, q1, x1)
    o2 = _other_end(p0, q2, x2)
    for ox2 in t2:
        c2 = p0.owner[ox2]
        if c2 == q2:
            ox1 = next((t for t in t1 if t not in (o1, o2)), None)
            if ox1 is None:
                continue
            return [("close_of", (x2,)), ("attach", (x1, ox1))]
        if c2 == q1:
            ox1 = next((t for t in t1 if t not in (o1, o2)), None)
            if ox1 is None:
                continue
            return [("join", (x2, ox2)), ("attach", (x1, ox1))]
        if p0.components[c2].kind == CYCLE:
            ox1 = next((t for t in t1 if t not in (ox2, o1)), None)
        else:
            ox1 = next((t for t in t1 if t != ox2), None)
        if ox1 is None:
            continue
        return [("attach", (x2, ox2)),
                ("close_of", (x1,)) if ox1 == o1 else ("attach", (x1, ox1))]
    return None


def _built_derived_move(g, p, vc):
    """Every candidate split, split and join built on a copy of p."""
    for a, b in vc.free_edges():
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
                    if p.pos[s_lo] < lo_p and p.pos[s_hi] > hi_p:
                        continue
                cuts = [("split_at", (sa, a)), ("split_at", (sb, b)), ("join", (a, b))]
                built = p.copy()
                _Builder(g, built).run(cuts)
                steps = _built_reconnection(built, sa, sb, vc)
                if steps:
                    return moves.Move("derived", cuts + steps)
    steps = _find_dangerous_move(p, vc)
    return None if steps is None else moves.Move("derived", steps)


def _outcome(find, g, p, vc):
    try:
        return find(g, p, vc)
    except MoveEngineError as exc:
        return f"{type(exc).__name__}: {exc}"


def _to_basic_fixed_point(g, p):
    while (mv := moves.find_basic_move(g, p)) is not None:
        moves.apply_move(g, p, mv)


def _draw_perturbed_cliques(data):
    """2 to 5 disjoint K7s after a few double-edge switches (ab, cd -> ad, cb):
    near-extremal, where derived moves fire often."""
    g = gen_disjoint_cliques(6, data.draw(st.integers(2, 5), label="k"), seed=0)
    edges = list(g.edges)
    present = set(edges)
    for _ in range(data.draw(st.integers(1, 6), label="switches")):
        i, j = data.draw(st.lists(st.integers(0, len(edges) - 1), min_size=2,
                                  max_size=2, unique=True), label="switch")
        (a, b), (c, d) = edges[i], edges[j]
        e1, e2 = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) < 4 or e1 in present or e2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {e1, e2}
        edges[i], edges[j] = e1, e2
    g = Graph(g.n, edges)
    if data.draw(st.booleans(), label="greedy start"):
        return g, initial_partition(g, seed=data.draw(st.integers(0, 3), label="seed"))
    return g, PathPartition.from_lists(g.n, singletons=range(g.n))


@settings(max_examples=200)
@given(st.data())
def test_derived_scan_matches_building_every_candidate(data):
    if data.draw(st.booleans(), label="perturbed cliques"):
        g, p = _draw_perturbed_cliques(data)
    else:
        g, p = draw_start(data)
    for _ in range(data.draw(st.integers(0, 30), label="steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        moves.apply_primitive(g, p, prim)
    # follow derived moves from the basic fixed point, comparing at each stop
    for _ in range(20):
        _to_basic_fixed_point(g, p)
        vc = classify_vertices(g, p, classify_edges(g, p))
        mv = _outcome(moves.find_derived_move, g, p, vc)
        assert mv == _outcome(_built_derived_move, g, p, vc)
        if not isinstance(mv, moves.Move):
            break
        phi = p.potential()
        moves.apply_move(g, p, mv)
        assert p.potential() < phi


@settings(max_examples=150)
@given(st.data())
def test_derived_failures_match_a_full_scan_along_a_solve(data):
    if data.draw(st.booleans(), label="perturbed cliques"):
        g, p = _draw_perturbed_cliques(data)
    else:
        g, p = draw_start(data)
    find = moves.find_derived_move
    failures_seen = []

    def checked(g, p, vc, failures=None):
        mv = find(g, p, vc, failures)
        assert mv == find(g, p, vc)
        failures_seen.append(failures)
        return mv

    apply = SolveState.apply

    def applied(state, mv):
        # the open-set scan after every move, not only where the solve scans
        prims = apply(state, mv)
        vc = state.classification()
        assert find(g, state.p, vc, state.derived_failures) == find(g, state.p, vc)
        return prims

    with (mock.patch.object(moves, "find_derived_move", checked),
          mock.patch.object(SolveState, "apply", applied)):
        canonicalize(g, p)
    # every call of the solve passed the one failure record it keeps
    assert len({id(f) for f in failures_seen}) <= 1
    assert None not in failures_seen


@settings(max_examples=150)
@given(st.data())
def test_derived_failures_match_a_full_scan_under_random_primitives(data):
    # random splits and joins change a path neighbour's neighbours far more
    # often than a solve does, which is what the recorded failures must notice
    if data.draw(st.booleans(), label="perturbed cliques"):
        g, p = _draw_perturbed_cliques(data)
    else:
        g, p = draw_start(data)
    state = SolveState(g, p)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        state.apply(moves.Move("random", [step_for(p, prim)]))
        vc = state.classification()
        assert (moves.find_derived_move(g, p, vc, state.derived_failures)
                == moves.find_derived_move(g, p, vc))
    # unscanned primitives let the re-opened region build up before one scan
    for _ in range(data.draw(st.integers(0, 10), label="unscanned steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        state.apply(moves.Move("random", [step_for(p, prim)]))
    vc = state.classification()
    assert (moves.find_derived_move(g, p, vc, state.derived_failures)
            == moves.find_derived_move(g, p, vc))


_apply_move = moves.apply_move  # the solves below run under a patched one


def _build_checked(g, p, mv):
    """Build mv on p, asserting that every component it removes, re-kinds or
    rewrites was, before the move, the owner of a vertex its steps name:
    the superset `DerivedFailures.retire` drops watches on."""
    before = {cid: (c.kind, list(c.vertices)) for cid, c in p.components.items()}
    named = {p.owner[x] for _, args in mv.steps for x in args}
    built = _apply_move(g, p, mv)
    changed = {cid for cid, (kind, verts) in before.items()
               if cid not in p.components
               or (p.components[cid].kind, p.components[cid].vertices) != (kind, verts)}
    assert changed <= named, (mv, changed - named)
    return built


@settings(max_examples=100)
@given(st.data())
def test_a_move_changes_only_components_its_steps_name(data):
    if data.draw(st.booleans(), label="perturbed cliques"):
        g, p = _draw_perturbed_cliques(data)
    else:
        g, p = draw_start(data)
    for _ in range(data.draw(st.integers(0, 20), label="steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        _build_checked(g, p, moves.Move("random", [step_for(p, prim)]))
    compound = moves.find_compound_move(g, p, depth=2)
    if compound is not None:
        _build_checked(g, p.copy(), compound)
    with mock.patch.object(moves, "apply_move", lambda g, p, mv: _build_checked(g, p, mv)):
        canonicalize(g, p)


def test_every_move_kind_changes_only_components_its_steps_name():
    g = switched(gen_circulant(600, [1, 2, 3]), 60, seed=1)
    kinds = []

    def checked(g, p, mv):
        kinds.append(mv.kind)
        return _build_checked(g, p, mv)

    with mock.patch.object(moves, "apply_move", checked):
        canonicalize(g, initial_partition(g))
    assert set(kinds) == {"basic", "singleton", "derived", "pair"}
    # a compound move, found by the search from the greedy start
    p = initial_partition(g)
    compound = moves.find_compound_move(g, p, depth=2)
    assert compound.kind == "compound"
    _build_checked(g, p, compound)


def _named_instance(paths=(), cycles=(), singletons=(), free=()):
    """The graph of the named components' edges plus the named free edges,
    its partition into those components, and the vertex of each name;
    vertices are numbered in order of first appearance."""
    v = {}
    for seq in (*paths, *cycles, singletons):
        for name in seq:
            v.setdefault(name, len(v))
    edges = [(v[x], v[y]) for seq in (*paths, *cycles) for x, y in zip(seq, seq[1:])]
    edges += [(v[seq[-1]], v[seq[0]]) for seq in cycles]
    edges += [(v[x], v[y]) for x, y in free]
    p = PathPartition.from_lists(len(v), paths=[[v[x] for x in seq] for seq in paths],
                                 cycles=[[v[x] for x in seq] for seq in cycles],
                                 singletons=[v[x] for x in singletons])
    return Graph(len(v), edges), p, v


def _record_views(monkeypatch):
    views = []
    init = moves._CutView.__init__

    def recorded(self, p, sa, a, sb, b):
        views.append((sa, a, sb, b))
        init(self, p, sa, a, sb, b)

    monkeypatch.setattr(moves._CutView, "__init__", recorded)
    return views


# free edge a-b with V2 path neighbours sa and sb whose one balanced target is t
_SHARED_T = [("a", "b"), ("sa", "t"), ("sb", "t")]
_APART = [["u1", "sa", "a", "u2"], ["q0", "b", "sb", "q3"]]


@pytest.mark.parametrize("paths, cycles, singletons", [
    (_APART + [["t", "w"]], [], []),
    ([["t", "m", "sa", "a", "u2"], ["q0", "b", "sb", "q3"]], [], []),
    ([["u1", "sa", "a", "u2"], ["t", "m", "sb", "b", "q3"]], [], []),
    (_APART, [["t", "c1", "c2"]], []),
    (_APART, [], ["t"]),
    ([["u1", "a", "sa", "m", "sb", "b", "u2"], ["t", "w"]], [], []),
], ids=["outside path", "x1 piece", "x2 piece", "cycle", "singleton", "middle piece"])
def test_one_shared_target_is_rejected_without_a_view(monkeypatch, paths, cycles, singletons):
    g, p, v = _named_instance(paths, cycles, singletons, _SHARED_T)
    vc = classify_vertices(g, p, classify_edges(g, p))
    sa, a, sb, b, t = (v[x] for x in ("sa", "a", "sb", "b", "t"))
    assert vc.balanced[sa] == vc.balanced[sb] == [t]
    # the view would plan nothing, so skipping it loses no move
    assert moves._plan_reconnection(moves._CutView(p, sa, a, sb, b), sa, sb, vc) is None
    views = _record_views(monkeypatch)
    failures = moves.DerivedFailures(g.n)
    failures.reopen(p, vc, range(g.n))
    assert moves.find_derived_move(g, p, vc, failures) == _built_derived_move(g, p, vc)
    assert views == []
    # the rejected edge is recorded like an edge whose views all failed
    assert failures.failed[min(a, b), max(a, b)] == (failures.stamp[a], failures.stamp[b])


def test_an_end_with_no_path_end_target_is_rejected_without_a_view(monkeypatch):
    # sa's one balanced target lies on a cycle, and neither new end is heavy;
    # every reconnection attaches x1 = sa to a path end, so none plans
    g, p, v = _named_instance(_APART + [["t", "w"]], cycles=[["c1", "c2", "c3"]],
                              free=[("a", "b"), ("sa", "c1"), ("sb", "t")])
    vc = classify_vertices(g, p, classify_edges(g, p))
    sa, a, sb, b, c1, t = (v[x] for x in ("sa", "a", "sb", "b", "c1", "t"))
    assert (vc.balanced[sa], vc.balanced_path_ends[sa], vc.balanced[sb]) == ([c1], [], [t])
    assert not vc.heavy
    assert moves._plan_reconnection(moves._CutView(p, sa, a, sb, b), sa, sb, vc) is None
    views = _record_views(monkeypatch)
    failures = moves.DerivedFailures(g.n)
    failures.reopen(p, vc, range(g.n))
    assert moves.find_derived_move(g, p, vc, failures) == _built_derived_move(g, p, vc)
    assert views == []
    assert failures.failed[min(a, b), max(a, b)] == (failures.stamp[a], failures.stamp[b])


def test_a_heavy_end_alone_takes_the_path_end_target(monkeypatch):
    # as above, but sb alone is heavy, so x1 = sb and the candidate plans
    g, p, v = _named_instance(_APART + [["t1", "w1"], ["t2", "w2"], ["t3", "w3"]],
                              cycles=[["c1", "c2", "c3"]],
                              free=[("a", "b"), ("sa", "c1"), ("sb", "t1"), ("sb", "t2"),
                                    ("sb", "t3")])
    vc = classify_vertices(g, p, classify_edges(g, p))
    sa, a, sb, b, c1, t1 = (v[x] for x in ("sa", "a", "sb", "b", "c1", "t1"))
    assert vc.heavy == {sb} and vc.balanced_path_ends[sa] == []
    views = _record_views(monkeypatch)
    mv = moves.find_derived_move(g, p, vc)
    assert mv == _built_derived_move(g, p, vc)
    assert mv.steps[3:] == [("attach", (sa, c1)), ("attach", (sb, t1))]
    assert views == [(sa, a, sb, b)]


def test_targets_that_all_end_the_one_path_are_rejected_without_a_view(monkeypatch):
    # a-b is a chord of one path; sa faces inward and sb outward, so sa lies
    # on the joined piece with e0 and sb on the outer piece with e1. Every
    # target is e0 or e1, the far ends of those pieces, so none plans
    g, p, v = _named_instance([["e0", "a", "sa", "m", "b", "sb", "e1"]],
                              free=[("a", "b"), ("sa", "e0"), ("sa", "e1"), ("sb", "e0")])
    vc = classify_vertices(g, p, classify_edges(g, p))
    e0, a, sa, b, sb, e1 = (v[x] for x in ("e0", "a", "sa", "b", "sb", "e1"))
    assert (vc.balanced_path_ends[sa], vc.balanced[sb]) == ([e0, e1], [e0])
    assert not vc.heavy
    assert moves._plan_reconnection(moves._CutView(p, sa, a, sb, b), sa, sb, vc) is None
    views = _record_views(monkeypatch)
    failures = moves.DerivedFailures(g.n)
    failures.reopen(p, vc, range(g.n))
    assert moves.find_derived_move(g, p, vc, failures) == _built_derived_move(g, p, vc)
    assert views == []
    assert failures.failed[min(a, b), max(a, b)] == (failures.stamp[a], failures.stamp[b])


def test_a_second_target_keeps_the_candidate(monkeypatch):
    g, p, v = _named_instance(_APART + [["t", "w"], ["t2", "w2"]],
                              free=_SHARED_T + [("sa", "t2")])
    vc = classify_vertices(g, p, classify_edges(g, p))
    sa, a, sb, b, t, t2 = (v[x] for x in ("sa", "a", "sb", "b", "t", "t2"))
    assert (vc.balanced[sa], vc.balanced[sb]) == ([t, t2], [t])
    views = _record_views(monkeypatch)
    mv = moves.find_derived_move(g, p, vc)
    assert mv == _built_derived_move(g, p, vc)
    assert mv.steps[3:] == [("attach", (sb, t)), ("attach", (sa, t2))]
    assert views == [(sa, a, sb, b)]


def _watch(g, p, x):
    """x's own component and those of the graph neighbours of its path neighbours."""
    return {p.owner[x]} | {p.owner[w] for s in p.path_neighbors(x) for w in g.adj[s]}


@settings(max_examples=100)
@given(st.data())
def test_retire_then_reopen_opens_exactly_the_bumped_watchers_that_can_be_cut_at(data):
    if data.draw(st.booleans(), label="perturbed cliques"):
        g, p = _draw_perturbed_cliques(data)
    else:
        g, p = draw_start(data)
    vc = classify_vertices(g, p, classify_edges(g, p))
    failures = moves.DerivedFailures(g.n)
    edges = list(vc.free_edges())
    for a, b in data.draw(st.lists(st.sampled_from(edges)) if edges else st.just([]),
                          label="recorded edges"):
        failures.record(g, p, a, b)
    watching = {x for a, b in failures.failed for x in (a, b)}
    prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
    steps = [step_for(p, prim)]
    named = {p.owner[x] for _, args in steps for x in args}
    bumped = {x for x in watching if _watch(g, p, x) & named}
    failures.retire(p, steps)
    assert {x for x in range(g.n) if failures.stamp[x]} == bumped
    failures.reopen(p, vc, ())
    assert {x for x in range(g.n) if failures.is_open[x]} == {
        x for x in bumped
        if vc.cls[x] not in (V2A, V5) and p.role[x] not in (ON_CYCLE, ALONE)}
    assert failures.bumped == []


def test_retire_with_no_watch_registered_changes_nothing():
    g = switched(gen_circulant(60, [1, 2, 3]), 6, seed=1)
    p = initial_partition(g)
    failures = moves.DerivedFailures(g.n)
    failures.reopen(p, classify_vertices(g, p, classify_edges(g, p)), range(g.n))
    before = copy.deepcopy(vars(failures))
    for prim in legal_primitives(g, p):
        failures.retire(p, [step_for(p, prim)])
    assert vars(failures) == before


def test_a_record_stands_until_a_move_retires_a_component_it_watches():
    # (a, b) is recorded by the shared-target rejection; its verdict reads
    # a's and b's paths and t's, not the closable path x-y-z
    g, p, v = _named_instance(_APART + [["t", "w"], ["x", "y", "z"]],
                              free=_SHARED_T + [("x", "z")])
    a, b, t, x = (v[n] for n in ("a", "b", "t", "x"))
    state = SolveState(g, p)
    failures = state.derived_failures

    def scan():
        return moves.find_derived_move(g, p, state.classification(), failures)

    def stands():
        return failures.failed.get((a, b)) == (failures.stamp[a], failures.stamp[b])

    assert scan() is None and stands()
    recorded = failures.failed[a, b]
    state.apply(moves.Move("basic", [("close_of", (x,))]))
    assert stands()
    assert scan() is None and failures.failed[a, b] == recorded
    state.apply(moves.Move("random", [("split_at", (t, v["w"]))]))
    assert not stands()
    # the next scan decides (a, b) again and records it under the new stamps
    assert scan() is None and stands()
    assert failures.failed[a, b] != recorded


def test_an_outward_cut_edge_is_decided_again_after_a_split_between_its_ends():
    # free edge a-b on one path, whose only V2 cuts sa and sb face outward:
    # cutting both would close a..b into a cycle. A split between a and b
    # touches neither end, and is outside the region it reclassifies, yet
    # makes the edge a hit
    g, p, v = _named_instance([["u1", "sa", "a", "m1", "m2", "b", "sb", "q3"],
                               ["t", "w"], ["t2", "w2"]],
                              free=[("a", "b"), ("sa", "t"), ("sb", "t2")])
    sa, a, m1, m2, b, sb, t, t2 = (v[x] for x in ("sa", "a", "m1", "m2", "b", "sb", "t", "t2"))
    state = SolveState(g, p)
    failures = state.derived_failures

    def scans():
        vc = state.classification()
        return moves.find_derived_move(g, p, vc, failures), moves.find_derived_move(g, p, vc)

    assert scans() == (None, None)
    assert not failures.is_open[a]
    state.apply(moves.Move("random", [("split_at", (m1, m2))]))
    hit = moves.Move("derived", [("split_at", (sa, a)), ("split_at", (sb, b)),
                                 ("join", (a, b)), ("attach", (sb, t2)), ("attach", (sa, t))])
    assert scans() == (hit, hit)
    assert hit == _built_derived_move(g, p, state.classification())

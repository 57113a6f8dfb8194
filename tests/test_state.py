"""Property tests: the solver's incremental SolveState against from-scratch
classification, a reference classifier written from the definitions, and the
full basic-move and singleton scans, under random legal primitives."""

import heapq
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from pathpart import moves
from pathpart.classify import classify_edges, classify_vertices, edge_is_free
from pathpart.graphs import gen_disjoint_cliques
from pathpart.partition import ALONE, CYCLE, SINGLETON, PathPartition, validate_partition
from pathpart.solver import SolveState, initial_partition

from conftest import (draw_start, legal_primitives, reference_classification, regular_graph,
                      roles_from_components, step_for)


def _fresh(g, p):
    return classify_vertices(g, p, classify_edges(g, p))


def _recount(p):
    kinds = [comp.kind for comp in p.components.values()]
    return (len(kinds), -kinds.count(CYCLE), kinds.count(SINGLETON))


@given(st.data())
def test_state_tracks_random_primitives(data):
    g, p = draw_start(data)
    state = SolveState(g, p)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        assert state.apply(moves.Move("random", [step_for(p, prim)])) == [prim]
        assert validate_partition(g, p)[0]
        assert p.role == roles_from_components(p)
        assert p.potential() == _recount(p)
        # reading only now and then lets the dirty region build up over steps
        if data.draw(st.booleans(), label="read classification"):
            assert state.classification() == _fresh(g, p) == reference_classification(g, p)
        assert moves.find_basic_move(g, p, state) == moves.find_basic_move(g, p)
        assert state.first_singleton() == (p.role.index(ALONE) if p.singleton_count() else None)
    assert state.classification() == _fresh(g, p) == reference_classification(g, p)


@given(st.data())
def test_free_status_changes_only_between_touched_vertices(data):
    # the flush rebuilds only the touched vertices' free-neighbour lists,
    # which is exact only if an edge with an untouched end keeps its status
    g, p = draw_start(data)
    free = [edge_is_free(p, u, v) for u, v in g.edges]
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        touched = moves.apply_primitive(g, p, prim)
        before, free = free, [edge_is_free(p, u, v) for u, v in g.edges]
        assert all(u in touched and v in touched
                   for (u, v), was, now in zip(g.edges, before, free) if was != now)


@given(st.data())
def test_join_heap_holds_only_edges_between_components(data):
    # the heap is validated lazily, so an entry may go stale after its push;
    # what each push adds must join two components, and every entry must be
    # an edge of g as g.edges names it, (u, v) with u < v
    g, p = draw_start(data)
    state = SolveState(g, p)
    assert sorted(state.joins) == [e for e in g.edges if moves.joinable(p, *e)]
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        before = Counter(state.joins)
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        state.apply(moves.Move("random", [step_for(p, prim)]))
        assert all(p.owner[u] != p.owner[v] for u, v in Counter(state.joins) - before)
    assert set(state.joins) <= set(g.edges)


def test_check_refuses_a_singleton_heap_that_lost_the_least_singleton():
    g = regular_graph(10, 3, 0)
    state = SolveState(g, PathPartition.from_lists(g.n, singletons=range(g.n)))
    state.check()
    heapq.heappop(state.singletons)
    with pytest.raises(moves.MoveEngineError, match="singleton"):
        state.check()


def test_closing_a_clique_pushes_no_chord():
    g = gen_disjoint_cliques(6, 2, seed=0)  # two K7s
    comps = sorted({tuple(sorted((v, *g.adj[v]))) for v in range(g.n)})
    p = PathPartition.from_lists(g.n, paths=[list(c) for c in comps])
    state = SolveState(g, p)
    assert state.joins == []
    state.apply(moves.Move("basic", [("close_of", (comps[0][0],))]))
    assert state.joins == []


@pytest.mark.parametrize("n, d, seed, prims", [
    (16, 5, 2, [("split", 0, 6, 12), ("split", 1, 4, 8)]),
    (20, 6, 3, [("split", 0, 4, 13), ("split", 1, 16, 14), ("split", 2, 6, 9)]),
], ids=["heavy", "moderate"])
def test_state_follows_a_mark_that_flips_without_v2_membership(n, d, seed, prims):
    # the last split moves the heavy (or moderate) mark of a vertex that stays
    # V2, away from the touched vertices; the dangerous marks that read it
    # must follow (random primitives that read the state only now and then
    # missed both)
    g = regular_graph(n, d, seed)
    p = initial_partition(g, seed=0)
    state = SolveState(g, p)
    assert state.classification() == _fresh(g, p) == reference_classification(g, p)
    for prim in prims:
        state.apply(moves.Move("random", [step_for(p, prim)]))
        assert state.classification() == _fresh(g, p) == reference_classification(g, p)

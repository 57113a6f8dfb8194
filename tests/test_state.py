"""Property tests: the solver's incremental SolveState against from-scratch
classification and the full basic-move scan, under random legal primitives."""

import pytest
from hypothesis import given, strategies as st

from pathpart import moves
from pathpart.classify import CrossCycleError, classify_edges, classify_vertices
from pathpart.partition import CYCLE, SINGLETON, validate_partition
from pathpart.solver import SolveState, initial_partition

from conftest import draw_start, legal_primitives, regular_graph, step_for


def _fresh(g, p):
    try:
        return classify_vertices(g, p, classify_edges(g, p))
    except CrossCycleError as exc:
        return exc.edge


def _recount(p):
    kinds = [comp.kind for comp in p.components.values()]
    return (len(kinds), -kinds.count(CYCLE), kinds.count(SINGLETON))


def _incremental(state):
    try:
        return state.classification()
    except CrossCycleError as exc:
        return exc.edge


@given(st.data())
def test_state_tracks_random_primitives(data):
    g, p = draw_start(data)
    state = SolveState(g, p)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        assert state.apply(moves.Move("random", [step_for(p, prim)])) == [prim]
        assert validate_partition(g, p)[0]
        assert p.potential() == _recount(p)
        # reading only now and then lets the dirty region build up over steps
        if data.draw(st.booleans(), label="read classification"):
            assert _incremental(state) == _fresh(g, p)
        assert moves.find_basic_move(g, p, state) == moves.find_basic_move(g, p)
    assert _incremental(state) == _fresh(g, p)


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
    assert _incremental(state) == _fresh(g, p)
    for prim in prims:
        state.apply(moves.Move("random", [step_for(p, prim)]))
        assert _incremental(state) == _fresh(g, p)

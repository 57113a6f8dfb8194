"""Property tests: the solver's incremental SolveState against from-scratch
classification and the full basic-move scan, under random legal primitives."""

from hypothesis import given, strategies as st

from pathpart import moves
from pathpart.classify import CrossCycleError, classify_edges, classify_vertices
from pathpart.partition import validate_partition
from pathpart.solver import SolveState

from conftest import draw_start, legal_primitives, step_for


def _fresh(g, p):
    try:
        return classify_vertices(g, p, classify_edges(g, p))
    except CrossCycleError as exc:
        return exc.edge


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
        # reading only now and then lets the dirty region build up over steps
        if data.draw(st.booleans(), label="read classification"):
            assert _incremental(state) == _fresh(g, p)
        assert moves.find_basic_move(g, p, state) == moves.find_basic_move(g, p)
    assert _incremental(state) == _fresh(g, p)

"""Property tests: the solver's incremental SolveState against from-scratch
classification and the full basic-move scan, under random legal primitives."""

from functools import lru_cache

from hypothesis import given, strategies as st

from pathpart import moves
from pathpart.classify import CrossCycleError, classify_edges, classify_vertices
from pathpart.graphs import gen_random_regular
from pathpart.partition import CYCLE, PATH, PathPartition, validate_partition
from pathpart.solver import SolveState, initial_partition


@lru_cache(maxsize=None)
def _graph(n, d, seed):
    return gen_random_regular(n, d, seed=seed)


def _legal_primitives(g, p):
    """Splits at consecutive pairs, joins of two ends along an edge, closes of
    paths with adjacent ends, and opens at cycle edges."""
    prims = []
    for cid in p.sorted_ids():
        comp = p.components[cid]
        verts = comp.vertices
        if comp.kind == PATH:
            prims += [("split", cid, a, b) for a, b in zip(verts, verts[1:])]
            if moves.closable(g, p, cid):
                prims.append(("close", cid))
        elif comp.kind == CYCLE:
            prims += [("open", cid, a, b) for a, b in zip(verts, verts[1:] + verts[:1])]
    prims += [("join", u, v) for u, v in g.edges
              if p.owner[u] != p.owner[v] and p.is_end(u) and p.is_end(v)]
    return prims


def _fresh(g, p):
    try:
        ec = classify_edges(g, p)
    except CrossCycleError as exc:
        return exc.edge
    return ec.free_edges, classify_vertices(g, p, ec)


def _incremental(state):
    try:
        ec, vc = state.classification()
    except CrossCycleError as exc:
        return exc.edge
    return ec.free_edges, vc


@given(st.data())
def test_state_tracks_random_primitives(data):
    d = data.draw(st.integers(3, 6), label="d")
    n = data.draw(st.integers(d + 1, 20), label="n")
    n -= n * d % 2
    g = _graph(n, d, data.draw(st.integers(0, 3), label="seed"))
    if data.draw(st.booleans(), label="greedy start"):
        p = initial_partition(g, seed=0)
    else:
        p = PathPartition.from_lists(n, singletons=range(n))
    state = SolveState(g, p)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        prim = data.draw(st.sampled_from(_legal_primitives(g, p)), label="primitive")
        after = p.copy()
        moves.apply_primitive(g, after, prim)
        state.apply(moves.Move("random", [prim], p.potential(), after.potential()))
        assert validate_partition(g, p)[0]
        # reading only now and then lets the dirty region build up over steps
        if data.draw(st.booleans(), label="read classification"):
            assert _incremental(state) == _fresh(g, p)
        assert moves.find_basic_move(g, p, state) == moves.find_basic_move(g, p)
    assert _incremental(state) == _fresh(g, p)

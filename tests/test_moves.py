import itertools

import pytest

from pathpart import moves
from pathpart.classify import classify_edges, classify_vertices
from pathpart.graphs import Graph, gen_disjoint_cliques, gen_random_regular
from pathpart.moves import (SingletonEliminationError, apply_move,
                            eliminate_singletons, find_basic_move,
                            find_compound_move, find_derived_move,
                            find_pair_move)
from pathpart.partition import PathPartition, partition_to_json, validate_partition
from pathpart.solver import initial_partition

from conftest import complete_graph


def _chain(lo, hi):
    return [(i, i + 1) for i in range(lo, hi)]


def _classified(g, p):
    return classify_vertices(g, p, classify_edges(g, p))


def _apply_and_check(g, p, mv):
    phi = p.potential()
    apply_move(g, p, mv)
    ok, violations = validate_partition(g, p)
    assert ok, violations
    assert p.potential() < phi


def test_basic_join_of_adjacent_ends():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    p = PathPartition.from_lists(4, paths=[[0, 1], [2, 3]])
    mv = find_basic_move(g, p)
    assert mv is not None and mv.kind == "basic"
    _apply_and_check(g, p, mv)
    assert p.component_count() == 1


def test_basic_close_hamiltonian_path():
    g = complete_graph(7)
    p = PathPartition.from_lists(7, paths=[[0, 1, 2, 3, 4, 5, 6]])
    mv = find_basic_move(g, p)
    assert mv is not None
    _apply_and_check(g, p, mv)
    assert p.cycle_count() == 1 and p.component_count() == 1


def test_basic_none_on_disjoint_cycles():
    g = gen_disjoint_cliques(6, 2, seed=0)
    blocks = []
    seen = set()
    for v in range(g.n):
        if v not in seen:
            block = sorted({v, *g.adj[v]})
            blocks.append(block)
            seen.update(block)
    p = PathPartition.from_lists(g.n, cycles=blocks)
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    assert find_derived_move(g, p, vc) is None
    assert find_pair_move(g, p, vc) is None
    assert find_compound_move(g, p, depth=4) is None


def test_basic_opens_cycle_for_path_end():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4), (0, 3)])
    p = PathPartition.from_lists(5, cycles=[[0, 1, 2]], paths=[[3, 4]])
    mv = find_basic_move(g, p)
    _apply_and_check(g, p, mv)
    assert p.component_count() == 1 and p.cycle_count() == 0


def test_basic_merges_linked_cycles():
    tri1 = [(0, 1), (1, 2), (0, 2)]
    tri2 = [(3, 4), (4, 5), (3, 5)]
    g = Graph(6, tri1 + tri2 + [(2, 3)])
    p = PathPartition.from_lists(6, cycles=[[0, 1, 2], [3, 4, 5]])
    mv = find_basic_move(g, p)
    _apply_and_check(g, p, mv)
    assert p.component_count() == 1


def test_singleton_split_and_attach():
    g = Graph(6, _chain(1, 5) + [(0, 3)])
    p = PathPartition.from_lists(6, paths=[[1, 2, 3, 4, 5]], singletons=[0])
    mv = eliminate_singletons(g, p)
    assert mv is not None and mv.kind == "singleton"
    _apply_and_check(g, p, mv)
    assert p.singleton_count() == 0 and p.component_count() == 2


def test_singleton_two_step_shift():
    # every neighbor of the singleton is the middle of a size-3 path, but a
    # popped end reaches the interior of a longer path
    g = Graph(8, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 2), (1, 5)])
    p = PathPartition.from_lists(8, paths=[[1, 2, 3], [4, 5, 6, 7]], singletons=[0])
    assert find_basic_move(g, p) is None
    mv = eliminate_singletons(g, p)
    assert mv is not None
    assert len(mv.steps) == 4  # shift (split+join) then split+attach
    _apply_and_check(g, p, mv)
    assert p.singleton_count() == 0
    assert p.component_count() == 3


def test_singleton_exhaustion_on_star():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    p = PathPartition.from_lists(5, paths=[[1, 0, 2]], singletons=[3, 4])
    assert find_basic_move(g, p) is None
    with pytest.raises(SingletonEliminationError):
        eliminate_singletons(g, p)


def test_derived_four_path_replacement():
    # balanced edge into path two, free edge joining the two middles, balanced
    # edge out of path three: four paths become three
    edges = [(0, 1)] + _chain(2, 6) + _chain(7, 11) + [(12, 13)]
    edges += [(1, 3), (5, 0), (4, 9), (8, 12), (10, 13)]
    g = Graph(14, edges)
    paths = [[0, 1], [2, 3, 4, 5, 6], [7, 8, 9, 10, 11], [12, 13]]
    p = PathPartition.from_lists(14, paths=paths)
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    assert vc.cls[4] == "V3" and vc.cls[9] == "V3"
    mv = find_derived_move(g, p, vc)
    assert mv is not None and mv.kind == "derived"
    _apply_and_check(g, p, mv)
    assert p.component_count() == 3

    # the generic bounded search finds a reduction on the same instance
    p2 = PathPartition.from_lists(14, paths=paths)
    mv2 = find_compound_move(g, p2, depth=4)
    assert mv2 is not None
    _apply_and_check(g, p2, mv2)


def test_derived_closes_piece_into_cycle():
    # the exposed far vertex anchors to its own piece's end: one more cycle at
    # an equal component count
    edges = _chain(0, 5) + _chain(6, 11) + [(12, 13)]
    edges += [(3, 9), (8, 6), (2, 12)]
    g = Graph(14, edges)
    p = PathPartition.from_lists(14, paths=[list(range(6)), list(range(6, 12)),
                                            [12, 13]])
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    mv = find_derived_move(g, p, vc)
    assert mv is not None
    before = (p.component_count(), p.cycle_count())
    _apply_and_check(g, p, mv)
    assert p.component_count() == before[0]
    assert p.cycle_count() == before[1] + 1


def test_pair_crossing_inners_close_into_cycle():
    g = Graph(6, _chain(0, 5) + [(2, 5), (0, 3)])
    p = PathPartition.from_lists(6, paths=[list(range(6))])
    vc = _classified(g, p)
    mv = find_pair_move(g, p, vc)
    assert mv is not None and mv.kind == "pair"
    _apply_and_check(g, p, mv)
    assert p.cycle_count() == 1 and p.component_count() == 1


def test_pair_external_targets_merge():
    # adjacent V2 pair pointing at both ends of another path merges everything
    g = Graph(9, _chain(0, 5) + [(6, 7), (7, 8)] + [(2, 6), (3, 8)])
    p = PathPartition.from_lists(9, paths=[list(range(6)), [6, 7, 8]])
    vc = _classified(g, p)
    mv = find_pair_move(g, p, vc)
    assert mv is not None
    _apply_and_check(g, p, mv)
    assert p.component_count() == 1


def test_compound_depth1_matches_basic_on_singleton_free_states():
    checked = 0
    for d, n, seed in itertools.product((6, 5), (14, 24), range(6)):
        g = gen_random_regular(n, d, seed=seed)
        p = initial_partition(g, seed)
        while True:
            basic = find_basic_move(g, p)
            if p.singleton_count() == 0:
                comp = find_compound_move(g, p, depth=1)
                assert (basic is None) == (comp is None)
                checked += 1
            mv = basic or eliminate_singletons(g, p)
            if mv is None:
                vc = _classified(g, p)
                mv = find_derived_move(g, p, vc) or find_pair_move(g, p, vc)
            if mv is None:
                break
            apply_move(g, p, mv)
    assert checked >= 50


def test_every_move_is_sound_along_trajectories():
    applied = 0
    for d, n, seed in itertools.product((6, 5), (20, 34), range(4)):
        g = gen_random_regular(n, d, seed=seed)
        p = PathPartition.from_lists(n, singletons=range(n))
        while True:
            mv = find_basic_move(g, p) or eliminate_singletons(g, p)
            if mv is None:
                vc = _classified(g, p)
                mv = find_derived_move(g, p, vc) or find_pair_move(g, p, vc)
            if mv is None:
                break
            _apply_and_check(g, p, mv)
            applied += 1
    assert applied > 100


@pytest.mark.parametrize("prim, message", [
    (("split", 2, 2, 5), r"split pair \(2, 5\) not in component"),
    (("split", 8, 7, 8), "split on non-path component"),
    (("split", 0, 0, 2), "split at non-consecutive pair"),
    (("join", 0, 3), "join inside one component"),
    (("join", 3, 4), "illegal join"),
    (("close", 4), "illegal close"),
    (("open", 8, 8, 2), r"open pair \(8, 2\) not in component"),
    (("open", 0, 0, 1), "open on non-cycle component"),
    (("open", 10, 10, 12), "open at non-cycle-edge"),
    (("flip", 0), "unknown primitive"),
], ids=["split-foreign-pair", "split-cycle", "split-non-consecutive", "join-inside",
        "join-no-edge", "close-no-edge", "open-foreign-pair", "open-path",
        "open-non-cycle-edge", "unknown"])
def test_apply_primitive_refuses_and_leaves_the_partition(prim, message):
    # paths 0-1-2-3 and 4-5-6, cycles 7-8-9 and 10-11-12-13
    g = Graph(14, _chain(0, 3) + _chain(4, 6) + _chain(7, 9) + [(7, 9)]
              + _chain(10, 13) + [(10, 13)])
    p = PathPartition.from_lists(14, paths=[[0, 1, 2, 3], [4, 5, 6]],
                                 cycles=[[7, 8, 9], [10, 11, 12, 13]])
    before = partition_to_json(p)
    op, *rest = prim
    if op in ("split", "close", "open"):  # these name their component by a vertex
        rest[0] = p.owner[rest[0]]
    with pytest.raises(moves.MoveEngineError, match=message):
        moves.apply_primitive(g, p, (op, *rest))
    assert partition_to_json(p) == before

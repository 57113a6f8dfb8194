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
from pathpart.solver import initial_partition, solve

from conftest import complete_graph, count_calls


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


def test_singleton_shift_search_stops_at_its_state_budget(monkeypatch):
    # the two-step shift above expands two states: its root and one shift
    g = Graph(8, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 2), (1, 5)])
    p = PathPartition.from_lists(8, paths=[[1, 2, 3], [4, 5, 6, 7]], singletons=[0])
    monkeypatch.setattr(moves, "SHIFT_STATE_BUDGET", 2)
    assert len(eliminate_singletons(g, p).steps) == 4
    monkeypatch.setattr(moves, "SHIFT_STATE_BUDGET", 1)
    with pytest.raises(SingletonEliminationError, match="^singleton shift search budget exceeded$"):
        eliminate_singletons(g, p)


def test_outright_absorptions_build_no_signature(monkeypatch):
    # all six singletons of this solve are absorbed without a shift, so the
    # search never needs the O(n) partition signature that keys its states
    signatures = count_calls(monkeypatch, moves._partition_signature)
    report = solve(gen_random_regular(200, 6, seed=4), seed=0)
    assert report.move_counts["singleton"] == 6
    assert signatures == []


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


# Every cell of the pair-exchange table, on path 0..5 with the adjacent V2
# pair a = 2, b = 3 (o1 = 0, o2 = 5), external path 6-7, and cycles 8-9-10
# and 11-12-13. Each case names a's and b's one balanced target.
_PAIR_FRAME = _chain(0, 5) + [(6, 7)] + _chain(8, 10) + [(8, 10)] + _chain(11, 13) + [(11, 13)]
_SPLIT = ("split", 0, 2, 3)


@pytest.mark.parametrize("ta, tb, prims", [
    (0, 0, None),
    (0, 5, None),
    (0, 8, None),
    (0, 6, [_SPLIT, ("close", 4), ("join", 3, 6)]),
    (5, 0, [_SPLIT, ("join", 2, 5), ("close", 6)]),
    (5, 5, None),
    (5, 8, [_SPLIT, ("join", 2, 5), ("open", 2, 8, 9), ("join", 3, 8)]),
    (5, 6, [_SPLIT, ("join", 2, 5), ("join", 3, 6)]),
    (8, 0, [_SPLIT, ("join", 3, 0), ("open", 2, 8, 9), ("join", 2, 8)]),
    (8, 5, None),
    (8, 9, [("open", 2, 8, 9), _SPLIT, ("join", 2, 8), ("join", 3, 9)]),
    (8, 8, None),
    (8, 11, [_SPLIT, ("open", 2, 8, 9), ("join", 2, 8), ("open", 3, 11, 12), ("join", 3, 11)]),
    (8, 6, [_SPLIT, ("open", 2, 8, 9), ("join", 2, 8), ("join", 3, 6)]),
    (6, 0, [_SPLIT, ("join", 3, 0), ("join", 2, 6)]),
    (6, 5, [_SPLIT, ("join", 2, 6), ("close", 5)]),
    (6, 8, [_SPLIT, ("join", 2, 6), ("open", 2, 8, 9), ("join", 3, 8)]),
    (6, 6, None),
    (6, 7, [_SPLIT, ("join", 2, 6), ("join", 3, 7)]),
], ids=["o1-o1", "o1-o2", "o1-cyc", "o1-ext", "o2-o1", "o2-o2", "o2-cyc", "o2-ext",
        "cyc-o1", "cyc-o2", "cyc-cyc-adjacent", "cyc-cyc-same-vertex",
        "cyc-cyc-two-cycles", "cyc-ext", "ext-o1", "ext-o2", "ext-cyc",
        "ext-ext-same-end", "ext-ext-two-ends"])
def test_pair_exchange_builds_each_cell_of_its_table(ta, tb, prims):
    g = Graph(14, _PAIR_FRAME + [(2, ta), (3, tb)])
    p = PathPartition.from_lists(14, paths=[list(range(6)), [6, 7]],
                                 cycles=[[8, 9, 10], [11, 12, 13]])
    assert find_basic_move(g, p) is None
    mv = find_pair_move(g, p, _classified(g, p))
    if prims is None:
        assert mv is None
        return
    phi = p.potential()
    assert apply_move(g, p, mv)[0] == prims
    assert validate_partition(g, p)[0] and p.potential() < phi


@pytest.mark.parametrize("n, edges, comps, absorb", [
    (6, [(4, 5)], {"paths": [[1, 2, 3], [4, 5]], "singletons": [0]}, [("join", 1, 4)]),
    (5, [], {"paths": [[1, 2, 3]], "singletons": [0, 4]}, [("join", 1, 4)]),
    (7, [(4, 5), (5, 6), (4, 6)], {"paths": [[1, 2, 3]], "cycles": [[4, 5, 6]],
                                   "singletons": [0]},
     [("open", 1, 4, 5), ("join", 1, 4)]),
], ids=["end", "singleton", "cycle"])
def test_singleton_absorbed_outright_after_a_shift(n, edges, comps, absorb):
    # singleton 0 sees only the middle of path 1-2-3 (id 0); shifting it
    # there pops 1, which vertex 4 (component id 1) absorbs outright
    g = Graph(n, [(1, 2), (2, 3), (0, 2), (1, 4)] + edges)
    p = PathPartition.from_lists(n, **comps)
    phi = p.potential()
    mv = eliminate_singletons(g, p)
    assert apply_move(g, p, mv)[0] == [("split", 0, 1, 2), ("join", 0, 2)] + absorb
    assert validate_partition(g, p)[0] and p.potential() < phi


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


def test_compound_search_stops_at_its_node_budget(monkeypatch, petersen):
    # a Hamiltonian path of the Petersen graph, which has no Hamiltonian
    # cycle, so no rewiring improves it: depth 3 spends the last of the 200
    # states, and no deeper search starts
    p = solve(petersen, seed=0).partition
    assert p.potential() == (1, 0, 0)
    monkeypatch.setattr(moves, "COMPOUND_NODE_BUDGET", 200)
    calls = count_calls(monkeypatch, moves._compound_dfs)
    assert find_compound_move(petersen, p, depth=6) is None
    assert [remaining for _, state, _, remaining, *_ in calls if state is p] == [1, 2, 3]
    assert calls[0][5] == [0]


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
    (("close", 99), "close of missing component 99"),
    (("join", 0, 14), r"join of a vertex outside the partition \(0, 14\)"),
    (("join", -1, 0), r"join of a vertex outside the partition \(-1, 0\)"),
    (("open", 8, 8, 2), r"open pair \(8, 2\) not in component"),
    (("open", 0, 0, 1), "open on non-cycle component"),
    (("open", 10, 10, 12), "open at non-cycle-edge"),
    (("flip", 0), "unknown primitive"),
], ids=["split-foreign-pair", "split-cycle", "split-non-consecutive", "join-inside",
        "join-no-edge", "close-no-edge", "close-missing", "join-past-n",
        "join-negative", "open-foreign-pair", "open-path",
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
        v = rest[0]  # 99 names no vertex and no component
        rest[0] = p.owner[v] if 0 <= v < p.n else v
    with pytest.raises(moves.MoveEngineError, match=message):
        moves.apply_primitive(g, p, (op, *rest))
    assert partition_to_json(p) == before


@pytest.mark.parametrize("kind, prim", [("path", ("split", 0, 2, -1)),
                                        ("cycle", ("open", 0, 0, -1))],
                         ids=["split", "open"])
def test_apply_primitive_refuses_a_negative_vertex(kind, prim):
    # as a list index -1 reads vertex 3, which would make a legal pair here
    g = Graph(4, _chain(0, 3) + [(0, 3)])
    p = PathPartition.from_lists(4, **{kind + "s": [[0, 1, 2, 3]]})
    before = partition_to_json(p)
    with pytest.raises(moves.MoveEngineError, match=r"pair \(\d, -1\) not in component 0"):
        moves.apply_primitive(g, p, prim)
    assert partition_to_json(p) == before

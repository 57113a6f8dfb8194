"""Hand-built configurations for the dangerous-vertex and splitting-inner
rewirings, which random fuzzing essentially never reaches."""

import pytest

from pathpart import moves
from pathpart.classify import classify_edges, classify_vertices
from pathpart.graphs import Graph
from pathpart.moves import (apply_move, find_basic_move, find_derived_move,
                            find_pair_move)
from pathpart.partition import PathPartition, validate_partition


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


def _dangerous_base():
    """Path 0..9 with heavy 2, dangerous 3, moderate 4, free edge (3, 6) into
    a vertex whose single V2 path neighbor is 7."""
    edges = _chain(0, 9)
    edges += [(10, 11), (12, 13), (14, 15)]     # external paths for heaviness
    edges += [(2, 10), (2, 12), (2, 14), (3, 6)]
    return edges


def test_anchor_targeting_near_end_is_rewired():
    # 7's only balanced edge lands on the near end 0; 4 reaches the far end 9
    # and a cycle, so the generic split enumeration has nothing to offer
    edges = _dangerous_base() + [(16, 17), (17, 18), (16, 18)]
    edges += [(4, 9), (4, 16), (7, 0)]
    g = Graph(19, edges)
    p = PathPartition.from_lists(
        19, paths=[list(range(10)), [10, 11], [12, 13], [14, 15]],
        cycles=[[16, 17, 18]])
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    assert 2 in vc.heavy and 4 in vc.moderate and 3 in vc.dangerous
    assert find_pair_move(g, p, vc) is None
    mv = find_derived_move(g, p, vc)
    assert mv is not None
    before = (p.component_count(), p.cycle_count())
    _apply_and_check(g, p, mv)
    assert p.component_count() == before[0]
    assert p.cycle_count() == before[1] + 1


def test_anchor_targeting_cycle_with_moderate_on_near_end():
    # 7 goes to a cycle while 4's only path target is the near end 0
    edges = _dangerous_base() + [(16, 17), (17, 18), (16, 18)]
    edges += [(4, 0), (4, 17), (7, 16)]
    g = Graph(19, edges)
    p = PathPartition.from_lists(
        19, paths=[list(range(10)), [10, 11], [12, 13], [14, 15]],
        cycles=[[16, 17, 18]])
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    assert 3 in vc.dangerous
    mv = find_derived_move(g, p, vc)
    assert mv is not None
    before = p.component_count()
    _apply_and_check(g, p, mv)
    assert p.component_count() == before - 1


def test_far_neighbor_targeting_near_end_is_rewired():
    # 7 is anchored to the far end 9 as required, but 4 also reaches the near
    # end 0: the stretch between curls into a cycle
    edges = _dangerous_base() + [(4, 0), (4, 9), (7, 9)]
    g = Graph(16, edges)
    p = PathPartition.from_lists(
        16, paths=[list(range(10)), [10, 11], [12, 13], [14, 15]])
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    assert 3 in vc.dangerous
    mv = find_derived_move(g, p, vc)
    assert mv is not None
    before = (p.component_count(), p.cycle_count())
    _apply_and_check(g, p, mv)
    assert p.component_count() == before[0]
    assert p.cycle_count() == before[1] + 1


def test_far_neighbor_external_target_via_direct_scan():
    # with an external target for 4 the generic enumeration also succeeds, so
    # exercise the scanner branch directly
    edges = _dangerous_base() + [(16, 17)]
    edges += [(4, 16), (4, 9), (7, 9)]
    g = Graph(18, edges)
    p = PathPartition.from_lists(
        18, paths=[list(range(10)), [10, 11], [12, 13], [14, 15], [16, 17]])
    vc = _classified(g, p)
    assert 3 in vc.dangerous
    steps = moves._find_dangerous_move(p, vc)
    assert steps is not None
    _apply_and_check(g, p, moves.Move("derived", steps))


def test_splitting_inners_with_heavy_before_the_pair():
    edges = _chain(0, 7)
    edges += [(8, 9), (10, 11), (12, 13)]
    edges += [(2, 8), (2, 10), (2, 12), (4, 0), (5, 7)]
    g = Graph(14, edges)
    p = PathPartition.from_lists(
        14, paths=[list(range(8)), [8, 9], [10, 11], [12, 13]])
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    assert 2 in vc.heavy
    mv = find_pair_move(g, p, vc)
    assert mv is not None and mv.kind == "pair"
    before = (p.component_count(), p.cycle_count())
    _apply_and_check(g, p, mv)
    assert p.component_count() == before[0]
    assert p.cycle_count() == before[1] + 1


def test_splitting_inners_with_heavy_after_the_pair():
    edges = _chain(0, 7)
    edges += [(8, 9), (10, 11), (12, 13)]
    edges += [(5, 8), (5, 10), (5, 12), (2, 0), (3, 7)]
    g = Graph(14, edges)
    p = PathPartition.from_lists(
        14, paths=[list(range(8)), [8, 9], [10, 11], [12, 13]])
    assert find_basic_move(g, p) is None
    vc = _classified(g, p)
    assert 5 in vc.heavy
    mv = find_pair_move(g, p, vc)
    assert mv is not None
    before = (p.component_count(), p.cycle_count())
    _apply_and_check(g, p, mv)
    assert p.component_count() == before[0]
    assert p.cycle_count() == before[1] + 1


# The dangerous base with a cycle 16-17-18 and a path 19-20 to aim at: x1 = 2
# is heavy, v3 = 3 dangerous, y1 = 4, u = 6 and x2 = 7, with o1 = 0 and o2 = 9.
# Each case gives y1's and x2's balanced edges; component ids are 0 for the
# long path, 1-3 for the heaviness paths, 4 for 19-20 and 5 for the cycle.
_DANGEROUS_FRAME = _dangerous_base() + [(16, 17), (17, 18), (16, 18), (19, 20)]


@pytest.mark.parametrize("edges, prims", [
    ([(7, 0), (4, 0), (4, 9)],
     [("split", 0, 3, 4), ("split", 7, 6, 7), ("join", 7, 0), ("join", 3, 6), ("close", 11)]),
    ([(7, 0), (4, 0), (4, 19)],
     [("split", 0, 3, 4), ("split", 7, 6, 7), ("join", 7, 0), ("join", 3, 6), ("join", 4, 19)]),
    ([(7, 0), (4, 0), (4, 16)],
     [("split", 0, 3, 4), ("split", 7, 6, 7), ("join", 7, 0), ("join", 3, 6),
      ("open", 5, 16, 17), ("join", 4, 16)]),
    ([(7, 16), (4, 9), (4, 17)],
     [("split", 0, 3, 4), ("split", 7, 6, 7), ("join", 3, 6), ("join", 4, 9),
      ("open", 5, 16, 17), ("join", 7, 16)]),
    ([(7, 16), (4, 19), (4, 17)],
     [("split", 0, 3, 4), ("split", 7, 6, 7), ("join", 3, 6), ("join", 4, 19),
      ("open", 5, 16, 17), ("join", 7, 16)]),
    ([(7, 16), (4, 0), (4, 17)],
     [("split", 0, 2, 3), ("split", 7, 3, 4), ("split", 9, 6, 7), ("join", 2, 10),
      ("join", 4, 0), ("join", 3, 6), ("open", 5, 16, 17), ("join", 7, 16)]),
    ([(7, 19), (4, 9), (4, 17)],
     [("split", 0, 2, 3), ("split", 7, 6, 7), ("close", 8), ("join", 2, 10), ("join", 7, 19)]),
    ([(7, 9), (4, 9), (4, 19)],
     [("split", 0, 3, 4), ("split", 7, 6, 7), ("join", 3, 6), ("join", 4, 19), ("close", 9)]),
    ([(7, 9), (4, 0), (4, 9)],
     [("split", 0, 2, 3), ("split", 7, 3, 4), ("split", 9, 6, 7), ("join", 2, 10),
      ("join", 4, 0), ("join", 3, 6), ("close", 11)]),
    ([(7, 9), (4, 9), (4, 16)], None),
], ids=["x2-near-end-y1-closes", "x2-near-end-y1-to-an-end", "x2-near-end-y1-to-a-cycle",
        "x2-cycle-y1-far-end", "x2-cycle-y1-outside-end", "x2-cycle-y1-near-end",
        "x2-outside-end", "x2-anchored-y1-outside-end", "x2-anchored-y1-near-end",
        "x2-anchored-y1-anchored"])
def test_dangerous_rewiring_builds_exact_primitives(edges, prims):
    g = Graph(21, _DANGEROUS_FRAME + edges)
    p = PathPartition.from_lists(
        21, paths=[list(range(10)), [10, 11], [12, 13], [14, 15], [19, 20]],
        cycles=[[16, 17, 18]])
    vc = _classified(g, p)
    assert 3 in vc.dangerous and 2 in vc.heavy
    steps = moves._find_dangerous_move(p, vc)
    if prims is None:
        assert steps is None
        return
    phi = p.potential()
    assert apply_move(g, p, moves.Move("derived", steps))[0] == prims
    assert validate_partition(g, p)[0] and p.potential() < phi

import itertools

from pathpart.classify import (V1, V2A, V2B, V3, V4, V5, classify_edges,
                               classify_vertices)
from pathpart.graphs import Graph, gen_disjoint_cliques, gen_random_regular
from pathpart.moves import Move
from pathpart.partition import PathPartition
from pathpart.solver import SolveState, solve

from conftest import complete_graph, reference_classification


def _chain(lo, hi):
    return [(i, i + 1) for i in range(lo, hi)]


def _classified(g, p):
    return classify_vertices(g, p, classify_edges(g, p))


def test_k7_as_cycle_all_edges_cycle():
    g = complete_graph(7)
    p = PathPartition.from_lists(7, cycles=[[0, 1, 2, 3, 4, 5, 6]])
    assert list(_classified(g, p).free_edges()) == []


def test_two_k7_cycles():
    g = gen_disjoint_cliques(6, 2, seed=0)
    # recover the two blocks from connectivity: vertices of each K7
    blocks = []
    seen = set()
    for v in range(g.n):
        if v in seen:
            continue
        block = sorted({v, *g.adj[v]})
        blocks.append(block)
        seen.update(block)
    p = PathPartition.from_lists(g.n, cycles=blocks)
    assert list(_classified(g, p).free_edges()) == []


def test_k7_single_path_split():
    g = complete_graph(7)
    p = PathPartition.from_lists(7, paths=[[0, 1, 2, 3, 4, 5, 6]])
    free = list(_classified(g, p).free_edges())
    assert len(free) == 15 and free == sorted(free)
    assert all(abs(u - v) > 1 for u, v in free)


def test_edge_between_two_cycles_is_free():
    # a canonical partition has no such edge (a basic move merges the two
    # cycles), so solves on random graphs seldom classify one
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)])
    p = PathPartition.from_lists(6, cycles=[[0, 1, 2], [3, 4, 5]])
    assert list(_classified(g, p).free_edges()) == [(0, 3)]
    # the same partition reached by closing two touching paths, one at a time
    p = PathPartition.from_lists(6, paths=[[0, 1, 2], [3, 4, 5]])
    state = SolveState(g, p)
    assert state.classification() == _classified(g, p) == reference_classification(g, p)
    for v in (0, 3):
        state.apply(Move("basic", [("close_of", (v,))]))
        assert state.classification() == _classified(g, p) == reference_classification(g, p)
    assert p.cycle_count() == 2 and state.classification().free_nbrs[0] == [3]


def test_all_cycles_partition_is_all_v1():
    g = gen_disjoint_cliques(6, 2, seed=3)
    report = solve(g, seed=0)
    p = report.partition
    vc = classify_vertices(g, p, classify_edges(g, p))
    assert all(c == V1 for c in vc.cls)


def test_middle_vertex_v2a():
    # path a-b-c plus a second path; only b has a free edge to a path end
    g = Graph(5, [(0, 1), (1, 2), (3, 4), (1, 3)])
    p = PathPartition.from_lists(5, paths=[[0, 1, 2], [3, 4]])
    vc = classify_vertices(g, p, classify_edges(g, p))
    assert vc.cls[0] == V1 and vc.cls[2] == V1
    assert vc.cls[1] == V2A


def test_ten_vertex_sequence_every_class_fires():
    # one path 0..9 plus free edges (1,9), (3,0), (7,0), (8,0)
    g = Graph(10, _chain(0, 9) + [(1, 9), (3, 0), (7, 0), (8, 0)])
    p = PathPartition.from_lists(10, paths=[list(range(10))])
    vc = classify_vertices(g, p, classify_edges(g, p))
    expected = [V1, V2A, V3, V2A, V4, V5, V4, V2B, V2B, V1]
    assert vc.cls == expected
    assert reference_classification(g, p).cls == expected


def test_balanced_targets_and_flags():
    # heavy needs three balanced edges to path ends; moderate two with one to a path
    paths = [[0, 1, 2], [3, 4], [5, 6], [7, 8]]
    edges = _chain(0, 2) + [(3, 4), (5, 6), (7, 8)]
    edges += [(1, 3), (1, 5), (1, 7)]  # vertex 1 goes to three path ends
    g = Graph(9, edges)
    p = PathPartition.from_lists(9, paths=paths)
    vc = classify_vertices(g, p, classify_edges(g, p))
    assert 1 in vc.heavy and 1 in vc.moderate
    assert vc.balanced_path_ends[1] == [3, 5, 7]


def test_dangerous_requires_heavy_and_moderate_neighbors():
    # path 0..4 with 1 heavy (3 ends), 3 moderate (2 ends), 2 in V3
    edges = _chain(0, 4)
    edges += [(5, 6), (7, 8), (9, 10), (11, 12)]
    edges += [(1, 5), (1, 7), (1, 9), (3, 11), (3, 5)]
    g = Graph(13, edges)
    p = PathPartition.from_lists(
        13, paths=[[0, 1, 2, 3, 4], [5, 6], [7, 8], [9, 10], [11, 12]])
    vc = classify_vertices(g, p, classify_edges(g, p))
    assert vc.cls[2] == V3
    assert 1 in vc.heavy and 3 in vc.moderate and 3 not in vc.heavy
    assert 2 in vc.dangerous


def test_classes_partition_and_invariants_on_solved_instances():
    for d, n, seed in itertools.product((5, 6), (14, 28), range(5)):
        g = gen_random_regular(n, d, seed=seed)
        report = solve(g, seed=seed)
        p = report.partition
        vc = classify_vertices(g, p, classify_edges(g, p))
        assert vc == reference_classification(g, p)
        assert all(c in (V1, V2A, V2B, V3, V4, V5) for c in vc.cls)
        assert vc.heavy <= vc.moderate
        v1set = {v for v in range(n) if vc.cls[v] == V1}
        for u, v in vc.free_edges():
            # locally canonical: no free edge joins two V1 vertices, so every
            # free edge at V1 is balanced
            assert not (u in v1set and v in v1set)
            if u in v1set or v in v1set:
                other = v if u in v1set else u
                assert vc.is_v2(other)

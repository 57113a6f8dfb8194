import json

import pytest
from hypothesis import given, strategies as st

from pathpart import moves
from pathpart.graphs import gen_disjoint_cliques
from pathpart.partition import (ALONE, END, INNER, ON_CYCLE, Component, PathPartition,
                                partition_from_json, partition_to_json, validate_partition)

from conftest import complete_graph, draw_start, legal_primitives, roles_from_components


def test_hamiltonian_path_on_k7_is_valid():
    g = complete_graph(7)
    p = PathPartition.from_lists(7, paths=[[0, 1, 2, 3, 4, 5, 6]])
    ok, violations = validate_partition(g, p)
    assert ok and violations == []


def test_vertex_in_two_components_flagged():
    g = complete_graph(7)
    p = PathPartition.from_lists(7, paths=[[0, 1, 2, 3]])
    p.add(Component("path", [3, 4, 5, 6]))
    ok, violations = validate_partition(g, p)
    assert not ok
    assert any("multiplicity" in v for v in violations)


def test_missing_edge_flagged():
    g = gen_disjoint_cliques(6, 2, seed=0)
    verts = sorted(range(14))
    p = PathPartition.from_lists(14, paths=[verts])
    ok, violations = validate_partition(g, p)
    assert not ok
    assert any("missing edge" in v for v in violations)


def test_shape_violations():
    g = complete_graph(4)
    p = PathPartition.from_lists(4, paths=[[0]], cycles=[[1, 2]], singletons=[3])
    ok, violations = validate_partition(g, p)
    assert not ok
    assert any("path of size 1" in v for v in violations)
    assert any("cycle of size 2" in v for v in violations)


def test_uncovered_vertex_flagged():
    g = complete_graph(3)
    p = PathPartition.from_lists(3, paths=[[0, 1]])
    ok, violations = validate_partition(g, p)
    assert not ok
    assert any("uncovered" in v for v in violations)


def test_potential_and_counts():
    p = PathPartition.from_lists(9, paths=[[0, 1, 2]], cycles=[[3, 4, 5]],
                                 singletons=[6, 7, 8])
    assert p.component_count() == 5
    assert p.cycle_count() == 1
    assert p.singleton_count() == 3
    assert p.potential() == (5, -1, 3)


def test_owner_index_and_helpers():
    p = PathPartition.from_lists(6, paths=[[0, 1, 2]], cycles=[[3, 4, 5]])
    assert p.is_end(0) and p.is_end(2) and not p.is_end(1)
    assert p.path_neighbors(1) == (0, 2)
    assert set(p.path_neighbors(4)) == {3, 5}
    assert p.role[3] == ON_CYCLE
    assert p.role == [END, INNER, END, ON_CYCLE, ON_CYCLE, ON_CYCLE]


def test_stale_role_flagged():
    g = complete_graph(5)
    p = PathPartition.from_lists(5, paths=[[0, 1, 2, 3]], singletons=[4])
    assert validate_partition(g, p) == (True, [])
    p.role[1] = END
    p.role[4] = INNER
    assert validate_partition(g, p) == (False, ["role index stale for vertex 1",
                                                "role index stale for vertex 4"])


def test_json_round_trip_and_cycle_canonicalization():
    p = PathPartition.from_lists(9, paths=[[8, 7, 6]], cycles=[[4, 3, 5]],
                                 singletons=[0, 1, 2])
    text = partition_to_json(p)
    assert '"cycles": [[3, 4, 5]]' in text or '"cycles": [[3, 5, 4]]' in text
    q = partition_from_json(9, text)
    assert partition_to_json(q) == text
    assert text.endswith("\n")


@given(st.data())
def test_json_round_trip_under_random_primitives(data):
    g, p = draw_start(data)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        moves.apply_primitive(g, p, data.draw(st.sampled_from(legal_primitives(g, p)),
                                              label="primitive"))
        assert p.role == roles_from_components(p)
        text = partition_to_json(p)
        assert partition_to_json(partition_from_json(g.n, text)) == text


def test_copy_is_independent():
    p = PathPartition.from_lists(4, paths=[[0, 1, 2, 3]])
    q = p.copy()
    assert q.owner is not p.owner and q.pos is not p.pos and q.role is not p.role
    assert q.kind_counts is not p.kind_counts
    q.set_kind(q.owner[0], "cycle")
    assert p.potential() == (1, 0, 0) and q.potential() == (1, -1, 0)
    assert p.role == [END, INNER, INNER, END] and q.role == [ON_CYCLE] * 4
    q.remove(q.owner[0])
    q.add(Component("singleton", [3]))
    assert p.component_count() == 1 and q.component_count() == 1
    assert p.owner == [0, 0, 0, 0] and p.pos == [0, 1, 2, 3]
    assert q.owner == [None, None, None, 1] and q.pos == [None, None, None, 0]
    assert p.role == [END, INNER, INNER, END] and q.role == [None, None, None, ALONE]
    assert p.potential() == (1, 0, 0) and q.potential() == (1, 0, 1)


def test_replace_indexes_the_new_components_under_fresh_ids():
    g = complete_graph(6)
    p = PathPartition.from_lists(6, paths=[[0, 1, 2], [3, 4]], singletons=[5])
    new = [Component("path", [5, 2, 1]), Component("singleton", [0])]
    p.replace([0, 2], new)
    assert sorted(p.components) == [1, 3, 4]
    assert validate_partition(g, p) == (True, [])
    assert p.owner == [4, 3, 3, 1, 1, 3] and p.pos == [0, 2, 1, 0, 1, 0]
    assert p.role == [ALONE, END, INNER, END, END, END]
    assert p.potential() == (3, 0, 1)


def test_primitives_build_without_clearing(monkeypatch):
    # split, join and open index only the components they create
    g = complete_graph(5)
    p = PathPartition.from_lists(5, paths=[[0, 1, 2], [3, 4]])
    monkeypatch.setattr(PathPartition, "remove", None)
    for prim in [("join", 2, 3), ("close", 2), ("open", 2, 1, 2), ("split", 3, 0, 4)]:
        moves.apply_primitive(g, p, prim)
        assert validate_partition(g, p) == (True, [])
        assert p.role == roles_from_components(p)
    assert sorted(c.vertices for c in p.components.values()) == [[0, 1], [2, 3, 4]]


@pytest.mark.parametrize("lists, violations", [
    ({"paths": [[0, 1, 5]], "singletons": [2]},
     ["component 0: vertex 5 out of range", "component 0: missing edge (1, 5)"]),
    ({"paths": [[0, 1, -1]], "singletons": [2]},
     ["component 0: vertex -1 out of range", "component 0: missing edge (1, -1)"]),
    ({"paths": [[2, 0, 1]], "singletons": [-1]}, ["component 1: vertex -1 out of range"]),
    ({"singletons": [0, 1, 2, 3]}, ["component 3: vertex 3 out of range"]),
    ({"paths": [[5, 0]], "singletons": [1, 2]},
     ["component 0: vertex 5 out of range", "component 0: missing edge (5, 0)"]),
    ({"paths": [[-1, 0]], "singletons": [1, 2]},
     ["component 0: vertex -1 out of range", "component 0: missing edge (-1, 0)"]),
], ids=["past-n", "negative-beside-last", "negative-singleton", "singleton-at-n",
        "past-n-first", "negative-first"])
def test_vertices_outside_the_graph_are_reported_not_raised(lists, violations):
    # an index list would raise at n and read -1 as vertex 2, which is
    # adjacent to 0: `has_edge` reads a row of `adj` only for a vertex in range
    g = complete_graph(3)
    for p in (PathPartition.from_lists(3, **lists), partition_from_json(3, json.dumps(lists))):
        assert validate_partition(g, p) == (False, violations)
        assert p.role == roles_from_components(p)

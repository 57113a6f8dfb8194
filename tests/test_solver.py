import itertools
import json

import pytest
from hypothesis import given, strategies as st

from pathpart import moves
from pathpart.classify import classify_edges, classify_vertices
from pathpart.discharge import RULES_D6, apply_rules, ruleset_for_degree
from pathpart.graphs import Graph, gen_disjoint_cliques, gen_random_regular
from pathpart.partition import END, PathPartition, partition_to_json, validate_partition
from pathpart.solver import _focus_for, canonicalize, initial_partition, solve

from conftest import complete_graph, count_calls, draw_start, legal_primitives


def test_initial_partition_k7_single_path():
    g = complete_graph(7)
    p = initial_partition(g, seed=0)
    assert p.component_count() == 1
    assert next(iter(p.components.values())).kind == "path"
    assert validate_partition(g, p)[0]


def test_initial_partition_edgeless_all_singletons():
    g = Graph(5, [])
    p = initial_partition(g, seed=0)
    assert p.singleton_count() == 5


def test_initial_partition_two_cliques_two_paths():
    g = gen_disjoint_cliques(6, 2, seed=0)
    p = initial_partition(g, seed=0)
    assert p.component_count() == 2
    assert all(c.kind == "path" and len(c.vertices) == 7
               for c in p.components.values())


def test_canonicalize_k7_one_cycle():
    g = complete_graph(7)
    report = canonicalize(g, initial_partition(g, 0))
    p = report.partition
    assert p.component_count() == 1 and p.cycle_count() == 1
    assert report.certificate.verdict


def test_canonicalize_idempotent():
    g = gen_random_regular(42, 6, seed=9)
    first = solve(g, seed=9)
    second = canonicalize(g, first.partition)
    assert sum(second.move_counts.values()) == 0
    assert partition_to_json(second.partition) == partition_to_json(first.partition)


def test_clique_family_is_tight():
    for k in (1, 4, 9):
        g = gen_disjoint_cliques(6, k, seed=k)
        report = solve(g, seed=0)
        assert report.component_count == k == g.n // 7
        assert report.certificate.verdict


def test_random_instance_within_bound():
    g = gen_random_regular(70, 6, seed=2)
    report = solve(g, seed=0)
    assert report.certificate.verdict
    assert report.component_count <= 10


def test_potential_trace_strictly_decreasing():
    g = gen_random_regular(28, 6, seed=5)
    report = canonicalize(g, PathPartition.from_lists(28, singletons=range(28)))
    trace = report.potential_trace
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert report.component_count <= trace[0][0]


@given(st.data())
def test_potential_decreases_from_mid_solve_states(data):
    # random primitives leave cycles, singletons and cut paths behind
    g, p = draw_start(data)
    for _ in range(data.draw(st.integers(0, 30), label="steps")):
        prim = data.draw(st.sampled_from(legal_primitives(g, p)), label="primitive")
        moves.apply_primitive(g, p, prim)
    report = canonicalize(g, p, validate_each=True)
    phis = report.potential_trace
    assert all(a > b for a, b in zip(phis, phis[1:]))
    q = report.partition
    assert validate_partition(g, q)[0]
    vc = classify_vertices(g, q, classify_edges(g, q))
    assert moves.find_basic_move(g, q) is None
    assert moves.eliminate_singletons(g, q) is None
    assert moves.find_derived_move(g, q, vc) is None
    assert moves.find_pair_move(g, q, vc) is None


def test_solver_deterministic():
    g = gen_random_regular(42, 5, seed=3)
    a = solve(g, seed=11)
    b = solve(g, seed=11)
    assert partition_to_json(a.partition) == partition_to_json(b.partition)
    assert a.move_counts == b.move_counts
    assert a.to_json() == b.to_json()


def test_solver_trace_records_moves():
    g = gen_random_regular(28, 6, seed=1)
    report = solve(g, seed=1, record_trace=True)
    assert len(report.trace) == sum(report.move_counts.values())
    if report.trace:
        entry = report.trace[0]
        assert {"step", "move_kind", "primitives", "phi_before", "phi_after"} <= entry.keys()


def _assert_report_matches_fresh_classification(g, report, rules):
    p = report.partition
    vc = classify_vertices(g, p, classify_edges(g, p))
    assert report.vc == vc
    assert report.ledger == apply_rules(g, p, vc, rules)
    return vc


def test_final_partitions_are_locally_canonical():
    for d, n, seed in itertools.product((6, 5), (14, 28), range(3)):
        g = gen_random_regular(n, d, seed=seed)
        report = solve(g, seed=seed)
        p = report.partition
        assert p.singleton_count() == 0
        assert moves.find_basic_move(g, p) is None
        vc = _assert_report_matches_fresh_classification(
            g, report, ruleset_for_degree(d))
        assert moves.find_derived_move(g, p, vc) is None
        assert moves.find_pair_move(g, p, vc) is None


def test_escalated_report_keeps_the_final_classification():
    # degree-6 rules on two K6s fail at every depth, so the search escalates
    g = gen_disjoint_cliques(5, 2, seed=0)
    report = solve(g, seed=0, rules=RULES_D6)
    assert report.escalated and not report.certificate.verdict
    _assert_report_matches_fresh_classification(g, report, RULES_D6)


def test_a_compound_move_repairs_the_fixed_point_and_the_loop_reruns(monkeypatch):
    # forced degree-6 rules on an irregular 6-vertex graph: the greedy path
    # 0-4-5-1-3-2 is a fixed point and fails the floor (n < 7); the depth-4
    # search curls it into a 6-cycle, the loop and certificate run again and
    # fail again, and the second round's search escalates and gives up
    g = Graph(6, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])
    searches = []
    find = moves.find_compound_move

    def recorded(g, p, depth, focus):
        mv = find(g, p, depth=depth, focus=focus)
        searches.append((depth, mv is not None))
        return mv

    monkeypatch.setattr(moves, "find_compound_move", recorded)
    report = solve(g, seed=70, rules=RULES_D6, record_trace=True)
    assert searches == [(4, True), (4, False), (6, False)]
    assert report.move_counts == {"compound": 1} and report.escalated
    assert not report.certificate.verdict
    assert [step["primitives"] for step in report.trace] == [
        [["split", 0, 1, 3], ["close", 1], ["open", 1, 0, 4], ["join", 0, 3], ["close", 4]]]
    assert json.loads(partition_to_json(report.partition))["cycles"] == [[0, 1, 5, 4, 2, 3]]
    _assert_report_matches_fresh_classification(g, report, RULES_D6)


def test_fixed_point_is_classified_once(monkeypatch):
    # the random graph needs derived moves, each of which reads the classification
    calls = count_calls(monkeypatch, classify_edges)
    for g in (gen_disjoint_cliques(6, 3, seed=0), gen_random_regular(200, 6, seed=4)):
        calls.clear()
        report = solve(g, seed=0)
        assert report.certificate.verdict
        assert len(calls) == 1


def test_checked_solve_from_singletons():
    g = gen_random_regular(60, 6, seed=8)
    p = PathPartition.from_lists(g.n, singletons=range(g.n))
    report = canonicalize(g, p, validate_each=True)
    assert report.certificate.verdict
    assert report.move_counts.get("derived")


def test_focus_is_two_free_edges_around_the_failing_vertices():
    # paths 0-1-2-3 and 4-5-6-7; free edges 0-4, 4-6, 6-2 and 1-7
    free = [(0, 4), (4, 6), (2, 6), (1, 7)]
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] + free)
    p = PathPartition.from_lists(8, paths=[[0, 1, 2, 3], [4, 5, 6, 7]])
    vc = classify_vertices(g, p, classify_edges(g, p))
    assert sorted(vc.free_edges()) == sorted(free)
    # 2 is three free edges from 0, and path edges do not count
    assert _focus_for(vc, [0]) == {0, 4, 6}
    assert _focus_for(vc, [0, 7]) == {0, 1, 4, 6, 7}
    assert _focus_for(vc, [3]) == {3}


def test_validate_each_refuses_a_move_that_leaves_a_stale_index(monkeypatch):
    # the closing move's build leaves vertex 0 marked a path end on the cycle
    build = moves.apply_move

    def faulty(g, p, mv):
        built = build(g, p, mv)
        p.role[0] = END
        return built

    monkeypatch.setattr(moves, "apply_move", faulty)
    g = complete_graph(7)
    p = PathPartition.from_lists(7, paths=[list(range(7))])
    with pytest.raises(moves.MoveEngineError, match=r"^invalid partition after move: "
                       r"\['role index stale for vertex 0'\]$"):
        canonicalize(g, p, validate_each=True)


@pytest.mark.parametrize("finder", ["find_basic_move", "eliminate_singletons"])
def test_a_move_that_does_not_improve_is_refused(monkeypatch, finder):
    # a move that only splits the path raises the component count
    g = complete_graph(7)
    p = PathPartition.from_lists(7, paths=[list(range(7))])
    monkeypatch.setattr(moves, "find_basic_move", lambda *args: None)
    monkeypatch.setattr(moves, finder, lambda *args: moves.Move("split", [("split_at", (2, 3))]))
    with pytest.raises(moves.MoveEngineError, match=r"split move does not improve: \(1, 0, 0\)"):
        canonicalize(g, p)

import itertools

from pathpart import moves
from pathpart.classify import classify_edges, classify_vertices
from pathpart.discharge import RULES_D6, apply_rules, ruleset_for_degree
from pathpart.graphs import Graph, gen_disjoint_cliques, gen_random_regular
from pathpart.partition import PathPartition, partition_to_json, validate_partition
from pathpart.solver import canonicalize, initial_partition, solve

from conftest import complete_graph, count_calls


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
    ec = classify_edges(g, p)
    vc = classify_vertices(g, p, ec)
    assert report.vc == vc
    assert report.ledger == apply_rules(g, p, ec, vc, rules)
    return ec, vc


def test_final_partitions_are_locally_canonical():
    for d, n, seed in itertools.product((6, 5), (14, 28), range(3)):
        g = gen_random_regular(n, d, seed=seed)
        report = solve(g, seed=seed)
        p = report.partition
        assert p.singleton_count() == 0
        assert moves.find_basic_move(g, p) is None
        ec, vc = _assert_report_matches_fresh_classification(
            g, report, ruleset_for_degree(d))
        assert moves.find_derived_move(g, p, ec, vc) is None
        assert moves.find_pair_move(g, p, ec, vc) is None


def test_escalated_report_keeps_the_final_classification():
    # degree-6 rules on two K6s fail at every depth, so the search escalates
    g = gen_disjoint_cliques(5, 2, seed=0)
    report = solve(g, seed=0, rules=RULES_D6)
    assert report.escalated and not report.certificate.verdict
    _assert_report_matches_fresh_classification(g, report, RULES_D6)


def test_fixed_point_is_classified_once(monkeypatch):
    calls = count_calls(monkeypatch, classify_edges)
    report = solve(gen_disjoint_cliques(6, 3, seed=0), seed=0)
    assert report.certificate.verdict
    assert len(calls) == 1

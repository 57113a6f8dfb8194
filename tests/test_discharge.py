from fractions import Fraction

import pytest

from pathpart.classify import classify_edges, classify_vertices
from pathpart.discharge import (RULES_D5, RULES_D6, DischargeError, apply_rules,
                                audit_block_bounds, certify, ruleset_for_degree)
from pathpart.graphs import Graph, gen_disjoint_cliques, gen_random_regular
from pathpart.partition import PathPartition
from pathpart.solver import solve

from conftest import complete_graph


def _chain(lo, hi):
    return [(i, i + 1) for i in range(lo, hi)]


def test_rule_amounts():
    assert RULES_D6.cycle_amount(3) == Fraction(1, 3)
    assert RULES_D6.cycle_amount(6) == Fraction(1, 6)
    assert RULES_D6.cycle_amount(7) is None
    assert RULES_D5.cycle_amount(3) == Fraction(4, 9)
    assert RULES_D5.cycle_amount(6) == Fraction(2, 9)
    assert RULES_D6.v2a_dangerous == Fraction(1, 6)
    assert RULES_D6.v4_dangerous == Fraction(1, 12)
    assert RULES_D5.v2a_dangerous is None and RULES_D5.v4_dangerous is None
    assert RULES_D6.count_bound(700) == 100
    assert RULES_D5.count_bound(19) == 3
    with pytest.raises(DischargeError):
        ruleset_for_degree(4)


def test_small_cycle_receives_exactly_its_floor():
    # triangle with all 12 incident free edges balanced: 3 + 12/3 = 7
    edges = [(0, 1), (1, 2), (0, 2)] + _chain(3, 16)
    targets = list(range(4, 16))
    for i, t in enumerate(targets):
        edges.append((i // 4, t))
    g = Graph(17, edges)
    p = PathPartition.from_lists(17, cycles=[[0, 1, 2]], paths=[list(range(3, 17))])
    vc = classify_vertices(g, p, classify_edges(g, p))
    ledger = apply_rules(g, p, vc, RULES_D6)
    assert ledger.rule_counts[1] == 12
    assert all(amt == Fraction(1, 3) for _, _, amt, rule in ledger.transfers if rule == 1)
    cycle_total = sum((ledger.balance[v] for v in (0, 1, 2)), Fraction(0))
    assert cycle_total == Fraction(7)
    assert ledger.total() == 17


def test_path_end_pair_receives_26_thirds():
    # both ends of a path receive 2/3 over each of their five free edges
    edges = _chain(0, 5) + _chain(6, 13)
    for t in range(7, 12):
        edges += [(0, t), (5, t)]
    g = Graph(14, edges)
    p = PathPartition.from_lists(14, paths=[list(range(6)), list(range(6, 14))])
    vc = classify_vertices(g, p, classify_edges(g, p))
    ledger = apply_rules(g, p, vc, RULES_D6)
    assert ledger.balance[0] + ledger.balance[5] == Fraction(26, 3)
    assert ledger.rule_counts[2] == 10


def test_d5_six_cycle_amount_and_floor():
    # six-cycle with 18 balanced edges: 6 + 18 * (2/9) = 10 >= 6 + 4/9
    edges = [(i, (i + 1) % 6) for i in range(6)] + _chain(6, 25)
    targets = list(range(7, 25))
    for i, t in enumerate(targets):
        edges.append((i // 3, t))
    g = Graph(26, edges)
    p = PathPartition.from_lists(26, cycles=[list(range(6))],
                                 paths=[list(range(6, 26))])
    vc = classify_vertices(g, p, classify_edges(g, p))
    ledger = apply_rules(g, p, vc, RULES_D5)
    assert all(amt == Fraction(2, 9) for _, _, amt, rule in ledger.transfers if rule == 1)
    total = sum((ledger.balance[v] for v in range(6)), Fraction(0))
    assert total == Fraction(10)
    assert total >= Fraction(6) + Fraction(4, 9)


def test_all_seven_cycles_no_transfers():
    g = gen_disjoint_cliques(6, 3, seed=5)
    report = solve(g, seed=0)
    ledger = report.ledger
    assert not ledger.transfers
    assert all(b == Fraction(1) for b in ledger.balance)
    cert = report.certificate
    assert cert.verdict
    assert all(total == Fraction(7) for _, _, total in cert.totals)


def test_certify_failure_lists_violations():
    # two K6 components closed into 6-cycles fail the degree-6 floor
    g = gen_disjoint_cliques(5, 2, seed=2)
    report = solve(g, seed=0, rules=RULES_D6)
    cert = report.certificate
    assert not cert.verdict
    assert len(cert.violations) == 2
    for v in cert.violations:
        assert v["total"] == "6/1"
    assert '"verdict": false' in cert.to_json()


def test_apply_rules_refuses_singletons():
    g = complete_graph(3)
    p = PathPartition.from_lists(3, paths=[[0, 1]], singletons=[2])
    vc = classify_vertices(g, p, classify_edges(g, p))
    with pytest.raises(DischargeError):
        apply_rules(g, p, vc, RULES_D6)


def test_conservation_and_audit_on_solved_instances():
    # a single-cycle partition is all V1 and audits vacuously, so only the
    # aggregate over several instances must have exercised real checks
    total_checks = 0
    for seed in range(8):
        for d, n in ((6, 28), (6, 42), (5, 28), (5, 42)):
            g = gen_random_regular(n, d, seed=seed)
            report = solve(g, seed=seed)
            assert report.certificate.verdict
            assert report.ledger.total() == Fraction(n)
            p = report.partition
            vc = classify_vertices(g, p, classify_edges(g, p))
            rules = ruleset_for_degree(d)
            ledger = apply_rules(g, p, vc, rules)
            rep = audit_block_bounds(g, p, vc, ledger, rules)
            assert rep.ok(), rep.violations
            total_checks += rep.checks
    assert total_checks > 0


def test_certificate_json_is_stable():
    g = gen_disjoint_cliques(6, 2, seed=1)
    a = solve(g, seed=4).certificate.to_json()
    b = solve(g, seed=4).certificate.to_json()
    assert a == b and a.endswith("\n")

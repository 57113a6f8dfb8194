"""Acceptance suite: one criterion per test, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is exact
rational arithmetic unless a runtime target is stated.
"""

import tempfile
import time
from fractions import Fraction

import pytest

from pathpart.classify import classify_edges, classify_vertices
from pathpart.cli import main, write_reproducer
from pathpart.discharge import apply_rules, audit_block_bounds, ruleset_for_degree
from pathpart.graphs import (contains_k6, gen_disjoint_cliques,
                             gen_random_regular, write_edge_list)
from pathpart.moves import (apply_move, eliminate_singletons, find_basic_move,
                            find_compound_move, find_derived_move,
                            find_pair_move)
from pathpart.oracle import exact_pi_p, pi_p_via_linear_forest
from pathpart.partition import PathPartition, validate_partition
from pathpart.solver import canonicalize, initial_partition, solve


def test_criterion_1_tightness_of_clique_family(tmp_path):
    """k disjoint K7s solve to exactly k components of exactly 7 points."""
    for k in range(1, 51):
        g = gen_disjoint_cliques(6, k, seed=k)
        report = solve(g, seed=0)
        assert report.component_count == k == g.n // 7
        assert report.certificate.verdict
        assert all(total == Fraction(7) for _, _, total in report.certificate.totals)
    inst = tmp_path / "k50.txt"
    inst.write_text(write_edge_list(gen_disjoint_cliques(6, 50, seed=50)))
    t0 = time.perf_counter()
    assert main(["solve", str(inst), "--json", "-o", str(tmp_path / "out.json")]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"k=50 solve took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: 50 clique instances tight, k=50 in {elapsed:.3f}s")


SIZES_D6 = ((14, 150), (28, 120), (70, 100), (140, 60), (350, 40), (700, 20),
            (1000, 10))


@pytest.mark.slow
def test_criterion_2_theorem_bound_at_desk_scale():
    """500 random 6-regular instances certify with count <= floor(n/7)."""
    instances = 0
    slowest = 0.0
    for n, reps in SIZES_D6:
        for i in range(reps):
            g = gen_random_regular(n, 6, seed=instances)
            t0 = time.perf_counter()
            report = solve(g, seed=instances + 1)
            elapsed = time.perf_counter() - t0
            cert = report.certificate
            if not cert.verdict or report.component_count > n // 7:
                where = write_reproducer(
                    tempfile.mkdtemp(prefix=f"pathpart-repro-c2-n{n}-s{instances}-"),
                    g, report)
                pytest.fail(f"criterion 2 failed on n={n} seed={instances}; "
                            f"reproducer in {where}")
            assert validate_partition(g, report.partition)[0]
            assert report.ledger.total() == Fraction(n)
            if n == 1000:
                assert elapsed < 10.0, f"n=1000 took {elapsed:.1f}s"
                slowest = max(slowest, elapsed)
            instances += 1
    assert instances == 500
    print(f"\nACCEPTANCE 2 PASS: 500/500 instances certified, "
          f"slowest n=1000 solve {slowest:.2f}s")


def test_criterion_3_exact_conservation():
    """Ledger balances sum to exactly n, no tolerance, on every instance."""
    checked = 0
    cases = [(6, n, s) for n in (14, 70, 350) for s in range(12)]
    cases += [(5, n, s) for n in (14, 70, 350) for s in range(12)]
    for d, n, seed in cases:
        g = gen_random_regular(n, d, seed=seed + 40000)
        report = solve(g, seed=seed)
        assert report.certificate.verdict
        assert report.ledger.total() == Fraction(n)
        checked += 1
    for k in (1, 13, 50):
        g = gen_disjoint_cliques(6, k, seed=k)
        report = solve(g, seed=0)
        assert report.ledger.total() == Fraction(g.n)
        checked += 1
    print(f"\nACCEPTANCE 3 PASS: exact conservation on {checked} instances")


def test_criterion_4_oracle_agreement():
    """Exhaustive n=7 (K7 is the only 6-regular graph there) plus >=200
    sampled 6-regular instances with 8 <= n <= 12: heuristic >= pi_p and
    pi_p <= floor(n/7); the subset DP and the max-linear-forest search agree
    on every n <= 10 instance."""
    g7 = gen_random_regular(7, 6, seed=0)
    assert exact_pi_p(g7).pi_p == 1 == pi_p_via_linear_forest(g7)
    sampled = 0
    agreements = 0
    for n in (8, 9, 10, 11, 12):
        for seed in range(40):
            g = gen_random_regular(n, 6, seed=seed + 100 * n)
            res = exact_pi_p(g)
            report = solve(g, seed=seed)
            assert report.component_count >= res.pi_p
            assert res.pi_p <= n // 7
            assert validate_partition(g, res.witness)[0]
            if n <= 10:
                assert pi_p_via_linear_forest(g) == res.pi_p
                agreements += 1
            sampled += 1
    assert sampled >= 200
    print(f"\nACCEPTANCE 4 PASS: {sampled + 1} instances, pi_p within bound, "
          f"{agreements} dual-oracle agreements")


SIZES_D5 = ((12, 50), (20, 50), (50, 40), (100, 30), (250, 20), (500, 10))


@pytest.mark.slow
def test_criterion_5_degree5_bound():
    """200 random K6-free 5-regular instances meet the 19/3 floor and the
    3n/19 count bound; every size-6 cycle component holds 6 + 4/9."""
    floor = Fraction(19, 3)
    six_cycle_floor = Fraction(6) + Fraction(4, 9)
    instances = 0
    rejected = 0
    six_cycles = 0
    for n, reps in SIZES_D5:
        got = 0
        seed = 0
        while got < reps:
            g = gen_random_regular(n, 5, seed=7000 + 97 * n + seed)
            seed += 1
            if contains_k6(g) is not None:
                rejected += 1
                continue
            report = solve(g, seed=seed)
            cert = report.certificate
            if not cert.verdict or report.component_count > (3 * n) // 19:
                where = write_reproducer(
                    tempfile.mkdtemp(prefix=f"pathpart-repro-c5-n{n}-s{seed}-"),
                    g, report)
                pytest.fail(f"criterion 5 failed on n={n} seed={seed}; "
                            f"reproducer in {where}")
            assert report.ledger.total() == Fraction(n)
            for verts, kind, total in cert.totals:
                assert total >= floor
                if kind == "cycle" and len(verts) == 6:
                    assert total >= six_cycle_floor
                    six_cycles += 1
            got += 1
            instances += 1
    assert instances == 200
    print(f"\nACCEPTANCE 5 PASS: 200/200 K6-free instances "
          f"(rejected {rejected}), {six_cycles} six-cycles at their floor")


@pytest.mark.slow
def test_criterion_6_discharging_audit_suite():
    """>=1000 fuzzed certified degree-6 instances: zero violations of the
    class floors, block floor -5/3, pair trichotomy, run bound k/3 - 4/3,
    kind-2/kind-3 floors, and the block structural shape."""
    audits = 0
    checks = 0
    for n, reps in ((14, 400), (28, 350), (42, 250)):
        for seed in range(reps):
            g = gen_random_regular(n, 6, seed=20000 + seed + n)
            report = solve(g, seed=seed)
            assert report.certificate.verdict
            p = report.partition
            ec = classify_edges(g, p)
            vc = classify_vertices(g, p, ec)
            rules = ruleset_for_degree(6)
            ledger = apply_rules(g, p, ec, vc, rules)
            rep = audit_block_bounds(g, p, vc, ledger, rules)
            assert rep.ok(), (n, seed, rep.violations)
            audits += 1
            checks += rep.checks
    assert audits >= 1000
    print(f"\nACCEPTANCE 6 PASS: {audits} audits, {checks} bound checks, "
          f"zero violations")


@pytest.mark.slow
def test_criterion_7_move_engine_soundness():
    """1e5 fuzzed move applications stay valid and strictly decrease the
    potential; depth-1 compound search matches the basic finder on 1000
    instances (singleton-free states, where the two catalogs coincide)."""
    applied = 0
    seed = 0
    while applied < 100_000:
        d = 6 if seed % 2 == 0 else 5
        g = gen_random_regular(250, d, seed=seed + 31000)
        p = PathPartition.from_lists(g.n, singletons=range(g.n))
        report = canonicalize(g, p, validate_each=True)
        trace = report.potential_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert report.certificate.verdict
        applied += sum(report.move_counts.values())
        seed += 1
    equiv_instances = 0
    states = 0
    for i in range(1000):
        d = 6 if i % 2 == 0 else 5
        n = 14 + 2 * (i % 4)
        g = gen_random_regular(n, d, seed=50000 + i)
        p = initial_partition(g, seed=i)
        while True:
            basic = find_basic_move(g, p)
            if p.singleton_count() == 0:
                comp = find_compound_move(g, p, depth=1)
                assert (basic is None) == (comp is None)
                states += 1
            mv = basic or eliminate_singletons(g, p)
            if mv is None:
                ec = classify_edges(g, p)
                vc = classify_vertices(g, p, ec)
                mv = (find_derived_move(g, p, ec, vc)
                      or find_pair_move(g, p, ec, vc))
            if mv is None:
                break
            apply_move(g, p, mv)
        equiv_instances += 1
    assert equiv_instances == 1000
    print(f"\nACCEPTANCE 7 PASS: {applied} sound move applications, "
          f"depth-1 equivalence on {equiv_instances} instances "
          f"({states} states)")

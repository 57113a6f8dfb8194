from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from pathpart.classify import V1, V2A, V2B, V4, V5, classify_edges, classify_vertices
from pathpart.discharge import (RULES_D5, RULES_D6, AuditReport, Certificate, DischargeError,
                                PointLedger, _frac, apply_rules, audit_block_bounds, certify,
                                decompose_blocks, ruleset_for_degree)
from pathpart.graphs import Graph, gen_disjoint_cliques, gen_random_regular
from pathpart.partition import CYCLE, PATH, PathPartition
from pathpart.solver import initial_partition, solve

from conftest import complete_graph, regular_graph, switched
from test_moves_dangerous import _dangerous_base


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


# -- the integer ledger against a Fraction reference --------------------------
# The functions below are apply_rules, certify and audit_block_bounds as they
# were when every balance was a Fraction; the ledger in whole 1/unit points
# must agree with them on every balance, transfer, certificate and audit.

def _reference_apply_rules(g, p, vc, rs):
    balance = [Fraction(1) for _ in range(g.n)]
    transfers = []
    counts = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}

    def one_v2_path_neighbor(v):
        return sum(1 for w in p.path_neighbors(v) if vc.is_v2(w)) == 1

    def directed(v, u):
        cv = vc.cls[v]
        if cv in (V2A, V2B) and vc.cls[u] == V1:
            comp = p.components[p.owner[u]]
            if comp.kind == CYCLE:
                amt = rs.cycle_amount(len(comp.vertices))
                return (amt, 1) if amt is not None else None
            if comp.kind == PATH:
                return (rs.path_amount, 2)
            return None
        if u in vc.dangerous:
            if cv == V2A and rs.v2a_dangerous is not None:
                return (rs.v2a_dangerous, 3)
            if rs.v4_dangerous is not None and (
                    cv == V4 or (cv == V2B and one_v2_path_neighbor(v))):
                return (rs.v4_dangerous, 4)
            return None
        if cv == V5 and vc.cls[u] != V5:
            return (rs.v5_amount, 5)
        return None

    for a, b in vc.free_edges():
        hit = directed(a, b)
        if hit is None:
            hit = directed(b, a)
            a, b = b, a
        if hit is None:
            continue
        amount, rule = hit
        balance[a] -= amount
        balance[b] += amount
        transfers.append((a, b, amount, rule))
        counts[rule] += 1
    return balance, transfers, counts


def _reference_certify(g, p, balance, transfers, counts, rs):
    totals = []
    violations = []
    for cid in p.sorted_ids():
        comp = p.components[cid]
        total = sum((balance[v] for v in comp.vertices), Fraction(0))
        totals.append((list(comp.vertices), comp.kind, total))
        if total < rs.threshold:
            members = set(comp.vertices)
            slice_ = sorted(t for t in transfers if t[0] in members or t[1] in members)
            violations.append({
                "component": list(comp.vertices),
                "kind": comp.kind,
                "total": _frac(total),
                "transfers": [[a, b, _frac(amt), r] for a, b, amt, r in slice_],
            })
    totals.sort(key=lambda t: min(t[0]) if t[0] else -1)
    verdict = not violations
    count = p.component_count()
    if verdict and g.n and count > rs.count_bound(g.n):
        raise DischargeError("floor verdict inconsistent with component count")
    return Certificate(variant=rs.variant, threshold=rs.threshold, n=g.n,
                       component_count=count, totals=totals, verdict=verdict,
                       violations=violations, rule_counts=counts)


def _reference_audit(g, p, vc, balance, rs):
    rep = AuditReport()
    for v in range(g.n):
        floor = rs.class_floors.get(vc.cls[v])
        if floor is None:
            continue
        rep.checks += 1
        if balance[v] < floor:
            rep._fail("class-floor", vertex=v, cls=vc.cls[v],
                      balance=_frac(balance[v]), floor=_frac(floor))
    for cid in p.sorted_ids():
        comp = p.components[cid]
        if comp.kind != PATH:
            continue
        verts = comp.vertices
        blocks = decompose_blocks([vc.cls[v] for v in verts])
        pts = []
        for blk in blocks:
            members = blk.x_positions + blk.p_positions
            pts.append(sum((balance[verts[j]] for j in members), Fraction(0)))
        for blk, total in zip(blocks, pts):
            rep.checks += 1
            if total < Fraction(-5, 3):
                rep._fail("block-floor", path=verts, block=blk.x_positions,
                          total=_frac(total))
            if blk.kind == 2 and total < 0:
                rep._fail("kind2-floor", path=verts, block=blk.x_positions,
                          total=_frac(total))
            if blk.kind == 3 and total < Fraction(1, 3):
                rep._fail("kind3-floor", path=verts, block=blk.x_positions,
                          total=_frac(total))
            if len(blk.x_positions) > 1:
                k = len(blk.x_positions)
                run = sum((balance[verts[j]] for j in blk.x_positions), Fraction(0))
                if run < Fraction(k, 3) - Fraction(4, 3):
                    rep._fail("run-bound", path=verts,
                              run=[verts[j] for j in blk.x_positions],
                              total=_frac(run))
        for (b1, t1), (b2, t2) in zip(zip(blocks, pts), zip(blocks[1:], pts[1:])):
            rep.checks += 1
            if t1 >= 0 or t1 + t2 >= 0:
                continue
            if not (b2.kind == 4 and t1 + t2 >= Fraction(-1)):
                rep._fail("pair-trichotomy", path=verts,
                          blocks=[b1.x_positions, b2.x_positions],
                          totals=[_frac(t1), _frac(t2)])
    return rep


def _outcome(fn, *args):
    """fn's result, or ("raised", message) for the DischargeError it raised."""
    try:
        return fn(*args)
    except DischargeError as exc:
        return ("raised", str(exc))


def _assert_matches_reference(g, p, rs):
    """Compare the ledger, certificate and audit of (g, p) under rs with the
    Fraction reference; returns the ledger and the certificate."""
    vc = classify_vertices(g, p, classify_edges(g, p))
    ledger = apply_rules(g, p, vc, rs)
    balance, transfers, counts = _reference_apply_rules(g, p, vc, rs)
    assert ledger.balance == balance
    assert ledger.total() == sum(balance, Fraction(0)) == g.n
    assert ledger.transfers == transfers
    assert all(type(t[2]) is Fraction for t in ledger.transfers)
    assert ledger.rule_counts == counts
    cert = _outcome(certify, g, p, ledger, rs)
    ref = _outcome(_reference_certify, g, p, balance, transfers, counts, rs)
    if isinstance(ref, Certificate):
        assert cert.to_json() == ref.to_json()
        assert cert.totals == ref.totals
    else:
        assert cert == ref
    rep = _outcome(audit_block_bounds, g, p, vc, ledger, rs)
    ref = _outcome(_reference_audit, g, p, vc, balance, rs)
    if isinstance(ref, AuditReport):
        assert (rep.checks, rep.violations) == (ref.checks, ref.violations)
    else:
        assert rep == ref
    return ledger, cert


@given(st.data())
@settings(max_examples=40)
def test_ledger_matches_the_fraction_reference_on_random_regular_solves(data):
    d = data.draw(st.sampled_from([5, 6]), label="d")
    n = data.draw(st.integers(d + 1, 40), label="n")
    n -= n * d % 2
    g = regular_graph(n, d, data.draw(st.integers(0, 3), label="seed"))
    report = solve(g, seed=data.draw(st.integers(0, 3), label="solve seed"), rules=None)
    # the variant's own rules, and the other variant's, which may fail
    for rs in (RULES_D6, RULES_D5):
        _assert_matches_reference(g, report.partition, rs)
    start = initial_partition(g, seed=0)
    if not start.singleton_count():
        for rs in (RULES_D6, RULES_D5):
            _assert_matches_reference(g, start, rs)


def test_ledger_matches_the_fraction_reference_on_perturbed_cliques():
    for k, count, seed in ((6, 3, 0), (10, 5, 1), (20, 10, 2), (40, 20, 3)):
        g = switched(gen_disjoint_cliques(6, k, seed=seed), count, seed)
        for rs in (RULES_D6, RULES_D5):
            ledger, cert = _assert_matches_reference(g, solve(g, seed=seed, rules=rs).partition, rs)
            assert cert.verdict and ledger.rule_counts[1] + ledger.rule_counts[2] > 0


def _dangerous_configurations():
    """The hand-built graphs and partitions of tests/test_moves_dangerous.py
    that hold a dangerous vertex (3), before their moves; rule 4 fires on
    each. The first again with a free edge from 3 to the V2a vertex 7, on
    which rule 3 fires too."""
    triangle = [(16, 17), (17, 18), (16, 18)]
    paths = [list(range(10)), [10, 11], [12, 13], [14, 15]]
    for extra in ([], [(3, 7)]):
        yield (Graph(19, _dangerous_base() + triangle + [(4, 9), (4, 16), (7, 0)] + extra),
               PathPartition.from_lists(19, paths=paths, cycles=[[16, 17, 18]]))
    yield (Graph(19, _dangerous_base() + triangle + [(4, 0), (4, 17), (7, 16)]),
           PathPartition.from_lists(19, paths=paths, cycles=[[16, 17, 18]]))
    yield (Graph(16, _dangerous_base() + [(4, 0), (4, 9), (7, 9)]),
           PathPartition.from_lists(16, paths=paths))
    yield (Graph(18, _dangerous_base() + [(16, 17), (4, 16), (4, 9), (7, 9)]),
           PathPartition.from_lists(18, paths=paths + [[16, 17]]))


def test_ledger_matches_the_fraction_reference_where_rules_3_and_4_fire():
    fired = {3: 0, 4: 0}
    for g, p in _dangerous_configurations():
        for rs in (RULES_D6, RULES_D5):
            ledger, _ = _assert_matches_reference(g, p, rs)
            if rs is RULES_D6:
                for rule in fired:
                    fired[rule] += ledger.rule_counts[rule]
    assert fired[3] > 0 and fired[4] > 0


def _cycle_fed_by_a_path(size):
    """A cycle 0..size-1 whose every vertex has two free edges into a path's
    interior (rule 1 fires on each), and the partition of the two."""
    n = 3 * size + 2
    edges = [(i, (i + 1) % size) for i in range(size)] + _chain(size, n - 1)
    edges += [(i // 2, size + 1 + i) for i in range(2 * size)]
    return Graph(n, edges), PathPartition.from_lists(
        n, cycles=[list(range(size))], paths=[list(range(size, n))])


@pytest.mark.parametrize("size", range(3, 9))
def test_ledger_matches_the_fraction_reference_on_cycles_of_every_size(size):
    g, p = _cycle_fed_by_a_path(size)
    for rs in (RULES_D6, RULES_D5):
        ledger, _ = _assert_matches_reference(g, p, rs)
        rule1 = [amt for _, _, amt, rule in ledger.transfers if rule == 1]
        if size <= 6:
            assert rule1 and all(amt == rs.cycle_amount(size) for amt in rule1)
        else:
            # a cycle of 7 or more vertices receives nothing
            assert not rule1


def test_ledger_matches_the_fraction_reference_on_failing_certificates():
    # forced rules on the wrong variant's graphs: K6 unions under D6 close
    # into 6-cycles of 6 points, and perturbed ones fail with transfers
    failing = 0
    for k, count in ((2, 0), (3, 1), (4, 2), (5, 3)):
        g = switched(gen_disjoint_cliques(5, k, seed=k), count, k)
        for rs in (RULES_D6, RULES_D5):
            report = solve(g, seed=0, rules=rs)
            _, cert = _assert_matches_reference(g, report.partition, rs)
            failing += not cert.verdict
    assert failing
    # and a partition no solve ends on: three K7s each cut into paths of 4
    # and 3 vertices, short components whose violations list transfers
    g = Graph(21, [(u + c, v + c) for c in (0, 7, 14) for u, v in complete_graph(7).edges])
    p = PathPartition.from_lists(21, paths=[list(range(c, c + 4)) for c in (0, 7, 14)]
                                 + [list(range(c + 4, c + 7)) for c in (0, 7, 14)])
    for rs in (RULES_D6, RULES_D5):
        _, cert = _assert_matches_reference(g, p, rs)
        assert len(cert.violations) == 6
        assert all(v["transfers"] for v in cert.violations)


@given(st.data())
@settings(max_examples=150)
def test_audit_matches_the_fraction_reference_on_and_next_to_its_floors(data):
    # solved partitions whose paths hold blocks of every kind, V2 runs and
    # kind-4 pairs; balances drawn in thirds, give or take one 1/unit point,
    # put block totals on and beside each floor the audit compares with
    n, d, seed = data.draw(st.sampled_from([(20, 5, 1), (40, 6, 0)]), label="graph")
    g = regular_graph(n, d, seed)
    report = solve(g, seed=0)
    rs = data.draw(st.sampled_from([RULES_D6, RULES_D5]), label="rules")
    draws = data.draw(st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([0, 0, 1, -1])),
                               min_size=n, max_size=n), label="thirds and nudges")
    units = [j * rs.unit // 3 + e for j, e in draws]
    ledger = PointLedger(units=units, unit=rs.unit, transfers=[], rule_counts={})
    rep = audit_block_bounds(g, report.partition, report.vc, ledger, rs)
    ref = _reference_audit(g, report.partition, report.vc, ledger.balance, rs)
    assert (rep.checks, rep.violations) == (ref.checks, ref.violations)


def test_a_block_pair_may_total_exactly_minus_one_before_a_kind4_block():
    g = regular_graph(20, 5, 1)
    report = solve(g, seed=0)
    p, vc = report.partition, report.vc
    verts, b1, b2 = next((c.vertices, b1, b2) for c in p.components.values()
                         if c.kind == PATH
                         for b1, b2 in pairwise(decompose_blocks([vc.cls[v] for v in c.vertices]))
                         if b2.kind == 4)
    for rs in (RULES_D6, RULES_D5):
        for nudge in (0, -1):
            # t1 = -2/3 and t2 = -1/3 + nudge/unit; every other block holds 0
            units = [0] * g.n
            units[verts[b1.x_positions[0]]] = -2 * rs.unit // 3
            units[verts[b2.x_positions[0]]] = -rs.unit // 3 + nudge
            ledger = PointLedger(units=units, unit=rs.unit, transfers=[], rule_counts={})
            rep = audit_block_bounds(g, p, vc, ledger, rs)
            ref = _reference_audit(g, p, vc, ledger.balance, rs)
            assert (rep.checks, rep.violations) == (ref.checks, ref.violations)
            pair = [v for v in rep.violations if v["kind"] == "pair-trichotomy"]
            assert len(pair) == (nudge < 0)


def test_rule_set_unit_makes_every_amount_floor_and_threshold_whole():
    audit_floors = [Fraction(-5, 3), Fraction(1, 3), Fraction(-1)]
    audit_floors += [Fraction(k - 4, 3) for k in range(2, 20)]  # V2 runs of k
    for rs, unit in ((RULES_D6, 60), (RULES_D5, 180)):
        assert rs.unit == unit
        amounts = [rs.cycle_amount(size) for size in range(3, 7)]
        amounts += [rs.path_amount, rs.v5_amount, rs.v2a_dangerous, rs.v4_dangerous]
        for x in amounts + [rs.threshold, *rs.class_floors.values()] + audit_floors:
            assert x is None or (x * rs.unit).denominator == 1, (rs.variant, x)
        assert all(rs.cycle_amount(size) is None for size in range(7, 50))
        assert sorted(rs.cycle_transfers) == [3, 4, 5, 6]
        for size, (amount, units, rule) in rs.cycle_transfers.items():
            assert amount == Fraction(units, unit) == rs.cycle_amount(size) and rule == 1
        for transfer, amount, rule in ((rs.path_transfer, rs.path_amount, 2),
                                       (rs.v2a_transfer, rs.v2a_dangerous, 3),
                                       (rs.v4_transfer, rs.v4_dangerous, 4),
                                       (rs.v5_transfer, rs.v5_amount, 5)):
            if amount is None:
                assert transfer is None
            else:
                assert transfer == (amount, amount * unit, rule)

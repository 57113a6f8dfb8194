"""Golden outputs: a perturbed-clique solve, a long-path solve and a solve
with a random-regular move mix, whose move traces and JSON reports must stay
byte-identical across refactors of the move layer, and the discharge outputs
(a failing certificate, a D5 solve, an audit) that must stay byte-identical
across changes to the ledger's arithmetic."""

import hashlib
import heapq
import json
from collections import Counter

import pytest

from pathpart import moves
from pathpart.cli import main
from pathpart.discharge import RULES_D6
from pathpart.graphs import (Graph, contains_k6, gen_circulant, gen_disjoint_cliques,
                             write_edge_list)
from pathpart.partition import PathPartition
from pathpart.solver import SolveState, _next_move, initial_partition, solve

from conftest import switched

# double-edge switches (a, b), (c, d) -> (a, d), (c, b) on 12 disjoint K7s;
# the solve makes 7 basic, 4 derived and 1 pair move
SWITCHES = [((70, 77), (51, 53)), ((69, 76), (50, 60)), ((2, 67), (4, 14)),
            ((49, 51), (7, 26)), ((40, 78), (47, 69)), ((35, 43), (50, 63))]
TRACE_SHA256 = "f03df7911352552be28ddba5b11e4669ec52539ca6e5a250e7335b14e4d3022d"
JSON_SHA256 = "134a448ebd56e19182e58d30412adb8d93de128ce8e38be16c4fef1fa3872f9f"


def _perturbed_cliques() -> Graph:
    g = gen_disjoint_cliques(6, 12, seed=0)
    edges = set(g.edges)
    for (a, b), (c, d) in SWITCHES:
        edges -= {(a, b), (c, d)}
        edges |= {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
    return Graph(g.n, edges)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_perturbed_clique_trace_and_report_are_golden(tmp_path):
    g = _perturbed_cliques()
    assert len(g.edges) == 12 * 21 and all(len(a) == 6 for a in g.adj)
    inst = tmp_path / "g.txt"
    inst.write_text(write_edge_list(g))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "solve.json"
    assert main(["solve", str(inst), "--json", "--trace", str(trace), "-o", str(out)]) == 0
    kinds = {json.loads(line)["move_kind"] for line in trace.read_text().splitlines()}
    assert {"derived", "pair"} <= kinds
    assert _sha256(trace) == TRACE_SHA256
    assert _sha256(out) == JSON_SHA256


# 60 switches on the circulant C600(1, 2, 3) leave long paths that the solve
# splits, joins, closes and reopens
LONG_TRACE_SHA256 = "86cf84dfee7d08faeeb41a1884a33c6481e977ff6bb3c55d77aac56daac0983d"
LONG_JSON_SHA256 = "980d7366ee2e73d8a3837a8499bf4b01fcaf74c0b846c850ca0660586c927dbf"


def test_long_path_trace_and_report_are_golden(tmp_path):
    inst = tmp_path / "g.txt"
    inst.write_text(write_edge_list(switched(gen_circulant(600, [1, 2, 3]), 60, seed=1)))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "solve.json"
    assert main(["solve", str(inst), "--json", "--trace", str(trace), "-o", str(out)]) == 0
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert Counter(s["move_kind"] for s in steps) == {
        "basic": 25, "singleton": 17, "derived": 41, "pair": 2}
    prims = Counter(prim[0] for s in steps for prim in s["primitives"])
    assert prims["close"] == prims["open"] == 17
    assert _sha256(trace) == LONG_TRACE_SHA256
    assert _sha256(out) == LONG_JSON_SHA256


# 600 switches on the circulant C1000(1, 2, 3): a move mix close to one
# random-regular input's, from a graph built without NumPy
MIXED_TRACE_SHA256 = "79246387a26add5d9528419775179dad50b7b290aec3096c9ee9a5404f70a95b"
MIXED_JSON_SHA256 = "ced7308c0c5802263470646c21e1f0dddd7920d3b258d7a754d344575325054d"


def test_random_like_trace_and_report_are_golden(tmp_path):
    inst = tmp_path / "g.txt"
    inst.write_text(write_edge_list(switched(gen_circulant(1000, [1, 2, 3]), 600, seed=2)))
    trace, out = tmp_path / "trace.jsonl", tmp_path / "solve.json"
    assert main(["solve", str(inst), "--json", "--trace", str(trace), "-o", str(out)]) == 0
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert Counter(s["move_kind"] for s in steps) == {
        "basic": 35, "singleton": 48, "derived": 68}
    assert _sha256(trace) == MIXED_TRACE_SHA256
    assert _sha256(out) == MIXED_JSON_SHA256


# 20 seeded switches on 40 disjoint K7s, the size of one benchmark
# perturbed-clique input
BENCH_TRACE_SHA256 = "b9e6c7fb62661ef243860dae1198ef0b9b28d7d34ba4bb70b82eef3962a51ce1"
BENCH_JSON_SHA256 = "0fd84bcd3cb16b35649656630f6607bbe826dc56ba7df54acac2d20ef333c2f3"
BENCH_AUDIT_SHA256 = "a1e433aa8b5cf636b8b47fc20a2e5eff74194d40b1a07cb62b2e02f39ba4f73b"


def test_benchmark_sized_perturbed_clique_outputs_are_golden(tmp_path):
    inst = tmp_path / "g.txt"
    inst.write_text(write_edge_list(switched(gen_disjoint_cliques(6, 40, seed=1), 20, seed=1)))
    trace, out, audit = tmp_path / "trace.jsonl", tmp_path / "solve.json", tmp_path / "audit.json"
    assert main(["solve", str(inst), "--json", "--trace", str(trace), "-o", str(out)]) == 0
    assert main(["audit", str(inst), "-o", str(audit)]) == 0
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert Counter(s["move_kind"] for s in steps) == {
        "basic": 20, "singleton": 1, "derived": 7, "pair": 1}
    assert _sha256(trace) == BENCH_TRACE_SHA256
    assert _sha256(out) == BENCH_JSON_SHA256
    assert _sha256(audit) == BENCH_AUDIT_SHA256


def test_a_solve_copies_the_partition_once(monkeypatch):
    # canonicalize copies its input; every move is then built in place
    copies = []
    copy = PathPartition.copy

    def counted(self):
        copies.append(self)
        return copy(self)

    monkeypatch.setattr(PathPartition, "copy", counted)
    report = solve(_perturbed_cliques())
    assert report.move_counts == {"basic": 7, "derived": 4, "pair": 1}
    assert len(copies) == 1


def test_a_solve_views_only_the_free_edges_whose_components_changed(monkeypatch):
    # a free edge whose views found no move is skipped while the components
    # its verdict read stand, and a candidate whose two new ends share one
    # balanced target is rejected without a view: 129 views when every call
    # rescanned every edge, 118 with the failure records alone, 13 with both;
    # 5 once a candidate whose x1 has no path-end target, or whose targets
    # all end its one path, is rejected without a view too
    views = []
    init = moves._CutView.__init__

    def counted(self, *args):
        views.append(args)
        init(self, *args)

    monkeypatch.setattr(moves._CutView, "__init__", counted)
    report = solve(_perturbed_cliques())
    assert report.move_counts == {"basic": 7, "derived": 4, "pair": 1}
    assert len(views) == 5


def test_check_refuses_failures_that_hide_a_derived_move():
    g = _perturbed_cliques()
    state = SolveState(g, initial_partition(g))
    while (mv := _next_move(g, state.p, state)).kind != "derived":
        state.apply(mv)
    state.check()
    split_a, split_b, join = mv.steps[:3]
    assert (split_a[0], split_b[0], join[0]) == ("split_at", "split_at", "join")
    # a failure recorded on the live partition stands until a move
    # retires one of its components, so nothing re-decides this bogus one
    state.derived_failures.record(g, state.p, *join[1])
    with pytest.raises(moves.MoveEngineError, match="derived"):
        state.check()



def test_check_refuses_an_open_set_that_hides_a_derived_move():
    g = _perturbed_cliques()
    state = SolveState(g, initial_partition(g))
    while (mv := _next_move(g, state.p, state)).kind != "derived":
        state.apply(mv)
    state.check()
    join = mv.steps[2]
    assert join[0] == "join"
    # the owner of the joined free edge holds the move; close it by hand
    failures, owner = state.derived_failures, min(join[1])
    failures.heap.remove(owner)
    heapq.heapify(failures.heap)
    failures.is_open[owner] = False
    with pytest.raises(moves.MoveEngineError, match="derived"):
        state.check()


def test_the_derived_scan_walks_a_vertex_again_only_once_it_reopens(monkeypatch):
    # the first classification opens every vertex the scan can cut at; the
    # scan walks a vertex again only after a move re-opens it, or when the
    # last call stopped there for its hit. Walking from vertex 0 on every
    # call would visit 247 vertices.
    walks = []
    fresh = set()  # opened since their last walk
    pop_open = moves.DerivedFailures.pop_open

    def walked(self):
        walks.append([])
        for v in pop_open(self):
            assert v in fresh
            walks[-1].append(v)
            yield v

    def tracked(opener):
        def opened(self, *args):
            closed = {v for v, flag in enumerate(self.is_open) if not flag}
            opener(self, *args)
            fresh.update(v for v in closed if self.is_open[v])
        return opened

    find = moves.find_derived_move

    def scan(g, p, vc, failures=None):
        mv = find(g, p, vc, failures)
        walk = walks[-1]
        # the owner of a hit stays open, and only it
        kept = [v for v in walk if failures.is_open[v]]
        assert kept == [] or (mv is not None and kept == walk[-1:])
        fresh.difference_update(walk[:len(walk) - len(kept)])
        return mv

    monkeypatch.setattr(moves.DerivedFailures, "pop_open", walked)
    monkeypatch.setattr(moves.DerivedFailures, "reopen", tracked(moves.DerivedFailures.reopen))
    monkeypatch.setattr(moves, "find_derived_move", scan)
    report = solve(_perturbed_cliques())
    assert report.move_counts == {"basic": 7, "derived": 4, "pair": 1}
    assert [len(walk) for walk in walks] == [1, 2, 5, 13, 21, 15]


# -- discharge outputs -------------------------------------------------------
# pinned before the ledger moved from Fractions to whole 1/unit points, so
# every printed total, floor and transfer amount must keep these bytes

FAILING_CERT_SHA256 = "36b8efd0134ee6e175661e4b267a86dba17f26312c64bcd81775a189a2829ea0"
D5_JSON_SHA256 = "a62c1eff86110ef3122d03f43dd70ef9c7434b9d9d922fefe0e6996f41f8c253"
AUDIT_SHA256 = "1d4c9a838ee4ee7801c20ed7b0836bf3f979b6314ae8e2fb5a96275576a583eb"


def test_failing_certificate_json_is_golden():
    # two K6 components closed into 6-cycles hold 6 points each under D6
    cert = solve(gen_disjoint_cliques(5, 2, seed=2), seed=0, rules=RULES_D6).certificate
    assert not cert.verdict and len(cert.violations) == 2
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == FAILING_CERT_SHA256


def test_d5_solve_json_is_golden(tmp_path):
    # four K5,5s joined by six switches: 5-regular, K6-free, rules 2 and 5 fire
    k55s = Graph(40, [(10 * c + i, 10 * c + 5 + j)
                      for c in range(4) for i in range(5) for j in range(5)])
    g = switched(k55s, 6, seed=6)
    assert contains_k6(g) is None and all(len(a) == 5 for a in g.adj)
    inst, out = tmp_path / "g.txt", tmp_path / "solve.json"
    inst.write_text(write_edge_list(g))
    assert main(["solve", str(inst), "--json", "-o", str(out)]) == 0
    cert = json.loads(out.read_text().splitlines()[-1])
    assert cert["variant"] == "D5" and cert["rule_counts"]["rule5"] > 0
    assert _sha256(out) == D5_JSON_SHA256


def test_perturbed_clique_audit_is_golden(tmp_path):
    inst, out = tmp_path / "g.txt", tmp_path / "audit.json"
    inst.write_text(write_edge_list(_perturbed_cliques()))
    assert main(["audit", str(inst), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["checks"] > 0
    assert _sha256(out) == AUDIT_SHA256

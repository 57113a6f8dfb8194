"""Golden outputs: a perturbed-clique solve whose move trace and JSON report
must stay byte-identical across refactors of the move layer."""

import hashlib
import json

import pytest

from pathpart import moves
from pathpart.cli import main
from pathpart.graphs import Graph, gen_disjoint_cliques, write_edge_list
from pathpart.partition import PathPartition
from pathpart.solver import SolveState, _next_move, initial_partition, solve

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
    # rescanned every edge, 118 with the failure records alone, 13 with both
    views = []
    init = moves._CutView.__init__

    def counted(self, *args):
        views.append(args)
        init(self, *args)

    monkeypatch.setattr(moves._CutView, "__init__", counted)
    report = solve(_perturbed_cliques())
    assert report.move_counts == {"basic": 7, "derived": 4, "pair": 1}
    assert len(views) == 13


def test_check_refuses_failures_that_hide_a_derived_move():
    g = _perturbed_cliques()
    state = SolveState(g, initial_partition(g))
    while (mv := _next_move(g, state.p, state)).kind != "derived":
        state.apply(mv)
    state.check()
    split_a, split_b, join = mv.steps[:3]
    assert (split_a[0], split_b[0], join[0]) == ("split_at", "split_at", "join")
    # a recorded failure that watches no component always stands
    state.derived_failures[join[1]] = []
    with pytest.raises(moves.MoveEngineError, match="derived"):
        state.check()

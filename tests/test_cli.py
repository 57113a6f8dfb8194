import json

from pathpart.cli import main
from pathpart.discharge import apply_rules
from pathpart.graphs import Graph, gen_disjoint_cliques, write_edge_list

from conftest import complete_graph, count_calls


def _write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(write_edge_list(g))
    return str(path)


def test_gen_cliques(tmp_path):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--cliques", "--d", "6", "--k", "10", "-o", str(out)]) == 0
    head = out.read_text().splitlines()[0]
    assert head == "70 210"


def test_gen_random(tmp_path):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--random", "--n", "100", "--d", "6", "--seed", "7",
                 "-o", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "100 300"


def test_gen_rejects_odd_parity(tmp_path):
    out = tmp_path / "x.txt"
    assert main(["gen", "--random", "--n", "9", "--d", "5", "-o", str(out)]) == 2


def test_solve_cliques_passes(tmp_path):
    inst = _write(tmp_path, "cliques.txt", gen_disjoint_cliques(6, 10, seed=0))
    out = tmp_path / "res.json"
    assert main(["solve", inst, "--json", "-o", str(out)]) == 0
    report_line, cert_line = out.read_text().splitlines()
    assert json.loads(report_line)["component_count"] == 10
    cert = json.loads(cert_line)
    assert cert["verdict"] is True
    assert all(c["total"] == "7/1" for c in cert["components"])


def test_solve_refuses_k6_under_degree5(tmp_path):
    inst = _write(tmp_path, "k6s.txt", gen_disjoint_cliques(5, 2, seed=0))
    assert main(["solve", inst]) == 2


def test_solve_refuses_wrong_degree(tmp_path):
    inst = _write(tmp_path, "k5.txt", complete_graph(5))
    assert main(["solve", inst]) == 2


def test_solve_certificate_failure_writes_reproducer(tmp_path):
    # degree-6 rules on two K6 components genuinely miss the floor
    inst = _write(tmp_path, "k6s.txt", gen_disjoint_cliques(5, 2, seed=0))
    bundle = tmp_path / "bundle"
    assert main(["solve", inst, "--rules", "d6", "--bundle-dir", str(bundle)]) == 1
    for name in ("graph.txt", "partition.json", "certificate.json", "moves.jsonl"):
        assert (bundle / name).exists()


def test_solve_output_deterministic(tmp_path):
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 3, seed=4))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", inst, "--json", "--seed", "5", "-o", str(a)]) == 0
    assert main(["solve", inst, "--json", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_command(tmp_path):
    inst = _write(tmp_path, "k7.txt", complete_graph(7))
    out = tmp_path / "o.json"
    assert main(["oracle", inst, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pi_p"] == 1 and data["heuristic"] == 1
    assert data["bound"] == 1 and data["bound_ok"] is True


def test_oracle_unknown_exit(tmp_path):
    inst = _write(tmp_path, "big.txt", gen_disjoint_cliques(6, 3, seed=0))
    assert main(["oracle", inst]) == 3


def test_audit_command(tmp_path, monkeypatch):
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 4, seed=2))
    out = tmp_path / "a.json"
    ledgers = count_calls(monkeypatch, apply_rules)
    assert main(["audit", inst, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["violations"] == []
    assert len(ledgers) == 1  # the audit reads the solve's ledger


def test_batch_command(tmp_path):
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 2, seed=1))
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([
        {"command": "solve", "args": [inst, "-o", str(tmp_path / "r1.txt")]},
        {"command": "audit", "args": [inst, "-o", str(tmp_path / "r2.txt")]},
    ]))
    assert main(["batch", str(manifest)]) == 0
    assert (tmp_path / "r1.txt").exists() and (tmp_path / "r2.txt").exists()


def test_batch_runs_on_past_a_rejected_job(tmp_path, capsys):
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 2, seed=1))
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([
        {"command": "solve", "args": [inst, "-o", str(tmp_path / "r1.txt")]},
        {"command": "solve", "args": [inst, "--no-such-flag"]},
        {"command": "audit", "args": [inst, "-o", str(tmp_path / "r3.txt")]},
    ]))
    assert main(["batch", str(manifest)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["exit"] for line in lines] == [0, 2, 0]
    assert (tmp_path / "r3.txt").exists()


def test_forced_rules_on_empty_graph_certify_vacuously(tmp_path):
    inst = tmp_path / "empty.txt"
    inst.write_text("0 0\n")
    out = tmp_path / "s.json"
    assert main(["solve", str(inst), "--rules", "d6", "--json", "-o", str(out)]) == 0
    cert = json.loads(out.read_text().splitlines()[1])
    assert cert["component_count"] == 0 and cert["verdict"] is True
    assert main(["audit", str(inst), "--rules", "d6", "-o", str(tmp_path / "a.json")]) == 0


def test_forced_rules_on_unabsorbable_singleton_is_invalid_input(tmp_path):
    # K1,4: the greedy path takes two leaves, no shift can absorb the other two
    inst = _write(tmp_path, "star.txt", Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    assert main(["solve", inst, "--rules", "d6"]) == 2
    assert main(["audit", inst, "--rules", "d6"]) == 2


def test_invalid_input_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from pathpart.cli import build_parser, main
from pathpart.discharge import apply_rules
from pathpart.graphs import (Graph, gen_circulant, gen_complete_bipartite, gen_disjoint_cliques,
                             write_edge_list)

from conftest import complete_graph, count_calls, simple_graphs

NOT_UTF8 = b"3 1\n0 1\xff\n"


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


def test_gen_bipartite(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--bipartite", "--d", "3", "-o", str(out)]) == 0
    assert out.read_text() == write_edge_list(gen_complete_bipartite(3))
    assert capsys.readouterr().err == "n=6 m=9 seed=0\n"


def test_gen_rejects_odd_parity(tmp_path):
    out = tmp_path / "x.txt"
    assert main(["gen", "--random", "--n", "9", "--d", "5", "-o", str(out)]) == 2


@pytest.mark.parametrize("args", [
    ["--circulant", "--offsets", "1,x"],
    ["--circulant", "--n", "0"],
    ["--random", "--n", "10", "--d", "-2"],
    ["--n", "7"],
], ids=["bad-offsets", "circulant-n0", "negative-degree", "no-family"])
def test_gen_rejects_bad_arguments(tmp_path, capsys, args):
    assert main(["gen", *args, "-o", str(tmp_path / "x.txt")]) == 2
    assert capsys.readouterr().err.startswith("gen: ")


def test_solve_cliques_passes(tmp_path):
    inst = _write(tmp_path, "cliques.txt", gen_disjoint_cliques(6, 10, seed=0))
    out = tmp_path / "res.json"
    assert main(["solve", inst, "--json", "-o", str(out)]) == 0
    report_line, cert_line = out.read_text().splitlines()
    assert json.loads(report_line)["component_count"] == 10
    cert = json.loads(cert_line)
    assert cert["verdict"] is True
    assert all(c["total"] == "7/1" for c in cert["components"])


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_solve_refuses_k6_under_degree5(tmp_path, capsys, command):
    inst = _write(tmp_path, "k6s.txt", gen_disjoint_cliques(5, 2, seed=0))
    assert main([command, inst]) == 2
    assert capsys.readouterr().err.startswith(f"{command}: 5-regular input contains K6 ")


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_solve_refuses_wrong_degree(tmp_path, capsys, command):
    inst = _write(tmp_path, "k5.txt", complete_graph(5))
    assert main([command, inst]) == 2
    assert capsys.readouterr().err == f"{command}: input must be 5- or 6-regular (got degree 4)\n"


def test_solve_certificate_failure_writes_reproducer(tmp_path):
    # degree-6 rules on two K6 components genuinely miss the floor
    inst = _write(tmp_path, "k6s.txt", gen_disjoint_cliques(5, 2, seed=0))
    bundle = tmp_path / "bundle"
    assert main(["solve", inst, "--rules", "d6", "--bundle-dir", str(bundle)]) == 1
    for name in ("graph.txt", "partition.json", "certificate.json", "moves.jsonl"):
        assert (bundle / name).exists()
    # without --trace the bundle still holds the move trace --trace writes
    trace = tmp_path / "trace.jsonl"
    assert main(["solve", inst, "--rules", "d6", "--trace", str(trace),
                 "--bundle-dir", str(tmp_path / "traced")]) == 1
    assert trace.read_text() and (bundle / "moves.jsonl").read_bytes() == trace.read_bytes()


def test_solve_output_deterministic(tmp_path):
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 3, seed=4))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", inst, "--json", "--seed", "5", "-o", str(a)]) == 0
    assert main(["solve", inst, "--json", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_timings_add_only_the_wall_time(tmp_path):
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 3, seed=4))
    plain, timed = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", inst, "--json", "-o", str(plain)]) == 0
    assert main(["solve", inst, "--json", "--timings", "-o", str(timed)]) == 0
    (report, cert), (timed_report, timed_cert) = (
        [json.loads(line) for line in out.read_text().splitlines()] for out in (plain, timed))
    wall = timed_report.pop("wall_time_s")
    assert isinstance(wall, float) and wall >= 0
    assert (timed_report, timed_cert) == (report, cert)


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
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["exit"] for r in records] == [0, 2, 0]
    assert "unrecognized arguments: --no-such-flag" in records[1]["stderr"]
    assert (tmp_path / "r3.txt").exists()


def test_batch_stdout_is_one_json_line_per_job(tmp_path, capsys):
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 2, seed=1))
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([
        {"command": "solve", "args": [inst, "--json"]},
        {"command": "audit", "args": [inst]},
    ]))
    assert main(["batch", str(manifest)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["job"]["command"] for r in records] == ["solve", "audit"]
    report, cert = map(json.loads, records[0]["stdout"].splitlines())
    assert report["component_count"] == 2 and cert["verdict"] is True
    assert json.loads(records[1]["stdout"])["violations"] == []


@pytest.mark.parametrize("manifest", [
    '[{"args": []}]',
    '[{"command": "solve", "args": ["g.txt"',
    None,
    '[{"command": "solve", "args": "g.txt"}]',
    '[{"command": "batch", "args": ["jobs.json"]}]',
    '{"jobs": "solve"}',
], ids=["no-command", "truncated-json", "missing-file", "args-not-a-list", "nested-batch",
        "jobs-not-a-list"])
def test_batch_rejects_a_malformed_manifest(tmp_path, capsys, manifest):
    path = tmp_path / "jobs.json"
    if manifest is not None:
        path.write_text(manifest)
    assert main(["batch", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("batch: ")


# degree-6 rules on two K6s solve, then fail certification and write a bundle
@pytest.mark.parametrize("args", [
    ["solve", "{inst}", "--rules", "d6", "-o", "{out}"],
    ["solve", "{inst}", "--rules", "d6", "--trace", "{out}"],
    ["solve", "{inst}", "--rules", "d6", "--bundle-dir", "{out}"],
    ["gen", "--cliques", "-o", "{out}"],
], ids=["output", "trace", "bundle-dir", "gen-output"])
def test_unwritable_output_is_invalid(tmp_path, capsys, args):
    inst = _write(tmp_path, "k6s.txt", gen_disjoint_cliques(5, 2, seed=0))
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    args = [a.format(inst=inst, out=blocker / "out") for a in args]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{args[0]}: ") and "Traceback" not in err
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([{"command": args[0], "args": args[1:]}]))
    assert main(["batch", str(manifest)]) == 2
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["exit"] == 2 and record["stderr"].startswith(f"{args[0]}: ")


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


@pytest.mark.parametrize("command", ["solve", "oracle", "audit"])
def test_non_utf8_input_is_invalid(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"{command}: ")


def test_batch_runs_on_past_a_non_utf8_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    inst = _write(tmp_path, "inst.txt", gen_disjoint_cliques(6, 2, seed=1))
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([
        {"command": "solve", "args": [str(bad)]},
        {"command": "solve", "args": [inst]},
    ]))
    assert main(["batch", str(manifest)]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["exit"] for r in records] == [2, 0]
    assert records[0]["stderr"].startswith("solve: ")


def _truncated(text: str, cut: int) -> bytes:
    return text.encode()[:cut]


MALFORMED = st.one_of(
    st.binary(max_size=64),
    st.builds(_truncated, simple_graphs(8).map(write_edge_list), st.integers(0, 80)),
    st.builds(lambda head, g: head.encode() + write_edge_list(g).partition("\n")[2].encode(),
              st.text(max_size=12) | st.sampled_from(["", "3", "3 1 1", "-1 0", "x y", "2 -1"]),
              simple_graphs(8)),
)


@given(MALFORMED.map(lambda content: (content, False))
       | simple_graphs(8).map(lambda g: (write_edge_list(g).encode(), True)))
def test_cli_on_malformed_input_ends_in_an_exit_code(tmp_path_factory, case):
    """Malformed bytes, and well-formed simple graphs (mostly irregular) also
    under forced rules, end in an exit code; an error names its command."""
    content, well_formed = case
    tmp = tmp_path_factory.mktemp("malformed")
    path = tmp / "g.txt"
    path.write_bytes(content)
    runs = [[command, str(path)] for command in ("solve", "oracle", "audit")]
    if well_formed:
        runs += [[command, str(path), "--rules", rules]
                 for command in ("solve", "audit") for rules in ("d5", "d6")]
    for argv in runs:
        if argv[0] == "solve":
            argv += ["--bundle-dir", str(tmp / "bundle")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in ((0, 1, 2) if "--rules" in argv else (0, 1, 2, 3)), err.getvalue()
        if code >= 2:
            assert err.getvalue().startswith(f"{argv[0]}: ")


@pytest.mark.parametrize("command", ["solve", "audit", "oracle"])
@pytest.mark.parametrize("text, line", [
    ("3 3\n0 \u0661\n1 2\n0 2\n", 2),  # K3 with vertex 1 as an Arabic-Indic digit
    ("\u0661\u0660\u0660 3\n0 1\n1 2\n0 2\n", 1),  # a header int() reads as n = 100
])
def test_cli_refuses_non_ascii_digits(tmp_path, capsys, command, text, line):
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"{command}: line {line}: non-ASCII byte 0xd9\n"


HUGE_HEADER_LIMIT = 1536 * 2**20  # bytes of address space for the child


def _limited_main(args: list[str]) -> subprocess.CompletedProcess:
    """`pathpart` in a child process whose address space is capped, so that
    allocating for a header's vertex count fails instead of exhausting memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (HUGE_HEADER_LIMIT, HUGE_HEADER_LIMIT))

    code = "import sys; from pathpart.cli import main; sys.exit(main(sys.argv[1:]))"
    # one BLAS thread keeps numpy's own buffers small under the cap on many-core hosts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=120)


def test_huge_header_is_refused_before_allocating(tmp_path):
    inst = tmp_path / "huge.txt"
    inst.write_text("300000000 0\n")
    for command in ("solve", "audit"):
        done = _limited_main([command, str(inst)])
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"{command}: ") and "isolated" in done.stderr
    done = _limited_main(["oracle", str(inst)])
    assert done.returncode == 3, done.stderr
    assert done.stderr == "oracle: unknown (n=300000000 above oracle cap 16)\n"
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([{"command": "solve", "args": [str(inst)]}]))
    done = _limited_main(["batch", str(manifest)])
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["exit"] == 2


def test_oracle_over_budget_is_unknown_before_allocating(tmp_path):
    # 28 * 2^27 transitions are over the default budget; the 2^28-entry tables
    # would not fit under the address-space cap
    inst = _write(tmp_path, "c28.txt", gen_circulant(28, [1, 2, 3]))
    done = _limited_main(["oracle", inst, "--cap", "30"])
    assert done.returncode == 3, done.stderr
    assert done.stderr == "oracle: unknown (subset DP budget exceeded)\n"
    assert done.stdout == ""


def test_oracle_out_of_memory_is_unknown(tmp_path):
    # within budget, but the 1 GiB `ends` table does not fit under the cap
    inst = _write(tmp_path, "c28.txt", gen_circulant(28, [1, 2, 3]))
    done = _limited_main(["oracle", inst, "--cap", "30", "--budget", "10000000000"])
    assert done.returncode == 3, done.stderr
    assert done.stderr == "oracle: unknown (subset DP tables do not fit in memory)\n"
    assert done.stdout == ""


_FRESH_MAIN = """\
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import pathpart, pathpart.cli
runs = [{"numpy": sys.modules.get("numpy") is not None}]
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pathpart.cli.main(argv)
        except SystemExit as exc:  # argparse rejected argv
            code = exc.code
    runs.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                 "numpy": sys.modules.get("numpy") is not None})
print(json.dumps(runs))
"""


def _fresh_main(argvs: list[list[str]], block_numpy: bool) -> list[dict]:
    """Import pathpart in a fresh interpreter and run each argv through `main`:
    whether numpy is loaded after the import, then each run's exit code,
    output and whether numpy is loaded after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _FRESH_MAIN,
                           "block" if block_numpy else "allow", json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_only_gen_random_and_oracle_import_numpy(tmp_path):
    inst = _write(tmp_path, "k7s.txt", gen_disjoint_cliques(6, 6, seed=1))
    small = _write(tmp_path, "c14.txt", gen_circulant(14, [1, 2, 3]))
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([{"command": "solve", "args": ["--json", inst]}]))
    cold = [["solve", "--json", inst], ["audit", inst], ["gen", "--cliques", "--k", "3"],
            ["gen", "--circulant", "--n", "9"], ["gen", "--bipartite", "--d", "5"],
            ["batch", str(manifest)]]
    warm = [["gen", "--random", "--n", "14", "--seed", "2"], ["oracle", small]]
    blocked = _fresh_main(cold, block_numpy=True)
    normal = _fresh_main(cold + warm, block_numpy=False)
    assert normal[0] == {"numpy": False}  # `import pathpart, pathpart.cli`
    for run, ref in zip(blocked[1:], normal[1:1 + len(cold)], strict=True):
        assert run == ref and run["exit"] == 0 and not run["numpy"]
    for run in normal[1 + len(cold):]:
        assert run["exit"] == 0 and run["numpy"]


def test_main_calls_in_one_process_match_fresh_interpreters(tmp_path):
    inst = _write(tmp_path, "k7s.txt", gen_disjoint_cliques(6, 3, seed=1))
    small = _write(tmp_path, "c13.txt", gen_circulant(13, [1, 2, 3]))
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps([
        {"command": "solve", "args": [inst, "-o", str(tmp_path / "job.txt")]},
        {"command": "solve", "args": [inst, "--no-such-flag"]},
    ]))
    outputs = [tmp_path / name for name in ("oracle.json", "solve.json", "job.txt", "audit.json")]
    argvs = [["oracle", small, "-o", str(outputs[0])],
             ["solve", "--json", inst, "-o", str(outputs[1])],
             ["solve"],  # argparse: the input is missing
             ["batch", str(manifest)],
             ["audit", inst, "-o", str(outputs[3])]]

    def runs_and_files(runs):
        files = {path.name: path.read_text() for path in outputs}
        for path in outputs:
            path.unlink()
        return [{k: run[k] for k in ("exit", "stdout", "stderr")} for run in runs], files

    together = runs_and_files(_fresh_main(argvs, block_numpy=False)[1:])
    apart = runs_and_files([_fresh_main([argv], block_numpy=False)[1] for argv in argvs])
    assert together == apart
    assert [run["exit"] for run in together[0]] == [0, 0, 2, 2, 0]
    assert together[0][2]["stderr"].startswith("usage: pathpart solve")


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


_COUNT_PARSERS = """\
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
import pathpart.cli
counts = [len(built)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            pathpart.cli.main(argv)
        except SystemExit:
            pass
    counts.append(len(built))
print(json.dumps(counts))
"""


def test_import_builds_no_parser_and_main_builds_one_per_process(tmp_path):
    inst = _write(tmp_path, "k7.txt", complete_graph(7))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argvs = [["gen", "--cliques"], ["solve", inst], ["solve"], ["oracle", inst]]
    done = subprocess.run([sys.executable, "-c", _COUNT_PARSERS, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    # the first main builds the parser and its five subcommand parsers
    assert json.loads(done.stdout) == [0] + [6] * len(argvs)

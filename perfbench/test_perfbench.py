"""Smoke tests for the benchmark: every workload at tiny size in both modes,
the result-line contract, and the verifier's rejection of corrupted outputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.REPO / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_lists_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.SIZES["full"])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.SIZES["smoke"]))
def test_smoke_run(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    if trace == "0":
        # tight cliques meet the count bound exactly, so their margin is 0
        exact = {"bound_margin"} if workload == "tight-cliques" else set()
        assert all(v["value"] > 0 for k, v in result["metrics"].items() if k not in exact)


def test_same_seed_same_inputs():
    def inputs(seed: str) -> dict[str, str]:
        out = bench("--workload", "perturbed-cliques", "--seed", seed, "--seconds", "0",
                    "--smoke")
        assert out.returncode == 0, out.stderr
        work = run.WORK / f"perturbed-cliques-{seed}-trace0"
        return {p.name: p.read_text() for p in sorted(work.glob("*.txt"))}

    first = inputs("7")
    assert first and inputs("7") == first
    assert inputs("8") != first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "tight-cliques", "--seed", "1", "--seconds", "1",
                "--smoke", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.fixture
def solved(tmp_path):
    """One perturbed-clique instance, solved, audited and oracle-checked once."""
    sys.path.insert(0, str(run.SRC))
    specs = [run.Spec("pc", ["--cliques", "--d", "6", "--k", "4", "--seed", "1"], 6,
                      ("solve", "audit"), switches=2, switch_seed=5),
             run.Spec("small", ["--random", "--n", "10", "--d", "6", "--seed", "2"], 6,
                      ("oracle",))]
    b = run.Bench(specs, tmp_path, None)
    run.import_pathpart()
    b.generate()
    b.setup()
    b.run_pass(0, False)
    assert b.failed == 0
    return b


def _drop_vertex(cert):
    cert["components"][0]["vertices"].pop()


def _add_a_twelfth(cert):
    comp = cert["components"][0]
    comp["total"] = str(Fraction(comp["total"]) + Fraction(1, 12))


def _cover_twice(cert):
    first, second = cert["components"][:2]
    first["vertices"].append(second["vertices"][0])


def _false_verdict(cert):
    cert["verdict"] = False


@pytest.mark.parametrize("edit", [_drop_vertex, _add_a_twelfth, _cover_twice,
                                  _false_verdict])
def test_corrupted_certificate_counts_as_failed(solved, edit):
    out = solved.work / "pc.solve.out"
    report, cert = out.read_text().splitlines()
    cert = json.loads(cert)
    edit(cert)
    out.write_text(report + "\n" + json.dumps(cert) + "\n")
    solved.check("pc", "solve", 0, out, "")
    assert solved.failed == 1


@pytest.mark.parametrize("cmd, edit", [
    ("audit", lambda o: o["violations"].append({"kind": "block-floor"})),
    ("oracle", lambda o: o.update(pi_p=o["heuristic"] + 1)),
    ("oracle", lambda o: o.update(bound_ok=False)),
])
def test_corrupted_audit_or_oracle_counts_as_failed(solved, cmd, edit):
    name = "pc" if cmd == "audit" else "small"
    out = solved.work / f"{name}.{cmd}.out"
    payload = json.loads(out.read_text())
    edit(payload)
    out.write_text(json.dumps(payload) + "\n")
    solved.check(name, cmd, 0, out, "")
    assert solved.failed == 1


def test_nonzero_exit_counts_as_failed(solved):
    solved.check("pc", "solve", 1, solved.work / "pc.solve.out", "certificate failed")
    assert solved.failed == 1

#!/usr/bin/env python3
"""The pathpart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One process per run. It makes the workload's inputs from the seed with
`pathpart gen` (plus, for perturbed cliques, the benchmark's own double-edge
switches), times the set-up in fresh child processes, then runs the
workload's CLI calls in passes for S seconds by calling
`pathpart.cli.main(argv)` in this process. verify.py checks every output.
The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, their times in reference
seconds (see REF_S); with --trace 1 passes alternate untraced and traced
(spans from spans.py) and the metrics are the per-layer ones, plus the
tracing overhead. Earlier lines carry the run's
metadata and the figures that are reported but not gated (generation time,
component count, failed share).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from instances import double_edge_switches, load_instance, read_edges, write_edges
from spans import ROOT as ROOT_SPAN, Tracer, median_stats
from verify import VERIFIERS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"

# set-up runs in this many fresh processes before the timed passes, and in one
# more after each untraced pass, so that its samples span the whole run;
# setup_s is their median
SETUP_REPS = 3

# The machine's speed drifts by up to 40% over minutes, in CPU time as much as
# in wall time, and the drift shows in any timed call. So the gated times are
# in reference seconds: measured seconds times REF_S over the seconds the
# reference loop took beside them. REF_S is the loop's median time on the
# machine the bounds were set on (2 vCPUs, Python 3.11), so the figures stay
# close to seconds there.
REF_S = 0.014
REF_ITERATIONS = 60_000


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work, integer arithmetic and
    dict updates as in the program's inner loops. It allocates no objects the
    garbage collector tracks, so the heap the program leaves does not slow it."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    x = 0
    for i in range(REF_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
        table[x & 1023] = table.get(x & 1023, 0) + (x >> 3)
    return time.perf_counter() - t0


# Why each workload: random-regular is bound by classification (rebuilt after
# every move) and is the only one where generation is slow; perturbed-cliques
# is near-extremal, bound by derived moves and partition copies, and the only
# one where rule 1 fires and the block audit has paths to check;
# oracle-small is the only user of the subset-DP oracle, and its move and
# classification layers take under 1% of the self time. tight-cliques, the
# paper's extremal family, bound by find_basic_move, runs but is left out of
# BENCHMARK.json: its dict-scanning loop swung most with the machine's speed
# drift, beyond the wall_s bound, and the other three still measure every
# layer.
SIZES = {
    "full": {
        "random-regular": {"n": 1000, "degrees": (6, 6, 5, 5)},
        "perturbed-cliques": {"k": 40, "switches": 20, "count": 24},
        "tight-cliques": {"k": 500, "count": 2},
        "oracle-small": {"sizes": (13, 14, 15)},
    },
    "smoke": {
        "random-regular": {"n": 40, "degrees": (6, 5)},
        "perturbed-cliques": {"k": 6, "switches": 3, "count": 2},
        "tight-cliques": {"k": 5, "count": 2},
        "oracle-small": {"sizes": (10, 14)},  # n=14 keeps bound_margin above 0
    },
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("bound_margin", "count")]

PER_LAYER = [
    ("classify.classify_edges.calls", "count"),
    ("classify.classify_edges.s", "s"),
    ("classify.classify_vertices.calls", "count"),
    ("classify.classify_vertices.s", "s"),
    ("classify.calls_per_move", "ratio"),
    ("moves.find_basic_move.calls", "count"),
    ("moves.find_basic_move.hits", "count"),
    ("moves.find_basic_move.self_s", "s"),
    ("moves.eliminate_singletons.calls", "count"),
    ("moves.eliminate_singletons.hits", "count"),
    ("moves.eliminate_singletons.self_s", "s"),
    ("moves.find_derived_move.calls", "count"),
    ("moves.find_derived_move.hits", "count"),
    ("moves.find_derived_move.self_s", "s"),
    ("moves.find_pair_move.calls", "count"),
    ("moves.find_pair_move.hits", "count"),
    ("moves.find_pair_move.self_s", "s"),
    ("moves.find_compound_move.calls", "count"),
    ("moves.find_compound_move.hits", "count"),
    ("moves.apply_move.calls", "count"),
    ("moves.apply_move.s", "s"),
    ("partition.copy.calls", "count"),
    ("partition.copy.s", "s"),
    ("partition.copies_per_move", "ratio"),
    ("solver.initial_partition.s", "s"),
    ("solver.canonicalize.self_s", "s"),
    ("solver.moves_applied", "count"),
    ("solver.components", "count"),
    ("discharge.apply_rules.calls", "count"),
    ("discharge.apply_rules.s", "s"),
    ("discharge.certify.s", "s"),
    ("discharge.audit_block_bounds.s", "s"),
    ("discharge.rule1", "count"),
    ("discharge.rule2", "count"),
    ("discharge.rule3", "count"),
    ("discharge.rule4", "count"),
    ("discharge.rule5", "count"),
    ("discharge.min_slack", "points"),
    ("graphs.gen.s", "s"),
    ("graphs.contains_k6.s", "s"),
    ("graphs.read_edge_list.s", "s"),
    ("cli.self_s", "s"),
    ("oracle.exact_pi_p.s", "s"),
    ("oracle.explored", "count"),
    ("trace.overhead_s", "s"),
]

GEN_PASS = -1  # pass number of the generation calls


class BenchError(RuntimeError):
    """The run cannot produce a result (missing source, failed generation)."""


@dataclass
class Spec:
    """One input: how `pathpart gen` makes it, what the benchmark then does to
    it, and which commands the timed passes run on it."""

    name: str
    gen: list[str]
    d: int
    commands: tuple[str, ...]
    switches: int = 0
    switch_seed: int = 0


def plan(workload: str, seed: int, scale: str = "full") -> list[Spec]:
    size = SIZES[scale][workload]
    rng = random.Random(f"{workload}/{seed}")

    def gen_seed() -> str:
        return str(rng.randrange(2**31))

    if workload == "random-regular":
        return [Spec(f"regular{d}-{i}", ["--random", "--n", str(size["n"]), "--d", str(d),
                                         "--seed", gen_seed()], d, ("solve",))
                for i, d in enumerate(size["degrees"])]
    if workload == "perturbed-cliques":
        return [Spec(f"perturbed-{i}", ["--cliques", "--d", "6", "--k", str(size["k"]),
                                        "--seed", gen_seed()], 6, ("solve", "audit"),
                     size["switches"], rng.randrange(2**31))
                for i in range(size["count"])]
    if workload == "tight-cliques":
        return [Spec(f"cliques-{i}", ["--cliques", "--d", "6", "--k", str(size["k"]),
                                      "--seed", gen_seed()], 6, ("solve",))
                for i in range(size["count"])]
    if workload == "oracle-small":
        return [Spec(f"oracle-{n}", ["--random", "--n", str(n), "--d", "6",
                                     "--seed", gen_seed()], 6, ("oracle",))
                for n in size["sizes"]]
    raise BenchError(f"unknown workload {workload!r}")


def import_pathpart() -> None:
    """Import pathpart.cli afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "pathpart" or m.startswith("pathpart.")]:
        del sys.modules[name]
    cli = importlib.import_module("pathpart.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"pathpart imported from {cli.__file__}, not from {SRC}")


def git_commit() -> str | None:
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def metadata() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "src_loc": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# the generation child: python3 -c GEN_CHILD <perfbench dir> <argvs as JSON> <trace 0|1>
GEN_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
             "print(json.dumps(run.gen_calls(json.loads(sys.argv[2]), sys.argv[3] == '1')))")


# a set-up child: python3 -c SETUP_CHILD <perfbench dir> <workload> <seed> <scale> <work dir>
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
               "run.setup_once(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5])")


def setup_once(workload: str, seed: int, scale: str, work: str) -> None:
    """The set-up a fresh process makes before its first timed call."""
    sys.path.insert(0, str(SRC))
    Bench(plan(workload, seed, scale), Path(work), None).setup()


def timed_setup(workload: str, seed: int, scale: str, work: Path) -> float:
    """Seconds from starting a Python process to its inputs being ready: the
    interpreter, the cold import of pathpart and its dependencies, and
    Bench.setup, in a fresh process."""
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), workload,
                            str(seed), scale, str(work)],
                           capture_output=True, text=True, check=False)
    secs = time.perf_counter() - t0
    if child.returncode != 0:
        raise BenchError(f"set-up process failed: {child.stderr.strip()}")
    return secs


def gen_calls(argvs: list[list[str]], trace: bool) -> tuple[list[tuple], dict]:
    """Run `pathpart gen` calls in this process: (exit code, seconds, output)
    per call, and the graphs.gen span stats when traced."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import_pathpart()
    tracer = Tracer() if trace else None
    bench = Bench([], WORK, tracer)
    if tracer:
        tracer.install()
    results = [bench.cli(argv, GEN_PASS, "gen", trace) for argv in argvs]
    stats = tracer.layer_stats(set(range(len(argvs)))).get("graphs.gen", {}) if tracer else {}
    return results, stats


class Bench:
    def __init__(self, specs: list[Spec], work: Path, tracer: Tracer | None):
        self.specs = specs
        self.work = work
        self.tracer = tracer
        self.instances = {}
        self.attempted = 0
        self.failed = 0
        self.calls: list[tuple[int, str]] = []  # (pass, label) by call id
        self.facts: dict[tuple[str, str], dict] = {}
        self.gen_stats: dict[str, float] = {}  # graphs.gen span stats, when traced

    def cli(self, argv: list[str], pass_no: int, label: str,
            traced: bool = False) -> tuple[object, float, str]:
        """One in-process `pathpart` call: (exit code or error, seconds, its output)."""
        main = sys.modules["pathpart.cli"].main
        call_id = len(self.calls)
        self.calls.append((pass_no, label))
        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if traced:
                    code = self.tracer.call(call_id, main, argv)
                else:
                    code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash in the program is a failed call
            code = f"{type(exc).__name__}: {exc}"
        secs = time.perf_counter() - t0
        if threading.active_count() != 1:  # it would slow the reference loop
            code = "the call left a thread running"
        return code, secs, sink.getvalue()

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)

    def generate(self) -> float:
        """Run every `pathpart gen` call in one child process, as a CLI user
        runs `gen` apart from `solve`, so the sampler's memory stays out of
        this process's peak RSS. Returns their summed wall time."""
        argvs = [["gen", *spec.gen, "-o", str(self.work / f"{spec.name}.gen.txt")]
                 for spec in self.specs]
        child = subprocess.run(
            [sys.executable, "-c", GEN_CHILD, str(HERE), json.dumps(argvs),
             str(int(self.tracer is not None))],
            capture_output=True, text=True, check=False)
        if child.returncode != 0:
            raise BenchError(f"generation process failed: {child.stderr.strip()}")
        results, self.gen_stats = json.loads(child.stdout.splitlines()[-1])
        for spec, (code, _, msg) in zip(self.specs, results):
            self.calls.append((GEN_PASS, f"gen {spec.name}"))
            self.attempted += 1
            if code != 0:
                raise BenchError(f"gen {spec.name} exited {code}: {msg.strip()}")
        return sum(secs for _, secs, _ in results)

    def setup(self) -> None:
        """Import pathpart, build and write the inputs, read them back as the
        verifier sees them."""
        import_pathpart()
        for spec in self.specs:
            n, edges = read_edges(self.work / f"{spec.name}.gen.txt")
            if spec.switches:
                edges = double_edge_switches(n, edges, spec.switches, spec.switch_seed)
            path = self.work / f"{spec.name}.txt"
            write_edges(path, n, edges)
            # asserts a simple d-regular (K6-free for d=5) graph before the program sees it
            self.instances[spec.name] = load_instance(spec.name, path, spec.d)

    def check(self, name: str, cmd: str, code, out: Path, msg: str) -> None:
        label = f"{cmd} {name}"
        if code != 0:
            self.fail(label, f"exit {code}: {msg.strip()[-500:]}")
            return
        try:
            self.facts[(name, cmd)] = VERIFIERS[cmd](self.instances[name], out.read_text())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")

    def run_pass(self, pass_no: int,
                 traced: bool) -> dict[tuple[str, str], tuple[float, float]]:
        """Every timed call once, each output checked. Returns per call its
        seconds and the mean seconds of the reference loops run before and
        after it."""
        times = {}
        ref_before = reference_loop()
        for spec in self.specs:
            for cmd in spec.commands:
                out = self.work / f"{spec.name}.{cmd}.out"
                out.unlink(missing_ok=True)
                argv = [cmd, str(self.instances[spec.name].path), "-o", str(out)]
                if cmd == "solve":
                    argv.append("--json")
                code, secs, msg = self.cli(argv, pass_no, f"{cmd} {spec.name}", traced)
                ref_after = reference_loop()
                times[(spec.name, cmd)] = (secs, (ref_before + ref_after) / 2)
                ref_before = ref_after
                self.check(spec.name, cmd, code, out, msg)
        return times

    def measure(self, seconds: float, trace: bool,
                after_untraced=None) -> tuple[list[dict], list[dict]]:
        """Passes until `seconds` have elapsed; with tracing, odd passes are
        traced, and `after_untraced`, if given, is called after each untraced
        pass. Returns per-pass call times, untraced and traced."""
        untraced, traced = [], []
        t0 = time.perf_counter()
        pass_no = 0
        while True:
            on = trace and pass_no % 2 == 1
            if on:
                self.tracer.install()
                try:
                    traced.append(self.run_pass(pass_no, True))
                finally:
                    self.tracer.uninstall()
            else:
                untraced.append(self.run_pass(pass_no, False))
                if after_untraced:
                    after_untraced()
            pass_no += 1
            if time.perf_counter() - t0 >= seconds and (not trace or traced):
                return untraced, traced

    def quality(self) -> dict:
        """Exact facts from the checked outputs of the last pass."""
        solves = [f for (_, cmd), f in self.facts.items() if cmd == "solve"]
        return {
            "components": sum(f["components"] for (_, cmd), f in self.facts.items()
                              if cmd in ("solve", "oracle")),
            "margin": sum(f["margin"] for (_, cmd), f in self.facts.items()
                          if cmd in ("solve", "oracle")),
            "moves": sum(f["moves"] for f in solves),
            "min_slack": float(min((f["min_slack"] for f in solves), default=0)),
            "rules": {f"rule{i}": sum(f[f"rule{i}"] for f in solves) for i in range(1, 6)},
            "explored": sum(f["explored"] for (_, cmd), f in self.facts.items()
                            if cmd == "oracle"),
        }


def call_wall(passes: list[dict], reference: bool = False) -> float:
    """Summed per-call medians over passes: one pass's wall time, robust to
    spikes; in reference seconds if `reference`."""
    by_call = defaultdict(list)
    for times in passes:
        for key, (secs, ref) in times.items():
            by_call[key].append(secs * REF_S / ref if reference else secs)
    return sum(statistics.median(v) for v in by_call.values())


def layer_metrics(bench: Bench, traced: list[dict],
                  untraced: list[dict]) -> tuple[dict, dict[str, float]]:
    """Per-layer metrics, and each layer's self time as a share of traced wall_s."""
    tracer = bench.tracer
    pass_ids = defaultdict(set)
    for call_id, (pass_no, _) in enumerate(bench.calls):
        pass_ids[pass_no].add(call_id)
    traced_passes = sorted(p for p in pass_ids if p >= 0 and p % 2 == 1)
    st = median_stats([tracer.layer_stats(pass_ids[p]) for p in traced_passes])
    st["graphs.gen"] = bench.gen_stats
    q = bench.quality()
    moves = max(st.get("moves.apply_move", {}).get("calls", 0), 1)
    derived = {
        "classify.calls_per_move":
            st.get("classify.classify_edges", {}).get("calls", 0) / moves,
        "partition.copies_per_move": st.get("partition.copy", {}).get("calls", 0) / moves,
        "solver.moves_applied": q["moves"],
        "solver.components": q["components"],
        "discharge.min_slack": q["min_slack"],
        "oracle.explored": q["explored"],
        "trace.overhead_s": call_wall(traced) - call_wall(untraced),
        **{f"discharge.{k}": v for k, v in q["rules"].items()},
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        else:
            layer, _, stat = name.rpartition(".")
            value = st.get(layer, {}).get(stat, 0)
        metrics[name] = {"value": value, "unit": unit}
    wall = call_wall(traced)
    shares = sorted(((s["self_s"] / wall, name) for name, s in st.items()
                     if name != "graphs.gen"), reverse=True)
    return metrics, {name: round(share, 4) for share, name in shares}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    if not (SRC / "pathpart" / "__init__.py").is_file():
        raise BenchError(f"no pathpart package under {SRC}")
    sys.path.insert(0, str(SRC))
    specs = plan(workload, seed, scale)
    work = WORK / f"{workload}-{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    import_pathpart()
    bench = Bench(specs, work, Tracer() if trace else None)
    gen_s = bench.generate()
    bench.setup()
    # set-up samples as (seconds, reference seconds); setup_s is end-to-end,
    # so the traced run skips them
    setups: list[tuple[float, float]] = []

    def sample_setup() -> None:
        ref = reference_loop()
        secs = timed_setup(workload, seed, scale, work)
        setups.append((secs, secs * REF_S * 2 / (ref + reference_loop())))

    if not trace:
        for _ in range(SETUP_REPS):
            sample_setup()
    untraced, traced = bench.measure(seconds, trace, None if trace else sample_setup)
    q = bench.quality()
    print(json.dumps({"meta": metadata()}))
    print(json.dumps({"info": {
        "workload": workload, "seed": seed, "scale": scale,
        "gen_s": gen_s, "setup_samples_s": [secs for secs, _ in setups],
        "components": q["components"],
        "failed_frac": bench.failed / bench.attempted,
        "passes": len(untraced) + len(traced),
        "wall_measured_s": call_wall(untraced),
        "reference_loop_s": statistics.median(ref for p in untraced for _, ref in p.values()),
        "untraced_pass_s": [sum(secs for secs, _ in p.values()) for p in untraced],
        "call_median_s": {f"{cmd} {name}": statistics.median(p[(name, cmd)][0]
                                                             for p in untraced)
                          for name, cmd in untraced[0]},
    }}))
    if trace:
        metrics, shares = layer_metrics(bench, traced, untraced)
        print(json.dumps({"self_time_share": shares, "unbound": bench.tracer.unbound}))
        bench.tracer.write(work / "trace.jsonl", {"meta": metadata(), "root": ROOT_SPAN,
                                                  "calls": bench.calls})
    else:
        values = {"wall_s": call_wall(untraced, reference=True),
                  "setup_s": statistics.median(ref_secs for _, ref_secs in setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "bound_margin": q["margin"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     "smoke" if args.smoke else "full")
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

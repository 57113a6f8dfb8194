#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarize each metric.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [-o FILE]

The workloads and seconds default to those in BENCHMARK.json. Runs
`perfbench/run.py` once per workload and seed, one run at a time, and
reports for each metric its values, median, quartiles and spread (the
distance between the quartiles as a share of the median), as
`statistics.quantiles(values, n=4)` gives them. Use it for the before/after
runs a performance claim needs, on identical settings for both commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        metrics: dict[str, list[float]] = {}
        info: dict[str, list[float]] = {"gen_s": [], "components": []}
        failed = attempted = 0
        top: dict[int, dict] = {}  # traced runs: self-time shares by seed
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
                 workload, "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace],
                cwd=run.REPO, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            lines = [json.loads(line) for line in out.stdout.splitlines()]
            result = lines[-1]
            extra = next(line["info"] for line in lines if "info" in line)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for key in info:
                info[key].append(extra[key])
            shares = next((line for line in lines if "self_time_share" in line), None)
            if shares:
                top[seed] = shares
            print(workload, seed, {k: round(v[-1], 4) for k, v in metrics.items()},
                  file=sys.stderr, flush=True)
        report[workload] = {"failed": failed, "attempted": attempted,
                            "metrics": {k: summarize(v) for k, v in metrics.items()},
                            "info": {k: summarize(v) for k, v in info.items()},
                            **({"self_time_share": top} if top else {})}
    result = {"meta": run.metadata(), "seeds": args.seeds, "seconds": args.seconds,
              "trace": args.trace, "workloads": report}
    text = json.dumps(result, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n")
    for workload, r in report.items():
        for name, s in r["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:18s} {name:34s} median {s['median']:.4g} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

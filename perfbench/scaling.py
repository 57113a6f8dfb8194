#!/usr/bin/env python3
"""One-off scaling report for random 6-regular solves; not a gated workload.

    python3 perfbench/scaling.py [-o FILE]

Generates one graph per size in SIZES from seed SEED with `pathpart gen
--random`, times one `pathpart solve --json` call on each in this process,
checks every output with verify.py, and fits solve time = c * n^k by least
squares on log-log axes. Prints the report as JSON and writes it to FILE when given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import run

SIZES = (1000, 2000, 5000, 10000)
SEED = 0


def fit_exponent(ns: list[int], secs: list[float]) -> float:
    xs = [math.log(n) for n in ns]
    ys = [math.log(s) for s in secs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "scaling"
    work.mkdir(parents=True, exist_ok=True)
    run.import_pathpart()
    specs = [run.Spec(f"regular6-n{n}", ["--random", "--n", str(n), "--d", "6",
                                         "--seed", str(SEED)], 6, ("solve",))
             for n in SIZES]
    bench = run.Bench(specs, work, None)
    gen_s = bench.generate()
    bench.setup()
    times = bench.run_pass(0, False)
    secs = [times[(spec.name, "solve")][0] for spec in specs]
    report = {
        "meta": run.metadata(),
        "seed": SEED,
        "failed": bench.failed,
        "gen_s_total": gen_s,
        "solve_s": dict(zip(map(str, SIZES), secs)),
        "components": {str(n): bench.facts[(spec.name, "solve")]["components"]
                       for n, spec in zip(SIZES, specs) if (spec.name, "solve") in bench.facts},
        "exponent": fit_exponent(SIZES, secs),
    }
    text = json.dumps(report, indent=1)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

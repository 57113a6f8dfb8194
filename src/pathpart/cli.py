"""Command-line surface: generate, solve+certify, oracle checks, block audit, batch."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import graphs, oracle
from .discharge import (RULES_D5, RULES_D6, RuleSet, audit_block_bounds,
                        ruleset_for_degree)
from .graphs import Graph, GraphError, GenerationError
from .moves import MoveEngineError
from .partition import partition_to_json
from .solver import SolveReport, solve

EXIT_PASS = 0
EXIT_CERT_FAIL = 1
EXIT_INVALID = 2
EXIT_UNKNOWN = 3


def _load_graph(path: str) -> Graph:
    return graphs.read_edge_list(Path(path).read_text())


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    try:
        if args.cliques:
            g = graphs.gen_disjoint_cliques(args.d, args.k, seed=args.seed)
        elif args.random:
            g = graphs.gen_random_regular(args.n, args.d, seed=args.seed,
                                          restarts=args.restarts)
        elif args.circulant:
            offsets = [int(x) for x in args.offsets.split(",")]
            g = graphs.gen_circulant(args.n, offsets)
        elif args.bipartite:
            g = graphs.gen_complete_bipartite(args.d)
        else:
            print("gen: pick one of --cliques/--random/--circulant/--bipartite",
                  file=sys.stderr)
            return EXIT_INVALID
    except (GraphError, GenerationError) as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(args, graphs.write_edge_list(g))
    print(f"n={g.n} m={g.m} seed={args.seed}", file=sys.stderr)
    return EXIT_PASS


def _resolve_rules(g: Graph, args) -> RuleSet | int:
    if args.rules == "d6":
        return RULES_D6
    if args.rules == "d5":
        return RULES_D5
    d = graphs.infer_degree(g)
    if d not in (5, 6):
        print(f"solve: input must be 5- or 6-regular (got degree {d})",
              file=sys.stderr)
        return EXIT_INVALID
    if d == 5:
        witness = graphs.contains_k6(g)
        if witness is not None:
            print(f"solve: 5-regular input contains K6 {witness}; "
                  "the degree-5 guarantee requires K6-free input", file=sys.stderr)
            return EXIT_INVALID
    return ruleset_for_degree(d)


def write_reproducer(out: str | Path, g: Graph, report: SolveReport) -> str:
    """Write the graph, final partition, certificate and move trace to `out`."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_text(graphs.write_edge_list(g))
    (out / "partition.json").write_text(partition_to_json(report.partition))
    (out / "certificate.json").write_text(report.certificate.to_json())
    trace = "".join(json.dumps(t) + "\n" for t in report.trace)
    (out / "moves.jsonl").write_text(trace)
    return str(out)


def _solve_input(args, record_trace: bool = False):
    """Load, pick the rules and solve: (graph, rules, report), or the exit code
    of a rejected input."""
    try:
        g = _load_graph(args.input)
    except (OSError, GraphError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    rules = _resolve_rules(g, args)
    if isinstance(rules, int):
        return rules
    try:
        report = solve(g, seed=args.seed, depth=args.depth, rules=rules,
                       record_trace=record_trace)
    except MoveEngineError as exc:
        # irregular inputs under forced rules may keep singletons no shift absorbs
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return g, rules, report


def cmd_solve(args) -> int:
    solved = _solve_input(args, record_trace=args.trace is not None)
    if isinstance(solved, int):
        return solved
    g, _, report = solved
    if args.trace:
        Path(args.trace).write_text("".join(json.dumps(t) + "\n" for t in report.trace))
    cert = report.certificate
    if args.json:
        _emit(args, report.to_json(timings=args.timings) + cert.to_json())
    else:
        _emit(args, f"components={report.component_count} "
                    f"cycles={report.cycle_count} verdict={cert.verdict}\n")
    if not cert.verdict:
        where = write_reproducer(args.bundle_dir or "reproducer", g, report)
        print(f"solve: certificate failed; reproducer bundle in {where}",
              file=sys.stderr)
        return EXIT_CERT_FAIL
    return EXIT_PASS


def cmd_oracle(args) -> int:
    try:
        g = _load_graph(args.input)
    except (OSError, GraphError) as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        res = oracle.exact_pi_p(g, budget=args.budget, cap=args.cap)
    except oracle.OracleUnknown as exc:
        print(f"oracle: unknown ({exc})", file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        heuristic = solve(g, seed=args.seed, rules=None).component_count
    except MoveEngineError:
        # irregular inputs may keep singletons no shift can absorb
        heuristic = None
    d = graphs.infer_degree(g)
    line = {
        "pi_p": res.pi_p,
        "heuristic": heuristic,
        "explored": res.explored,
    }
    if d:
        line["bound"] = g.n // (d + 1)
        line["bound_ok"] = res.pi_p <= g.n // (d + 1)
    _emit(args, json.dumps(line) + "\n")
    return EXIT_PASS


def cmd_audit(args) -> int:
    solved = _solve_input(args)
    if isinstance(solved, int):
        return solved
    g, rules, report = solved
    if not report.certificate.verdict:
        print("audit: certificate failed", file=sys.stderr)
        return EXIT_CERT_FAIL
    rep = audit_block_bounds(g, report.partition, report.vc, report.ledger, rules)
    _emit(args, json.dumps({"checks": rep.checks,
                            "violations": rep.violations}) + "\n")
    return EXIT_PASS if rep.ok() else EXIT_CERT_FAIL


def cmd_batch(args) -> int:
    """Run the manifest's jobs in order; each records its own exit code."""
    manifest = json.loads(Path(args.manifest).read_text())
    jobs = manifest if isinstance(manifest, list) else manifest["jobs"]
    results = []
    for job in jobs:
        try:
            code = main([job["command"]] + job.get("args", []))
        except SystemExit as exc:  # argparse rejected the job's arguments
            code = exc.code
        results.append({"job": job, "exit": code})
    sys.stdout.write("".join(json.dumps(r) + "\n" for r in results))
    return max((r["exit"] for r in results), default=EXIT_PASS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pathpart",
                                 description="Path partitions of regular graphs "
                                             "with exact discharging certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write an edge-list instance")
    g.add_argument("--cliques", action="store_true")
    g.add_argument("--random", action="store_true")
    g.add_argument("--circulant", action="store_true")
    g.add_argument("--bipartite", action="store_true")
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--d", type=int, default=6)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--offsets", type=str, default="1,2,3")
    g.add_argument("--restarts", type=int, default=None)
    g.add_argument("-o", "--output", type=str, default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="canonicalize and certify an instance")
    s.add_argument("input")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--depth", type=int, default=4)
    s.add_argument("--rules", choices=["auto", "d6", "d5"], default="auto")
    s.add_argument("--json", action="store_true")
    s.add_argument("--timings", action="store_true")
    s.add_argument("--trace", type=str, default=None)
    s.add_argument("--bundle-dir", type=str, default=None)
    s.add_argument("-o", "--output", type=str, default=None)
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("oracle", help="exact minimum vs heuristic on small inputs")
    o.add_argument("input")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--budget", type=int, default=50_000_000)
    o.add_argument("--cap", type=int, default=16)
    o.add_argument("-o", "--output", type=str, default=None)
    o.set_defaults(func=cmd_oracle)

    a = sub.add_parser("audit", help="solve then audit the block bounds")
    a.add_argument("input")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--depth", type=int, default=4)
    a.add_argument("--rules", choices=["auto", "d6", "d5"], default="auto")
    a.add_argument("-o", "--output", type=str, default=None)
    a.set_defaults(func=cmd_audit)

    b = sub.add_parser("batch", help="run a manifest of jobs")
    b.add_argument("manifest")
    b.set_defaults(func=cmd_batch)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

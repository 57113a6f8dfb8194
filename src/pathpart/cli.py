"""Command-line surface: generate, solve+certify, oracle checks, block audit, batch."""

from __future__ import annotations

import argparse
import contextlib
import io
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


def _load_graph(args) -> Graph:
    """Read `args.input`, checking its header before anything is built: the
    oracle refuses n above its cap (OracleUnknown), and every other command
    n > 2m, which leaves a vertex isolated (GraphError)."""
    path = args.input
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not {exc.encoding} text "
                         f"({exc.reason} at byte {exc.start})") from None
    n, m = graphs.read_header(text)
    if args.command == "oracle":
        oracle.check_cap(n, args.cap)
    elif n > 2 * m:
        raise GraphError(f"{path}: {n} vertices but {m} edges leave a vertex isolated")
    return graphs.read_edge_list(text)


def _parse_offsets(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise GraphError(f"--offsets must be comma-separated integers, got {text!r}") from None


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.cliques:
        g = graphs.gen_disjoint_cliques(args.d, args.k, seed=args.seed)
    elif args.random:
        g = graphs.gen_random_regular(args.n, args.d, seed=args.seed,
                                      restarts=args.restarts)
    elif args.circulant:
        g = graphs.gen_circulant(args.n, _parse_offsets(args.offsets))
    elif args.bipartite:
        g = graphs.gen_complete_bipartite(args.d)
    else:
        raise GraphError("pick one of --cliques/--random/--circulant/--bipartite")
    _emit(args, graphs.write_edge_list(g))
    print(f"n={g.n} m={g.m} seed={args.seed}", file=sys.stderr)
    return EXIT_PASS


def _resolve_rules(g: Graph, args) -> RuleSet:
    if args.rules == "d6":
        return RULES_D6
    if args.rules == "d5":
        return RULES_D5
    d = graphs.infer_degree(g)
    if d not in (5, 6):
        raise GraphError(f"input must be 5- or 6-regular (got degree {d})")
    if d == 5:
        witness = graphs.contains_k6(g)
        if witness is not None:
            raise GraphError(f"5-regular input contains K6 {witness}; "
                             "the degree-5 guarantee requires K6-free input")
    return ruleset_for_degree(d)


def _write_trace(path: str | Path, report: SolveReport) -> None:
    """Write `report.trace` as JSON lines, one move per line."""
    Path(path).write_text("".join(json.dumps(t) + "\n" for t in report.trace))


def write_reproducer(out: str | Path, g: Graph, report: SolveReport) -> str:
    """Write the graph, final partition, certificate and `report.trace` to `out`."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.txt").write_text(graphs.write_edge_list(g))
    (out / "partition.json").write_text(partition_to_json(report.partition))
    (out / "certificate.json").write_text(report.certificate.to_json())
    _write_trace(out / "moves.jsonl", report)
    return str(out)


def _solve_input(args, record_trace: bool = False):
    """Load, pick the rules and solve: (graph, rules, report)."""
    g = _load_graph(args)
    rules = _resolve_rules(g, args)
    return g, rules, solve(g, seed=args.seed, rules=rules, record_trace=record_trace)


def cmd_solve(args) -> int:
    g, rules, report = _solve_input(args, record_trace=args.trace is not None)
    if args.trace:
        _write_trace(args.trace, report)
    cert = report.certificate
    if args.json:
        _emit(args, report.to_json(timings=args.timings) + cert.to_json())
    else:
        _emit(args, f"components={report.component_count} "
                    f"cycles={report.cycle_count} verdict={cert.verdict}\n")
    if not cert.verdict:
        if args.trace is None:
            # the solve is deterministic, so a traced rerun records its moves
            report = solve(g, seed=args.seed, rules=rules, record_trace=True)
        where = write_reproducer(args.bundle_dir or "reproducer", g, report)
        print(f"solve: certificate failed; reproducer bundle in {where}",
              file=sys.stderr)
        return EXIT_CERT_FAIL
    return EXIT_PASS


def cmd_oracle(args) -> int:
    g = _load_graph(args)
    res = oracle.exact_pi_p(g, budget=args.budget, cap=args.cap)
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
    g, rules, report = _solve_input(args)
    if not report.certificate.verdict:
        print("audit: certificate failed", file=sys.stderr)
        return EXIT_CERT_FAIL
    rep = audit_block_bounds(g, report.partition, report.vc, report.ledger, rules)
    _emit(args, json.dumps({"checks": rep.checks,
                            "violations": rep.violations}) + "\n")
    return EXIT_PASS if rep.ok() else EXIT_CERT_FAIL


def _manifest_jobs(path: str) -> list[dict]:
    """The manifest's jobs; ValueError (or OSError) says what is wrong with it."""
    data = json.loads(Path(path).read_text())
    jobs = data.get("jobs") if isinstance(data, dict) else data
    if not isinstance(jobs, list):
        raise ValueError('expected a list of jobs or {"jobs": [...]}')
    for job in jobs:
        if not (isinstance(job, dict) and isinstance(job.get("command"), str)
                and isinstance(job.get("args", []), list)
                and all(isinstance(a, str) for a in job.get("args", []))):
            raise ValueError(f"job {json.dumps(job)} needs a string \"command\" "
                             "and \"args\" as a list of strings")
        if job["command"] == "batch":
            raise ValueError(f"job {json.dumps(job)} runs a batch; jobs cannot nest")
    return jobs


def cmd_batch(args) -> int:
    """Run the manifest's jobs in order; each records its own exit code and
    output, so stdout carries exactly one JSON line per job."""
    try:
        jobs = _manifest_jobs(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"batch: {args.manifest}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    results = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([job["command"]] + job.get("args", []))
            except SystemExit as exc:  # argparse rejected the job's arguments
                code = exc.code
        results.append({"job": job, "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
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
    a.add_argument("--rules", choices=["auto", "d6", "d5"], default="auto")
    a.add_argument("-o", "--output", type=str, default=None)
    a.set_defaults(func=cmd_audit)

    b = sub.add_parser("batch", help="run a manifest of jobs")
    b.add_argument("manifest")
    b.set_defaults(func=cmd_batch)
    return ap


# main's parser, built on its first call rather than at import. parse_args
# leaves a parser as it found it, so one serves every call in the process
# (`batch` calls main once per job); build_parser() still returns a new one.
_main_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code. Commands return their result,
    EXIT_PASS or EXIT_CERT_FAIL (`batch` its jobs' largest code), and raise
    every error; only here does an error become an exit code: 3 for
    OracleUnknown, and 2 for invalid input or arguments, input the move engine
    cannot canonicalize under forced rules, an unreadable input or an
    unwritable output."""
    global _main_parser
    if _main_parser is None:
        _main_parser = build_parser()
    args = _main_parser.parse_args(argv)
    try:
        return args.func(args)
    except oracle.OracleUnknown as exc:
        print(f"{args.command}: unknown ({exc})", file=sys.stderr)
        return EXIT_UNKNOWN
    except (GraphError, GenerationError, MoveEngineError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())

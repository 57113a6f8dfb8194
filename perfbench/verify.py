"""Output checks for the benchmark, independent of pathpart's own validators.

Each check reads the program's output text, raises VerifyError on the first
problem, and otherwise returns the exact facts the benchmark reports
(component counts and their margin under the count bound, rule firings,
minimum slack, oracle work).
"""

from __future__ import annotations

import json
from fractions import Fraction

from instances import Instance

# the floor every component's total must reach, by degree
THRESHOLD = {6: Fraction(7), 5: Fraction(19, 3)}


def count_bound(n: int, d: int) -> int:
    """The component-count bound the floor implies: n/7 for d=6, 3n/19 for d=5."""
    return n // 7 if d == 6 else 3 * n // 19


class VerifyError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise VerifyError(msg)


def _check_cover(inst: Instance, comps: list[dict]) -> int:
    """Every vertex exactly once, consecutive vertices adjacent; returns cycle count."""
    seen = [False] * inst.n
    cycles = 0
    for c in comps:
        verts, kind = c["vertices"], c["kind"]
        _require(len(verts) >= 1, "empty component")
        for v in verts:
            _require(isinstance(v, int) and 0 <= v < inst.n, f"bad vertex {v!r}")
            _require(not seen[v], f"vertex {v} covered twice")
            seen[v] = True
        for a, b in zip(verts, verts[1:]):
            _require(b in inst.adj[a], f"consecutive pair ({a}, {b}) is not an edge")
        if kind == "cycle":
            cycles += 1
            _require(len(verts) >= 3 and verts[0] in inst.adj[verts[-1]],
                     f"cycle through {verts[0]} does not close")
        elif kind == "singleton":
            _require(len(verts) == 1, "singleton with several vertices")
        else:
            _require(kind == "path", f"unknown component kind {kind!r}")
    missing = seen.count(False)
    _require(missing == 0, f"{missing} vertices not covered")
    return cycles


def verify_solve(inst: Instance, text: str) -> dict:
    """Check `solve --json` output: a report line, then a certificate line."""
    lines = text.splitlines()
    _require(len(lines) == 2, f"expected 2 JSON lines, got {len(lines)}")
    report, cert = json.loads(lines[0]), json.loads(lines[1])
    _require(cert["verdict"] is True, "certificate verdict is not true")
    _require(cert["n"] == inst.n, "certificate n differs from the input")
    threshold = THRESHOLD[inst.d]
    _require(Fraction(cert["threshold"]) == threshold,
             f"threshold {cert['threshold']} for degree {inst.d}")
    comps = cert["components"]
    cycles = _check_cover(inst, comps)
    totals = [Fraction(c["total"]) for c in comps]
    _require(all(t >= threshold for t in totals), "a component total is below the floor")
    _require(sum(totals, Fraction(0)) == inst.n, "component totals do not sum to n")
    k = len(comps)
    _require(cert["component_count"] == k and report["component_count"] == k,
             "component count disagrees with the component list")
    _require(report["cycle_count"] == cycles, "cycle count disagrees with the components")
    bound = count_bound(inst.n, inst.d)
    _require(k <= bound, f"{k} components exceed the bound")
    _require(k >= inst.connected, f"{k} components, fewer than connected components")
    rules = cert["rule_counts"]
    return {
        "components": k,
        "margin": bound - k,
        "moves": sum(report["move_counts"].values()),
        "min_slack": min(totals) - threshold,
        **{f"rule{i}": rules[f"rule{i}"] for i in range(1, 6)},
    }


def verify_audit(inst: Instance, text: str) -> dict:
    out = json.loads(text)
    _require(out["violations"] == [], f"{len(out['violations'])} audit violations")
    _require(out["checks"] > 0, "audit made no checks")
    return {"audit_checks": out["checks"]}


def verify_oracle(inst: Instance, text: str) -> dict:
    out = json.loads(text)
    pi_p, heuristic = out["pi_p"], out["heuristic"]
    _require(isinstance(heuristic, int), f"heuristic is {heuristic!r}")
    _require(inst.connected <= pi_p <= heuristic,
             f"need {inst.connected} <= pi_p={pi_p} <= heuristic={heuristic}")
    bound = inst.n // (inst.d + 1)
    _require(out["bound"] == bound and out["bound_ok"] is True and pi_p <= bound,
             "oracle bound check fails")
    return {"components": heuristic, "margin": bound - heuristic, "explored": out["explored"]}


VERIFIERS = {"solve": verify_solve, "audit": verify_audit, "oracle": verify_oracle}

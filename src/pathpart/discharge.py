"""Exact-rational discharging: point transfers, per-component floors, block audit.

Every vertex starts with one point; five local transfer rules move exact
fractions along free edges. A partition certifies when every component holds
at least the variant's floor (7 for degree 6, 19/3 for the K6-free degree-5
variant), which pigeonholes the component count below n/7 resp. 3n/19.

The arithmetic stays exact without Fractions: every amount, floor and
threshold of a variant is a whole number of 1/unit points (unit 60 for D6,
180 for D5), so balances and totals are ints, and a Fraction is built only
where a value is printed or read through `PointLedger.balance`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .classify import V1, V2_CLASSES, V2A, V2B, V3, V4, V5, VertexClassification
from .graphs import Graph
from .partition import CYCLE, PATH, PathPartition


class DischargeError(ValueError):
    pass


# one rule's transfer: (amount, amount in 1/unit points, rule number)
Transfer = tuple[Fraction, int, int]


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class RuleSet:
    """Transfer amounts and audit floors for one variant.

    D6: cycles of size i <= 6 draw 1/i per balanced edge, path ends 2/3,
    dangerous V3 vertices draw 1/6 from V2a and 1/12 from single-V2-neighbor
    V2b/V4, V5 pays 1/4 per free edge. D5 scales the cycle amount by 4/3 and
    drops the two dangerous-vertex rules. `class_floors` is the least balance
    the block audit allows each class.

    Derived, not passed: `unit`, the lcm of the denominators of every amount,
    the threshold and the floors (60 for D6, 180 for D5), and each rule's
    `Transfer`. A cycle has at least 3 vertices and draws nothing above 6,
    so sizes 3..6 cover rule 1.
    """

    variant: str
    threshold: Fraction
    cycle_scale: Fraction
    v2a_dangerous: Fraction | None
    v4_dangerous: Fraction | None
    class_floors: dict[str, Fraction] = field(hash=False)
    path_amount: Fraction = Fraction(2, 3)
    v5_amount: Fraction = Fraction(1, 4)
    unit: int = _derived()
    cycle_transfers: dict[int, Transfer] = _derived()
    path_transfer: Transfer = _derived()
    v2a_transfer: Transfer | None = _derived()
    v4_transfer: Transfer | None = _derived()
    v5_transfer: Transfer = _derived()

    def __post_init__(self):
        cycles = {size: self.cycle_amount(size) for size in range(3, 7)}
        amounts = [*cycles.values(), self.path_amount, self.v5_amount,
                   self.v2a_dangerous, self.v4_dangerous, self.threshold,
                   *self.class_floors.values()]
        unit = math.lcm(*(a.denominator for a in amounts if a is not None))

        def transfer(amount: Fraction | None, rule: int) -> Transfer | None:
            if amount is None:
                return None
            return (amount, amount.numerator * (unit // amount.denominator), rule)

        init = object.__setattr__  # the dataclass is frozen
        init(self, "unit", unit)
        init(self, "cycle_transfers", {size: transfer(a, 1) for size, a in cycles.items()})
        init(self, "path_transfer", transfer(self.path_amount, 2))
        init(self, "v2a_transfer", transfer(self.v2a_dangerous, 3))
        init(self, "v4_transfer", transfer(self.v4_dangerous, 4))
        init(self, "v5_transfer", transfer(self.v5_amount, 5))

    def cycle_amount(self, size: int) -> Fraction | None:
        return self.cycle_scale / size if size <= 6 else None

    def count_bound(self, n: int) -> int:
        frac = Fraction(n) / self.threshold
        return frac.numerator // frac.denominator


RULES_D6 = RuleSet("D6", Fraction(7), cycle_scale=Fraction(1),
                   v2a_dangerous=Fraction(1, 6), v4_dangerous=Fraction(1, 12),
                   class_floors={V2A: Fraction(-5, 3), V2B: Fraction(-5, 3), V3: Fraction(1),
                                 V4: Fraction(2, 3), V5: Fraction(0)})
RULES_D5 = RuleSet("D5", Fraction(19, 3), cycle_scale=Fraction(4, 3),
                   v2a_dangerous=None, v4_dangerous=None,
                   class_floors={V2A: Fraction(-1), V2B: Fraction(-1), V3: Fraction(1),
                                 V4: Fraction(1), V5: Fraction(0)})


def ruleset_for_degree(d: int) -> RuleSet:
    if d == 6:
        return RULES_D6
    if d == 5:
        return RULES_D5
    raise DischargeError(f"no ruleset for degree {d}")


@dataclass
class PointLedger:
    """Every vertex's balance, exact, as a whole number of 1/unit points
    (`units`; `unit` is the rule set's, 60 for D6 and 180 for D5), and the
    transfers that moved them, with the rule set's own Fraction amounts.
    `balance` builds the Fractions anew on each read."""

    units: list[int]
    unit: int
    transfers: list[tuple[int, int, Fraction, int]]
    rule_counts: dict[int, int]

    @property
    def balance(self) -> list[Fraction]:
        return [Fraction(u, self.unit) for u in self.units]

    def total(self) -> Fraction:
        return Fraction(sum(self.units), self.unit)


def apply_rules(g: Graph, p: PathPartition, vc: VertexClassification,
                rs: RuleSet) -> PointLedger:
    """Run every transfer once; at most one rule fires per edge, all exact."""
    if p.singleton_count():
        raise DischargeError("transfer rules are undefined on partitions with singletons")
    balance = [rs.unit] * g.n
    transfers: list[tuple[int, int, Fraction, int]] = []
    counts = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}

    def one_v2_path_neighbor(v: int) -> bool:
        return sum(1 for w in p.path_neighbors(v) if vc.is_v2(w)) == 1

    def directed(v: int, u: int) -> Transfer | None:
        cv = vc.cls[v]
        if cv in (V2A, V2B) and vc.cls[u] == V1:
            comp = p.components[p.owner[u]]
            if comp.kind == CYCLE:
                return rs.cycle_transfers.get(len(comp.vertices))
            return rs.path_transfer  # no singleton: apply_rules refused them
        if u in vc.dangerous:
            if cv == V2A and rs.v2a_transfer is not None:
                return rs.v2a_transfer
            if rs.v4_transfer is not None and (
                    cv == V4 or (cv == V2B and one_v2_path_neighbor(v))):
                return rs.v4_transfer
            return None
        if cv == V5 and vc.cls[u] != V5:
            return rs.v5_transfer
        return None

    for a, b in vc.free_edges():
        hit = directed(a, b)
        if hit is None:
            hit = directed(b, a)
            a, b = b, a
        if hit is None:
            continue
        amount, units, rule = hit
        balance[a] -= units
        balance[b] += units
        transfers.append((a, b, amount, rule))
        counts[rule] += 1
    return PointLedger(units=balance, unit=rs.unit, transfers=transfers, rule_counts=counts)


@dataclass
class Certificate:
    variant: str
    threshold: Fraction
    n: int
    component_count: int
    totals: list[tuple[list[int], str, Fraction]]  # (vertices, kind, total), sorted
    verdict: bool
    violations: list[dict]
    rule_counts: dict[int, int]

    def to_json(self) -> str:
        payload = {
            "variant": self.variant,
            "threshold": _frac(self.threshold),
            "n": self.n,
            "component_count": self.component_count,
            "verdict": self.verdict,
            "rule_counts": {f"rule{k}": v for k, v in sorted(self.rule_counts.items())},
            "components": [
                {"vertices": verts, "kind": kind, "total": _frac(t)}
                for verts, kind, t in self.totals
            ],
            "violations": self.violations,
        }
        return json.dumps(payload) + "\n"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ceil_units(x: Fraction, unit: int) -> int:
    """The least whole number of 1/unit points that is at least x; an int
    count t is below x exactly when t is below this."""
    return -(-x.numerator * unit // x.denominator)


def certify(g: Graph, p: PathPartition, ledger: PointLedger, rs: RuleSet) -> Certificate:
    """Sum balances per component and compare against the floor."""
    units, unit = ledger.units, ledger.unit
    threshold = _ceil_units(rs.threshold, unit)
    totals = []
    violations = []
    for cid in p.sorted_ids():
        comp = p.components[cid]
        points = sum(units[v] for v in comp.vertices)
        total = Fraction(points, unit)
        totals.append((list(comp.vertices), comp.kind, total))
        if points < threshold:
            members = set(comp.vertices)
            slice_ = sorted(t for t in ledger.transfers if t[0] in members or t[1] in members)
            violations.append({
                "component": list(comp.vertices),
                "kind": comp.kind,
                "total": _frac(total),
                "transfers": [[a, b, _frac(amt), r] for a, b, amt, r in slice_],
            })
    totals.sort(key=lambda t: min(t[0]) if t[0] else -1)
    verdict = not violations
    count = p.component_count()
    if verdict and g.n and count > rs.count_bound(g.n):
        raise DischargeError("floor verdict inconsistent with component count")
    return Certificate(variant=rs.variant, threshold=rs.threshold, n=g.n,
                       component_count=count, totals=totals, verdict=verdict,
                       violations=violations, rule_counts=ledger.rule_counts)


# -- blocks ------------------------------------------------------------------

@dataclass
class Block:
    x_positions: list[int]
    p_positions: list[int]
    kind: int
    last: bool


def decompose_blocks(classes: list[str]) -> list[Block]:
    """Scan a class-annotated path left to right into blocks.

    A block is a maximal V2 run plus the non-V5 vertices that follow it, up to
    the next V2 vertex or the final end-vertex (excluded). In any non-last
    block the tail must be a single V3 or a pair of V4s; the last block's tail
    must be empty or one V4 (Kind 4), otherwise kinds follow shape: 1 for
    lone-V2 + V3, 2 for lone-V2 + V4 pair, 3 for a longer run with a tail.
    """
    if classes and (classes[0] != V1 or classes[-1] != V1):
        raise DischargeError("path annotation must start and end with V1")
    blocks: list[Block] = []
    i = 0
    limit = len(classes) - 1
    while i < limit:
        if classes[i] not in V2_CLASSES:
            i += 1
            continue
        xs = []
        while i < limit and classes[i] in V2_CLASSES:
            xs.append(i)
            i += 1
        ps = []
        while i < limit and classes[i] not in V2_CLASSES:
            if classes[i] != V5:
                ps.append(i)
            i += 1
        last = i >= limit
        tail = [classes[j] for j in ps]
        if not last and tail != [V3] and tail != [V4, V4]:
            raise DischargeError(
                f"non-last block tail at positions {ps} is {tail}, "
                "expected one V3 or two V4s")
        if last and (tail == [] or tail == [V4]):
            kind = 4
        elif len(xs) == 1 and tail == [V3]:
            kind = 1
        elif len(xs) == 1 and tail == [V4, V4]:
            kind = 2
        elif len(xs) > 1 and tail:
            kind = 3
        else:
            raise DischargeError(
                f"block at positions {xs}+{ps} matches no kind (tail {tail})")
        blocks.append(Block(xs, ps, kind, last))
    return blocks


@dataclass
class AuditReport:
    checks: int = 0
    violations: list[dict] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def _fail(self, kind: str, **info):
        self.violations.append({"kind": kind, **info})


def audit_block_bounds(g: Graph, p: PathPartition, vc: VertexClassification,
                       ledger: PointLedger, rs: RuleSet) -> AuditReport:
    """Check the per-class floors, block floors, block-pair trichotomy, and
    V2-run bounds that the component floor argument relies on.

    Balances and block totals are int counts of 1/unit points, so each floor
    x is compared as a whole count: t < -5/3 reads 3t < -5*unit, and so on."""
    units, unit = ledger.units, ledger.unit

    def printed(t: int) -> str:
        return _frac(Fraction(t, unit))

    floors = {cls: _ceil_units(f, unit) for cls, f in rs.class_floors.items()}
    rep = AuditReport()
    for v in range(g.n):
        floor = floors.get(vc.cls[v])
        if floor is None:
            continue
        rep.checks += 1
        if units[v] < floor:
            rep._fail("class-floor", vertex=v, cls=vc.cls[v],
                      balance=printed(units[v]), floor=_frac(rs.class_floors[vc.cls[v]]))
    for cid in p.sorted_ids():
        comp = p.components[cid]
        if comp.kind != PATH:
            continue
        verts = comp.vertices
        classes = [vc.cls[v] for v in verts]
        blocks = decompose_blocks(classes)
        pts = []
        for blk in blocks:
            members = blk.x_positions + blk.p_positions
            pts.append(sum(units[verts[j]] for j in members))
        for blk, total in zip(blocks, pts):
            rep.checks += 1
            if 3 * total < -5 * unit:
                rep._fail("block-floor", path=verts, block=blk.x_positions,
                          total=printed(total))
            if blk.kind == 2 and total < 0:
                rep._fail("kind2-floor", path=verts, block=blk.x_positions,
                          total=printed(total))
            if blk.kind == 3 and 3 * total < unit:
                rep._fail("kind3-floor", path=verts, block=blk.x_positions,
                          total=printed(total))
            if len(blk.x_positions) > 1:
                k = len(blk.x_positions)
                run = sum(units[verts[j]] for j in blk.x_positions)
                if 3 * run < (k - 4) * unit:
                    rep._fail("run-bound", path=verts,
                              run=[verts[j] for j in blk.x_positions],
                              total=printed(run))
        for (b1, t1), (b2, t2) in zip(zip(blocks, pts), zip(blocks[1:], pts[1:])):
            rep.checks += 1
            if t1 >= 0 or t1 + t2 >= 0:
                continue
            if not (b2.kind == 4 and t1 + t2 >= -unit):
                rep._fail("pair-trichotomy", path=verts,
                          blocks=[b1.x_positions, b2.x_positions],
                          totals=[printed(t1), printed(t2)])
    return rep

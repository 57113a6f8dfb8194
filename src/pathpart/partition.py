"""Path-partition data model: components, ownership index, validity, JSON form."""

from __future__ import annotations

import json

from .graphs import Graph

PATH = "path"
CYCLE = "cycle"
SINGLETON = "singleton"

# a vertex's role in its component, kept per vertex in `PathPartition.role`
INNER = 0  # path interior
END = 1  # path end-vertex
ON_CYCLE = 2
ALONE = 3  # singleton
_KIND_ROLE = {PATH: INNER, CYCLE: ON_CYCLE, SINGLETON: ALONE}  # a path's ends aside


class Component:
    """One component: a path (>=2 vertices), a cycle (>=3, cyclic order), or a singleton."""

    __slots__ = ("kind", "vertices")

    def __init__(self, kind: str, vertices):
        self.kind = kind
        self.vertices = list(vertices)

    def __repr__(self) -> str:
        return f"Component({self.kind}, {self.vertices})"


class PathPartition:
    """Mutable set of components with a vertex -> (component, position, role)
    index.

    Components live in a dict keyed by creation-ordered integer ids, so moves
    can reference components stably while they split and merge. `owner[v]`,
    `pos[v]` and `role[v]` are lists over the vertices 0..n-1, None for a
    vertex in no component; code that takes vertices from outside checks their
    range first (`owner_of`), as a list reads -1 as the last vertex. `role[v]`
    is INNER, END, ON_CYCLE or ALONE, so whether v is a path end, a cycle
    vertex or a singleton is one list read. The path, cycle and singleton
    counts follow every `add`, `remove`, `replace` and `set_kind`, so
    `potential()` is O(1). One owner mutates at a time; a copy is independent
    but costs O(n).
    """

    def __init__(self, n: int):
        self.n = n
        self.components: dict[int, Component] = {}
        self.owner: list[int | None] = [None] * n
        self.pos: list[int | None] = [None] * n
        self.role: list[int | None] = [None] * n
        self.kind_counts = {PATH: 0, CYCLE: 0, SINGLETON: 0}
        self._next_id = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_lists(cls, n: int, paths=(), cycles=(), singletons=()) -> "PathPartition":
        """The partition of the given sequences. A vertex outside 0..n-1 stays
        in its component, unindexed, for `validate_partition` to report."""
        p = cls(n)
        comps = ([Component(PATH, seq) for seq in paths]
                 + [Component(CYCLE, seq) for seq in cycles]
                 + [Component(SINGLETON, [v]) for v in singletons])
        for comp in comps:
            if all(0 <= v < n for v in comp.vertices):
                p.add(comp)
                continue
            cid = p.add(Component(comp.kind, []))  # counted; indexed below
            p.components[cid] = comp
            last = len(comp.vertices) - 1
            for i, v in enumerate(comp.vertices):
                if 0 <= v < n:
                    p.owner[v], p.pos[v] = cid, i
                    p.role[v] = _role(comp.kind, i, last)
        return p

    def add(self, comp: Component) -> int:
        """Insert comp, whose vertices must lie in 0..n-1, under a fresh id."""
        cid = self._next_id
        self._next_id += 1
        self.components[cid] = comp
        self.kind_counts[comp.kind] += 1
        self._index(cid, comp)
        return cid

    def remove(self, cid: int) -> Component:
        comp = self.components.pop(cid)
        self.kind_counts[comp.kind] -= 1
        owner, pos, role = self.owner, self.pos, self.role
        for v in comp.vertices:
            owner[v] = pos[v] = role[v] = None
        return comp

    def replace(self, cids, comps) -> None:
        """Drop the components `cids` and insert `comps`, which must cover
        exactly their vertices, under fresh ids; each vertex is indexed once,
        not cleared first as `remove` would."""
        for cid in cids:
            self.kind_counts[self.components.pop(cid).kind] -= 1
        for comp in comps:
            self.add(comp)

    def set_kind(self, cid: int, kind: str) -> None:
        """Change component cid's kind in place (a path closed into a cycle)."""
        comp = self.components[cid]
        self.kind_counts[comp.kind] -= 1
        self.kind_counts[kind] += 1
        comp.kind = kind
        self._index(cid, comp)

    def _index(self, cid: int, comp: Component) -> None:
        owner, pos, role = self.owner, self.pos, self.role
        verts = comp.vertices
        r = _KIND_ROLE[comp.kind]
        for i, v in enumerate(verts):
            owner[v] = cid
            pos[v] = i
            role[v] = r
        if r == INNER and verts:
            role[verts[0]] = role[verts[-1]] = END

    def copy(self) -> "PathPartition":
        p = PathPartition(self.n)
        p.components = {cid: Component(c.kind, c.vertices) for cid, c in self.components.items()}
        p.owner = self.owner.copy()
        p.pos = self.pos.copy()
        p.role = self.role.copy()
        p.kind_counts = self.kind_counts.copy()
        p._next_id = self._next_id
        return p

    # -- queries -----------------------------------------------------------

    def owner_of(self, v: int) -> int | None:
        """v's component id; None for a v outside 0..n-1 or in no component."""
        return self.owner[v] if 0 <= v < self.n else None

    def component_count(self) -> int:
        return len(self.components)

    def cycle_count(self) -> int:
        return self.kind_counts[CYCLE]

    def singleton_count(self) -> int:
        return self.kind_counts[SINGLETON]

    def potential(self) -> tuple[int, int, int]:
        """Lexicographic solve objective: (components, -cycles, singletons)."""
        counts = self.kind_counts
        return (len(self.components), -counts[CYCLE], counts[SINGLETON])

    def is_end(self, v: int) -> bool:
        """v is joinable as-is: a path end-vertex or a singleton."""
        r = self.role[v]
        return r == END or r == ALONE

    def path_neighbors(self, v: int) -> tuple[int, ...]:
        """Partition-adjacent vertices of v (0 for singletons, 1 for path ends, 2 otherwise)."""
        r = self.role[v]
        if r == ALONE:
            return ()
        verts = self.components[self.owner[v]].vertices
        i = self.pos[v]
        if r == INNER:
            return (verts[i - 1], verts[i + 1])
        if r == ON_CYCLE:
            return (verts[i - 1], verts[(i + 1) % len(verts)])  # verts[-1] precedes verts[0]
        if i:
            return (verts[i - 1],)
        return (verts[1],) if len(verts) > 1 else ()

    def sorted_ids(self) -> list[int]:
        return sorted(self.components)


def _role(kind: str, i: int, last: int) -> int:
    """The role of the vertex at position i of a component whose last position is last."""
    r = _KIND_ROLE[kind]
    return END if r == INNER and i in (0, last) else r


def validate_partition(g: Graph, p: PathPartition) -> tuple[bool, list[str]]:
    """Check component shape, edge existence, and exact vertex coverage."""
    violations: list[str] = []
    counts = [0] * g.n
    for cid, comp in p.components.items():
        verts = comp.vertices
        for v in verts:
            if not (0 <= v < g.n):
                violations.append(f"component {cid}: vertex {v} out of range")
            else:
                counts[v] += 1
        if len(set(verts)) != len(verts):
            violations.append(f"component {cid}: repeated vertex")
        if comp.kind == SINGLETON and len(verts) != 1:
            violations.append(f"component {cid}: singleton of size {len(verts)}")
        elif comp.kind == PATH:
            if len(verts) < 2:
                violations.append(f"component {cid}: path of size {len(verts)}")
            for a, b in zip(verts, verts[1:]):
                if not g.has_edge(a, b):
                    violations.append(f"component {cid}: missing edge ({a}, {b})")
        elif comp.kind == CYCLE:
            if len(verts) < 3:
                violations.append(f"component {cid}: cycle of size {len(verts)}")
            else:
                for a, b in zip(verts, verts[1:] + verts[:1]):
                    if not g.has_edge(a, b):
                        violations.append(f"component {cid}: missing edge ({a}, {b})")
    for v, c in enumerate(counts):
        if c == 0:
            violations.append(f"vertex {v} uncovered")
        elif c > 1:
            violations.append(f"vertex multiplicity: vertex {v} in {c} components")
    for v, cid in enumerate(p.owner):
        if cid is None:
            continue
        comp = p.components.get(cid)
        if comp is None or p.pos[v] >= len(comp.vertices) or comp.vertices[p.pos[v]] != v:
            violations.append(f"owner index stale for vertex {v}")
        elif p.role[v] != _role(comp.kind, p.pos[v], len(comp.vertices) - 1):
            violations.append(f"role index stale for vertex {v}")
    kinds = dict.fromkeys(p.kind_counts, 0)
    for comp in p.components.values():
        kinds[comp.kind] = kinds.get(comp.kind, 0) + 1
    if kinds != p.kind_counts:
        violations.append(f"kind counts {p.kind_counts} stale, components hold {kinds}")
    return (not violations, violations)


def _canonical_cycle(verts: list[int]) -> list[int]:
    """Rotate so the smallest vertex leads; pick the direction with smaller successor."""
    k = len(verts)
    i = verts.index(min(verts))
    fwd = [verts[(i + j) % k] for j in range(k)]
    bwd = [verts[(i - j) % k] for j in range(k)]
    return fwd if fwd[1] <= bwd[1] else bwd


def partition_to_json(p: PathPartition) -> str:
    paths = sorted((c.vertices for c in p.components.values() if c.kind == PATH),
                   key=lambda s: min(s))
    cycles = sorted((_canonical_cycle(c.vertices) for c in p.components.values()
                     if c.kind == CYCLE), key=lambda s: s[0])
    singles = sorted(c.vertices[0] for c in p.components.values() if c.kind == SINGLETON)
    payload = {"paths": [list(map(int, s)) for s in paths],
               "cycles": [list(map(int, s)) for s in cycles],
               "singletons": list(map(int, singles))}
    return json.dumps(payload) + "\n"


def partition_from_json(n: int, text: str) -> PathPartition:
    data = json.loads(text)
    return PathPartition.from_lists(n, paths=data.get("paths", ()),
                                    cycles=data.get("cycles", ()),
                                    singletons=data.get("singletons", ()))

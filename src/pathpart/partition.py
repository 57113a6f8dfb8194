"""Path-partition data model: components, ownership index, validity, JSON form."""

from __future__ import annotations

import json

from .graphs import Graph

PATH = "path"
CYCLE = "cycle"
SINGLETON = "singleton"


class Component:
    """One component: a path (>=2 vertices), a cycle (>=3, cyclic order), or a singleton."""

    __slots__ = ("kind", "vertices")

    def __init__(self, kind: str, vertices):
        self.kind = kind
        self.vertices = list(vertices)

    def __repr__(self) -> str:
        return f"Component({self.kind}, {self.vertices})"


class PathPartition:
    """Mutable set of components with a vertex -> (component, position) index.

    Components live in a dict keyed by creation-ordered integer ids, so moves
    can reference components stably while they split and merge. One owner
    mutates at a time; a copy is independent but costs O(n).
    """

    def __init__(self, n: int):
        self.n = n
        self.components: dict[int, Component] = {}
        self.owner: dict[int, int] = {}
        self.pos: dict[int, int] = {}
        self._next_id = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_lists(cls, n: int, paths=(), cycles=(), singletons=()) -> "PathPartition":
        p = cls(n)
        for seq in paths:
            p.add(Component(PATH, seq))
        for seq in cycles:
            p.add(Component(CYCLE, seq))
        for v in singletons:
            p.add(Component(SINGLETON, [v]))
        return p

    def add(self, comp: Component) -> int:
        cid = self._next_id
        self._next_id += 1
        self.components[cid] = comp
        for i, v in enumerate(comp.vertices):
            self.owner[v] = cid
            self.pos[v] = i
        return cid

    def remove(self, cid: int) -> Component:
        comp = self.components.pop(cid)
        for v in comp.vertices:
            del self.owner[v]
            del self.pos[v]
        return comp

    def copy(self) -> "PathPartition":
        p = PathPartition(self.n)
        p.components = {cid: Component(c.kind, c.vertices) for cid, c in self.components.items()}
        p.owner = dict(self.owner)
        p.pos = dict(self.pos)
        p._next_id = self._next_id
        return p

    # -- queries -----------------------------------------------------------

    def component_count(self) -> int:
        return len(self.components)

    def cycle_count(self) -> int:
        return sum(1 for c in self.components.values() if c.kind == CYCLE)

    def singleton_count(self) -> int:
        return sum(1 for c in self.components.values() if c.kind == SINGLETON)

    def potential(self) -> tuple[int, int, int]:
        """Lexicographic solve objective: (components, -cycles, singletons)."""
        return (self.component_count(), -self.cycle_count(), self.singleton_count())

    def kind_of(self, v: int) -> str:
        return self.components[self.owner[v]].kind

    def is_end(self, v: int) -> bool:
        """v is joinable as-is: a path end-vertex or a singleton."""
        comp = self.components[self.owner[v]]
        if comp.kind == SINGLETON:
            return True
        return comp.kind == PATH and (comp.vertices[0] == v or comp.vertices[-1] == v)

    def path_neighbors(self, v: int) -> tuple[int, ...]:
        """Partition-adjacent vertices of v (0 for singletons, 1 for path ends, 2 otherwise)."""
        comp = self.components[self.owner[v]]
        verts = comp.vertices
        i = self.pos[v]
        if comp.kind == SINGLETON:
            return ()
        if comp.kind == CYCLE:
            k = len(verts)
            return (verts[(i - 1) % k], verts[(i + 1) % k])
        out = []
        if i > 0:
            out.append(verts[i - 1])
        if i < len(verts) - 1:
            out.append(verts[i + 1])
        return tuple(out)

    def part_adjacent(self, u: int, v: int) -> bool:
        return v in self.path_neighbors(u)

    def sorted_ids(self) -> list[int]:
        return sorted(self.components)


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
    for v, cid in p.owner.items():
        comp = p.components.get(cid)
        if comp is None or p.pos[v] >= len(comp.vertices) or comp.vertices[p.pos[v]] != v:
            violations.append(f"owner index stale for vertex {v}")
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

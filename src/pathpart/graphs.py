"""Immutable simple graphs, regularity checks, instance generators, edge-list I/O."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Malformed graph data (self-loop, duplicate edge, vertex out of range)."""


class EdgeListParseError(GraphError):
    """Bad edge-list text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GenerationError(RuntimeError):
    """A random generator exhausted its restart budget."""


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction.

    Safe to share across threads. `edges` is the sorted tuple of (u, v) pairs
    with u < v; `adj` holds one sorted neighbor tuple per vertex.
    """

    __slots__ = ("n", "edges", "adj", "_edgeset")

    def __init__(self, n: int, edges):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in norm:
                raise GraphError(f"duplicate edge {e}")
            norm.add(e)
        self.n = n
        self.edges = tuple(sorted(norm))
        self._edgeset = norm
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edgeset

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class RegularityReport:
    is_regular: bool
    degree: int | None
    offending_vertices: list[int] = field(default_factory=list)


def validate_regular(g: Graph, d: int) -> RegularityReport:
    """Report every vertex whose degree differs from d (empty list iff d-regular)."""
    bad = [v for v in range(g.n) if g.degree(v) != d]
    return RegularityReport(is_regular=not bad, degree=d if not bad else None,
                            offending_vertices=bad)


def infer_degree(g: Graph) -> int | None:
    """The common degree if g is regular, else None. Empty graph reports 0."""
    if g.n == 0:
        return 0
    d = g.degree(0)
    return d if all(g.degree(v) == d for v in range(g.n)) else None


def gen_disjoint_cliques(d: int, k: int, seed: int = 0) -> Graph:
    """k disjoint copies of the complete graph on d+1 vertices, labels shuffled by seed."""
    if d < 1 or k < 1:
        raise GraphError("need d >= 1 and k >= 1")
    n = k * (d + 1)
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    edges = []
    for c in range(k):
        block = labels[c * (d + 1):(c + 1) * (d + 1)]
        edges.extend(itertools.combinations(block, 2))
    return Graph(n, edges)


def gen_random_regular(n: int, d: int, seed: int = 0, restarts: int | None = None) -> Graph:
    """Uniform-ish simple d-regular graph via the pairing model with full restarts.

    Every attempt draws a fresh random pairing of the n*d degree stubs and is
    rejected outright on any loop or repeated edge. Deterministic for a fixed
    seed. Raises GenerationError when the restart budget runs out (infeasible
    or unlucky parameters).
    """
    if n * d % 2 != 0:
        raise GraphError(f"n*d must be even, got n={n}, d={d}")
    if d > 0 and n < d + 1:
        raise GraphError(f"no simple {d}-regular graph on {n} vertices")
    if d == 0 or n == 0:
        return Graph(n, [])
    if restarts is None:
        # a pairing is simple with probability around exp(-(d-1)/2 - (d-1)^2/4)
        # for large n but orders of magnitude less near n = d+1 (3e-6 at n=8,
        # d=6), so the cap must be generous; attempts are batched and cheap
        restarts = max(10 * n, 2_000_000)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    batch = max(1, min(4096, 4_000_000 // (n * d)))
    attempts = 0
    while attempts < restarts:
        b = min(batch, restarts - attempts)
        mat = rng.permuted(np.tile(stubs, (b, 1)), axis=1)
        u = mat[:, 0::2]
        v = mat[:, 1::2]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = np.sort(lo * n + hi, axis=1)
        good = (u != v).all(axis=1) & (np.diff(keys, axis=1) != 0).all(axis=1)
        hits = np.flatnonzero(good)
        if hits.size:
            i = hits[0]
            return Graph(n, zip(lo[i].tolist(), hi[i].tolist()))
        attempts += b
    raise GenerationError(f"no simple pairing found in {restarts} restarts (n={n}, d={d})")


def gen_circulant(n: int, offsets: list[int]) -> Graph:
    """Circulant graph C_n(offsets); offset n/2 contributes one edge per vertex pair."""
    edges = set()
    for s in offsets:
        s %= n
        if s == 0:
            raise GraphError("offset 0 would create self-loops")
        for v in range(n):
            w = (v + s) % n
            edges.add((min(v, w), max(v, w)))
    return Graph(n, edges)


def gen_complete_bipartite(d: int) -> Graph:
    """K_{d,d}: d-regular, bipartite (hence K6-free for any d)."""
    return Graph(2 * d, [(i, d + j) for i in range(d) for j in range(d)])


def read_edge_list(text: str | bytes) -> Graph:
    """Parse "n m" header plus m "u v" lines (0-indexed); reject loops/dupes/bad ids."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.splitlines()
    if not lines:
        raise EdgeListParseError("missing header", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListParseError(f"expected 'n m', got {lines[0]!r}", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListParseError(f"expected integers in header, got {lines[0]!r}", 1) from None
    edges = []
    seen = set()
    row = 1
    for raw in lines[1:]:
        row += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {raw!r}", row)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"expected integers, got {raw!r}", row) from None
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", row)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"vertex id out of range in ({u}, {v})", row)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise EdgeListParseError(f"duplicate edge {e}", row)
        seen.add(e)
        edges.append(e)
    if len(edges) != m:
        raise EdgeListParseError(f"header announced {m} edges, found {len(edges)}", row)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Canonical text form: header plus lexicographically sorted "u v" lines."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def contains_k6(g: Graph) -> list[int] | None:
    """A 6-clique as a sorted vertex list, or None.

    Any 6-clique through v lies inside v's closed neighborhood, so it is enough
    to test the 5-subsets of each neighborhood (cheap for small degree).
    """
    for v in range(g.n):
        nbrs = g.adj[v]
        if len(nbrs) < 5:
            continue
        for combo in itertools.combinations(nbrs, 5):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return sorted((v,) + combo)
    return None

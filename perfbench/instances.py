"""Benchmark-side graph handling, independent of the pathpart package.

Reads and writes the edge-list format, builds perturbed-clique instances by
seeded double-edge switches, and computes the facts the verifier needs
(degrees, connected components, K6 presence).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path


def read_edges(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """Parse an edge-list file: an "n m" header, then one "u v" pair per line."""
    lines = Path(path).read_text().split("\n")
    n, m = (int(x) for x in lines[0].split())
    edges = []
    for line in lines[1:]:
        if line.strip():
            u, v = (int(x) for x in line.split())
            edges.append((u, v) if u < v else (v, u))
    if len(edges) != m:
        raise ValueError(f"{path}: header announces {m} edges, found {len(edges)}")
    return n, edges


def write_edges(path: Path, n: int, edges) -> None:
    body = sorted(edges)
    text = f"{n} {len(body)}\n" + "".join(f"{u} {v}\n" for u, v in body)
    Path(path).write_text(text)


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_simple_regular(n: int, edges, d: int) -> None:
    """Raise ValueError unless the edge list is a simple d-regular graph on 0..n-1."""
    seen = set()
    deg = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge ({u}, {v})")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        deg[u] += 1
        deg[v] += 1
    bad = [v for v in range(n) if deg[v] != d]
    if bad:
        raise ValueError(f"{len(bad)} vertices have degree != {d}, first {bad[0]}")


def component_count(n: int, edges) -> int:
    """Connected components, a lower bound on any path partition's size."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def has_k6(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    for v in range(n):
        for combo in itertools.combinations(sorted(adj[v]), 5):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                return True
    return False


def double_edge_switches(n: int, edges, switches: int, seed: int) -> list[tuple[int, int]]:
    """Apply `switches` successful double-edge switches (ab, cd -> ad, cb).

    A switch keeps every degree; one that would create a loop or a repeated
    edge is redrawn, so the result stays simple.
    """
    rng = random.Random(seed)
    edges = sorted(edges)
    present = set(edges)
    done = 0
    while done < switches:
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if a == d or c == b or e1 == e2 or e1 in present or e2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {e1, e2}
        edges[i], edges[j] = e1, e2
        done += 1
    return sorted(edges)


@dataclass
class Instance:
    """An input file as the benchmark itself read it."""

    name: str
    path: Path
    n: int
    d: int
    adj: list[set[int]]
    connected: int  # connected components, a lower bound on any partition


def load_instance(name: str, path: Path, d: int) -> Instance:
    """Read an input file and check it is the simple d-regular graph it should be."""
    n, edges = read_edges(path)
    check_simple_regular(n, edges, d)
    if d == 5 and has_k6(n, edges):
        raise ValueError(f"{path}: 5-regular instance contains K6")
    return Instance(name, Path(path), n, d, adjacency(n, edges), component_count(n, edges))

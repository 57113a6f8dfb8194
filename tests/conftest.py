from __future__ import annotations

import itertools
import random
import sys
from functools import lru_cache

import pytest
from hypothesis import settings, strategies as st

from pathpart import moves
from pathpart.classify import V1, V2A, V2B, V3, V4, V5, VertexClassification
from pathpart.graphs import Graph, gen_random_regular
from pathpart.oracle import OracleUnknown
from pathpart.partition import (ALONE, CYCLE, END, INNER, ON_CYCLE, PATH, SINGLETON,
                                PathPartition)
from pathpart.solver import initial_partition

# a fixed example sequence and no time limit keep the property tests reproducible
settings.register_profile("pathpart", derandomize=True, deadline=None, database=None)
settings.load_profile("pathpart")

PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                  (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]


@pytest.fixture
def petersen() -> Graph:
    return Graph(10, PETERSEN_EDGES)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def count_calls(monkeypatch, func) -> list:
    """Record the arguments of each call of `func`, through every pathpart
    module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pathpart" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


def switched(g: Graph, count: int, seed: int) -> Graph:
    """g after `count` seeded double-edge switches (a, b), (c, d) -> (a, d),
    (c, b), which keep every degree."""
    rng = random.Random(seed)
    edges = set(g.edges)
    while count:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = edges - {(a, b), (c, d)} | new
            count -= 1
    return Graph(g.n, edges)


@st.composite
def simple_graphs(draw, max_n: int) -> Graph:
    """Any simple graph on at most max_n vertices: disconnected, sparse or dense."""
    n = draw(st.integers(0, max_n), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()), label="edges")
    return Graph(n, edges)


@lru_cache(maxsize=None)
def regular_graph(n: int, d: int, seed: int) -> Graph:
    return gen_random_regular(n, d, seed=seed)


def draw_start(data) -> tuple[Graph, PathPartition]:
    """A random regular graph with d in 3..6 and n <= 20, and either its greedy
    partition or all singletons."""
    d = data.draw(st.integers(3, 6), label="d")
    n = data.draw(st.integers(d + 1, 20), label="n")
    n -= n * d % 2
    g = regular_graph(n, d, data.draw(st.integers(0, 3), label="seed"))
    if data.draw(st.booleans(), label="greedy start"):
        return g, initial_partition(g, seed=0)
    return g, PathPartition.from_lists(n, singletons=range(n))


def legal_primitives(g: Graph, p: PathPartition) -> list[tuple]:
    """Splits at consecutive pairs, joins of two ends along an edge, closes of
    paths with adjacent ends, and opens at cycle edges."""
    prims = []
    for cid in p.sorted_ids():
        comp = p.components[cid]
        verts = comp.vertices
        if comp.kind == PATH:
            prims += [("split", cid, a, b) for a, b in zip(verts, verts[1:])]
            if moves.closable(g, p, cid):
                prims.append(("close", cid))
        elif comp.kind == CYCLE:
            prims += [("open", cid, a, b) for a, b in zip(verts, verts[1:] + verts[:1])]
    prims += [("join", u, v) for u, v in g.edges
              if p.owner[u] != p.owner[v] and p.is_end(u) and p.is_end(v)]
    return prims


def roles_from_components(p: PathPartition) -> list:
    """Each vertex's role, recomputed from the component lists: None for a
    vertex in no component. Vertices outside 0..n-1 are left out."""
    role = [None] * p.n
    for comp in p.components.values():
        last = len(comp.vertices) - 1
        for i, v in enumerate(comp.vertices):
            if 0 <= v < p.n:
                role[v] = {PATH: END if i in (0, last) else INNER,
                           CYCLE: ON_CYCLE, SINGLETON: ALONE}[comp.kind]
    return role


def step_for(p: PathPartition, prim: tuple) -> tuple:
    """The builder step that applies `prim`."""
    op = prim[0]
    if op == "split":
        return ("split_at", prim[2:])
    if op == "join":
        return ("join", prim[1:])
    if op == "close":
        return ("close_of", (p.components[prim[1]].vertices[0],))
    return ("open_edge", prim[2:])


def reference_classification(g: Graph, p: PathPartition):
    """p's classification as the `VertexClassification` docstring defines
    it, computed from the component lists alone. A free edge is one that is
    neither a path edge nor joins two vertices of one cycle; an edge between
    two different cycles is free."""
    comp_of, kind = {}, {}
    path_nbrs = {v: [] for v in range(g.n)}
    path_ends, v1 = set(), set()
    for cid, comp in p.components.items():
        verts = comp.vertices
        for v in verts:
            comp_of[v], kind[v] = cid, comp.kind
        if comp.kind == PATH:
            path_ends |= {verts[0], verts[-1]}
            for a, b in zip(verts, verts[1:]):
                path_nbrs[a].append(b)
                path_nbrs[b].append(a)
        else:
            v1.update(verts)
    v1 |= path_ends
    free = [[] for _ in range(g.n)]
    for u, v in g.edges:
        if kind[u] == kind[v] == CYCLE and comp_of[u] == comp_of[v]:
            continue  # a cycle edge or a chord
        if v in path_nbrs[u]:
            continue  # a path edge
        free[u].append(v)
        free[v].append(u)
    free = [sorted(nbrs) for nbrs in free]
    balanced = {v: [w for w in free[v] if w in v1]
                for v in range(g.n) if v not in v1 and any(w in v1 for w in free[v])}
    ends = {v: [w for w in targets if w in path_ends] for v, targets in balanced.items()}
    moderate = {v for v in balanced if ends[v] and len(balanced[v]) >= 2}
    heavy = {v for v in balanced if len(ends[v]) >= 3}
    cls, dangerous = [], set()
    for v in range(g.n):
        nb2 = sum(w in balanced for w in path_nbrs[v])
        if v in v1:
            cls.append(V1)
        elif v in balanced:
            cls.append(V2B if nb2 else V2A)
        else:
            cls.append((V5, V4, V3)[nb2])
        if cls[v] == V3:
            a, b = path_nbrs[v]
            if (a in heavy and b in moderate) or (b in heavy and a in moderate):
                dangerous.add(v)
    return VertexClassification(cls, free, balanced, ends, moderate, heavy, dangerous)


def max_linear_forest(g: Graph, cap: int = 10) -> int:
    """Maximum edge count of a spanning linear forest, by branch and bound.

    Includes edges in fixed order under degree-two and acyclicity constraints;
    independent of the subset DP, used to cross-check pi_p = n - max edges.
    """
    if g.n > cap:
        raise OracleUnknown(f"n={g.n} above linear-forest cap {cap}")
    edges = g.edges
    m = len(edges)
    deg = [0] * g.n
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    best = 0

    def dfs(idx: int, count: int):
        nonlocal best
        if count > best:
            best = count
        if idx == m or count + (m - idx) <= best or best >= g.n - 1:
            return
        u, v = edges[idx]
        if deg[u] < 2 and deg[v] < 2:
            ru, rv = find(u), find(v)
            if ru != rv:
                deg[u] += 1
                deg[v] += 1
                saved = parent[ru]
                parent[ru] = rv
                dfs(idx + 1, count + 1)
                parent[ru] = saved
                deg[u] -= 1
                deg[v] -= 1
        dfs(idx + 1, count)

    dfs(0, 0)
    return best


def pi_p_via_linear_forest(g: Graph, cap: int = 10) -> int:
    return g.n - max_linear_forest(g, cap=cap)

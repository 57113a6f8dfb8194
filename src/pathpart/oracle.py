"""Exact minimum path partition for small graphs, plus an independent cross-check."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .partition import PathPartition


class OracleUnknown(RuntimeError):
    """Budget or size cap exceeded; the oracle refuses to guess."""


@dataclass
class OracleResult:
    pi_p: int
    witness: PathPartition
    explored: int


def exact_pi_p(g: Graph, budget: int = 50_000_000, cap: int = 16) -> OracleResult:
    """Minimum number of vertex-disjoint paths covering the graph, by subset DP.

    endpoints[S] holds the possible final vertices of a single path covering
    exactly S; cover[S] is the fewest paths partitioning S, assembled from
    path-subsets that contain S's lowest vertex. Isolated vertices count as
    paths of size one.
    """
    n = g.n
    if n > cap:
        raise OracleUnknown(f"n={n} above oracle cap {cap}")
    if n == 0:
        return OracleResult(0, PathPartition.from_lists(0), 0)
    full = (1 << n) - 1
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    explored = 0
    endpoints = [0] * (full + 1)
    for v in range(n):
        endpoints[1 << v] = 1 << v
    for s in range(1, full + 1):
        ep = endpoints[s]
        if not ep:
            continue
        rest = ep
        while rest:
            vbit = rest & -rest
            rest ^= vbit
            v = vbit.bit_length() - 1
            grow = adj[v] & ~s
            while grow:
                wbit = grow & -grow
                grow ^= wbit
                endpoints[s | wbit] |= wbit
                explored += 1
                if explored > budget:
                    raise OracleUnknown("single-path DP budget exceeded")

    INF = n + 1
    cover = [INF] * (full + 1)
    cover[0] = 0
    best_piece = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        sub = s
        while sub:
            if sub & low and endpoints[sub]:
                cand = cover[s ^ sub] + 1
                if cand < cover[s] or (cand == cover[s] and sub < best_piece[s]):
                    cover[s] = cand
                    best_piece[s] = sub
            explored += 1
            if explored > budget:
                raise OracleUnknown("cover DP budget exceeded")
            sub = (sub - 1) & s

    paths = []
    s = full
    while s:
        piece = best_piece[s]
        paths.append(_reconstruct_path(adj, piece, endpoints))
        s ^= piece
    paths.sort()
    witness = PathPartition.from_lists(
        n,
        paths=[seq for seq in paths if len(seq) > 1],
        singletons=[seq[0] for seq in paths if len(seq) == 1],
    )
    return OracleResult(cover[full], witness, explored)


def _reconstruct_path(adj, piece: int, endpoints) -> list[int]:
    """Lexicographically smallest endpoint first, then smallest predecessor."""
    ep = endpoints[piece]
    end = (ep & -ep).bit_length() - 1
    seq = [end]
    s = piece
    v = end
    while s != (1 << v):
        s ^= 1 << v
        prevs = adj[v] & s & endpoints[s]
        v = (prevs & -prevs).bit_length() - 1
        seq.append(v)
    return seq


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

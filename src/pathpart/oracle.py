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


def check_cap(n: int, cap: int) -> None:
    """OracleUnknown when n vertices are above the subset DP's size cap."""
    if n > cap:
        raise OracleUnknown(f"n={n} above oracle cap {cap}")


def exact_pi_p(g: Graph, budget: int = 50_000_000, cap: int = 16) -> OracleResult:
    """Minimum number of vertex-disjoint paths covering the graph, by subset DP.

    cover[S] is the fewest paths partitioning S and ends[S] the bitmask of
    vertices that end a path (or are a singleton) in some such cover. Over the
    subsets in increasing order, cover[S] is the minimum over w in S of
    cover[S - w], plus one unless w is adjacent to a vertex of ends[S - w]:
    attaching w to such an end costs no path, and splitting a cover at a
    vertex no optimal cover ends at costs one path, the same as leaving w
    alone. ends[S] is the set of w that reach the minimum. Isolated vertices
    count as paths of size one. `explored` counts the (S, w) transitions,
    n * 2^(n-1) on a completed run; the budget is checked once per subset.
    """
    n = g.n
    check_cap(n, cap)
    if n == 0:
        return OracleResult(0, PathPartition.from_lists(0), 0)
    full = (1 << n) - 1
    adj = {1 << v: 0 for v in range(n)}  # vertex bit -> neighbour bitmask
    for u, v in g.edges:
        adj[1 << u] |= 1 << v
        adj[1 << v] |= 1 << u

    explored = 0
    cover = [0] * (full + 1)
    ends = [0] * (full + 1)
    for s in range(1, full + 1):
        best = n + 1
        best_ends = 0
        rest = s
        while rest:
            wbit = rest & -rest
            rest ^= wbit
            t = s ^ wbit
            c = cover[t] if adj[wbit] & ends[t] else cover[t] + 1
            if c < best:
                best, best_ends = c, wbit
            elif c == best:
                best_ends |= wbit
        cover[s] = best
        ends[s] = best_ends
        explored += s.bit_count()
        if explored > budget:
            raise OracleUnknown("subset DP budget exceeded")

    # peel an optimal cover off `full`: start each path at the lowest end and
    # extend it to a neighbour that ends an optimal cover of what remains; as
    # the current vertex is in ends[s], such a step keeps cover[s] unchanged
    paths = []
    s = full
    while s:
        wbit = ends[s] & -ends[s]
        seq = []
        while True:
            seq.append(wbit.bit_length() - 1)
            s ^= wbit
            nxt = adj[wbit] & ends[s]
            if not nxt:
                break
            wbit = nxt & -nxt
        paths.append(seq)
    paths.sort()
    witness = PathPartition.from_lists(
        n,
        paths=[seq for seq in paths if len(seq) > 1],
        singletons=[seq[0] for seq in paths if len(seq) == 1],
    )
    return OracleResult(cover[full], witness, explored)


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

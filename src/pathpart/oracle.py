"""Exact minimum path partition for small graphs, plus an independent cross-check."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .partition import PathPartition


SLAB = 4096  # subsets per array pass of exact_pi_p


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
    vertices that end a path (or are a singleton) in some such cover. cover[S]
    is the minimum over w in S of cover[S - w], plus one unless w is adjacent
    to a vertex of ends[S - w]: attaching w to such an end costs no path, and
    splitting a cover at a vertex no optimal cover ends at costs one path, the
    same as leaving w alone. ends[S] is the set of w that reach the minimum.
    Isolated vertices count as paths of size one.

    Every S - w has one vertex fewer than S, so the subsets are filled in
    layers of equal size, each in slabs of at most SLAB subsets: one
    (n x slab) array holds S ^ w for every vertex w. For a w not in S that is
    S + w, one layer up and not filled yet: it still holds the sentinel n + 1
    that every cover entry but cover[0] starts at, and an empty ends, so its
    row reads n + 2. That is above any cover of S (at most |S| <= n), so such
    rows never reach the minimum or ends[S], and need no mask. int8 holds
    n + 2 for every n the oracle accepts. Masks are uint16 up to 16 vertices
    and uint32 up to 32; the oracle gives up above that. `explored` counts
    the (S, w) transitions, n * 2^(n-1), and the budget is checked against
    that total before any table is allocated (or NumPy imported). Tables or
    slabs that do not fit in memory end in OracleUnknown too.
    """
    n = g.n
    check_cap(n, cap)
    if n == 0:
        return OracleResult(0, PathPartition.from_lists(0), 0)
    explored = n << (n - 1)
    if explored > budget:
        raise OracleUnknown("subset DP budget exceeded")
    if n > 32:
        raise OracleUnknown(f"n={n} above the subset DP's 32-bit masks")
    import numpy as np
    full = (1 << n) - 1
    adj = {1 << v: 0 for v in range(n)}  # vertex bit -> neighbour bitmask
    for u, v in g.edges:
        adj[1 << u] |= 1 << v
        adj[1 << v] |= 1 << u

    mask = np.uint16 if n <= 16 else np.uint32
    bits = np.array(list(adj), dtype=mask)[:, None]
    nbrs = np.array(list(adj.values()), dtype=mask)[:, None]
    try:
        size = np.zeros(1, dtype=np.int8)  # size[S] = popcount of S
        for _ in range(n):
            size = np.concatenate((size, size + 1))
        cover = np.full(full + 1, n + 1, dtype=np.int8)
        cover[0] = 0
        ends = np.zeros(full + 1, dtype=mask)
        for k in range(1, n + 1):
            layer = np.flatnonzero(size == k).astype(mask)
            for lo in range(0, len(layer), SLAB):
                s = layer[lo:lo + SLAB]
                t = s ^ bits  # row w: S - w, or S + w where w is not in S
                c = cover[t] + ((ends[t] & nbrs) == 0)
                best = c.min(axis=0)
                cover[s] = best
                ends[s] = np.bitwise_or.reduce(bits * (c == best), axis=0)
    except MemoryError:
        raise OracleUnknown("subset DP tables do not fit in memory") from None

    paths = _peel(ends, adj, full)
    paths.sort()
    witness = PathPartition.from_lists(
        n,
        paths=[seq for seq in paths if len(seq) > 1],
        singletons=[seq[0] for seq in paths if len(seq) == 1],
    )
    return OracleResult(int(cover[full]), witness, explored)


def _peel(ends, adj: dict[int, int], full: int) -> list[list[int]]:
    """Peel an optimal cover off `full`: start each path at the lowest end and
    extend it to a neighbour that ends an optimal cover of what remains; as
    the current vertex is in ends[s], such a step keeps cover[s] unchanged.
    RuntimeError if a step's vertex is not in s, which only a wrong `ends`
    table gives (and which would otherwise put the vertex back, for ever)."""
    paths = []
    s = full
    while s:
        wbit = int(ends[s]) & -int(ends[s])
        seq = []
        while True:
            if not wbit & s:
                raise RuntimeError(f"witness peel: vertex {wbit.bit_length() - 1} "
                                   f"is not in subset {s:#x}")
            seq.append(wbit.bit_length() - 1)
            s ^= wbit
            nxt = adj[wbit] & int(ends[s])
            if not nxt:
                break
            wbit = nxt & -nxt
        paths.append(seq)
    return paths


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

"""Exact minimum path partition for small graphs, by subset DP."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import Graph
from .partition import PathPartition


SLAB = 2048  # subsets per array pass of exact_pi_p


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
    layers of equal size, taken from one stable argsort of the popcounts (S
    ascending within a layer), each layer in slabs of at most SLAB subsets:
    one (n x slab) array holds S ^ w for every vertex w. For a w not in S that
    is S + w, one layer up and not filled yet: it still holds the sentinel
    n + 1 that every cover entry but cover[0] starts at, and an empty ends, so
    its row reads n + 2. That is above any cover of S (at most |S| <= n), so
    such rows never reach the minimum or ends[S], and need no mask. int8 holds
    n + 2 for every n the oracle accepts. Masks are uint16 up to 16 vertices
    and uint32 up to 32; the oracle gives up above that. S ^ w is widened to
    native intp indices before the two gathers, which would otherwise cast
    the index array on each, and every slab runs through the same four
    buffers, allocated once per call and viewed as (n x slab) arrays over
    their first n * slab entries, so a partial slab stays contiguous.
    `explored` counts the (S, w) transitions, n * 2^(n-1), and the budget is
    checked against that total before any table is allocated (or NumPy
    imported). Tables or buffers that do not fit in memory end in
    OracleUnknown too.
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
        order = np.argsort(size, kind="stable").astype(mask)
        del size  # freed before the tables and buffers, which make the peak
        cover = np.full(full + 1, n + 1, dtype=np.int8)
        cover[0] = 0
        ends = np.zeros(full + 1, dtype=mask)
        width = min(SLAB, comb(n, n // 2))
        flat = [np.empty(n * width, dtype=dtype) for dtype in (np.intp, np.int8, mask, bool)]
        lo = 1  # order[lo:hi] is layer k
        for k in range(1, n + 1):
            hi = lo + comb(n, k)
            for first in range(lo, hi, width):
                s = order[first:min(first + width, hi)]
                t, c, e, b = (buf[:n * len(s)].reshape(n, len(s)) for buf in flat)
                np.bitwise_xor(s, bits, out=e)  # row w: S - w, or S + w where w is not in S
                np.copyto(t, e)  # native indices: take casts no copy of them
                np.take(cover, t, out=c)
                np.take(ends, t, out=e)
                np.bitwise_and(e, nbrs, out=e)
                np.equal(e, 0, out=b)
                np.add(c, b, out=c)
                best = c.min(axis=0)
                np.equal(c, best, out=b)
                np.multiply(bits, b, out=e)
                s = s.astype(np.intp)
                cover[s] = best
                ends[s] = np.bitwise_or.reduce(e, axis=0)
            lo = hi
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


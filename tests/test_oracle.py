import itertools
import tracemalloc

import pytest
from hypothesis import example, given

from pathpart import oracle
from pathpart.graphs import (Graph, gen_circulant, gen_disjoint_cliques,
                             gen_random_regular)
from pathpart.oracle import OracleResult, OracleUnknown, _peel, exact_pi_p
from pathpart.partition import (PathPartition, partition_to_json,
                                validate_partition)
from pathpart.solver import solve

from conftest import (complete_graph, max_linear_forest, pi_p_via_linear_forest,
                      simple_graphs)


def _spider(legs: int, length: int) -> Graph:
    """legs paths of `length` edges hanging off vertex 0."""
    edges = []
    for leg in range(legs):
        prev = 0
        for i in range(length):
            v = 1 + leg * length + i
            edges.append((prev, v))
            prev = v
    return Graph(1 + legs * length, edges)


def test_k7_is_traceable():
    res = exact_pi_p(complete_graph(7))
    assert res.pi_p == 1
    assert validate_partition(complete_graph(7), res.witness)[0]
    assert res.witness.component_count() == 1


def test_two_cliques_need_two_paths():
    g = gen_disjoint_cliques(6, 2, seed=0)
    assert exact_pi_p(g).pi_p == 2


def test_petersen_traceable_by_both_oracles(petersen):
    res = exact_pi_p(petersen)
    assert res.pi_p == 1
    assert pi_p_via_linear_forest(petersen) == 1
    assert res.explored > 0


def test_star_needs_many_paths():
    g = Graph(5, [(0, i) for i in range(1, 5)])
    assert exact_pi_p(g).pi_p == 3
    assert pi_p_via_linear_forest(g) == 3


def test_witness_peel_refuses_a_vertex_outside_the_subset():
    # n=2 with no edge, from a DP whose sentinel was wrong: ends[{1}] names
    # vertex 0, which the peel has already taken, and s ^= 1 would put it back
    with pytest.raises(RuntimeError, match="vertex 0 is not in subset 0x2"):
        _peel([0, 3, 3, 3], {1: 0, 2: 0}, 3)


def test_max_linear_forest_triangle():
    g = complete_graph(3)
    assert max_linear_forest(g) == 2


def test_size_cap_and_budget():
    with pytest.raises(OracleUnknown):
        exact_pi_p(gen_random_regular(20, 6, seed=0))
    with pytest.raises(OracleUnknown):
        exact_pi_p(complete_graph(12), budget=100)
    with pytest.raises(OracleUnknown):
        max_linear_forest(gen_random_regular(14, 6, seed=0))


def test_two_oracles_agree_up_to_ten_vertices():
    for d, n, seed in itertools.product((3, 4, 5, 6), (7, 8, 9, 10), range(3)):
        if n * d % 2 or n < d + 1:
            continue
        g = gen_random_regular(n, d, seed=seed)
        res = exact_pi_p(g)
        assert res.pi_p == pi_p_via_linear_forest(g)
        ok, violations = validate_partition(g, res.witness)
        assert ok, violations
        assert res.witness.component_count() == res.pi_p


def test_heuristic_never_beats_oracle():
    for n, seed in itertools.product((10, 12), range(4)):
        g = gen_random_regular(n, 6, seed=seed)
        res = exact_pi_p(g)
        report = solve(g, seed=seed)
        assert report.component_count >= res.pi_p


def test_witness_deterministic():
    g = gen_random_regular(10, 6, seed=7)
    a = exact_pi_p(g).witness
    b = exact_pi_p(g).witness
    assert partition_to_json(a) == partition_to_json(b)


# stars, spiders and forests are where an optimal cover splits at an interior vertex
@given(simple_graphs(10))
@example(Graph(0, []))
@example(Graph(6, []))
@example(Graph(6, [(0, i) for i in range(1, 6)]))
@example(_spider(3, 2))
@example(_spider(4, 2))
@example(Graph(10, _spider(3, 2).edges + ((7, 8), (8, 9), (7, 9))))
@example(Graph(10, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (5, 7), (5, 8)]))
def test_exact_pi_p_matches_linear_forest(g):
    res = exact_pi_p(g)
    assert res.pi_p == pi_p_via_linear_forest(g)
    ok, violations = validate_partition(g, res.witness)
    assert ok, violations
    assert res.witness.component_count() == res.pi_p
    assert partition_to_json(exact_pi_p(g).witness) == partition_to_json(res.witness)
    assert res.explored == g.n * 2 ** g.n // 2


def _loop_exact_pi_p(g: Graph, budget: int = 50_000_000, cap: int = 16) -> OracleResult:
    """The subset DP as a plain loop over the subsets in increasing order, one
    (S, w) transition at a time: the reference for the array version."""
    n = g.n
    if n > cap:
        raise OracleUnknown(f"n={n} above oracle cap {cap}")
    if n == 0:
        return OracleResult(0, PathPartition.from_lists(0), 0)
    full = (1 << n) - 1
    adj = {1 << v: 0 for v in range(n)}
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


def _assert_same_as_loop(g: Graph, cap: int = 16):
    _assert_same(exact_pi_p(g, cap=cap), _loop_exact_pi_p(g, cap=cap))


def _assert_same(res: OracleResult, ref: OracleResult):
    assert type(res.pi_p) is int and type(res.explored) is int
    assert (res.pi_p, res.explored) == (ref.pi_p, ref.explored)
    assert partition_to_json(res.witness) == partition_to_json(ref.witness)


@given(simple_graphs(12))
@example(Graph(0, []))
@example(Graph(1, []))
@example(_spider(4, 2))
# graphs where a row of a w not in S, which reads the unfilled S + w, would
# reach the minimum under a low enough sentinel
@example(Graph(5, [(1, 3)]))
@example(Graph(7, complete_graph(4).edges + ((4, 5), (5, 6), (4, 6))))
@example(complete_graph(8))
@example(Graph(2, []))
def test_layered_dp_matches_the_loop(g):
    _assert_same_as_loop(g)


@pytest.mark.parametrize("n,d,seed", [(n, d, seed) for n in range(13, 17) for d in (5, 6)
                                      for seed in range(2) if n * d % 2 == 0])
def test_layered_dp_matches_the_loop_on_regular_graphs(n, d, seed):
    _assert_same_as_loop(gen_random_regular(n, d, seed=seed))


def test_layered_dp_matches_the_loop_with_32_bit_masks():
    _assert_same_as_loop(gen_random_regular(17, 6, seed=0), cap=17)


def test_budget_is_exactly_the_transition_count():
    g = gen_random_regular(12, 5, seed=1)
    total = 12 * 2 ** 11
    assert exact_pi_p(g, budget=total).explored == total
    with pytest.raises(OracleUnknown, match="^subset DP budget exceeded$"):
        exact_pi_p(g, budget=total - 1)
    assert exact_pi_p(Graph(0, []), budget=-1).pi_p == 0


def test_budget_is_checked_before_any_table_is_allocated():
    g = gen_circulant(28, [1, 2, 3])
    tracemalloc.start()
    try:
        with pytest.raises(OracleUnknown, match="^subset DP budget exceeded$"):
            exact_pi_p(g, cap=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(OracleUnknown, match="32-bit masks"):
        exact_pi_p(Graph(33, []), budget=10**12, cap=33)


def test_a_table_that_does_not_fit_is_unknown(monkeypatch):
    # the subprocess CLI test meets a real allocation failure under an address
    # space limit; here the cover table's allocation raises in-process
    import numpy

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(numpy, "full", no_memory)
    with pytest.raises(OracleUnknown, match="^subset DP tables do not fit in memory$"):
        exact_pi_p(complete_graph(7))


def test_layered_dp_works_in_slabs():
    g = gen_circulant(18, [1, 2, 3])
    # the oracle imports numpy on first use; do that outside the traced window,
    # so the peak below is the DP's own tables and slabs
    exact_pi_p(gen_circulant(7, [1, 2, 3]))
    tracemalloc.start()
    try:
        res = exact_pi_p(g, cap=18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.pi_p == 1
    # the full tables take 1.25 MiB; the slabs keep each pass's arrays small
    assert peak < 6 * 2**20


# layers of 5, 9, 12 and 17 vertices split into several slabs of 3 or 7
# subsets, most with a partial last slab; a buffer entry a narrower slab left
# stale, or a slab running into the next layer, would change the tables
@pytest.mark.parametrize("g,cap", [(Graph(5, [(1, 3)]), 16), (_spider(4, 2), 16),
                                   (gen_random_regular(12, 5, seed=1), 16),
                                   (gen_random_regular(17, 6, seed=0), 17)])
def test_small_slabs_match_the_loop(monkeypatch, g, cap):
    ref = _loop_exact_pi_p(g, cap=cap)
    for slab in (3, 7):
        monkeypatch.setattr(oracle, "SLAB", slab)
        _assert_same(exact_pi_p(g, cap=cap), ref)


def test_slab_buffers_keep_the_peak_at_16_vertices():
    g = gen_random_regular(16, 6, seed=0)
    exact_pi_p(g)  # imports numpy and lets it set up outside the traced window
    tracemalloc.start()
    try:
        exact_pi_p(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # fresh (16 x 4096) arrays per slab, gathered through uint16 indices that
    # NumPy cast to intp each time, peaked at 836,932 bytes in this test
    # (NumPy 2.4, 64-bit); the reused buffers and the uint16 subset order
    # must not take more
    assert peak <= 836_932

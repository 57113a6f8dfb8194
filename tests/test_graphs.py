import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pathpart.graphs import (EdgeListParseError, GenerationError, Graph,
                             GraphError, contains_k6, gen_circulant,
                             gen_complete_bipartite, gen_disjoint_cliques,
                             gen_random_regular, infer_degree, read_edge_list,
                             write_edge_list)

from conftest import complete_graph, simple_graphs


def test_infer_degree_k7():
    g = complete_graph(7)
    assert infer_degree(g) == 6
    assert [v for v in range(g.n) if g.degree(v) != 6] == []


def test_infer_degree_k7_minus_edge():
    k7 = complete_graph(7)
    g = Graph(7, [e for e in k7.edges if e != (0, 1)])
    assert infer_degree(g) is None
    assert [v for v in range(g.n) if g.degree(v) != 6] == [0, 1]


def test_infer_degree_empty_vacuous():
    # the empty graph is d-regular for every d; infer_degree reports 0
    g = Graph(0, [])
    assert infer_degree(g) == 0
    assert [v for v in range(g.n) if g.degree(v) != 6] == []


def test_graph_rejects_malformed():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 5)])
    with pytest.raises(GraphError, match="nonnegative"):
        Graph(-1, [])


def test_equal_graphs_hash_alike():
    assert len({Graph(3, [(0, 1), (1, 2)]), Graph(3, [(2, 1), (1, 0)])}) == 1
    assert hash(Graph(3, [(0, 1)])) == hash(read_edge_list("3 1\n1 0\n"))


@pytest.mark.parametrize("make, message", [
    (lambda: gen_disjoint_cliques(0, 2), "need d >= 1 and k >= 1"),
    (lambda: gen_disjoint_cliques(6, 0), "need d >= 1 and k >= 1"),
    (lambda: gen_circulant(6, [1, 6]), "offset 0 would create self-loops"),
], ids=["cliques-d0", "cliques-k0", "circulant-offset-n"])
def test_generators_reject_bad_parameters(make, message):
    with pytest.raises(GraphError, match=message):
        make()


def test_disjoint_cliques_counts():
    g = gen_disjoint_cliques(6, 3)
    assert (g.n, g.m) == (21, 63)
    assert gen_disjoint_cliques(6, 1) == complete_graph(7)
    g5 = gen_disjoint_cliques(5, 2)
    assert (g5.n, g5.m) == (12, 30)
    assert all(g5.degree(v) == 5 for v in range(12))


def test_disjoint_cliques_seeded_shuffle():
    assert gen_disjoint_cliques(6, 3, seed=1) == gen_disjoint_cliques(6, 3, seed=1)
    assert gen_disjoint_cliques(6, 3, seed=1) != gen_disjoint_cliques(6, 3, seed=2)


def test_random_regular_basic():
    g = gen_random_regular(20, 6, seed=1)
    assert g.m == 60
    assert all(g.degree(v) == 6 for v in range(20))


def test_random_regular_deterministic():
    assert gen_random_regular(20, 6, seed=1) == gen_random_regular(20, 6, seed=1)
    assert gen_random_regular(20, 6, seed=1) != gen_random_regular(20, 6, seed=2)


def test_random_regular_forced_k7():
    assert gen_random_regular(7, 6, seed=0) == complete_graph(7)


def test_random_regular_degree_zero_is_edgeless():
    assert gen_random_regular(5, 0, seed=3) == Graph(5, [])


def test_random_regular_infeasible():
    with pytest.raises(GraphError):
        gen_random_regular(9, 5)
    with pytest.raises(GraphError):
        gen_random_regular(5, 6)


def test_random_regular_budget_error():
    with pytest.raises(GenerationError):
        gen_random_regular(14, 6, seed=0, restarts=1)


def test_read_edge_list_triangle():
    g = read_edge_list("3 3\n0 1\n1 2\n0 2\n")
    assert g == Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_edge_list_round_trip():
    g = gen_random_regular(16, 5, seed=4)
    text = write_edge_list(g)
    assert write_edge_list(read_edge_list(text)) == text
    assert text.endswith("\n")


@given(simple_graphs(12))
def test_edge_list_round_trip_any_graph(g):
    assert read_edge_list(write_edge_list(g)) == g


@given(simple_graphs(max_n=12), st.randoms())
def test_parsed_graph_equals_the_checking_constructor(g, rnd):
    # the parser builds its Graph without a second check; its edges and
    # adjacency must still be those Graph() builds, adjacency ascending
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
    rnd.shuffle(edges)
    parsed = read_edge_list(f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    built = Graph(g.n, edges)
    assert parsed.edges == built.edges == g.edges
    assert parsed.adj == built.adj == tuple(
        tuple(sorted(w for e in g.edges if v in e for w in e if w != v)) for v in range(g.n))
    assert all(parsed.has_edge(v, u) for u, v in g.edges)


def test_read_edge_list_accepts_bytes_and_unsorted():
    g = read_edge_list(b"3 2\n2 1\n1 0\n")
    assert g.edges == ((0, 1), (1, 2))


def test_read_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list("2 1\n0 0\n")
    assert err.value.line == 2
    with pytest.raises(EdgeListParseError):
        read_edge_list("2 2\n0 1\n1 0\n")  # duplicate
    with pytest.raises(EdgeListParseError):
        read_edge_list("2 1\n0 7\n")  # out of range
    with pytest.raises(EdgeListParseError):
        read_edge_list("nope\n")
    with pytest.raises(EdgeListParseError):
        read_edge_list("3 2\n0 1\n")  # count mismatch
    with pytest.raises(EdgeListParseError, match="line 3: expected integers, got '0 x'"):
        read_edge_list("3 1\n\n0 x\n")  # the blank line counts


def test_read_edge_list_skips_blank_lines():
    assert read_edge_list("3 2\n\n0 1\n  \n1 2\n\n") == Graph(3, [(0, 1), (1, 2)])


def test_read_edge_list_rejects_non_ascii_bytes_with_their_line():
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(b"3 2\n\xff 1\n1 2\n")
    assert err.value.line == 2
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(b"3 2\r\n0 1\r\n1 \xc3\xa9\n")
    assert err.value.line == 3


@pytest.mark.parametrize("text", ["3 3\n0 \u0661\n1 2\n0 2\n",
                                  "\u0663 3\n0 1\n1 2\n0 2\n",
                                  "3 3\n0 1\n\uff11 2\n0 2\n"])
def test_read_edge_list_rejects_non_ascii_digits_in_text_as_in_bytes(text):
    # int() reads these as ASCII digits, so only the ASCII check stops them
    with pytest.raises(EdgeListParseError) as as_text:
        read_edge_list(text)
    with pytest.raises(EdgeListParseError) as as_bytes:
        read_edge_list(text.encode())
    assert str(as_text.value) == str(as_bytes.value)
    assert as_text.value.line == as_bytes.value.line == text[:text.index(
        next(c for c in text if not c.isascii()))].count("\n") + 1


def test_contains_k6_on_k6():
    assert contains_k6(complete_graph(6)) == [0, 1, 2, 3, 4, 5]


def test_contains_k6_in_clique_family():
    assert contains_k6(gen_disjoint_cliques(5, 2)) is not None


def test_contains_k6_negative(petersen):
    assert contains_k6(petersen) is None
    assert contains_k6(gen_complete_bipartite(5)) is None


def _first_k6_by_enumeration(g):
    """The lexicographically first 6-clique over all 6-subsets of the vertices."""
    return next((list(c) for c in itertools.combinations(range(g.n), 6)
                 if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))), None)


def test_contains_k6_finds_the_clique_through_the_least_vertex_it_can():
    # the K6 on 2..7 has least vertex 2, whose neighbours 0 and 1 lie outside
    # it; 0 and 1 each close a K5 with 2..5 but lie in no K6
    edges = list(itertools.combinations(range(2, 8), 2))
    edges += [(x, y) for x in (0, 1) for y in (2, 3, 4, 5)]
    g = Graph(9, edges + [(7, 8), (0, 8)])
    assert _first_k6_by_enumeration(g) == [2, 3, 4, 5, 6, 7]
    assert contains_k6(g) == [2, 3, 4, 5, 6, 7]


@settings(max_examples=200)
@given(st.data())
def test_contains_k6_returns_the_first_clique_of_an_exhaustive_enumeration(data):
    g = data.draw(simple_graphs(12), label="graph")
    if g.n >= 6 and data.draw(st.booleans(), label="plant a K6"):
        clique = data.draw(st.lists(st.integers(0, g.n - 1), min_size=6, max_size=6,
                                    unique=True), label="K6")
        g = Graph(g.n, set(g.edges) | {tuple(sorted(e))
                                       for e in itertools.combinations(clique, 2)})
    assert contains_k6(g) == _first_k6_by_enumeration(g)


def test_presets():
    c = gen_circulant(12, [1, 2, 6])
    assert infer_degree(c) == 5
    b = gen_complete_bipartite(6)
    assert infer_degree(b) == 6 and b.n == 12
    assert infer_degree(complete_graph(7)) == 6
    assert infer_degree(Graph(3, [(0, 1)])) is None

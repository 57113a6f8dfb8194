import itertools

import pytest

from pathpart.graphs import Graph, gen_disjoint_cliques, gen_random_regular
from pathpart.oracle import (OracleUnknown, exact_pi_p, max_linear_forest,
                             pi_p_via_linear_forest)
from pathpart.partition import validate_partition
from pathpart.solver import solve

from conftest import complete_graph


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
    from pathpart.partition import partition_to_json
    assert partition_to_json(a) == partition_to_json(b)

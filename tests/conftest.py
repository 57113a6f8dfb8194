from __future__ import annotations

import sys

import pytest

from pathpart.graphs import Graph

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

import itertools
import random
import sys

import pytest

from multinet.graphstate import Graph


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> Graph:
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < edge_prob
    ]
    return Graph(range(n), edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


def _clear_caches() -> None:
    """Clear every cache on ``multinet``'s modules: each attribute that has ``cache_clear``."""
    for name, module in list(sys.modules.items()):
        if name == "multinet" or name.startswith("multinet."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def clear_caches():
    """Clear every ``multinet`` cache before the test, and give the test the clearing function to call again."""
    _clear_caches()
    return _clear_caches

import numpy as np
import pytest


class _Counted:
    """f wrapped so that it counts the points it is evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.f(x)


@pytest.fixture
def count_evals():
    """count_evals(f) wraps f; the wrapper's ``points`` counts evaluations."""
    return _Counted

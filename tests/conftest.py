import numpy as np
import pytest


class _Counted:
    """f wrapped so that it counts the points it is evaluated at; a
    per-element callable (``per_element`` set) keeps its flag and is passed
    the points' indices."""

    def __init__(self, f):
        self.f, self.points = f, 0
        self.per_element = getattr(f, "per_element", False)

    def __call__(self, x, *k):
        self.points += np.size(x)
        return self.f(x, *k)


@pytest.fixture
def count_evals():
    """count_evals(f) wraps f; the wrapper's ``points`` counts evaluations."""
    return _Counted


def _overlap_pair(mass):
    """uniform(0, 2) + uniform(1, 3), each of the given mass, and the same
    density written as the three disjoint pieces (0, 1), (1, 2), (2, 3)."""
    from uhprange import RealMeasure
    overlapping = RealMeasure.uniform(0.0, 2.0, mass).combined(RealMeasure.uniform(1.0, 3.0, mass))
    thirds = [RealMeasure.uniform(l, r, m) for l, r, m in
              ((0.0, 1.0, 0.5 * mass), (1.0, 2.0, mass), (2.0, 3.0, 0.5 * mass))]
    return overlapping, RealMeasure(ac_pieces=tuple(p for mu in thirds for p in mu.ac_pieces))


@pytest.fixture
def overlap_pair():
    """overlap_pair(mass) gives (overlapping, disjoint): two density pieces
    that overlap on (1, 2), and the same density in disjoint pieces."""
    return _overlap_pair

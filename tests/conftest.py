"""Shared oracles and parameter grids.

The oracles here are deliberately independent of the library's evaluation
code paths: exact rational arithmetic for the sampling formulae and a naive
ascending-parts recursion for partition enumeration, so agreement with the
log-space implementations is meaningful evidence.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from allelic_bdi import AllelicPartition, ModelParams
from allelic_bdi.urn import _urn_step_distribution

# property tests draw the same examples on every run and keep no example
# database on disk; timing limits are left to the suite, not to hypothesis
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# (alpha, theta) points for the sampling-formula checks; all exactly
# representable as rationals so the Fraction oracle is exact
PSF_GRID = [
    (Fraction(0), Fraction(1)),
    (Fraction(1, 4), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(9, 10), Fraction(-1, 2)),
]


@st.composite
def group_sizes(draw, max_size: int = 30) -> list[int]:
    """Family sizes, in drawn order, of a population of at most max_size."""
    remaining = draw(st.integers(0, max_size))
    sizes: list[int] = []
    while remaining:
        sizes.append(draw(st.integers(1, remaining)))
        remaining -= sizes[-1]
    return sizes


def partition_of(sizes: Iterable[int]) -> AllelicPartition:
    """The partition with one group of each size listed (repeats allowed)."""
    return AllelicPartition(Counter(sizes).items())


def states_after_events(path) -> list[AllelicPartition]:
    """The state after each event of a trajectory, replayed from its initial state."""
    states, state = [], path.initial
    for _, event in path.events:
        state = state.apply_event(event)
        states.append(state)
    return states


@st.composite
def model_params(draw) -> ModelParams:
    """A point with alpha in [0, 0.999], theta in (-alpha, -alpha + 10] and mu in [0, 5]."""
    alpha = draw(st.floats(0.0, 0.999))
    theta_offset = draw(st.floats(1e-6, 10.0))
    mu = draw(st.floats(0.0, 5.0, allow_subnormal=False))
    return ModelParams(alpha, -alpha + theta_offset, mu)


REVERSIBLE_GRID = [
    ModelParams(alpha, theta, mu)
    for alpha in (0.1, 0.5, 0.9)
    for theta in (-alpha / 2.0, 0.5, 2.0)
    for mu in (1.2, 2.0, 5.0)
]


def ascending_partitions(n: int) -> Iterator[list[int]]:
    """All integer partitions of n as ascending part lists (naive recursion)."""

    def rec(remaining: int, minimum: int) -> Iterator[list[int]]:
        if remaining == 0:
            yield []
            return
        for part in range(minimum, remaining + 1):
            for rest in rec(remaining - part, part):
                yield [part] + rest

    return rec(n, 1)


def psf_fraction(n: int, alpha: Fraction, theta: Fraction, m: AllelicPartition) -> Fraction:
    """Exact rational two-parameter sampling formula.

    Written in the arrangement n! / theta_(n) * prod_{j<k} (theta + j alpha)
    * prod_i ((1-alpha)_(i-1) / i!)^{m_i} / m_i!, which needs no division by
    alpha and is therefore valid at alpha = 0 as well.
    """
    if m.size != n:
        return Fraction(0)
    value = Fraction(math.factorial(n))
    for j in range(n):
        value /= theta + j
    for j in range(m.num_groups):
        value *= theta + j * alpha
    for i, mi in m:
        part = Fraction(1)
        for j in range(1, i):
            part *= j - alpha
        value *= (part / math.factorial(i)) ** mi / math.factorial(mi)
    return value


def esf_fraction(n: int, theta: Fraction, m: AllelicPartition) -> Fraction:
    return psf_fraction(n, Fraction(0), theta, m)


def urn_marginal(n: int, params: ModelParams) -> dict[AllelicPartition, float]:
    """n-step law of the urn chain by direct dynamic programming."""
    dist = {AllelicPartition.empty(): 1.0}
    for _ in range(n):
        successor: dict[AllelicPartition, float] = {}
        for m, prob in dist.items():
            for event, p in _urn_step_distribution(m, params):
                child = m.apply_event(event)
                successor[child] = successor.get(child, 0.0) + prob * p
        dist = successor
    return dist


class AbsorbingClock:
    """Generator stand-in, drawing in blocks, whose second holding time is lost to round-off.

    Like the engines' generators it is asked for whole blocks of standard
    exponentials and uniforms; every selector is 0.5.
    """

    def standard_exponential(self, size):
        return np.array([1.0, 1e-300] + [1.0] * (size - 2))

    def random(self, size):
        return np.full(size, 0.5)

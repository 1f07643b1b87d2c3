"""Shared oracles and parameter grids.

The oracles here are deliberately independent of the library's evaluation
code paths: exact rational arithmetic for the sampling formulae, the
alpha = 0 Poisson product entry by entry, the urn's step law and its n-step
marginal, the closed-form constant of pi's Poisson-product form, and a naive
ascending-parts recursion for partition enumeration, so agreement with the
log-space implementations is meaningful evidence.  ``SignedLogValue`` is the
value type the bit-for-bit reference loops are written in.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from allelic_bdi import AllelicPartition, ModelParams, TransitionEvent
from allelic_bdi.formulae import _log_weights

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


def law_fraction(alpha: Fraction, theta: Fraction, b: Fraction, m: AllelicPartition) -> Fraction:
    """Exact rational P_b(m) / (1 - b)^theta = prod_{j<k} (theta + j alpha)
    * prod_i (w'_i b^i)^{m_i} / m_i!, with w'_i = (1-alpha)_(i-1) / i!: the chain's
    law without its normalizing factor, which is irrational in general."""
    value = Fraction(1)
    for j in range(m.num_groups):
        value *= theta + j * alpha
    for i, mi in m:
        part = Fraction(1)
        for j in range(1, i):
            part *= j - alpha
        value *= (part / math.factorial(i) * b**i) ** mi / math.factorial(mi)
    return value


def esf_fraction(n: int, theta: Fraction, m: AllelicPartition) -> Fraction:
    return psf_fraction(n, Fraction(0), theta, m)


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign in {-1, 0, +1} and log of its magnitude.

    ``sign == 0`` means the value is exactly zero and ``log_magnitude`` is
    meaningless (kept at -inf).  A nan is stored as sign -1 and log nan.
    """

    sign: int
    log_magnitude: float

    @classmethod
    def zero(cls) -> "SignedLogValue":
        return cls(0, float("-inf"))

    @classmethod
    def from_float(cls, value: float) -> "SignedLogValue":
        if value == 0.0:
            return cls.zero()
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


def reference_log_lead(theta: float, alpha: float, first: int, k: int) -> tuple[int, float]:
    """(sign, log magnitude) of prod_{first <= j < first + k} (theta + alpha j), factor by factor.

    Each factor's log is taken as log|theta + alpha j| and added in order of j;
    the library's lead rows reproduce this bit for bit.  A zero factor zeroes
    the product.
    """
    sign, log_mag = 1, 0.0
    for j in range(first, first + k):
        factor = theta + alpha * j
        if factor == 0.0:
            return 0, -math.inf
        if factor < 0.0:
            sign = -sign
        log_mag += math.log(abs(factor))
    return sign, log_mag


def reference_log_factorial(x: int) -> float:
    """log x! as log 1 + log 2 + ... + log x, added in order in a plain loop:
    the float sequence of the library's table at 1, built without it."""
    total = 0.0
    for k in range(1, x + 1):
        total += math.log(k)
    return total


def log_paper_weight(alpha: float, i: int) -> float:
    """log w_i = log alpha + log w'_i, the paper's weight read from the package's one
    weight list, ``formulae._log_weights``, as ``weight_series_gap`` reads it."""
    return math.log(alpha) + _log_weights(alpha, i)[i]


def poisson_pmf(x: int, rate: float) -> float:
    """Poisson pmf; a zero rate degenerates to a point mass at 0."""
    if rate == 0.0:
        return 1.0 if x == 0 else 0.0
    return math.exp(x * math.log(rate) - rate - math.lgamma(x + 1))


def poisson_product_prob(m: AllelicPartition, theta: float, b: float) -> float:
    """The alpha = 0 law: m_i ~ Poisson(theta * b^i / i) independently over i >= 1.

    The infinite product of the vacancy factors e^{-theta b^i / i} collapses
    to (1-b)^theta, so only stored entries contribute beyond that.  Summed in
    log space per entry, independently of the library's row evaluator.
    """
    assert theta > 0.0 and 0.0 <= b < 1.0, (theta, b)
    if b == 0.0:
        return 1.0 if m.size == 0 else 0.0
    log_p = theta * math.log1p(-b)
    log_theta, log_b = math.log(theta), math.log(b)
    for i, mi in m:
        log_p += mi * (log_theta + i * log_b - math.log(i)) - reference_log_factorial(mi)
    return math.exp(log_p)


def normalizing_constant(params: ModelParams) -> float:
    """C = exp(1 - (1 - 1/mu)^alpha) * (1 - 1/mu)^theta, pi's Poisson-product constant."""
    assert 0.0 < params.alpha < 1.0 and params.mu > 1.0, params
    base = -math.expm1(math.log1p(-1.0 / params.mu) * params.alpha)  # 1 - (1-1/mu)^alpha
    return math.exp(base) * math.exp(params.theta * math.log1p(-1.0 / params.mu))


def urn_step_distribution(
    m: AllelicPartition, params: ModelParams
) -> list[tuple[TransitionEvent, float]]:
    """Distribution of the next urn move from ``m``.

    Returned in a fixed order: the new-family event first, then growth events
    by increasing group size.  From the empty state the first move is a new
    family with probability one (for theta <= 0 the generic normalizer
    theta + s(m) would be nonpositive there, so the case is taken literally).
    """
    assert params.alpha > 0.0 or params.theta > 0.0, params
    if m.size == 0:
        return [(TransitionEvent.new_family(), 1.0)]
    denom = params.theta + m.size  # > 0: size >= 1 and theta > -alpha > -1
    out = [(TransitionEvent.new_family(), (params.theta + params.alpha * m.num_groups) / denom)]
    for i, c in m:
        out.append((TransitionEvent.growth(i), (i - params.alpha) * c / denom))
    return out


def urn_marginal(n: int, params: ModelParams) -> dict[AllelicPartition, float]:
    """n-step law of the urn chain by direct dynamic programming."""
    dist = {AllelicPartition.empty(): 1.0}
    for _ in range(n):
        successor: dict[AllelicPartition, float] = {}
        for m, prob in dist.items():
            for event, p in urn_step_distribution(m, params):
                child = m.apply_event(event)
                successor[child] = successor.get(child, 0.0) + prob * p
        dist = successor
    return dist


class AbsorbingClock:
    """Generator stand-in, drawing in blocks, whose second holding time is lost to round-off.

    Like the engines' generators it is asked for whole blocks of standard
    exponentials and uniforms, returned or written to ``out``; every
    selector is 0.5.
    """

    def standard_exponential(self, size=None, out=None):
        draws = np.array([1.0, 1e-300] + [1.0] * ((size or len(out)) - 2))
        return draws if out is None else np.copyto(out, draws)

    def random(self, size=None, out=None):
        return np.full(size, 0.5) if out is None else out.fill(0.5)

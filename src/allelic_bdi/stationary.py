"""Stationary laws of the reversible regime (mu > 1) and their verification.

The size process is reversible with respect to the negative-binomial law

    lambda(n) = theta_(n) / n! * mu^{-n} * (1 - 1/mu)^theta,

and the partition-valued chain with alpha in (0, 1) with respect to

    pi(m) = C * (theta/alpha)_(k) * prod_i Poisson(m_i; w_i * mu^{-i}),
    C = exp(1 - (1 - 1/mu)^alpha) * (1 - 1/mu)^theta,

with w_i = alpha_weight(alpha, i).  The infinite product of Poisson vacancy
factors collapses against C (the weight series sums to 1 - (1 - 1/mu)^alpha),
so pi is evaluated from the stored entries alone.  Equivalently pi is the
lambda-mixture of Pitman sampling formulae, which collapses to the single
term at n = s(m); ``mixture_consistency_scan`` checks the closed form
against that term.

For theta in (-alpha, 0) the same expressions satisfy the detailed-balance
identities algebraically but carry a sign ((theta/alpha)_(k) < 0 for k >= 1),
i.e. they form a signed measure rather than a probability distribution; the
evaluators return those signed values and the balance checks handle them,
while the probability-only helpers insist on theta > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import BoundExceededError, DomainError
from .formulae import (
    ModelParams,
    SignedLogValue,
    _ascending_prefix,
    _log_alpha_weights,
    _require_finite,
    log_alpha_weight,
    log_ascending_factorial,
    log_factorial,
    nbin_time_param,
    poisson_product_prob,
    psf,
)
from .partitions import AllelicPartition, TransitionEvent, enumerate_partitions

#: States with populations beyond this are never enumerated by the scanners.
PARTITION_BALANCE_MAX_SIZE = 14

#: exp(x) is exactly 0.0 in double precision for every x <= -_EXP_UNDERFLOW.
_EXP_UNDERFLOW = 746.0


def _require_partition_regime(params: ModelParams) -> None:
    """The partition-level law needs alpha in (0, 1) and mu > 1."""
    if params.alpha == 0.0:
        raise DomainError(
            "pi is parameterized by alpha in (0, 1); the alpha = 0 regime "
            "is covered by the Poisson-product limit"
        )
    params.require_reversible()


def _require_bound(bound: int) -> None:
    """Tables and scans enumerate partitions with 0 <= s(m) <= bound."""
    if bound < 0:
        raise DomainError("the size bound must be >= 0")
    if bound > PARTITION_BALANCE_MAX_SIZE:
        raise BoundExceededError(
            f"stationary tables and scans are capped at s <= {PARTITION_BALANCE_MAX_SIZE}"
        )


def size_stationary_pmf(n: int, theta: float, mu: float) -> float:
    """lambda(n) = theta_(n) / n! * mu^{-n} * (1 - 1/mu)^theta, mu > 1.

    A probability mass function for theta > 0; for theta <= 0 the returned
    values are the signed quantities that still satisfy detailed balance.
    """
    _require_finite(theta=theta, mu=mu)
    if not mu > 1.0:
        raise DomainError("reversible regime requires mu > 1")
    if n < 0:
        raise DomainError("the population size must be >= 0")
    asc = log_ascending_factorial(theta, n)
    if asc.sign == 0:
        return 0.0
    return asc.sign * math.exp(
        asc.log_magnitude - log_factorial(n) - n * math.log(mu) + theta * math.log1p(-1.0 / mu)
    )


def _log_pi_evaluator(params: ModelParams) -> Callable[[AllelicPartition], SignedLogValue]:
    """m -> log pi(m) as a SignedLogValue, with the per-parameter terms shared.

    The leading factor (theta/alpha)_(k) and the weights come from the
    prefix tables of ``formulae``; the per-size terms log w_i - i log mu
    are computed once per evaluator and reused across states.
    """
    alpha, theta, mu = params.alpha, params.theta, params.mu
    base = theta * math.log1p(-1.0 / mu)
    log_mu = math.log(mu)
    lead_factor = theta / alpha
    size_terms: dict[int, float] = {}

    def log_pi(m: AllelicPartition) -> SignedLogValue:
        log_p = base
        sign = 1
        k = m.num_groups
        if k:
            lead = log_ascending_factorial(lead_factor, k)
            if lead.sign == 0:
                return SignedLogValue.zero()
            sign = lead.sign
            log_p += lead.log_magnitude
        for i, mi in m:
            term = size_terms.get(i)
            if term is None:
                term = size_terms[i] = log_alpha_weight(alpha, i) - i * log_mu
            log_p += mi * term - log_factorial(mi)
        return SignedLogValue(sign, log_p)

    return log_pi


def partition_stationary_pmf(m: AllelicPartition, params: ModelParams) -> float:
    """The reversible law pi(m); requires alpha in (0, 1) and mu > 1.

    Signed for theta < 0 (see the module docstring); a genuine probability
    for theta > 0, where summing over all partitions with s(m) = n yields
    exactly lambda(n).
    """
    _require_partition_regime(params)
    return _log_pi_evaluator(params)(m).to_float()


def normalizing_constant(params: ModelParams) -> float:
    """C = exp(1 - (1 - 1/mu)^alpha) * (1 - 1/mu)^theta."""
    _require_partition_regime(params)
    base = -math.expm1(math.log1p(-1.0 / params.mu) * params.alpha)  # 1 - (1-1/mu)^alpha
    return math.exp(base) * math.exp(params.theta * math.log1p(-1.0 / params.mu))


def partition_stationary_truncated(
    params: ModelParams, bound: int
) -> dict[AllelicPartition, float]:
    """pi tabulated as ``{m: pi(m)}`` over all partitions with s(m) <= bound.

    Requires theta > 0, so the values are probabilities; the mass beyond
    the bound is not stored, and ``tv_distance`` counts it as tail.
    """
    if params.theta <= 0.0:
        raise DomainError("the truncated stationary table requires theta > 0")
    _require_bound(bound)
    return {
        m: partition_stationary_pmf(m, params)
        for n in range(bound + 1)
        for m in enumerate_partitions(n)
    }


@dataclass(frozen=True)
class BalanceScan:
    """Worst-case outcome of a detailed-balance sweep."""

    max_residual: float
    worst_state: str
    worst_transition: str
    pairs_checked: int


def size_balance_scan(
    theta: float,
    mu: float,
    n_max: int,
    pmf: Callable[[int], float] | None = None,
) -> BalanceScan:
    """Check lambda(n) * (theta + n) = lambda(n+1) * mu * (n+1) for n < n_max.

    Residuals are relative.  By default log lambda(n) is the expression of
    ``size_stationary_pmf`` on the signs and log theta_(n) of the prefix
    table's ``running``, theta in (-alpha, 0] included, and the residual is
    |expm1(((log lambda(n) + log|theta + n|) - log lambda(n+1)) - log(mu (n+1)))|,
    infinite on a sign mismatch or one-sided zero.  A replacement pmf (e.g. a
    deliberately perturbed table) is checked in plain floats.  The first worst
    pair is reported, a nan counting as worst, as with ``np.argmax``.
    """
    _require_finite(theta=theta, mu=mu)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not mu > 1.0:
        raise DomainError("reversible regime requires mu > 1")
    if pmf is None:
        signs, log_asc = _ascending_prefix(theta).running(n_max)
        log_mu, tail = math.log(mu), theta * math.log1p(-1.0 / mu)
        log_lam = [log_asc[n] - log_factorial(n) - n * log_mu + tail for n in range(n_max + 1)]
    worst, worst_n = -1.0, 0
    for n in range(n_max):
        rate = theta + n
        if pmf is not None:
            lhs, rhs = pmf(n) * rate, pmf(n + 1) * mu * (n + 1)
            if lhs == 0.0:
                residual = 0.0 if rhs == 0.0 else math.inf
            else:
                residual = abs(lhs - rhs) / abs(lhs)
        elif signs[n] * ((rate > 0.0) - (rate < 0.0)) != signs[n + 1]:
            residual = math.inf
        elif signs[n + 1] == 0:
            residual = 0.0
        else:
            delta = (log_lam[n] + math.log(abs(rate))) - log_lam[n + 1]
            residual = abs(math.expm1(delta - math.log(mu * (n + 1.0))))
        if residual > worst or (math.isnan(residual) and not math.isnan(worst)):
            worst, worst_n = residual, n
    return BalanceScan(
        max_residual=worst,
        worst_state=str(worst_n),
        worst_transition=f"{worst_n}->{worst_n + 1}",
        pairs_checked=n_max,
    )


class _UpMoveGraph(NamedTuple):
    """Every state with s(m) <= PARTITION_BALANCE_MAX_SIZE + 1 and its up moves.

    ``states`` runs by size, each size in ``enumerate_partitions`` order, and
    ``ends[n]`` counts the states with s(m) <= n, so the states up to any
    bound are a prefix.  ``moves[j]`` lists the up moves of state j (for
    s(m) <= PARTITION_BALANCE_MAX_SIZE): the new family first, then the
    growth of each group size in increasing order, each as (event, group
    size i or 0 for a new family, count the up-rate is built from, target
    index, size of the target's reversing death, the target's multiplicity
    at that size).  None of it depends on the parameters.
    """

    states: tuple[AllelicPartition, ...]
    ends: tuple[int, ...]
    moves: tuple[tuple[tuple[TransitionEvent, int, int, int, int, int], ...], ...]


@lru_cache(maxsize=None)
def _up_move_graph() -> _UpMoveGraph:
    states: list[AllelicPartition] = []
    ends = []
    for n in range(PARTITION_BALANCE_MAX_SIZE + 2):
        states.extend(enumerate_partitions(n))
        ends.append(len(states))
    index = {m: j for j, m in enumerate(states)}
    moves = []
    for m in states[: ends[PARTITION_BALANCE_MAX_SIZE]]:
        row = [(TransitionEvent.new_family(), 0, m.num_groups, 1)]
        row += [(TransitionEvent.growth(i), i, c, i + 1) for i, c in m]
        out = []
        for event, i, count, rev_index in row:
            target = m.apply_event(event)
            out.append((event, i, count, index[target], rev_index, target.multiplicity(rev_index)))
        moves.append(tuple(out))
    return _UpMoveGraph(tuple(states), tuple(ends), tuple(moves))


@lru_cache(maxsize=4)
def _log_pi_values(params: ModelParams) -> tuple[SignedLogValue, ...]:
    """log pi of every state of the up-move graph, in its order.

    Shared by the balance, mixture and mass scans at one parameter point;
    kept for the 4 most recent points only.
    """
    log_pi = _log_pi_evaluator(params)
    return tuple(log_pi(m) for m in _up_move_graph().states)


def partition_balance_scan(
    params: ModelParams,
    s_max: int,
    pmf: Callable[[AllelicPartition], float] | None = None,
) -> BalanceScan:
    """Check pi(m) q(m'|m) = pi(m') q(m|m') over every up move with s(m) <= s_max.

    Each up transition (new family, or growth of a size-i group) is paired
    with its reversing death; relative residuals are computed on signed log
    values so the theta < 0 regime is covered.  A sign mismatch or one-sided
    zero reports an infinite residual.  The new-family rate theta + alpha * k
    is used exactly as written even when nonpositive (possible only at the
    empty state with theta <= 0), because that is the expression the
    balance identity is stated with.

    The moves come from the cached up-move graph and log pi from the values
    shared with the other partition scans (or one ``pmf`` call per state),
    so each pair costs O(1): two logarithms and an expm1, with no partition
    built, sorted or hashed.  The floats are the same expressions in the
    same order as building each target state and multiplying
    SignedLogValues, so the residuals are bit-identical to doing that.
    """
    _require_partition_regime(params)
    _require_bound(s_max)
    graph = _up_move_graph()
    if pmf is None:
        values = _log_pi_values(params)
    else:
        values = [
            SignedLogValue.from_float(pmf(m)) for m in graph.states[: graph.ends[s_max + 1]]
        ]

    alpha, theta, mu = params.alpha, params.theta, params.mu
    worst = -1.0
    worst_source = -1
    worst_event = None
    pairs = 0
    for source in range(graph.ends[s_max]):
        pi_m = values[source]
        for event, i, count, target, rev_index, rev_count in graph.moves[source]:
            q_up = theta + alpha * count if i == 0 else (i - alpha) * count
            q_down = mu * rev_index * rev_count
            pi_next = values[target]
            pairs += 1
            lhs_sign = 0 if q_up == 0.0 else pi_m.sign * (1 if q_up > 0.0 else -1)
            if lhs_sign == 0 and pi_next.sign == 0:
                residual = 0.0
            elif lhs_sign != pi_next.sign:
                residual = math.inf
            else:
                lhs = pi_m.log_magnitude + math.log(abs(q_up))
                rhs = pi_next.log_magnitude + math.log(q_down)
                residual = abs(math.expm1(lhs - rhs))
            if residual > worst:
                worst = residual
                worst_source = source
                worst_event = event
    return BalanceScan(
        worst, graph.states[worst_source].encode(), str(worst_event), pairs
    )


def mixture_consistency_scan(params: ModelParams, s_max: int) -> BalanceScan:
    """Worst relative gap between pi and its mixture form over s(m) <= s_max.

    The mixture form is psf(s(m)) * lambda(s(m)) (the only surviving term of
    the size mixture); residuals are relative to the closed form, compared on
    signed values so theta < 0 is covered.  The closed form is read from the
    log pi values shared with the other partition scans.
    """
    _require_partition_regime(params)
    _require_bound(s_max)
    graph = _up_move_graph()
    values = _log_pi_values(params)
    worst = -1.0
    worst_state = ""
    checked = 0
    for n in range(s_max + 1):
        lam = size_stationary_pmf(n, params.theta, params.mu)
        start = graph.ends[n - 1] if n else 0
        for j in range(start, graph.ends[n]):
            m = graph.states[j]
            closed = values[j].to_float()
            mixed = psf(n, params, m) * lam
            checked += 1
            if closed == 0.0:
                residual = 0.0 if mixed == 0.0 else math.inf
            else:
                residual = abs(mixed - closed) / abs(closed)
            if residual > worst:
                worst = residual
                worst_state = m.encode()
    return BalanceScan(worst, worst_state, "mixture-vs-closed-form", checked)


def stationary_mass_comparison(params: ModelParams, bound: int) -> tuple[float, float]:
    """(sum of pi over s(m) <= bound, sum of lambda over n <= bound).

    The two sums agree exactly in real arithmetic because the Pitman formula
    is a probability distribution on each size slice; the observable gap is
    pure floating-point error.  Signed for theta < 0.  The pi terms are the
    log pi values shared with the other partition scans.
    """
    _require_partition_regime(params)
    _require_bound(bound)
    lambda_sum = 0.0
    for n in range(bound + 1):
        lambda_sum += size_stationary_pmf(n, params.theta, params.mu)
    pi_sum = 0.0
    for value in _log_pi_values(params)[: _up_move_graph().ends[bound]]:
        pi_sum += value.to_float()
    return pi_sum, lambda_sum


def weight_series_gap(alpha: float, mu: float, terms: int = 10_000) -> float:
    """|sum_{i<=terms} w_i mu^{-i} - (1 - (1-1/mu)^alpha)| for mu > 1.

    The series converges geometrically (ratio 1/mu), so a few hundred terms
    already put the truncation error below double precision.  Since
    w_i <= 1, every term with i * log(mu) >= 746 underflows to exactly 0.0
    (exp(x) rounds to 0.0 below about -745.1), and adding 0.0 to the
    running sum changes nothing; so only the first
    min(terms, ceil(746 / log mu)) terms are evaluated.  Their log weights
    come from one pass over the prefix table at 1 - alpha; each is
    bit-identical to ``log_alpha_weight`` and the terms are summed in the
    same order, so the gap equals the full term-by-term sum's bit for bit.
    """
    _require_finite(alpha=alpha, mu=mu)
    if not mu > 1.0:
        raise DomainError("the weight series identity requires mu > 1")
    if terms < 1:
        raise DomainError("need at least one term")
    log_mu = math.log(mu)
    last = min(terms, math.ceil(_EXP_UNDERFLOW / log_mu))
    log_weights = _log_alpha_weights(alpha, last)
    # smallest to largest so the partial sum accumulates without cancellation
    total = 0.0
    for i in range(last, 0, -1):
        total += math.exp(log_weights[i - 1] - i * log_mu)
    closed = -math.expm1(alpha * math.log1p(-1.0 / mu))
    return abs(total - closed)


def alpha0_marginal(m: AllelicPartition, theta: float, mu: float, t: float) -> float:
    """Time-t law of the alpha = 0 chain from the empty state.

    The multiplicities are independent Poissons with rates
    theta * b(t)^i / i, b(t) = nbin_time_param(mu, t); valid for every
    mu >= 0, not only the reversible regime.
    """
    return poisson_product_prob(m, theta, nbin_time_param(mu, t))


def alpha0_limit_rate(i: int, theta: float, mu: float) -> float:
    """Limiting Poisson rate of m_i for the alpha = 0 chain.

    theta / i for mu <= 1 (the transient and null cases, where the limit is
    of the scaled process) and theta * mu^{-i} / i for mu > 1.
    """
    _require_finite(theta=theta, mu=mu)
    if i < 1:
        raise DomainError("the group size must be >= 1")
    if theta <= 0.0:
        raise DomainError("the limit rates require theta > 0")
    if mu < 0.0:
        raise DomainError("mu must be >= 0")
    if mu > 1.0:
        return theta * mu ** (-i) / i
    return theta / i


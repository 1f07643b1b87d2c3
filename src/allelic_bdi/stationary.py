"""Stationary laws of the reversible regime (mu > 1) and their verification.

The size process is reversible with respect to the negative-binomial law

    lambda(n) = theta_(n) / n! * mu^{-n} * (1 - 1/mu)^theta,

and the partition-valued chain with alpha in (0, 1) with respect to pi,
the negative-multinomial law of ``formulae`` at b = 1/mu:

    pi(m) = (1 - 1/mu)^theta * (theta/alpha)_(k) * prod_i (w_i mu^{-i})^{m_i} / m_i!,

with w_i = alpha_weight(alpha, i), evaluated by ``formulae._log_law_rows``.
Equivalently pi is the lambda-mixture of Pitman sampling formulae, which
collapses to the single term at n = s(m); ``mixture_consistency_scan``
checks the closed form against that term.

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
from typing import Callable, Iterable, NamedTuple

from .errors import BoundExceededError, DomainError
from .formulae import (
    ModelParams,
    SignedLogValue,
    _ascending_prefix,
    _exp_rows,
    _log_alpha_weights,
    _log_factorials,
    _log_law_rows,
    _psf_rows,
    _require_count,
    _require_finite,
    _require_reversible,
    log_ascending_factorial,
    log_factorial,
    transient_pmf,
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
            "pi is parameterized by alpha in (0, 1); at alpha = 0 the law is the Poisson "
            "product, the alpha = 0 case of formulae's negative-multinomial form (transient_pmf)"
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
    _require_reversible(mu)
    _require_count(n, 0, "the population size must be >= 0")
    asc = log_ascending_factorial(theta, n)
    if asc.sign == 0:
        return 0.0
    return asc.sign * math.exp(
        asc.log_magnitude - log_factorial(n) - n * math.log(mu) + theta * math.log1p(-1.0 / mu)
    )


def _pi_b(mu: float) -> tuple[float, float]:
    """pi's b = 1/mu as the evaluator takes it: log b = -log mu and log(1 - b)."""
    return -math.log(mu), math.log1p(-1.0 / mu)


def _pi_rows(params: ModelParams, states: Iterable[AllelicPartition], size: int) -> list[float]:
    """pi at ``states``, each with s(m) <= size, from one ``_log_law_rows`` pass at b = 1/mu."""
    _require_partition_regime(params)
    return _exp_rows(*_log_law_rows(params, *_pi_b(params.mu), states, size))


def partition_stationary_pmf(m: AllelicPartition, params: ModelParams) -> float:
    """The reversible law pi(m); requires alpha in (0, 1) and mu > 1.

    Signed for theta < 0 (see the module docstring); a genuine probability
    for theta > 0, where summing over all partitions with s(m) = n yields
    exactly lambda(n).  Costs O(s(m)): the factors are tabulated up to s(m).
    """
    return _pi_rows(params, (m,), m.size)[0]


def partition_stationary_truncated(
    params: ModelParams, bound: int
) -> dict[AllelicPartition, float]:
    """pi tabulated as ``{m: pi(m)}`` over all partitions with s(m) <= bound.

    Requires theta > 0, so the values are probabilities (every sign is +1);
    mass beyond the bound is not stored, and ``tv_distance`` counts it as tail.
    Evaluated in one ``_pi_rows`` pass, as ``exact pi --table`` is.
    """
    if params.theta <= 0.0:
        raise DomainError("the truncated stationary table requires theta > 0")
    _require_bound(bound)
    states = [m for n in range(bound + 1) for m in enumerate_partitions(n)]
    return dict(zip(states, _pi_rows(params, states, bound)))


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
    table that it reads, theta in (-alpha, 0] included, and the residual is
    |expm1(((log lambda(n) + log|theta + n|) - log lambda(n+1)) - log(mu (n+1)))|,
    infinite on a sign mismatch or one-sided zero.  A replacement pmf (e.g. a
    deliberately perturbed table) is checked in plain floats.  The first worst
    pair is reported, a nan counting as worst, as with ``np.argmax``.
    """
    _require_finite(theta=theta, mu=mu)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    _require_reversible(mu)
    if pmf is None:
        signs, log_asc = _ascending_prefix(theta).rows(n_max)
        top = min(len(log_asc), n_max + 1)  # entries past a zero factor are zero, and not stored
        signs = signs[:top] + [0] * (n_max + 1 - top)
        log_mu, tail, log_fact = math.log(mu), theta * math.log1p(-1.0 / mu), _log_factorials(n_max)
        log_lam = [log_asc[n] - log_fact[n] - n * log_mu + tail for n in range(top)]
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
    growth of each group size in increasing order, each as (group size i or
    0 for a new family, count the up-rate is built from, target index, the
    target's multiplicity at size i + 1, where its reversing death acts).
    None of it depends on the parameters.
    """

    states: tuple[AllelicPartition, ...]
    ends: tuple[int, ...]
    moves: tuple[tuple[tuple[int, int, int, int], ...], ...]


@lru_cache(maxsize=None)
def _up_move_graph() -> _UpMoveGraph:
    """Built once per process; a scan reads each move's ends by index here and in the table."""
    states: list[AllelicPartition] = []
    ends = []
    for n in range(PARTITION_BALANCE_MAX_SIZE + 2):
        states.extend(enumerate_partitions(n))
        ends.append(len(states))
    # targets are found by their entries, built from the source's sorted (size, count) pairs
    index = {m.entries: j for j, m in enumerate(states)}
    moves = []
    for m in states[: ends[PARTITION_BALANCE_MAX_SIZE]]:
        e = m.entries
        # a new family adds a group of size 1
        ones = e[0][1] + 1 if e and e[0][0] == 1 else 1
        target = ((1, ones),) + (e[1:] if ones > 1 else e)
        out = [(0, m.num_groups, index[target], ones)]
        # growth at size i turns one group of size i into one of size i + 1
        for p, (i, c) in enumerate(e):
            grown = e[p + 1][1] + 1 if p + 1 < len(e) and e[p + 1][0] == i + 1 else 1
            shrunk = ((i, c - 1),) if c > 1 else ()
            target = e[:p] + shrunk + ((i + 1, grown),) + e[p + 1 + (grown > 1) :]
            out.append((i, c, index[target], grown))
        moves.append(tuple(out))
    return _UpMoveGraph(tuple(states), tuple(ends), tuple(moves))


@lru_cache(maxsize=4)
def _log_pi_table(params: ModelParams) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Signs and log magnitudes of pi at the graph's 684 states, in one ``_log_law_rows`` pass.

    Read by the three partition scans; kept for the 4 most recent points, as
    tuples, since every caller gets the same object."""
    states = _up_move_graph().states
    rows = _log_law_rows(params, *_pi_b(params.mu), states, PARTITION_BALANCE_MAX_SIZE + 1)
    return tuple(map(tuple, rows))


def partition_balance_scan(
    params: ModelParams,
    s_max: int,
    pmf: Callable[[AllelicPartition], float] | None = None,
) -> BalanceScan:
    """Check pi(m) q(m'|m) = pi(m') q(m|m') over every up move with s(m) <= s_max.

    Each up transition (new family, or growth of a size-i group) is paired
    with its reversing death; relative residuals are computed on signed log
    values so the theta < 0 regime is covered.  A sign mismatch or one-sided
    zero reports an infinite residual, or nan if either side is nan, and the
    first worst pair is reported, a nan counting as worst.  The new-family
    rate theta + alpha * k is used exactly as written even when nonpositive
    (possible only at the empty state with theta <= 0), because that is the
    expression the balance identity is stated with.

    The moves come from the up-move graph, signed log pi from the point's
    table (or a ``pmf`` call per state), and the rate logs from lists by
    (size, count) made once per point, so a pair costs list reads and an
    expm1.  The residual |expm1((log|pi(m)| + log|q_up|) - (log|pi(m')| +
    log q_down))| is bit-identical to multiplying SignedLogValues per move.
    """
    _require_partition_regime(params)
    _require_bound(s_max)
    graph = _up_move_graph()
    if pmf is None:
        signs, logs = _log_pi_table(params)
    else:
        values = [SignedLogValue.from_float(pmf(m)) for m in graph.states[: graph.ends[s_max + 1]]]
        signs, logs = [v.sign for v in values], [v.log_magnitude for v in values]
    # by (i, count) and (i, rev_count), all below s_max + 2; the death acts at size i + 1
    alpha, theta, mu = params.alpha, params.theta, params.mu
    top = range(s_max + 2)
    q_up = [[theta + alpha * c for c in top]] + [[(i - alpha) * c for c in top] for i in top[1:]]
    up_sign = [[(q > 0.0) - (q < 0.0) for q in row] for row in q_up]
    log_up = [[math.log(abs(q)) if q else -math.inf for q in row] for row in q_up]
    log_down = [[math.log(mu * (i + 1) * c) if c else -math.inf for c in top] for i in top]
    worst, worst_source, worst_i, pairs = -1.0, 0, 0, 0
    for source in range(graph.ends[s_max]):
        sign_m, log_m = signs[source], logs[source]
        for i, count, target, rev_count in graph.moves[source]:
            pairs += 1
            lhs_sign = sign_m * up_sign[i][count]
            sign_next = signs[target]
            if lhs_sign == 0 and sign_next == 0:
                residual = 0.0
            elif lhs_sign != sign_next:  # a nan pmf value has no sign: its residual is nan
                residual = math.inf if log_m == log_m and logs[target] == logs[target] else math.nan
            else:
                lhs = log_m + log_up[i][count]
                rhs = logs[target] + log_down[i][rev_count]
                residual = abs(math.expm1(lhs - rhs))
            # larger, or the first nan (the only float unequal to itself)
            if residual > worst or (residual != residual and worst == worst):
                worst, worst_source, worst_i = residual, source, i
    event = TransitionEvent.growth(worst_i) if worst_i else TransitionEvent.new_family()
    return BalanceScan(worst, graph.states[worst_source].encode(), str(event), pairs)


def mixture_consistency_scan(params: ModelParams, s_max: int) -> BalanceScan:
    """Worst relative gap between pi and its mixture form over s(m) <= s_max.

    The mixture form is psf(s(m)) * lambda(s(m)) (the only surviving term of
    the size mixture); residuals are relative to the closed form, compared on
    signed values so theta < 0 is covered.  Both are read by state index,
    from the point's log pi table and from ``_psf_rows`` over the same states.
    The first worst state is reported, a nan counting as worst.
    """
    _require_partition_regime(params)
    _require_bound(s_max)
    graph = _up_move_graph()
    signs, logs = _log_pi_table(params)
    psfs = _psf_rows(params, graph.states[: graph.ends[s_max]], s_max)
    worst, worst_state = -1.0, ""
    for n in range(s_max + 1):
        lam = size_stationary_pmf(n, params.theta, params.mu)
        for j in range(graph.ends[n - 1] if n else 0, graph.ends[n]):
            sign = signs[j]
            closed = sign * math.exp(logs[j]) if sign else 0.0
            mixed = psfs[j] * lam
            if closed == 0.0:
                residual = 0.0 if mixed == 0.0 else math.inf
            else:
                residual = abs(mixed - closed) / abs(closed)
            if residual > worst or (residual != residual and worst == worst):  # or the first nan
                worst, worst_state = residual, graph.states[j].encode()
    return BalanceScan(worst, worst_state, "mixture-vs-closed-form", graph.ends[s_max])


def stationary_mass_comparison(params: ModelParams, bound: int) -> tuple[float, float]:
    """(sum of pi over s(m) <= bound, sum of lambda over n <= bound).

    The two sums agree exactly in real arithmetic because the Pitman formula
    is a probability distribution on each size slice; the observable gap is
    pure floating-point error.  Signed for theta < 0.  The pi terms come
    from the point's log pi table, in its order.
    """
    _require_partition_regime(params)
    _require_bound(bound)
    lambda_sum = 0.0
    for n in range(bound + 1):
        lambda_sum += size_stationary_pmf(n, params.theta, params.mu)
    signs, logs = _log_pi_table(params)
    pi_sum = 0.0
    for j in range(_up_move_graph().ends[bound]):
        sign = signs[j]
        pi_sum += sign * math.exp(logs[j]) if sign else 0.0
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
    _require_count(terms, 1, "need at least one term")
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
    """``transient_pmf`` at alpha = 0, for every mu >= 0: from the empty state the
    multiplicities at t are independent Poissons, m_i with rate theta * b(t)^i / i."""
    return transient_pmf(m, ModelParams(0.0, theta, mu), t)


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


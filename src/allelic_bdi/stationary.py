"""Stationary laws of the reversible regime (mu > 1) and their verification.

The size process is reversible with respect to the negative-binomial law

    lambda(n) = theta_(n) / n! * mu^{-n} * (1 - 1/mu)^theta,

evaluated by ``formulae._log_size_rows`` at b = 1/mu, and the
partition-valued chain with alpha in (0, 1) with respect to pi, the
negative-multinomial law of ``formulae`` at b = 1/mu:

    pi(m) = prod_{j<k} (theta + alpha j) * prod_i (w'_i mu^{-i})^{m_i} / m_i! * (1 - 1/mu)^theta,

with w'_i = (1 - alpha)_(i-1) / i!, evaluated by ``formulae._log_law_rows`` in
that order, the lead's factors the new-family rates as written.
Equivalently pi is the lambda-mixture of Pitman sampling formulae, which
collapses to the single term at n = s(m); ``mixture_consistency_scan`` checks
the closed form against that term.  The partition scans read one graph of the
states and one table of pi per point, each built only to the largest size asked.

For theta in (-alpha, 0) the same expressions satisfy the detailed-balance
identities algebraically but carry a sign (prod_{j<k} (theta + alpha j) < 0 for k >= 1),
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
    _StateRow,
    _exp_rows,
    _log_weights,
    _log_law_rows,
    _log_size_rows,
    _psf_rows,
    _require_count,
    _require_finite,
    _require_reversible,
    _state_rows,
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
    _require_reversible(params.mu)


def _require_bound(bound: int) -> None:
    """Tables and scans enumerate partitions with 0 <= s(m) <= bound."""
    _require_count(bound, 0, "the size bound must be >= 0")
    if bound > PARTITION_BALANCE_MAX_SIZE:
        raise BoundExceededError(
            f"stationary tables and scans are capped at s <= {PARTITION_BALANCE_MAX_SIZE}"
        )


def _pi_b(mu: float) -> tuple[float, float]:
    """pi's b = 1/mu as the evaluators take it: log b = -log mu and log(1 - b)."""
    return -math.log(mu), math.log1p(-1.0 / mu)


def _lambda_rows(theta: float, mu: float, ns: range) -> list[float]:
    """lambda at each n in ``ns``, a contiguous, non-empty range, from one
    ``_log_size_rows`` pass at b = 1/mu."""
    return _exp_rows(*_log_size_rows(theta, *_pi_b(mu), ns))


def size_stationary_pmf(n: int, theta: float, mu: float) -> float:
    """lambda(n) = theta_(n) / n! * mu^{-n} * (1 - 1/mu)^theta, mu > 1.

    A probability mass function for theta > 0; for theta <= 0 the returned
    values are the signed quantities that still satisfy detailed balance.
    """
    _require_finite(theta=theta, mu=mu)
    _require_reversible(mu)
    _require_count(n, 0, "the population size must be >= 0")
    return _exp_rows(*_log_size_rows(theta, *_pi_b(mu), range(n, n + 1)))[0]


def _pi_rows(params: ModelParams, states: Iterable[AllelicPartition], size: int) -> list[float]:
    """pi at ``states``, each with s(m) <= size, from one ``_log_law_rows`` pass at b = 1/mu."""
    _require_partition_regime(params)
    return _exp_rows(*_log_law_rows(params, *_pi_b(params.mu), _state_rows(states), size))


def partition_stationary_pmf(m: AllelicPartition, params: ModelParams) -> float:
    """The reversible law pi(m); requires alpha in (0, 1) and mu > 1.

    Signed for theta < 0 (see the module docstring); a genuine probability
    for theta > 0, where summing over all partitions with s(m) = n yields
    exactly lambda(n).  Costs O(s(m)): the factors are tabulated up to s(m).
    """
    return _pi_rows(params, (m,), m.size)[0]


def partition_stationary_truncated(params: ModelParams, bound: int) -> dict[AllelicPartition, float]:
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


def _signed_logs(values: list[float]) -> tuple[list[int], list[float]]:
    """Signs and log magnitudes of a replacement pmf's values, as the scans read the laws."""
    # a nonzero value is signed +1 if positive and -1 otherwise, nan (log nan) included
    signs = [1 if v > 0.0 else -1 if v else 0 for v in values]
    return signs, [math.log(abs(v)) if v else -math.inf for v in values]


def size_balance_scan(
    theta: float,
    mu: float,
    n_max: int,
    pmf: Callable[[int], float] | None = None,
) -> BalanceScan:
    """Check lambda(n) * (theta + n) = lambda(n+1) * mu * (n+1) for n < n_max.

    Residuals are relative.  By default the signs and log lambda(n) are one
    ``_log_size_rows`` pass, the rows ``size_stationary_pmf`` reads, theta in
    (-alpha, 0] included; a replacement pmf (e.g. a deliberately perturbed
    table) is read once per n by :func:`_signed_logs`.  The residual is
    |expm1(((log lambda(n) + log|theta + n|) - log lambda(n+1)) - log(mu (n+1)))|,
    infinite on a sign mismatch or one-sided zero (nan beside a nan).  The
    first worst pair is reported, a nan counting as worst, as with ``np.argmax``.
    """
    _require_finite(theta=theta, mu=mu)
    _require_count(n_max, 1, "n_max must be >= 1")
    _require_reversible(mu)
    if pmf is None:
        signs, log_lam = _log_size_rows(theta, *_pi_b(mu), range(n_max + 1))
    else:
        signs, log_lam = _signed_logs([pmf(n) for n in range(n_max + 1)])
    worst, worst_n = -1.0, 0
    for n in range(n_max):
        rate = theta + n
        if signs[n] * ((rate > 0.0) - (rate < 0.0)) != signs[n + 1]:
            lo, hi = log_lam[n], log_lam[n + 1]
            residual = math.inf if lo == lo and hi == hi else math.nan  # a nan has no sign
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
    """States by size, their plain rows (s, k, entries) and up moves, built only up to the
    largest size asked (``reach``); none of it depends on the parameters.

    ``states`` runs by size, each size in ``enumerate_partitions`` order, and ``ends[n]``
    counts the states with s(m) <= n, so the states up to any bound are a prefix.
    ``moves[j]`` lists the up moves of state j, for each state below the top size: the
    new family first, then the growth of each group size in increasing order, each as
    (group size i or 0 for a new family, count the up-rate is built from, target index,
    the target's multiplicity at size i + 1, where its reversing death acts).
    """

    states: list[AllelicPartition]
    rows: list[_StateRow]
    ends: list[int]
    moves: list[tuple[tuple[int, int, int, int], ...]]
    index: dict[tuple[tuple[int, int], ...], int]  # state index by entries

    def reach(self, size: int) -> _UpMoveGraph:
        """Extend to every state with s(m) <= size, and the moves of those below size."""
        states, rows, ends, moves, index = self
        while len(ends) <= size:
            new = enumerate_partitions(len(ends))
            index.update((m.entries, len(states) + j) for j, m in enumerate(new))
            states += new
            rows += _state_rows(new)
            ends.append(len(states))
        # targets are found by their entries, built from the source's sorted (size, count) pairs
        for _, k, e in rows[len(moves) : ends[-2] if len(ends) > 1 else 0]:
            # a new family adds a group of size 1
            ones = e[0][1] + 1 if e and e[0][0] == 1 else 1
            target = ((1, ones),) + (e[1:] if ones > 1 else e)
            out = [(0, k, index[target], ones)]
            # growth at size i turns one group of size i into one of size i + 1
            for p, (i, c) in enumerate(e):
                grown = e[p + 1][1] + 1 if p + 1 < len(e) and e[p + 1][0] == i + 1 else 1
                shrunk = ((i, c - 1),) if c > 1 else ()
                target = e[:p] + shrunk + ((i + 1, grown),) + e[p + 1 + (grown > 1) :]
                out.append((i, c, index[target], grown))
            moves.append(tuple(out))
        return self


@lru_cache(maxsize=None)
def _up_move_graph() -> _UpMoveGraph:
    """The process's one graph, empty until a scan reaches into it; extending is not thread-safe."""
    return _UpMoveGraph([], [], [], [], {})


@lru_cache(maxsize=4)
def _law_lists(params: ModelParams) -> tuple[list[int], list[float], list[float]]:
    """The point's one law table, kept for the 4 most recent points; ``_law_table`` fills it."""
    return [], [], []


def _law_table(params: ModelParams, size: int) -> tuple[list[int], list[float], list[float]]:
    """pi's signs and log magnitudes (the balance scan's) and values (the mixture and mass
    scans') at the graph's states with s(m) <= size at least, evaluated and exponentiated
    once: a ``_log_law_rows`` pass adds only the states past those held, whose running
    factor lists give each entry the float of one pass over every state."""
    signs, logs, values = table = _law_lists(params)
    graph = _up_move_graph().reach(size)
    if len(signs) < graph.ends[size]:
        rows = graph.rows[len(signs) : graph.ends[size]]
        new_signs, new_logs = _log_law_rows(params, *_pi_b(params.mu), rows, size)
        values += _exp_rows(new_signs, new_logs)  # first, as ``len(signs)`` marks what is held
        signs += new_signs
        logs += new_logs
    return table


@lru_cache(maxsize=4)
def _psf_table(alpha: float, theta: float, s_max: int) -> tuple[float, ...]:
    """psf at the graph's states with s(m) <= s_max, shared by the mu of one (alpha, theta)."""
    graph = _up_move_graph().reach(s_max)
    return tuple(_psf_rows(ModelParams(alpha, theta), graph.rows[: graph.ends[s_max]], s_max))


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

    The moves come from the up-move graph, signed log pi from the point's law
    table (or a ``pmf`` call per state), and the rate logs from lists by (size,
    count) over the counts states with s(m) <= s_max + 1 have, so a pair costs
    list reads and an expm1: |expm1((log|pi(m)| + log|q_up|) - (log|pi(m')| +
    log q_down))|, the two sides' signs compared first.
    """
    _require_partition_regime(params)
    _require_bound(s_max)
    top = s_max + 1  # the largest size a target has
    graph = _up_move_graph().reach(top)
    if pmf is None:
        signs, logs, _ = _law_table(params, top)
    else:
        signs, logs = _signed_logs([pmf(m) for m in graph.states[: graph.ends[top]]])
    # by (i, count) and (i, rev_count), the death acting at size i + 1: a new family's
    # counts are at most top, and those at group size i at most top // i
    alpha, theta, mu = params.alpha, params.theta, params.mu
    cells = [range(top + 1)] + [range(top // i + 1) for i in range(1, top + 1)]
    q_up = [[theta + alpha * c for c in cells[0]]]
    q_up += [[(i - alpha) * c for c in row] for i, row in enumerate(cells) if i]
    up_sign = [[(q > 0.0) - (q < 0.0) for q in row] for row in q_up]
    log_up = [[math.log(abs(q)) if q else -math.inf for q in row] for row in q_up]
    log_down = [
        [math.log(mu * (i + 1) * c) if c else -math.inf for c in row] for i, row in enumerate(cells)
    ]
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
    from the point's law table and from the psf rows of its (alpha, theta)
    over the same states.  The first worst state is reported, a nan counting
    as worst.
    """
    _require_partition_regime(params)
    _require_bound(s_max)
    graph = _up_move_graph().reach(s_max)
    end = graph.ends[s_max]
    closed_rows = _law_table(params, s_max)[2]
    psfs = _psf_table(params.alpha, params.theta, s_max)
    lams = _lambda_rows(params.theta, params.mu, range(s_max + 1))
    worst, worst_state = -1.0, ""
    for n, lam in enumerate(lams):
        for j in range(graph.ends[n - 1] if n else 0, graph.ends[n]):
            closed = closed_rows[j]
            mixed = psfs[j] * lam
            if closed == 0.0:
                residual = 0.0 if mixed == 0.0 else math.inf
            else:
                residual = abs(mixed - closed) / abs(closed)
            if residual > worst or (residual != residual and worst == worst):  # or the first nan
                worst, worst_state = residual, graph.states[j].encode()
    return BalanceScan(worst, worst_state, "mixture-vs-closed-form", end)


def stationary_mass_comparison(params: ModelParams, bound: int) -> tuple[float, float]:
    """(sum of pi over s(m) <= bound, sum of lambda over n <= bound).

    The two sums agree exactly in real arithmetic because the Pitman formula
    is a probability distribution on each size slice; the observable gap is
    pure floating-point error.  Signed for theta < 0.  The lambda terms come
    from one ``_lambda_rows`` pass, the pi terms from the point's law table,
    each summed in its order.
    """
    _require_partition_regime(params)
    _require_bound(bound)
    lambda_sum = 0.0
    for lam in _lambda_rows(params.theta, params.mu, range(bound + 1)):
        lambda_sum += lam
    values = _law_table(params, bound)[2]
    pi_sum = 0.0
    for p in values[: _up_move_graph().ends[bound]]:
        pi_sum += p
    return pi_sum, lambda_sum


def weight_series_gap(alpha: float, mu: float, terms: int = 10_000) -> float:
    """|sum_{i<=terms} w_i mu^{-i} - (1 - (1-1/mu)^alpha)| for mu > 1, with the paper's
    weights w_i = alpha (1 - alpha)_(i-1) / i!: log w_i is log alpha + ``_log_weights``' entry i.

    The series converges geometrically (ratio 1/mu), so a few hundred terms
    already put the truncation error below double precision.  Since
    w_i <= 1, every term with i * log(mu) >= 746 underflows to exactly 0.0
    (exp(x) rounds to 0.0 below about -745.1), and adding 0.0 to the
    running sum changes nothing; so only the first
    min(terms, ceil(746 / log mu)) terms are evaluated, summed in the full
    sum's order, and the gap equals the full term-by-term sum's bit for bit.
    """
    _require_finite(alpha=alpha, mu=mu)
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha weights are defined for alpha in (0, 1)")
    if not mu > 1.0:
        raise DomainError("the weight series identity requires mu > 1")
    _require_count(terms, 1, "need at least one term")
    log_mu = math.log(mu)
    last = min(terms, math.ceil(_EXP_UNDERFLOW / log_mu))
    log_alpha, log_w = math.log(alpha), _log_weights(alpha, last)
    # smallest to largest so the partial sum accumulates without cancellation
    total = 0.0
    for i in range(last, 0, -1):
        total += math.exp((log_alpha + log_w[i]) - i * log_mu)
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
    _require_count(i, 1, "the group size must be >= 1")
    if theta <= 0.0:
        raise DomainError("the limit rates require theta > 0")
    if mu < 0.0:
        raise DomainError("mu must be >= 0")
    if mu > 1.0:
        return theta * mu ** (-i) / i
    return theta / i


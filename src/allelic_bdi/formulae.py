"""Exact sampling-formula evaluators and their numeric substrate.

Everything here is computed in log space.  Ascending factorials
x*(x+1)*...*(x+n-1) are the only quantities that can go negative on the
allowed parameter range (theta may sit in (-alpha, 0)), so they are returned
as a sign plus log magnitude; all downstream probabilities recombine signs
explicitly instead of exponentiating blindly.  Every factorial the laws read
(theta_(n), (1 - alpha)_(i-1), (theta + 1)_(n-1) and n! = 1_(n)) comes from
one kind of table, ``_AscendingPrefix``: log factors summed in order, kept
up to the largest n read.

The chain's law at b in [0, 1), with w'_i = (1 - alpha)_(i-1) / i! (1/i at alpha = 0):

    P_b(m) = prod_{j<k} (theta + alpha j) * prod_i (w'_i b^i)^{m_i} / m_i! * (1 - b)^theta,

k = num_groups(m), the NB(s; theta, b) mixture of Pitman formulae, as
sum_i alpha w'_i b^i = 1 - (1 - b)^alpha.  Each lead factor is a new-family
rate as written, and no alpha is divided out, so the one arrangement holds at
every alpha in [0, 1): at alpha = 0 it is the Poisson product, m_i ~
Poisson(theta b^i / i) independently (Karlin and McGregor 1967).
b = nbin_time_param(mu, t) gives the time-t law from the empty state
(``transient_pmf``), and b = 1/mu the reversible law pi of mu > 1
(``stationary``), a signed measure for theta in (-alpha, 0).  ``_log_law_rows``
is its one evaluator (``_psf_rows`` the Pitman formula's), and both read a
state as its plain row (s, k, entries).  Its size marginal NB(n; theta, b) =
theta_(n) / n! * (1 - b)^theta * b^n (``neg_bin_pmf``, and lambda at b = 1/mu)
has one evaluator too, ``_log_size_rows``, reading the tables at theta and at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import DomainError
from .partitions import AllelicPartition, _integer


def _require_finite(**values: float) -> None:
    """Refuse nan and infinite inputs; every evaluator taking raw rates calls this."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _require_count(n: int, least: int, message: str) -> None:
    """Refuse a count that is a bool or not an integer (``AllelicPartition``'s rule) or below least."""
    if _integer(n, "counts") < least:
        raise DomainError(message)


def _require_reversible(mu: float) -> None:
    """Refuse mu <= 1 (and nan): pi and lambda exist only in the reversible regime mu > 1."""
    if not mu > 1.0:
        raise DomainError("reversible regime requires mu > 1")


@dataclass(frozen=True)
class ModelParams:
    """The three parameters of the model.

    * ``alpha`` in [0, 1): within-family skew; 0 gives the one-parameter
      (Ewens/Hoppe) dynamics.
    * ``theta`` > -alpha: immigration rate (new-family pressure).
    * ``mu`` >= 0: per-individual death rate; mu > 1 is the positive-recurrent
      ("reversible") regime, mu = 0 the pure-birth construction.
    """

    alpha: float
    theta: float
    mu: float = 0.0

    def __post_init__(self):
        _require_finite(alpha=self.alpha, theta=self.theta, mu=self.mu)
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not self.theta > -self.alpha:
            raise DomainError(f"theta must exceed -alpha = {-self.alpha}, got {self.theta}")
        if not self.mu >= 0.0:
            raise DomainError(f"mu must be >= 0, got {self.mu}")


class _AscendingPrefix:
    """Sign and log magnitude of x * (x+1) * ... * (x+n-1) for every n >= 0 at one x.

    Entry n + 1 is entry n with the factor x + n folded in, so the table is
    extended one index at a time, on demand, and a caller that walks n
    pays one logarithm per new index instead of rebuilding the product.
    One rule makes every entry:

    * leading factors below 0.5 are folded in one by one, so the sign comes
      out right for negative x, and a factor that is exactly zero makes
      that entry and all later ones the zero value, which ends the table;
    * after the J folded factors, entry J + r + 1 is entry J + r plus
      log(base + r), base = x + J, the float sequence of accumulating term
      by term from scratch (absolute log error ~1e-14 near the start,
      ~2e-10 at n = 10^4, as for log n!).

    So a table keeps every entry up to the largest n read, or up to its
    zero entry, and ``weight_rows`` keeps log(x_(i-1) / i!) beside them for the
    partition law's weights at x = 1 - alpha.  Extending is not thread-safe; the
    package's workers are processes.
    """

    __slots__ = ("_x", "_signs", "_logs", "_folded", "_weights")

    def __init__(self, x: float):
        self._x = x
        self._signs = [1]
        self._logs = [0.0]
        self._folded: int | None = None  # J, once a factor x + J >= 0.5 ends the fold
        self._weights = [0.0]

    def rows(self, n: int) -> tuple[list[int], list[float]]:
        """The stored signs and log magnitudes, extended to reach entry n unless a zero ends them.

        The lists themselves, not copies: callers only read them.
        """
        x, signs, logs = self._x, self._signs, self._logs
        while self._folded is None and len(logs) <= n and signs[-1]:
            j = len(logs) - 1  # factor x + j turns entry j into entry j + 1
            factor = x + j
            if factor >= 0.5:
                self._folded = j
            elif factor == 0.0:
                signs.append(0)
                logs.append(-math.inf)
            else:
                signs.append(-signs[j] if factor < 0.0 else signs[j])
                logs.append(logs[j] + math.log(abs(factor)))
        if len(logs) <= n and signs[-1]:
            folded, log_mag = self._folded, logs[-1]
            base = x + folded
            for r in range(len(logs) - 1 - folded, n - folded):
                log_mag += math.log(base + r)
                logs.append(log_mag)
            signs.extend([signs[-1]] * (n + 1 - len(signs)))
        return signs, logs

    def weight_rows(self, n: int) -> list[float]:
        """log(x_(i-1) / i!) = log(x_(i-1) / (i-1)!) - log i for i = 1..n at least (index 0
        holds 0.0), x > 0, each entry taken once and kept.  At x = 1 every ratio is
        exactly 0, so the entry is -log i to one rounding, where log x_(i-1) - log i!
        would be ~1e-16 log i! off."""
        weights = self._weights
        if len(weights) <= n:
            logs, log_fact = self.rows(n - 1)[1], _log_factorials(n - 1)
            start = len(weights)
            weights += [(logs[i - 1] - log_fact[i - 1]) - math.log(i) for i in range(start, n + 1)]
        return weights


@lru_cache(maxsize=64)
def _ascending_prefix(x: float) -> _AscendingPrefix:
    """The prefix table at x, kept for the 64 most recently used x.

    A nan or infinite x raises before a table is built, so it is never cached.
    """
    _require_finite(x=x)
    return _AscendingPrefix(x)


def _log_factorials(n: int) -> list[float]:
    """log k! for k = 0..n at least: the log magnitudes of the prefix table at 1."""
    return _ascending_prefix(1.0).rows(n)[1]


_StateRow = tuple[int, int, tuple[tuple[int, int], ...]]  # the evaluators' input: (s, k, entries)


def _state_rows(states: Iterable[AllelicPartition]) -> list[_StateRow]:
    """The plain row (m.size, m.num_groups, m.entries) of each state."""
    return [(m.size, m.num_groups, m.entries) for m in states]


def esf(n: int, theta: float, m: AllelicPartition) -> float:
    """Ewens sampling formula, ``psf`` at alpha = 0: the law of the partition of a
    sample of size n, P(m) = n! / theta_(n) * prod_i (theta / i)^{m_i} / m_i! on
    {s(m) = n}, with theta_(n) the ascending factorial.  Requires theta > 0."""
    if theta <= 0.0:  # ModelParams refuses nan and inf
        raise DomainError("the Ewens sampling formula requires theta > 0")
    return psf(n, ModelParams(0.0, theta), m)


def _lead_rows(theta: float, alpha: float, first: int, n: int) -> tuple[list[int], list[float]]:
    """Signs and log magnitudes of prod_{first <= j < first + k} (theta + alpha j) for k = 0..n.

    Factor j is the new-family rate theta + alpha j at j groups, its log added as
    written, so no alpha is divided out and alpha = 0 (the factors are all theta)
    needs no branch.  A zero factor (theta = 0 at j = 0) zeroes that entry and all
    later ones.
    """
    signs, logs = [1], [0.0]
    for j in range(first, first + n):
        factor = theta + alpha * j
        signs.append(signs[-1] * ((factor > 0.0) - (factor < 0.0)))
        logs.append(logs[-1] + (math.log(abs(factor)) if factor else -math.inf))
    return signs, logs


def _log_weights(alpha: float, n: int) -> list[float]:
    """log w'_i = log((1 - alpha)_(i-1) / (i-1)!) - log i at index i = 1..n at least,
    kept by the prefix table at 1 - alpha (``weight_rows``); index 0 holds 0.0.  At
    alpha = 0, w'_i = 1/i, and the entry is -log i to one rounding."""
    return _ascending_prefix(1.0 - alpha).weight_rows(n)


def psf(n: int, params: ModelParams, m: AllelicPartition) -> float:
    """Pitman sampling formula, the two-parameter extension of ``esf``.

    Evaluated in the normalized form

        P(m) = n! / theta_(n) * prod_{j<k} (theta + alpha j) * prod_i w'_i^{m_i} / m_i!

    with k = num_groups(m) and w'_i = (1 - alpha)_(i-1) / i!, at every alpha in
    [0, 1); at alpha = 0 it is the Ewens formula ``esf``.  The j = 0 lead factor
    cancels theta_(n)'s first ((theta + 1)_(n-1) is left), which removes the 0/0
    at theta = 0 and keeps every remaining factor positive on the whole parameter
    range.  Its factor lists are built up to n, so a table of many states calls
    :func:`_psf_rows` instead.
    """
    _require_count(n, 0, "sample size must be >= 0")
    if m.size != n:
        return 0.0
    return _psf_rows(params, _state_rows((m,)), n)[0]


def _psf_rows(params: ModelParams, rows: Iterable[_StateRow], size: int) -> list[float]:
    """psf(s, params, m) at each plain row (s, k, entries), each with s <= size: the one evaluator.

    The factor lists are built once up to ``size`` and summed in the order
    (log n! + log prod_{1<=j<k} (theta + alpha j)) - log (theta + 1)_(n-1), the
    lead from ``_lead_rows``, then + (m_i log w'_i - log m_i!) per entry, with
    the weights of ``_log_weights``.  One path serves every alpha, 0 included.
    """
    lead = _lead_rows(params.theta, params.alpha, 1, size)[1]
    rising = _ascending_prefix(params.theta + 1.0).rows(size)[1]
    log_w = _log_weights(params.alpha, size)
    log_fact = _log_factorials(size)
    out = []
    for n, k, entries in rows:
        if not n:
            out.append(1.0)  # the empty sample
            continue
        log_p = (log_fact[n] + lead[k - 1]) - rising[n - 1]
        for i, mi in entries:
            log_p += mi * log_w[i] - log_fact[mi]
        out.append(math.exp(log_p))
    return out


def _require_weight_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha weights are defined for alpha in (0, 1)")


def log_alpha_weight(alpha: float, i: int) -> float:
    """log of alpha_weight(alpha, i); positive arguments throughout.

    log(alpha) + log w'_i, log alpha added to the entry of ``_log_weights``: O(1)
    once the weight list covers i.
    """
    _require_weight_alpha(alpha)
    _require_count(i, 1, "the weight index must be >= 1")
    return math.log(alpha) + _log_weights(alpha, i)[i]


def alpha_weight(alpha: float, i: int) -> float:
    """The size-biased weight sequence w_i = alpha * (1-alpha)_(i-1) / i!.

    w_1 = alpha, and w_{i+1} / w_i = (i - alpha) / (i + 1); the sequence sums
    to 1 over i >= 1 with a heavy i^{-(1+alpha)} tail.
    """
    return math.exp(log_alpha_weight(alpha, i))


def _require_neg_bin(theta: float, b: float, n: int) -> None:
    _require_finite(theta=theta, b=b)
    if theta <= 0.0:
        raise DomainError("the negative-binomial shape theta must be > 0")
    if not 0.0 <= b < 1.0:
        raise DomainError("the negative-binomial parameter b must lie in [0, 1)")
    _require_count(n, 0, "the count must be >= 0")


def _log_size_rows(
    theta: float, log_b: float, log1m_b: float, ns: range
) -> tuple[list[int], list[float]]:
    """Signs and log magnitudes of theta_(n) / n! * (1 - b)^theta * b^n at each n in
    ``ns``, a contiguous, non-empty range: the size law's one evaluator.

    b is passed as ``_log_law_rows`` takes it: log b (-inf at b = 0) and log(1 - b).
    Each row is ((log|theta_(n)| - log n!) + n log b) + theta log(1 - b), read from
    the prefix tables at theta and at 1, and signed as theta_(n); past a zero factor
    the rows are zero (sign 0, log -inf).  The row at n = 0 has no n log b term,
    which is nan at b = 0.
    """
    signs, logs = _ascending_prefix(theta).rows(ns[-1])
    stop = min(ns.stop, len(logs))  # a zero factor ends the table: every row past it is zero
    log_fact = _log_factorials(stop - 1)
    tail = theta * log1m_b
    rows = [((logs[n] - log_fact[n]) + log_b * n) + tail for n in range(ns.start, stop)]
    if ns.start == 0:
        rows[0] = (logs[0] - log_fact[0]) + tail
    pad = len(ns) - len(rows)
    return signs[ns.start : stop] + [0] * pad, rows + [-math.inf] * pad


def _log_b(b: float) -> tuple[float, float]:
    """b as the evaluators take it: log b (-inf at b = 0) and log(1 - b)."""
    return math.log(b) if b else -math.inf, math.log1p(-b)


def neg_bin_pmf(n: int, theta: float, b: float) -> float:
    """Negative-binomial pmf  theta_(n) / n! * (1-b)^theta * b^n  (theta > 0).

    One row of ``_log_size_rows``: O(1) once the prefix tables reach n.
    """
    _require_neg_bin(theta, b, n)
    return _exp_rows(*_log_size_rows(theta, *_log_b(b), range(n, n + 1)))[0]


def _neg_bin_pmfs(n_hi: int, theta: float, b: float) -> list[float]:
    """[neg_bin_pmf(n, theta, b) for n in 0..n_hi], bit for bit, from one row pass."""
    _require_neg_bin(theta, b, n_hi)
    return _exp_rows(*_log_size_rows(theta, *_log_b(b), range(n_hi + 1)))


def nbin_time_param(mu: float, t: float) -> float:
    """Success parameter b(t) of the negative-binomial size marginal.

    b(t) = (e^{(1-mu) t} - 1) / (e^{(1-mu) t} - mu) for mu != 1 and
    t / (1 + t) at mu = 1; the branch switches within 1e-8 of mu = 1, where
    the two expressions agree to the same order.  b(0) = 0, b is increasing
    in t, and for mu > 1 it climbs to 1/mu.
    """
    _require_finite(mu=mu, t=t)
    if mu < 0.0:
        raise DomainError("mu must be >= 0")
    if t < 0.0:
        raise DomainError("time must be >= 0")
    if t == 0.0:
        return 0.0
    if abs(mu - 1.0) < 1e-8:
        return t / (1.0 + t)
    if mu > 1.0:
        x = math.exp((1.0 - mu) * t)  # in (0, 1]
        return (1.0 - x) / (mu - x)
    x = math.exp(-(1.0 - mu) * t)  # in (0, 1]
    b = (1.0 - x) / (1.0 - mu * x)
    # keep the advertised range [0, 1) when the float quotient rounds to 1
    return min(b, math.nextafter(1.0, 0.0))


def _log_law_rows(
    params: ModelParams, log_b: float, log1m_b: float, rows: Iterable[_StateRow], size: int
) -> tuple[list[int], list[float]]:
    """Signs and log magnitudes of P_b at plain rows (s, k, entries), s <= size: the one evaluator.

    b is passed as log b (-inf at b = 0) and log(1 - b).  The factors are listed once
    up to ``size``: lead_k = log|prod_{j<k} (theta + alpha j)| (``_lead_rows``),
    t_i = log w'_i + i log b (``_log_weights``) and log m!.  Then log P_b(m) =
    ((lead_k + (m_i t_i - log m_i!)) + ... over the entries by size) + theta log(1 - b),
    signed as the lead, which is zero (sign 0, log -inf) when theta = 0 and k >= 1.
    One path serves every alpha, 0 included.
    """
    signs_by_k, lead = _lead_rows(params.theta, params.alpha, 0, size)
    log_w = _log_weights(params.alpha, size)
    terms = [0.0] + [log_w[i] + i * log_b for i in range(1, size + 1)]
    tail = params.theta * log1m_b
    log_fact = _log_factorials(size)
    signs, logs = [], []
    for _, k, entries in rows:
        log_p = lead[k]
        for i, mi in entries:
            log_p += mi * terms[i] - log_fact[mi]
        signs.append(signs_by_k[k])
        logs.append(log_p + tail)
    return signs, logs


def _exp_rows(signs: list[int], logs: list[float]) -> list[float]:
    """The signed floats of ``_log_law_rows``' or ``_log_size_rows``' signs and log magnitudes."""
    return [sign * math.exp(log_p) if sign else 0.0 for sign, log_p in zip(signs, logs)]


def _transient_rows(
    params: ModelParams, t: float, states: Iterable[AllelicPartition], size: int
) -> list[float]:
    """``transient_pmf`` at ``states``, each with s(m) <= size, from one row pass."""
    if params.theta <= 0.0:
        raise DomainError("from the empty state the chain moves only when theta > 0")
    log_b = _log_b(nbin_time_param(params.mu, t))
    return _exp_rows(*_log_law_rows(params, *log_b, _state_rows(states), size))


def transient_pmf(m: AllelicPartition, params: ModelParams, t: float) -> float:
    """Time-t law of the chain started from the empty state, for every mu >= 0.

    P_b at b = nbin_time_param(mu, t): the size is NB(s; theta, b), and given
    it the partition follows the Pitman sampling formula.  Requires theta > 0;
    with theta <= 0 the empty state never moves.
    """
    return _transient_rows(params, t, (m,), m.size)[0]

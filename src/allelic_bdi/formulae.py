"""Exact sampling-formula evaluators and their numeric substrate.

Everything here is computed in log space.  Ascending factorials
x*(x+1)*...*(x+n-1) are the only quantities that can go negative on the
allowed parameter range (theta may sit in (-alpha, 0)), so they are returned
as a sign plus log magnitude; all downstream probabilities recombine signs
explicitly instead of exponentiating blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .partitions import AllelicPartition

#: Ascending factorials with at most this many factors are accumulated term by
#: term (absolute log error ~1e-14, needed by the detailed-balance checks);
#: longer ones fall back to ``math.lgamma`` differences.
_DIRECT_PRODUCT_LIMIT = 512

_LOG_FACTORIAL = [0.0]


def _require_finite(**values: float) -> None:
    """Refuse nan and infinite inputs; every evaluator taking raw rates calls this."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


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

    def require_reversible(self) -> None:
        if not self.mu > 1.0:
            raise DomainError("reversible regime requires mu > 1")


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign in {-1, 0, +1} and log of its magnitude.

    ``sign == 0`` means the value is exactly zero and ``log_magnitude`` is
    meaningless (kept at -inf).
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


def log_factorial(n: int) -> float:
    """log(n!), cached cumulatively so repeated calls are O(1)."""
    if n < 0:
        raise DomainError("factorial argument must be >= 0")
    while len(_LOG_FACTORIAL) <= n:
        _LOG_FACTORIAL.append(_LOG_FACTORIAL[-1] + math.log(len(_LOG_FACTORIAL)))
    return _LOG_FACTORIAL[n]


class _AscendingPrefix:
    """The values ``log_ascending_factorial(x, n)`` for every n >= 0 at one x.

    Entry n + 1 is entry n with the factor x + n folded in, so the table is
    extended one index at a time, on demand, and a caller that walks n
    pays one logarithm per new index instead of rebuilding the product.
    The arithmetic is the single-value definition's, which makes every
    entry bit-identical to it:

    * non-positive leading factors (x + j < 0.5) are folded in one by one,
      so the sign comes out right for negative x, and a factor that is
      exactly zero makes this entry and all later ones the zero value;
    * after the J folded factors, entries up to J + _DIRECT_PRODUCT_LIMIT
      add log(base + r), base = x + J, to the running sum in order, which
      is the same float sequence as accumulating term by term from scratch
      (absolute log error ~1e-14, needed by the detailed-balance checks);
    * beyond that, entry n is entry J plus lgamma(base + n - J) -
      lgamma(base), both from ``math.lgamma``, computed in O(1) and not
      stored (lgamma(base) is computed once, when J is found); base >= 0.5,
      so no argument meets a pole of the gamma function.

    So at most J + _DIRECT_PRODUCT_LIMIT + 1 entries are kept, however far
    n goes.  Extending is not thread-safe; the package's workers are
    processes.
    """

    __slots__ = ("_x", "_signs", "_logs", "_folded", "_log_gamma_base")

    def __init__(self, x: float):
        self._x = x
        self._signs = [1]
        self._logs = [0.0]
        self._folded: int | None = None  # J, once a factor x + J >= 0.5 ends the fold
        self._log_gamma_base = math.nan  # lgamma(x + J), once J is known

    def _extend(self, n: int) -> None:
        """Store the entries up to n, or up to the end of the stored head."""
        x, signs, logs = self._x, self._signs, self._logs
        while len(logs) <= n and signs[-1] != 0:
            j = len(logs) - 1  # factor x + j turns entry j into entry j + 1
            sign, log_mag = signs[j], logs[j]
            if self._folded is None:
                factor = x + j
                if factor < 0.5:
                    if factor == 0.0:
                        sign, log_mag = 0, float("-inf")
                    else:
                        if factor < 0.0:
                            sign = -sign
                        log_mag += math.log(abs(factor))
                    signs.append(sign)
                    logs.append(log_mag)
                    continue
                self._folded = j
                self._log_gamma_base = math.lgamma(x + j)
            r = j - self._folded
            if r == _DIRECT_PRODUCT_LIMIT:
                return
            signs.append(sign)
            logs.append(log_mag + math.log((x + self._folded) + r))

    def _past_head(self, remaining: int) -> float:
        """Log magnitude of entry J + remaining."""
        base = self._x + self._folded
        return self._logs[self._folded] + (math.lgamma(base + remaining) - self._log_gamma_base)

    def at(self, n: int) -> SignedLogValue:
        """x * (x+1) * ... * (x+n-1) as a SignedLogValue."""
        self._extend(n)
        if n < len(self._logs):
            return SignedLogValue(self._signs[n], self._logs[n])
        if self._signs[-1] == 0:
            return SignedLogValue.zero()
        return SignedLogValue(self._signs[-1], self._past_head(n - self._folded))

    def log_magnitudes(self, n: int) -> list[float]:
        """[at(j).log_magnitude for j in 0..n], without a SignedLogValue per entry."""
        self._extend(n)
        out = self._logs[: n + 1]
        if len(out) <= n:
            if self._signs[-1] == 0:
                return out + [float("-inf")] * (n + 1 - len(out))
            out.extend(map(self._past_head, range(len(out) - self._folded, n - self._folded + 1)))
        return out

    def running(self, n: int) -> tuple[list[int], list[float]]:
        """Signs and log magnitudes of entries 0..n, the running sum kept on past the head.

        Past the head entry j + 1 is entry j plus log(x + j), unstored, where ``at``
        reads the lgamma tail, off by up to ~4e-12 between consecutive entries.
        """
        self._extend(n)
        signs, logs = self._signs[: n + 1], self._logs[: n + 1]
        for j in range(len(logs) - 1, n):  # every factor past the head is positive
            logs.append(logs[-1] + math.log(self._x + j))
        return signs + [signs[-1]] * (n + 1 - len(signs)), logs


@lru_cache(maxsize=64)
def _ascending_prefix(x: float) -> _AscendingPrefix:
    """The prefix table at x, kept for the 64 most recently used x.

    A nan or infinite x raises before a table is built, so it is never cached.
    """
    _require_finite(x=x)
    return _AscendingPrefix(x)


def log_ascending_factorial(x: float, n: int) -> SignedLogValue:
    """x * (x+1) * ... * (x+n-1) as a SignedLogValue; the empty product is 1.

    Non-positive leading factors (possible while x + j < 0.5) are folded in
    one by one, so the sign comes out right for negative ``x``; a factor that
    is exactly zero short-circuits to the zero value.  Read from the prefix
    table of ``x``: O(1) once the table reaches n, or n is past its head.
    A nan or infinite ``x`` is refused before any table is built.
    """
    if n < 0:
        raise DomainError("ascending factorial needs n >= 0")
    return _ascending_prefix(x).at(n)


def esf(n: int, theta: float, m: "AllelicPartition") -> float:
    """Ewens sampling formula: the law of the partition of a sample of size n.

    P(m) = n! / theta_(n) * prod_i (theta / i)^{m_i} / m_i!  on {s(m) = n},
    where theta_(n) is the ascending factorial.  Requires theta > 0.
    """
    _require_finite(theta=theta)
    if theta <= 0.0:
        raise DomainError("the Ewens sampling formula requires theta > 0")
    if n < 0:
        raise DomainError("sample size must be >= 0")
    if m.size != n:
        return 0.0
    if n == 0:
        return 1.0
    log_p = log_factorial(n) - log_ascending_factorial(theta, n).log_magnitude
    log_theta = math.log(theta)
    for i, mi in m:
        log_p += mi * (log_theta - math.log(i)) - log_factorial(mi)
    return math.exp(log_p)


def psf(n: int, params: ModelParams, m: "AllelicPartition") -> float:
    """Pitman sampling formula, the two-parameter extension of ``esf``.

    Evaluated in the normalized form

        P(m) = n! * (theta/alpha)_(k) / theta_(n) * prod_i w_i^{m_i} / m_i!

    with k = num_groups(m) and w_i = alpha_weight(alpha, i).  The leading
    factors of the two ascending factorials are cancelled analytically
    ((theta/alpha)_(k) / theta_(n) = (1/alpha) * (theta/alpha + 1)_(k-1)
    / (theta + 1)_(n-1)), which removes the 0/0 at theta = 0 and keeps every
    remaining factor positive on the whole parameter range.  At alpha = 0 the
    Ewens formula is used directly (same code path as ``esf``).
    """
    if params.alpha == 0.0:
        return esf(n, params.theta, m)
    if n < 0:
        raise DomainError("sample size must be >= 0")
    if m.size != n:
        return 0.0
    if n == 0:
        return 1.0
    alpha, theta = params.alpha, params.theta
    k = m.num_groups
    log_p = (
        log_factorial(n)
        - math.log(alpha)
        + log_ascending_factorial(theta / alpha + 1.0, k - 1).log_magnitude
        - log_ascending_factorial(theta + 1.0, n - 1).log_magnitude
    )
    for i, mi in m:
        log_p += mi * log_alpha_weight(alpha, i) - log_factorial(mi)
    return math.exp(log_p)


def _require_weight_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha weights are defined for alpha in (0, 1)")


def log_alpha_weight(alpha: float, i: int) -> float:
    """log of alpha_weight(alpha, i); positive arguments throughout.

    log(alpha) + log (1-alpha)_(i-1) - log(i!), with the ascending factorial
    read from the prefix table at 1 - alpha: O(1) once the table covers
    i - 1, where rebuilding the product per call cost O(min(i, 512)).  The
    table entry is bit-identical to the rebuilt product, so the weight is too.
    """
    _require_weight_alpha(alpha)
    if i < 1:
        raise DomainError("the weight index must be >= 1")
    return (
        math.log(alpha)
        + _ascending_prefix(1.0 - alpha).at(i - 1).log_magnitude
        - log_factorial(i)
    )


def _log_alpha_weights(alpha: float, n: int) -> list[float]:
    """[log_alpha_weight(alpha, i) for i in 1..n] from one pass over the table."""
    _require_weight_alpha(alpha)
    log_alpha = math.log(alpha)
    logs = _ascending_prefix(1.0 - alpha).log_magnitudes(n - 1)
    return [log_alpha + logs[i - 1] - log_factorial(i) for i in range(1, n + 1)]


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
    if n < 0:
        raise DomainError("the count must be >= 0")


def neg_bin_pmf(n: int, theta: float, b: float) -> float:
    """Negative-binomial pmf  theta_(n) / n! * (1-b)^theta * b^n  (theta > 0)."""
    _require_neg_bin(theta, b, n)
    if b == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(
        log_ascending_factorial(theta, n).log_magnitude
        - log_factorial(n)
        + theta * math.log1p(-b)
        + n * math.log(b)
    )


def _neg_bin_pmfs(n_hi: int, theta: float, b: float) -> list[float]:
    """[neg_bin_pmf(n, theta, b) for n in 0..n_hi], bit for bit, in one pass.

    Reads the prefix table of theta and the log-factorial table once, where
    the per-n call looks both up again, and keeps its association order.
    """
    _require_neg_bin(theta, b, n_hi)
    if b == 0.0:
        return [1.0] + [0.0] * n_hi
    log_rising = _ascending_prefix(theta).log_magnitudes(n_hi)
    log_factorial(n_hi)
    tail, log_b = theta * math.log1p(-b), math.log(b)
    return [
        math.exp(((log_rising[n] - _LOG_FACTORIAL[n]) + tail) + n * log_b)
        for n in range(n_hi + 1)
    ]


def poisson_pmf(x: int, rate: float) -> float:
    """Poisson pmf; a zero rate degenerates to a point mass at 0."""
    _require_finite(rate=rate)
    if rate < 0.0:
        raise DomainError("the Poisson rate must be >= 0")
    if x < 0:
        raise DomainError("the count must be >= 0")
    if rate == 0.0:
        return 1.0 if x == 0 else 0.0
    return math.exp(x * math.log(rate) - rate - log_factorial(x))


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


def transient_pmf(m: "AllelicPartition", params: ModelParams, t: float) -> float:
    """Time-t law of the chain started from the empty state.

    P(X_t = m) = NB(s; theta, b(t)) * psf(s, params, m) with s = s(m) and
    b(t) = nbin_time_param(mu, t): the size follows the negative-binomial
    marginal of the birth-death-immigration process, and given the size the
    partition follows the Pitman sampling formula.  Requires theta > 0; with
    theta <= 0 the empty state never moves.
    """
    if params.theta <= 0.0:
        raise DomainError("from the empty state the chain moves only when theta > 0")
    n = m.size
    return neg_bin_pmf(n, params.theta, nbin_time_param(params.mu, t)) * psf(n, params, m)


def poisson_product_prob(m: "AllelicPartition", theta: float, b: float) -> float:
    """Probability of ``m`` under independent Poisson multiplicities.

    m_i ~ Poisson(theta * b^i / i) independently over all i >= 1.  The
    infinite product of the vacancy factors e^{-theta b^i / i} collapses to
    (1-b)^theta, so only stored entries contribute beyond that.
    """
    _require_finite(theta=theta, b=b)
    if theta <= 0.0:
        raise DomainError("the Poisson-product law requires theta > 0")
    if not 0.0 <= b < 1.0:
        raise DomainError("b must lie in [0, 1)")
    if b == 0.0:
        return 1.0 if m.size == 0 else 0.0
    log_p = theta * math.log1p(-b)
    log_theta, log_b = math.log(theta), math.log(b)
    for i, mi in m:
        log_p += mi * (log_theta + i * log_b - math.log(i)) - log_factorial(mi)
    return math.exp(log_p)

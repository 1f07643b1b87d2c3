import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import nbinom

from allelic_bdi import (
    AllelicPartition,
    DomainError,
    ModelParams,
    SignedLogValue,
    alpha0_marginal,
    alpha_weight,
    enumerate_partitions,
    esf,
    log_alpha_weight,
    log_ascending_factorial,
    log_factorial,
    alpha0_limit_rate,
    nbin_time_param,
    neg_bin_pmf,
    psf,
    size_balance_scan,
    size_stationary_pmf,
    transient_pmf,
    weight_series_gap,
)
from allelic_bdi.formulae import (
    _AscendingPrefix,
    _ascending_prefix,
    _log_alpha_weights,
    _neg_bin_pmfs,
    _psf_rows,
    _transient_rows,
)
from conftest import (
    PSF_GRID,
    esf_fraction,
    poisson_pmf,
    poisson_product_prob,
    psf_fraction,
    reference_log_lead,
)


def test_model_params_validation():
    ModelParams(0.0, 0.5)
    ModelParams(0.5, -0.49, 3.0)
    with pytest.raises(DomainError):
        ModelParams(-0.1, 1.0)
    with pytest.raises(DomainError):
        ModelParams(1.0, 1.0)
    with pytest.raises(DomainError):
        ModelParams(0.5, -0.5)  # theta must exceed -alpha strictly
    with pytest.raises(DomainError):
        ModelParams(0.0, 0.0)
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.0, 1.0).require_reversible()
    ModelParams(0.0, 1.0, 1.5).require_reversible()
    for non_finite in ((math.nan, 1.0, 2.0), (0.5, math.inf, 2.0), (0.5, math.nan, 2.0),
                       (0.5, 1.0, math.inf), (0.5, 1.0, math.nan)):  # fmt: skip
        with pytest.raises(DomainError, match="must be finite"):
            ModelParams(*non_finite)


NAN, INF = math.nan, math.inf
ONE_PAIR = AllelicPartition.decode("2^1")
ALPHA0 = ModelParams(0.0, 1.0, 2.0)


# each of these returned nan, a finite value or inf instead of raising
NON_FINITE_CALLS = [
    (nbin_time_param, (NAN, 1.0)),
    (nbin_time_param, (2.0, NAN)),
    (nbin_time_param, (2.0, INF)),
    (size_stationary_pmf, (1, NAN, 2.0)),
    (size_stationary_pmf, (1, INF, 2.0)),
    (size_stationary_pmf, (1, 1.0, INF)),
    (size_balance_scan, (INF, 2.0, 3)),
    (size_balance_scan, (1.0, INF, 3)),
    (neg_bin_pmf, (1, INF, 0.5)),
    (esf, (2, INF, ONE_PAIR)),
    (esf, (2, NAN, ONE_PAIR)),
    (alpha0_marginal, (ONE_PAIR, INF, 2.0, 1.0)),
    (transient_pmf, (ONE_PAIR, ALPHA0, INF)),
    (transient_pmf, (ONE_PAIR, ALPHA0, NAN)),
    (size_balance_scan, (NAN, 2.0, 5)),
    (size_balance_scan, (1.0, INF, 5, lambda n: 1.0)),
    (weight_series_gap, (0.5, INF)),
    (alpha0_limit_rate, (1, 1.0, NAN)),
    (alpha0_limit_rate, (1, INF, 2.0)),
]


@pytest.mark.parametrize(
    "fn,args",
    NON_FINITE_CALLS,
    ids=[f"{fn.__name__}-{i}" for i, (fn, _) in enumerate(NON_FINITE_CALLS)],
)
def test_raw_rate_evaluators_refuse_non_finite_input(fn, args):
    with pytest.raises(DomainError, match="must be finite"):
        fn(*args)


def test_log_factorial_against_exact_integers():
    for n in (0, 1, 2, 5, 17, 60, 200):
        assert log_factorial(n) == pytest.approx(math.log(math.factorial(n)), rel=1e-13)
    assert log_factorial(100_000) == pytest.approx(math.lgamma(100_001), rel=1e-12)
    with pytest.raises(DomainError):
        log_factorial(-1)


def test_log_factorial_equals_the_cumulative_list():
    # the running sum log k! = log (k-1)! + log k, kept in a list of its own
    # before log k! became the prefix table at 1; log(1.0 + (k - 1)) == log(k)
    cumulative = [0.0]
    for k in range(1, 100_001):
        cumulative.append(cumulative[-1] + math.log(k))
    assert [log_factorial(n) for n in range(100_001)] == cumulative


# each of these raised TypeError from list indexing, or (a bool) read entry 1
NON_INTEGER_COUNT_CALLS = [
    (log_factorial, (2.5,)),
    (log_ascending_factorial, (1.5, 2.5)),
    (log_ascending_factorial, (1.5, True)),
    (neg_bin_pmf, (2.5, 1.0, 0.5)),
    (size_stationary_pmf, (2.5, 1.0, 2.0)),
    (alpha_weight, (0.5, 2.5)),
    (weight_series_gap, (0.5, 2.0, 2.5)),
]


@pytest.mark.parametrize(
    "fn,args",
    NON_INTEGER_COUNT_CALLS,
    ids=[f"{fn.__name__}-{args[-1]}" for fn, args in NON_INTEGER_COUNT_CALLS],
)
def test_counts_must_be_integers(fn, args):
    with pytest.raises(DomainError, match="counts must be integers"):
        fn(*args)


def test_log_ascending_factorial_small_exact():
    assert log_ascending_factorial(2.5, 0).sign == 1
    assert log_ascending_factorial(2.5, 0).log_magnitude == 0.0
    # 2.5 * 3.5 * 4.5 = 39.375
    v = log_ascending_factorial(2.5, 3)
    assert v.sign == 1
    assert v.log_magnitude == pytest.approx(math.log(39.375), rel=1e-14)


def test_log_ascending_factorial_negative_start():
    # (-2.5)(-1.5)(-0.5)(0.5) = -0.9375
    v = log_ascending_factorial(-2.5, 4)
    assert v.sign == -1
    assert v.log_magnitude == pytest.approx(math.log(0.9375), rel=1e-13)
    # (-3)(-2)(-1) = -6
    v = log_ascending_factorial(-3.0, 3)
    assert v.sign == -1
    assert v.log_magnitude == pytest.approx(math.log(6.0), rel=1e-14)
    # a factor hits zero exactly
    assert log_ascending_factorial(-2.0, 5).sign == 0
    assert log_ascending_factorial(0.0, 3).sign == 0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_log_ascending_factorial_refuses_non_finite_base(x):
    before = _ascending_prefix.cache_info().currsize
    with pytest.raises(DomainError, match="x must be finite"):
        log_ascending_factorial(x, 3)
    assert _ascending_prefix.cache_info().currsize == before


def test_log_ascending_factorial_long_products_match_lgamma():
    for n in (511, 512, 513, 2000):
        v = log_ascending_factorial(1.25, n)
        expected = math.lgamma(1.25 + n) - math.lgamma(1.25)
        assert v.sign == 1
        assert v.log_magnitude == pytest.approx(expected, rel=1e-12)


def reference_log_ascending_factorials(x: float, n_max: int) -> list[SignedLogValue]:
    """The products for n = 0..n_max, factor by factor in one plain loop, as
    the library once rebuilt each n (the sum for n is the first terms of the
    sum for n_max): the reference the tables must reproduce bit for bit.
    ``test_prefix_entries_agree_with_gammaln`` checks the sums against scipy."""
    out = [SignedLogValue(1, 0.0)]
    sign = 1
    log_mag = 0.0
    j = 0
    while j < n_max and x + j < 0.5:
        factor = x + j
        if factor == 0.0:
            return out + [SignedLogValue.zero()] * (n_max - j)
        if factor < 0.0:
            sign = -sign
        log_mag += math.log(abs(factor))
        out.append(SignedLogValue(sign, log_mag))
        j += 1
    base = x + j
    for r in range(n_max - j):
        log_mag += math.log(base + r)
        out.append(SignedLogValue(sign, log_mag))
    return out


def reference_log_alpha_weights(alpha: float, n: int) -> list[float]:
    """log w_i for i = 1..n, from the reference ascending factorials."""
    rising = reference_log_ascending_factorials(1.0 - alpha, n - 1)
    return [math.log(alpha) + rising[i - 1].log_magnitude - log_factorial(i) for i in range(1, n + 1)]


WEIGHT_ALPHAS = (1e-9, 0.1, 0.4999999, 0.5, 0.5000001, 0.9, 0.999)
# the three tabulated starts at every (alpha, theta) of the verify grid and
# at the weight alphas, plus negative starts, exact zero factors, and starts
# either side of the fold threshold 0.5
PREFIX_STARTS = sorted(
    {1.0 - alpha for alpha in WEIGHT_ALPHAS}
    | {
        x
        for alpha in (0.1, 0.5, 0.9)
        for theta in (-alpha / 2.0, 0.5, 2.0)
        for x in (theta / alpha, theta / alpha + 1.0)
    }
    | {-3.5, -2.0, -0.999, -1e-9, 0.0, 0.4999999, 0.5, 2.5}
)
# every n up to 600, then a sweep up to 10^4
PREFIX_NS = list(range(0, 600)) + list(range(600, 10_001, 37)) + [10_000]


def same_bits(a: SignedLogValue, b: SignedLogValue) -> bool:
    return a.sign == b.sign and (
        a.log_magnitude == b.log_magnitude
        or (math.isnan(a.log_magnitude) and math.isnan(b.log_magnitude))
    )


@pytest.mark.parametrize("x", PREFIX_STARTS)
def test_ascending_prefix_equals_reference_loop(x):
    # a fresh table read upwards, one read from the far end first, and the
    # cached table behind log_ascending_factorial must all agree bit for bit
    upward, far_first = _AscendingPrefix(x), _AscendingPrefix(x)
    far_first.at(10_000)
    signs, logs = _AscendingPrefix(x).rows(10_000)
    reference = reference_log_ascending_factorials(x, 10_000)
    for n in PREFIX_NS:
        expected = reference[n]
        for got in (upward.at(n), far_first.at(n), log_ascending_factorial(x, n)):
            assert same_bits(got, expected), (x, n, got, expected)
        if n < len(logs):  # entries past a zero factor are not stored
            assert same_bits(SignedLogValue(signs[n], logs[n]), expected), (x, n)
        else:
            assert expected.sign == 0, (x, n)


@pytest.mark.parametrize("x", PREFIX_STARTS)
def test_prefix_entries_agree_with_gammaln(x):
    # scipy's log-gamma is an implementation independent of the running sum:
    # up to n = 2 * 10^4, entry J + r is within 8.85e-15 of entry J +
    # gammaln(base + r) - gammaln(base), relative to max(1, |entry|), at
    # worst over these starts (x = 20/9); the bound 2e-14 leaves a 2x margin
    table = _AscendingPrefix(x)
    signs, logs = table.rows(20_000)
    if signs[-1] == 0:
        return  # an exact zero factor: no running entries
    folded = table._folded
    base = x + folded
    expected = logs[folded] + (gammaln(base + np.arange(20_001 - folded)) - gammaln(base))
    got = np.array(logs[folded:])
    assert len(got) == len(expected) > 0
    assert np.all(np.abs(got - expected) <= 2e-14 * np.maximum(1.0, np.abs(expected))), x


def test_ascending_prefix_stores_up_to_the_largest_n_read():
    for x in (0.25, -2.5):
        table = _AscendingPrefix(x)
        for n, stored in ((5, 6), (20_000, 20_001), (700, 20_001)):
            table.at(n)
            assert len(table._signs) == len(table._logs) == stored, (x, n)
    zero = _AscendingPrefix(-2.0)
    assert zero.at(10**7) == SignedLogValue.zero()
    assert zero.rows(10**7) == ([1, -1, 1, 0], [0.0, math.log(2.0), math.log(2.0), -math.inf])
    assert len(zero._logs) == 4  # entries 0..2, then the zero entry
    assert _ascending_prefix.cache_info().maxsize is not None


def test_nothing_is_tabulated_at_import():
    code = (
        "import allelic_bdi.cli, allelic_bdi.formulae as f, allelic_bdi.stationary as s;"
        "assert f._ascending_prefix.cache_info().currsize == 0;"
        "assert s._up_move_graph.cache_info().currsize == 0;"
        "assert s._log_pi_table.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("alpha", WEIGHT_ALPHAS)
def test_log_alpha_weight_equals_reference(alpha):
    indices = list(range(1, 1200)) + list(range(1200, 10_001, 97)) + [10_000]
    table = _log_alpha_weights(alpha, 10_000)
    reference = reference_log_alpha_weights(alpha, 10_000)
    for i in indices:
        expected = reference[i - 1]
        assert log_alpha_weight(alpha, i) == expected, (alpha, i)
        assert table[i - 1] == expected, (alpha, i)
        assert alpha_weight(alpha, i) == math.exp(expected)


def test_signed_log_value_round_trip():
    for x in (-3.25, -1e-12, 0.0, 2.5e7):
        # the log/exp round trip costs a couple of ulp
        assert SignedLogValue.from_float(x).to_float() == pytest.approx(x, rel=1e-14)


def test_esf_frozen_values():
    # theta = 1, n = 3: probabilities 1/6, 1/2, 1/3
    assert esf(3, 1.0, AllelicPartition.decode("1^3")) == pytest.approx(1 / 6, rel=1e-13)
    assert esf(3, 1.0, AllelicPartition.decode("1^1 2^1")) == pytest.approx(0.5, rel=1e-13)
    assert esf(3, 1.0, AllelicPartition.decode("3^1")) == pytest.approx(1 / 3, rel=1e-13)
    assert esf(0, 2.0, AllelicPartition.empty()) == 1.0
    assert esf(4, 1.0, AllelicPartition.decode("1^3")) == 0.0  # size mismatch
    with pytest.raises(DomainError):
        esf(3, 0.0, AllelicPartition.decode("1^3"))
    with pytest.raises(DomainError):
        esf(-1, 1.0, AllelicPartition.empty())


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
def test_esf_matches_rational_oracle(theta):
    for n in range(8):
        for m in enumerate_partitions(n):
            expected = float(esf_fraction(n, theta, m))
            assert esf(n, float(theta), m) == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_esf_normalizes():
    for theta in (0.5, 1.0, 3.0):
        for n in range(11):
            total = sum(esf(n, theta, m) for m in enumerate_partitions(n))
            assert total == pytest.approx(1.0, abs=1e-13)


def test_psf_frozen_values():
    # alpha = theta = 1/2, n = 2: P(1^2) = 2/3, P(2^1) = 1/3
    params = ModelParams(0.5, 0.5)
    assert psf(2, params, AllelicPartition.decode("1^2")) == pytest.approx(2 / 3, rel=1e-13)
    assert psf(2, params, AllelicPartition.decode("2^1")) == pytest.approx(1 / 3, rel=1e-13)
    assert psf(0, params, AllelicPartition.empty()) == 1.0
    assert psf(3, params, AllelicPartition.decode("1^2")) == 0.0


@pytest.mark.parametrize("alpha,theta", PSF_GRID)
def test_psf_matches_rational_oracle(alpha, theta):
    params = ModelParams(float(alpha), float(theta))
    for n in range(8):
        for m in enumerate_partitions(n):
            expected = float(psf_fraction(n, alpha, theta, m))
            assert psf(n, params, m) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def reference_psf(n: int, params: ModelParams, m: AllelicPartition) -> float:
    """The Pitman formula of one state, each factor rebuilt on its own, as
    ``psf`` evaluated it before it read ``_psf_rows`` (the lead, since then,
    from theta + alpha j): the reference the rows must reproduce bit for bit."""
    alpha, theta = params.alpha, params.theta
    if alpha == 0.0:
        return esf(n, theta, m)
    if m.size != n:
        return 0.0
    if n == 0:
        return 1.0
    log_p = (
        log_factorial(n)
        - math.log(alpha)
        + reference_log_lead(theta, alpha, 1, m.num_groups - 1)[1]
        - reference_log_ascending_factorials(theta + 1.0, n - 1)[-1].log_magnitude
    )
    log_w = reference_log_alpha_weights(alpha, n)
    for i, mi in m:
        log_p += mi * log_w[i - 1] - log_factorial(mi)
    return math.exp(log_p)


# theta in (-alpha, 0), at 0 and above 0, for alpha from 0 to near 1
PSF_ROW_POINTS = [ModelParams(0.0, 0.5), ModelParams(0.0, 2.0)] + [
    ModelParams(alpha, theta)
    for alpha in (1e-9, 0.5, 0.999)
    for theta in (-alpha * (1.0 - 1e-9), -alpha / 2.0, 0.0, 2.0)
]


@pytest.mark.parametrize("params", PSF_ROW_POINTS, ids=str)
def test_psf_rows_equal_the_per_state_reference(params):
    states = [m for n in range(21) for m in enumerate_partitions(n)]
    rows = _psf_rows(params, states, 20)  # one pass over every size at once
    for m, value in zip(states, rows, strict=True):
        expected = reference_psf(m.size, params, m)
        assert value == expected, m
        assert psf(m.size, params, m) == expected, m
    top = enumerate_partitions(20)
    assert _psf_rows(params, top, 20) == rows[-len(top) :]  # one size alone


def test_psf_alpha_zero_is_esf():
    params = ModelParams(0.0, 1.5)
    for n in range(7):
        for m in enumerate_partitions(n):
            assert psf(n, params, m) == esf(n, 1.5, m)


def test_psf_at_theta_zero():
    # theta = 0 is inside the domain for alpha > 0: no 0/0 artifacts
    params = ModelParams(0.5, 0.0)
    for n in range(1, 9):
        values = [psf(n, params, m) for m in enumerate_partitions(n)]
        assert all(v >= 0.0 for v in values)
        assert sum(values) == pytest.approx(1.0, abs=1e-13)


def test_psf_positive_throughout_negative_theta():
    params = ModelParams(0.9, -0.5)
    for n in range(1, 10):
        for m in enumerate_partitions(n):
            assert psf(n, params, m) > 0.0


def test_alpha_weight_base_and_recurrence():
    for alpha in (0.1, 0.5, 0.9):
        assert alpha_weight(alpha, 1) == pytest.approx(alpha, rel=1e-14)
        for i in range(1, 200):
            ratio = alpha_weight(alpha, i + 1) / alpha_weight(alpha, i)
            assert ratio == pytest.approx((i - alpha) / (i + 1), rel=1e-12)
    with pytest.raises(DomainError):
        alpha_weight(0.0, 1)
    with pytest.raises(DomainError):
        alpha_weight(0.5, 0)


def test_alpha_weight_partial_sums_have_power_law_tail():
    # the weights sum to 1 but only at rate N^(-alpha) / Gamma(1 - alpha):
    # the tail after 10^4 terms is still ~0.05 at alpha = 0.3
    n_terms = 10_000
    for alpha in (0.3, 0.5, 0.8):
        partial = sum(alpha_weight(alpha, i) for i in range(1, n_terms + 1))
        tail = 1.0 - partial
        predicted = n_terms ** (-alpha) / math.gamma(1.0 - alpha)
        assert 0.0 < tail < 1.0
        assert tail == pytest.approx(predicted, rel=0.02)


def test_alpha_weight_generating_series():
    # sum_i w_i x^i = 1 - (1-x)^alpha for |x| < 1
    for alpha in (0.25, 0.7):
        for x in (0.3, 0.8):
            total = sum(alpha_weight(alpha, i) * x**i for i in range(1, 600))
            assert total == pytest.approx(1.0 - (1.0 - x) ** alpha, abs=1e-12)


def test_neg_bin_pmf_frozen_and_moments():
    assert neg_bin_pmf(0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)
    assert neg_bin_pmf(2, 1.0, 0.5) == pytest.approx(0.125, rel=1e-13)
    assert neg_bin_pmf(0, 2.5, 0.0) == 1.0
    assert neg_bin_pmf(3, 2.5, 0.0) == 0.0
    theta, b = 1.5, 0.4
    probs = [neg_bin_pmf(n, theta, b) for n in range(400)]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    mean = sum(n * p for n, p in enumerate(probs))
    assert mean == pytest.approx(theta * b / (1.0 - b), rel=1e-12)
    with pytest.raises(DomainError):
        neg_bin_pmf(1, 0.0, 0.5)
    with pytest.raises(DomainError):
        neg_bin_pmf(1, 1.0, 1.0)
    with pytest.raises(DomainError):
        neg_bin_pmf(-1, 1.0, 0.5)


@pytest.mark.parametrize(
    "n_hi,theta,b",
    [
        (700, 3.25, 0.995),
        (900, 0.3125, 0.9),  # theta < 0.5: the leading factor is folded
        (40, 0.0625, 0.35),
        (13804, 10.0, 1.0 - math.exp(-6.5)),  # the size range of a summary at t = 6.5
        (0, 2.0, 0.5),
        (5, 2.0, 0.0),  # t = 0
    ],
)
def test_neg_bin_pmfs_bit_identical_to_neg_bin_pmf(n_hi, theta, b):
    _ascending_prefix.cache_clear()  # so the one-pass call builds the table itself
    got = _neg_bin_pmfs(n_hi, theta, b)
    want = [neg_bin_pmf(n, theta, b) for n in range(n_hi + 1)]
    assert got == want
    assert [math.copysign(1.0, p) for p in got] == [math.copysign(1.0, p) for p in want]


def test_neg_bin_pmfs_domain():
    for args in ((3, 0.0, 0.5), (3, 1.0, 1.0), (-1, 1.0, 0.5), (3, math.nan, 0.5)):
        with pytest.raises(DomainError):
            _neg_bin_pmfs(*args)


# every n through the old 512-entry seam, then a sweep up to 2 * 10^4
NB_ORACLE_NS = np.array(list(range(1_100)) + list(range(1_100, 20_000, 13)) + [20_000])


# neg_bin_pmf at b, and size_stationary_pmf at mu, the law at b = 1/mu
NB_ORACLE_LAWS = [(neg_bin_pmf, b, b) for b in (0.5, 0.9, 0.999, 1.0 - math.exp(-6.5))] + [
    (size_stationary_pmf, mu, 1.0 / mu) for mu in (1.001, 1.5, 2.0)
]


@pytest.mark.parametrize(
    "law,arg,b", NB_ORACLE_LAWS, ids=[f"{law.__name__}-{arg:.6g}" for law, arg, _ in NB_ORACLE_LAWS]
)
@pytest.mark.parametrize("theta", [0.3125, 1.0, 2.5, 10.0])
def test_negative_binomial_laws_match_scipy(theta, law, arg, b):
    # scipy's nbinom.logpmf (p = 1 - b) is an oracle independent of the prefix
    # tables.  The worst |log pmf - logpmf| over these points is 1.32e-9
    # (1.35e-9 over every n <= 2 * 10^4), at theta = 0.3125, b = 0.999 and
    # mu = 1.001 near n = 1.8 * 10^4, where the log magnitudes reach 1e5; the
    # bound 2e-9 leaves a 1.5x margin.  Values below 1e-300 (subnormal or
    # underflowed) are skipped.
    got = np.array([law(int(n), theta, arg) for n in NB_ORACLE_NS])
    kept = got > 1e-300
    assert kept[:500].all()
    want = nbinom.logpmf(NB_ORACLE_NS[kept], theta, 1.0 - b)
    assert np.all(np.abs(np.log(got[kept]) - want) <= 2e-9)


def test_alpha0_law_values():
    # theta = 2, b = 1/2 (mu = 0, t = log 2): P(1^3) = (1/2)^2 * (2 * 1/2)^3 / 3! = 1/24
    params = ModelParams(0.0, 2.0, 0.0)
    t = math.log(2.0)
    assert transient_pmf(AllelicPartition.decode("1^3"), params, t) == pytest.approx(1 / 24, rel=1e-13)
    # a zero time degenerates every rate to 0, a point mass at the empty state
    assert transient_pmf(AllelicPartition.empty(), params, 0.0) == 1.0
    assert transient_pmf(AllelicPartition.decode("1^2"), params, 0.0) == 0.0
    # b = 1 - e^-0.1 < 0.1, so the mass past s = 20 is below 1e-18
    total = sum(transient_pmf(m, params, 0.1) for n in range(21) for m in enumerate_partitions(n))
    assert total == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        alpha0_marginal(ONE_PAIR, 1.0, -1.0, 1.0)  # a negative death rate


def test_nbin_time_param_branches():
    assert nbin_time_param(2.0, 0.0) == 0.0
    assert nbin_time_param(1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    # mu > 1 branch, frozen: (1 - e^-5) / (2 - e^-5)
    assert nbin_time_param(2.0, 5.0) == pytest.approx(0.4983098190754845, rel=1e-13)
    # mu = 0 reduces to 1 - e^-t
    assert nbin_time_param(0.0, 2.0) == pytest.approx(0.8646647167633873, rel=1e-13)
    # mu < 1 branch, frozen
    assert nbin_time_param(0.5, 3.0) == pytest.approx(0.8744251519475007, rel=1e-13)
    with pytest.raises(DomainError):
        nbin_time_param(-0.1, 1.0)
    with pytest.raises(DomainError):
        nbin_time_param(2.0, -1.0)


def test_nbin_time_param_is_continuous_at_the_branch_switch():
    for t in (0.5, 1.0, 4.0):
        pegged = nbin_time_param(1.0, t)
        assert nbin_time_param(1.0 + 2e-9, t) == pytest.approx(pegged, abs=1e-8)
        assert nbin_time_param(1.0 - 2e-9, t) == pytest.approx(pegged, abs=1e-8)
        just_above = nbin_time_param(1.0 + 1e-7, t)
        just_below = nbin_time_param(1.0 - 1e-7, t)
        assert just_above == pytest.approx(pegged, abs=1e-6)
        assert just_below == pytest.approx(pegged, abs=1e-6)


def test_nbin_time_param_monotone_and_bounded():
    for mu in (0.0, 0.5, 1.0, 2.0, 7.0):
        previous = -1.0
        for t in (0.01, 0.1, 1.0, 5.0):
            b = nbin_time_param(mu, t)
            assert previous < b < 1.0
            previous = b
        # at large t the value saturates to its limit in floating point, so
        # only monotone-nondecreasing and strictly-below-one still hold
        for t in (50.0, 1000.0):
            b = nbin_time_param(mu, t)
            assert previous <= b < 1.0
            previous = b
    # mu > 1: b climbs to 1/mu
    assert nbin_time_param(2.0, 1000.0) == pytest.approx(0.5, abs=1e-12)
    assert nbin_time_param(5.0, 1000.0) == pytest.approx(0.2, abs=1e-12)


def test_alpha0_marginal_matches_naive_truncation():
    theta, mu, t = 1.3, 0.5, 1.0
    b = nbin_time_param(mu, t)
    for n in range(9):
        for m in enumerate_partitions(n):
            naive = 1.0
            for i in range(1, 500):
                naive *= poisson_pmf(m.multiplicity(i), theta * b**i / i)
            assert alpha0_marginal(m, theta, mu, t) == pytest.approx(naive, rel=1e-12)


def test_alpha0_marginal_size_slices_are_negative_binomial():
    # summing the product law over all partitions of n gives NBin(n; theta, b)
    theta, mu, t = 0.8, 2.0, 0.7
    b = nbin_time_param(mu, t)
    for n in range(11):
        total = sum(alpha0_marginal(m, theta, mu, t) for m in enumerate_partitions(n))
        assert total == pytest.approx(neg_bin_pmf(n, theta, b), rel=1e-12)


def test_alpha0_marginal_edge_cases():
    assert alpha0_marginal(AllelicPartition.empty(), 1.0, 2.0, 0.0) == 1.0
    assert alpha0_marginal(AllelicPartition.decode("1^1"), 1.0, 2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        alpha0_marginal(AllelicPartition.empty(), 0.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        alpha0_marginal(AllelicPartition.empty(), 1.0, 2.0, -1.0)


# ---------------------------------------------------------------------------
# the one law evaluator: P_b at b = nbin_time_param(mu, t), against oracles
# ---------------------------------------------------------------------------

STATES_TO_12 = [m for n in range(13) for m in enumerate_partitions(n)]


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.0, 0.8, 3.0])
def test_alpha0_rows_equal_the_poisson_product_oracle(mu, t):
    params = ModelParams(0.0, 1.5, mu)
    b = nbin_time_param(mu, t)
    expected = [poisson_product_prob(m, 1.5, b) for m in STATES_TO_12]
    assert _transient_rows(params, t, STATES_TO_12, 12) == expected
    assert [alpha0_marginal(m, 1.5, mu, t) for m in STATES_TO_12] == expected


@pytest.mark.parametrize(
    "params,t",
    [
        (ModelParams(0.7, 0.4, 0.5), 1.5),
        (ModelParams(0.2, 3.0, 1.0), 0.7),
        (ModelParams(0.5, 1.0, 1.5), 3.0),
        (ModelParams(0.9, 2.0, 0.0), 2.0),
    ],
    ids=str,
)
def test_time_t_rows_equal_the_mixture_of_pitman_formulae(params, t):
    # NB(s; theta, b) * psf(s, m): the size mixture, through its own evaluators
    nb = _neg_bin_pmfs(12, params.theta, nbin_time_param(params.mu, t))
    mixed = [nb[m.size] * p for m, p in zip(STATES_TO_12, _psf_rows(params, STATES_TO_12, 12))]
    rows = _transient_rows(params, t, STATES_TO_12, 12)
    for m, got, want in zip(STATES_TO_12, rows, mixed, strict=True):
        assert got == pytest.approx(want, rel=1e-13), m
        assert transient_pmf(m, params, t) == got, m


def test_group_count_slices_are_negative_binomial():
    # K ~ NB(theta/alpha, q) with q = 1 - (1 - b)^alpha; at b ~ 0.05 the mass
    # past s = 20 is below 1e-25, so the enumerated slices hold all of it
    params, t = ModelParams(0.6, 1.2, 2.0), 0.05
    b = nbin_time_param(params.mu, t)
    q = -math.expm1(params.alpha * math.log1p(-b))
    states = [m for n in range(21) for m in enumerate_partitions(n)]
    slices = [0.0] * 21
    for m, p in zip(states, _transient_rows(params, t, states, 20)):
        slices[m.num_groups] += p
    for k in range(8):
        assert slices[k] == pytest.approx(neg_bin_pmf(k, params.theta / params.alpha, q), rel=1e-12)
    assert sum(slices) == pytest.approx(1.0, abs=1e-14)

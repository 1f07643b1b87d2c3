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
    alpha0_marginal,
    alpha_weight,
    conditional_given_size,
    enumerate_partitions,
    esf,
    log_alpha_weight,
    alpha0_limit_rate,
    mixture_consistency_scan,
    nbin_time_param,
    neg_bin_pmf,
    partition_balance_scan,
    partition_stationary_truncated,
    psf,
    size_balance_scan,
    size_stationary_pmf,
    stationary_mass_comparison,
    transient_pmf,
    weight_series_gap,
)
from allelic_bdi.formulae import (
    _AscendingPrefix,
    _ascending_prefix,
    _log_factorials,
    _log_law_rows,
    _log_size_rows,
    _log_weights,
    _neg_bin_pmfs,
    _psf_rows,
    _state_rows,
    _transient_rows,
)
from conftest import (
    PSF_GRID,
    SignedLogValue,
    esf_fraction,
    law_fraction,
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
    for non_finite in ((math.nan, 1.0, 2.0), (0.5, math.inf, 2.0), (0.5, math.nan, 2.0),
                       (0.5, 1.0, math.inf), (0.5, 1.0, math.nan)):  # fmt: skip
        with pytest.raises(DomainError, match="must be finite"):
            ModelParams(*non_finite)


NAN, INF = math.nan, math.inf
ONE_PAIR = AllelicPartition.decode("2^1")
ALPHA0 = ModelParams(0.0, 1.0, 2.0)
REVERSIBLE = ModelParams(0.5, 1.0, 2.0)
ONE = AllelicPartition.decode("1^1")
TWO_SINGLES = AllelicPartition.decode("1^2")


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


def test_log_factorials_against_exact_integers():
    log_fact = _log_factorials(100_000)
    for n in (0, 1, 2, 5, 17, 60, 200):
        assert log_fact[n] == pytest.approx(math.log(math.factorial(n)), rel=1e-13)
    assert log_fact[100_000] == pytest.approx(math.lgamma(100_001), rel=1e-12)


def test_log_factorials_equal_the_cumulative_list():
    # the running sum log k! = log (k-1)! + log k, kept in a list of its own
    # before log k! became the prefix table at 1; log(1.0 + (k - 1)) == log(k)
    cumulative = [0.0]
    for k in range(1, 100_001):
        cumulative.append(cumulative[-1] + math.log(k))
    assert _log_factorials(100_000)[:100_001] == cumulative


# each of these raised TypeError from a comparison or list indexing, or (a
# bool) read entry 1 or checked True pairs
NON_INTEGER_COUNT_CALLS = [
    (neg_bin_pmf, (2.5, 1.0, 0.5)),
    (size_stationary_pmf, (2.5, 1.0, 2.0)),
    (alpha_weight, (0.5, 2.5)),
    (weight_series_gap, (0.5, 2.0, 2.5)),
    (size_balance_scan, (1.0, 2.0, True)),
    (size_balance_scan, (1.0, 2.0, 3.0)),
    (partition_balance_scan, (REVERSIBLE, 3.0)),
    (mixture_consistency_scan, (REVERSIBLE, 3.0)),
    (stationary_mass_comparison, (REVERSIBLE, 3.0)),
    (partition_stationary_truncated, (REVERSIBLE, 3.0)),
    (partition_stationary_truncated, (REVERSIBLE, False)),
    (psf, (2.0, ModelParams(0.5, 1.0), TWO_SINGLES)),
    (psf, (True, ModelParams(0.5, 1.0), ONE)),
    (esf, (2.0, 1.0, TWO_SINGLES)),
    (enumerate_partitions, (3.0,)),
    (alpha0_limit_rate, (1.5, 1.0, 2.0)),
    (conditional_given_size, ({TWO_SINGLES: 1.0}, 2.0)),
]


@pytest.mark.parametrize(
    "fn,args",
    NON_INTEGER_COUNT_CALLS,
    ids=[f"{fn.__name__}-{args[-1]!r}" for fn, args in NON_INTEGER_COUNT_CALLS],
)
def test_counts_must_be_integers(fn, args):
    with pytest.raises(DomainError, match="counts must be integers"):
        fn(*args)


def prefix_entry(table: _AscendingPrefix, n: int) -> SignedLogValue:
    """Entry n of a prefix table, read with ``rows(n)``; past a zero factor, which
    ends the stored entries, the zero value."""
    signs, logs = table.rows(n)
    return SignedLogValue(signs[n], logs[n]) if n < len(logs) else SignedLogValue.zero()


def test_ascending_prefix_small_exact():
    assert prefix_entry(_ascending_prefix(2.5), 0) == SignedLogValue(1, 0.0)
    # 2.5 * 3.5 * 4.5 = 39.375
    v = prefix_entry(_ascending_prefix(2.5), 3)
    assert v.sign == 1
    assert v.log_magnitude == pytest.approx(math.log(39.375), rel=1e-14)


def test_ascending_prefix_negative_start():
    # (-2.5)(-1.5)(-0.5)(0.5) = -0.9375
    v = prefix_entry(_ascending_prefix(-2.5), 4)
    assert v.sign == -1
    assert v.log_magnitude == pytest.approx(math.log(0.9375), rel=1e-13)
    # (-3)(-2)(-1) = -6
    v = prefix_entry(_ascending_prefix(-3.0), 3)
    assert v.sign == -1
    assert v.log_magnitude == pytest.approx(math.log(6.0), rel=1e-14)
    # a factor hits zero exactly: that entry is zero and ends the table
    assert _ascending_prefix(-2.0).rows(5)[0] == [1, -1, 1, 0]
    assert _ascending_prefix(0.0).rows(3) == ([1, 0], [0.0, -math.inf])
    assert prefix_entry(_ascending_prefix(-2.0), 5) == SignedLogValue.zero()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_ascending_prefix_refuses_non_finite_base(x):
    before = _ascending_prefix.cache_info().currsize
    with pytest.raises(DomainError, match="x must be finite"):
        _ascending_prefix(x)
    assert _ascending_prefix.cache_info().currsize == before


def test_ascending_prefix_long_products_match_lgamma():
    for n in (511, 512, 513, 2000):
        v = prefix_entry(_ascending_prefix(1.25), n)
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


def reference_log_weights(alpha: float, n: int) -> list[float]:
    """log w'_i = log((1 - alpha)_(i-1) / (i-1)!) - log i for i = 1..n, from the
    reference ascending factorials."""
    rising = reference_log_ascending_factorials(1.0 - alpha, n - 1)
    fact = reference_log_ascending_factorials(1.0, n - 1)
    return [
        (rising[i - 1].log_magnitude - fact[i - 1].log_magnitude) - math.log(i)
        for i in range(1, n + 1)
    ]


WEIGHT_ALPHAS = (1e-9, 0.1, 0.4999999, 0.5, 0.5000001, 0.9, 0.999)
# the starts the library tabulates: theta and theta + 1 at every (alpha, theta)
# of the verify grid, 1 - alpha at the weight alphas, and 1 for the factorials
# (theta / alpha at alpha = theta = 0.5); plus theta / alpha and
# theta / alpha + 1 on that grid, negative starts, exact zero factors, and
# starts either side of the fold threshold 0.5
PREFIX_STARTS = sorted(
    {1.0 - alpha for alpha in WEIGHT_ALPHAS}
    | {
        x
        for alpha in (0.1, 0.5, 0.9)
        for theta in (-alpha / 2.0, 0.5, 2.0)
        for x in (theta, theta + 1.0, theta / alpha, theta / alpha + 1.0)
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
    # cached table at x must all agree bit for bit
    upward, far_first = _AscendingPrefix(x), _AscendingPrefix(x)
    far_first.rows(10_000)
    signs, logs = _AscendingPrefix(x).rows(10_000)
    reference = reference_log_ascending_factorials(x, 10_000)
    fact = reference_log_ascending_factorials(1.0, 10_000)
    # the size law's rows at x: ((log|x_(n)| - log n!) + n log b) + x log(1 - b),
    # from the reference products, no n log b at n = 0, signed as x_(n), over the
    # full range and one n at a time, at b = 0 and at one b in (0, 1)
    for log_b, log1m_b in ((-math.inf, 0.0), (math.log(0.3), math.log1p(-0.3))):
        size_signs, size_logs = _log_size_rows(x, log_b, log1m_b, range(10_001))
        for n in PREFIX_NS:
            ratio = reference[n].log_magnitude - fact[n].log_magnitude
            want = ([reference[n].sign], [(ratio + log_b * n if n else ratio) + x * log1m_b])
            assert (size_signs[n : n + 1], size_logs[n : n + 1]) == want, (x, log_b, n)
            assert _log_size_rows(x, log_b, log1m_b, range(n, n + 1)) == want, (x, log_b, n)
            if x == 0.0 and n >= 1:  # past theta = 0's zero factor every row is zero
                assert (size_signs[n], size_logs[n]) == (0, -math.inf), n
    for n in PREFIX_NS:
        expected = reference[n]
        for table in (upward, far_first, _ascending_prefix(x)):
            got = prefix_entry(table, n)
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
            table.rows(n)
            assert len(table._signs) == len(table._logs) == stored, (x, n)
    zero = _AscendingPrefix(-2.0)
    assert zero.rows(10**7) == ([1, -1, 1, 0], [0.0, math.log(2.0), math.log(2.0), -math.inf])
    assert len(zero._logs) == 4  # entries 0..2, then the zero entry
    assert _ascending_prefix.cache_info().maxsize is not None


def test_nothing_is_tabulated_at_import():
    code = (
        "import allelic_bdi.cli, allelic_bdi.formulae as f, allelic_bdi.stationary as s;"
        "assert f._ascending_prefix.cache_info().currsize == 0;"
        "assert s._up_move_graph.cache_info().currsize == 0;"
        "assert s._law_lists.cache_info().currsize == 0;"
        "assert s._psf_table.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("alpha", (0.0,) + WEIGHT_ALPHAS)
def test_log_alpha_weight_equals_reference(alpha):
    # the one weight list, alpha = 0 (w'_i = 1/i) included; log_alpha_weight adds log alpha
    indices = list(range(1, 1200)) + list(range(1200, 10_001, 97)) + [10_000]
    table = _log_weights(alpha, 10_000)
    reference = reference_log_weights(alpha, 10_000)
    assert len(table) >= 10_001 and table[0] == 0.0
    for i in indices:
        assert table[i] == reference[i - 1], (alpha, i)
        if alpha:
            expected = math.log(alpha) + reference[i - 1]
            assert log_alpha_weight(alpha, i) == expected, (alpha, i)
            assert alpha_weight(alpha, i) == math.exp(expected)
        else:
            # w'_i = 1/i: every ratio of the table at 1 is exactly 0, so -log i
            assert table[i] == -math.log(i), i


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
    """The Pitman formula of one state, each factor rebuilt on its own in the
    order of ``_psf_rows``, one path at every alpha: the reference the rows
    must reproduce bit for bit."""
    alpha, theta = params.alpha, params.theta
    if m.size != n:
        return 0.0
    if n == 0:
        return 1.0
    log_fact = _log_factorials(n)
    log_p = (
        log_fact[n] + reference_log_lead(theta, alpha, 1, m.num_groups - 1)[1]
    ) - reference_log_ascending_factorials(theta + 1.0, n - 1)[-1].log_magnitude
    log_w = reference_log_weights(alpha, n)
    for i, mi in m:
        log_p += mi * log_w[i - 1] - log_fact[mi]
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
    rows = _psf_rows(params, _state_rows(states), 20)  # one pass over every size at once
    for m, value in zip(states, rows, strict=True):
        expected = reference_psf(m.size, params, m)
        assert value == expected, m
        assert psf(m.size, params, m) == expected, m
    top = enumerate_partitions(20)
    assert _psf_rows(params, _state_rows(top), 20) == rows[-len(top) :]  # one size alone


def group_count_law(alpha, theta, n_max):
    """[P(K_n = k) for k <= n] for each n <= n_max: the law of the urn's group count.

    The forward recursion p_{n+1}(k) = p_n(k) (n - alpha k) / (theta + n)
    + p_n(k - 1) (theta + alpha (k - 1)) / (theta + n) from p_0 = [1]; it
    shares no code with the library.
    """
    laws = [[1.0]]
    for n in range(n_max):
        nxt = [0.0] * (n + 2)
        for k, p in enumerate(laws[-1]):
            nxt[k] += p * (n - alpha * k) / (theta + n)  # an old group grows
            nxt[k + 1] += p * (theta + alpha * k) / (theta + n)  # a new group
        laws.append(nxt)
    return laws


# (alpha, theta): Hoppe urns, theta in (-alpha, 0), theta near 0 and alpha near 1
GROUP_COUNT_POINTS = [(0.0, 1.0), (0.0, 2.5), (0.5, 1.0), (0.5, -0.25), (0.9, -0.5),
                      (0.3, 1e-4), (0.999, 5.0)]  # fmt: skip


@pytest.mark.parametrize("alpha,theta", GROUP_COUNT_POINTS)
def test_group_count_law_is_the_psf_summed_by_group_count(alpha, theta):
    # the worst gap over these points is 9.2e-15; the bound leaves a 2x margin
    laws = group_count_law(alpha, theta, 20)
    params = ModelParams(alpha, theta)
    for n in range(21):
        states = enumerate_partitions(n)
        by_k = [0.0] * (n + 1)
        for m, value in zip(states, _psf_rows(params, _state_rows(states), n)):
            by_k[m.num_groups] += value
        assert max(abs(a - b) for a, b in zip(by_k, laws[n], strict=True)) <= 2e-14, n


@pytest.mark.parametrize("alpha,theta", GROUP_COUNT_POINTS)
def test_group_count_law_has_the_closed_mean(alpha, theta):
    # E K_n = (theta / alpha) ((theta + alpha)_(n) / (theta)_(n) - 1), and
    # sum_{j<n} theta / (theta + j) at alpha = 0; to n = 200 the worst
    # relative gap is 6.6e-15, and the bound leaves a 3x margin
    ratio, harmonic = 1.0, 0.0  # (theta + alpha)_(n) / (theta)_(n), sum_{j<n} theta / (theta + j)
    for j, law in enumerate(group_count_law(alpha, theta, 200)[1:]):  # the law of K_(j+1)
        ratio *= (theta + alpha + j) / (theta + j)
        harmonic += theta / (theta + j)
        closed = theta / alpha * (ratio - 1.0) if alpha else harmonic
        mean = sum(k * p for k, p in enumerate(law))
        assert abs(mean - closed) <= 2e-14 * closed, j + 1


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


@pytest.mark.parametrize("theta", [-3.0, -2.0, -0.5, 0.0, 0.3125, 2.5])
@pytest.mark.parametrize("b", [0.0, 0.5])
def test_size_rows_equal_their_one_row_reads(theta, b):
    # any range of rows is the single-row reads, bit for bit and signs included;
    # from the zero factor on (n >= 1 - theta at theta = 0, -2, -3) every row is zero
    log_b, log1m_b = (math.log(b) if b else -math.inf), math.log1p(-b)
    signs, logs = _log_size_rows(theta, log_b, log1m_b, range(41))
    assert not any(map(math.isnan, logs))
    for n in range(41):
        assert _log_size_rows(theta, log_b, log1m_b, range(n, n + 1)) == ([signs[n]], [logs[n]])
        if theta <= 0.0 and theta == int(theta) and n >= 1 - theta:
            assert (signs[n], logs[n]) == (0, -math.inf), n
    for ns in (range(3, 9), range(0, 5), range(2, 41)):
        expected = ([signs[n] for n in ns], [logs[n] for n in ns])
        assert _log_size_rows(theta, log_b, log1m_b, ns) == expected


def test_size_rows_past_a_zero_factor_build_no_long_table():
    # a row far past theta = 0's zero factor is read without tabulating up to it
    assert size_stationary_pmf(10**7, 0.0, 2.0) == 0.0
    assert len(_ascending_prefix(0.0)._logs) == 2
    assert len(_ascending_prefix(1.0)._logs) < 10**7


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
    # the rows add log theta once per group in the lead and theta log(1 - b) last,
    # the oracle adds them in the other order; the worst relative gap over these
    # points is 7.2e-15 (32 machine epsilons)
    assert _transient_rows(params, t, STATES_TO_12, 12) == pytest.approx(expected, rel=2e-14)
    assert [alpha0_marginal(m, 1.5, mu, t) for m in STATES_TO_12] == pytest.approx(
        expected, rel=2e-14
    )


LAW_ORACLE_POINTS = [(Fraction(0), Fraction(2))] + [
    (alpha, theta)
    for alpha in (Fraction(1, 2), Fraction(9, 10))
    for theta in (-alpha / 2, Fraction(0), Fraction(2))
]
STATES_TO_10 = [m for n in range(11) for m in enumerate_partitions(n)]


@pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(7, 8)], ids=str)
@pytest.mark.parametrize("alpha,theta", LAW_ORACLE_POINTS, ids=str)
def test_law_rows_match_rational_oracle(alpha, theta, b):
    # log(1 - b) passed as 0 drops the factor (1 - b)^theta; the oracle is exact
    # at the floats the rows read.  The worst relative error over these points
    # is 6.58e-15, at (0.9, 2, 7/8) and 1^10; the bound 2e-14 leaves a 3x margin
    params = ModelParams(float(alpha), float(theta))
    signs, logs = _log_law_rows(params, math.log(b), 0.0, _state_rows(STATES_TO_10), 10)
    for m, sign, log_p in zip(STATES_TO_10, signs, logs, strict=True):
        exact = law_fraction(Fraction(params.alpha), Fraction(params.theta), b, m)
        if not exact:
            assert sign == 0, m
            continue
        got = Fraction(sign * math.exp(log_p))
        assert abs(got - exact) <= Fraction(2e-14) * abs(exact), m


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
    psfs = _psf_rows(params, _state_rows(STATES_TO_12), 12)
    mixed = [nb[m.size] * p for m, p in zip(STATES_TO_12, psfs)]
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


def closed_b(mu, t):
    """b(t) = (e^((1 - mu) t) - 1) / (e^((1 - mu) t) - mu) for mu != 1, apart from the library."""
    x = math.exp((1.0 - mu) * t)
    return (x - 1.0) / (x - mu)


def closed_a12(alpha, mu, t):
    """(a_1, a_2): given lambda ~ Gamma(theta / alpha, 1), m_i is Poisson(lambda a_i)."""
    b = closed_b(mu, t)
    q = 1.0 - (1.0 - b) ** alpha
    return alpha * b / (1.0 - q), alpha * (1.0 - alpha) * b * b / (2.0 * (1.0 - q))


@pytest.mark.parametrize(
    "alpha,theta,mu,t,bound",
    [
        # measured relative gaps 1.2e-7 and 8.0e-7, from the NB mass past s = 14
        # (3.3e-11 and 1.5e-10): a bound of 1e-5 relative is 12x the worst
        (0.5, 1.0, 5.0, 3.0, 1e-5),
        (0.7, 0.5, 4.0, 2.0, 1e-5),
        # at alpha = 0 the multiplicities are independent: the truncated Cov
        # reads -1.2e-11, and 1e-9 absolute leaves an 80x margin
        (0.0, 1.0, 5.0, 3.0, 1e-9),
    ],
)
def test_multiplicities_stay_dependent(alpha, theta, mu, t, bound):
    # Cov(m_1, m_2) = r a_1 a_2 with r = theta / alpha, summed from
    # transient_pmf over every partition with s <= 14
    params = ModelParams(alpha, theta, mu)
    e1 = e2 = e12 = 0.0
    for n in range(15):
        for m in enumerate_partitions(n):
            p = transient_pmf(m, params, t)
            counts = m.as_dict()
            m1, m2 = counts.get(1, 0), counts.get(2, 0)
            e1, e2, e12 = e1 + m1 * p, e2 + m2 * p, e12 + m1 * m2 * p
    cov = e12 - e1 * e2
    if alpha:
        a1, a2 = closed_a12(alpha, mu, t)
        closed = theta / alpha * a1 * a2
        assert abs(cov - closed) <= bound * closed
    else:
        assert abs(cov) <= bound


def test_closed_correlation_rises_with_time():
    # Corr(m_1, m_2) = sqrt(a_1 a_2 / ((1 + a_1)(1 + a_2))) at (alpha, theta, mu) = (0.5, 1, 0.5)
    # tends to 1: every m_i rides one Gamma intensity
    corr = []
    for t in (2.0, 6.0, 10.0, 20.0, 40.0):
        a1, a2 = closed_a12(0.5, 0.5, t)
        corr.append(math.sqrt(a1 * a2 / ((1.0 + a1) * (1.0 + a2))))
    assert corr == sorted(corr)
    assert corr == pytest.approx([0.248, 0.567, 0.781, 0.977, 0.9998], abs=5e-4)

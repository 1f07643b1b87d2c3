"""Tests for the stationary laws of the reversible regime: the negative-
binomial size law, the partition-level law in its Poisson-product and mixture
forms, detailed-balance scanners, and the alpha = 0 Poisson-product limit."""

import math

import numpy as np
import pytest

from allelic_bdi import (
    AllelicPartition,
    BoundExceededError,
    DomainError,
    ModelParams,
    alpha0_limit_rate,
    alpha0_marginal,
    alpha_weight,
    conditional_given_size,
    enumerate_partitions,
    log_ascending_factorial,
    mixture_consistency_scan,
    nbin_time_param,
    neg_bin_pmf,
    normalizing_constant,
    partition_balance_scan,
    partition_stationary_pmf,
    partition_stationary_truncated,
    poisson_pmf,
    poisson_product_prob,
    psf,
    size_balance_scan,
    size_stationary_log_range,
    size_stationary_pmf,
    stationary_mass_comparison,
    weight_series_gap,
)

from conftest import REVERSIBLE_GRID

POSITIVE_GRID = [p for p in REVERSIBLE_GRID if p.theta > 0.0]
SIGNED_GRID = [p for p in REVERSIBLE_GRID if p.theta < 0.0]


def decode(text):
    return AllelicPartition.decode(text)


# ---------------------------------------------------------------------------
# size process stationary law
# ---------------------------------------------------------------------------


class TestSizeStationaryPmf:
    def test_frozen_values(self):
        # lambda(n) = theta_(n)/n! * mu^-n * (1 - 1/mu)^theta
        assert size_stationary_pmf(0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-15)
        assert size_stationary_pmf(3, 1.0, 2.0) == pytest.approx(1 / 16, rel=1e-14)
        assert size_stationary_pmf(2, 2.0, 2.0) == pytest.approx(3 / 16, rel=1e-14)

    def test_signed_value_for_negative_theta(self):
        # theta_(1) = theta < 0 makes the n = 1 weight negative
        value = size_stationary_pmf(1, -0.25, 2.0)
        assert value == pytest.approx(-0.14865088937534013, rel=1e-13)

    def test_zero_theta_gives_point_mass_at_zero(self):
        assert size_stationary_pmf(0, 0.0, 2.0) == pytest.approx(1.0)
        assert size_stationary_pmf(5, 0.0, 2.0) == 0.0

    def test_matches_negative_binomial(self):
        for params in POSITIVE_GRID:
            for n in range(12):
                lam = size_stationary_pmf(n, params.theta, params.mu)
                nb = neg_bin_pmf(n, params.theta, 1.0 / params.mu)
                assert lam == pytest.approx(nb, rel=1e-12)

    @pytest.mark.parametrize("theta,mu", [(1.0, 2.0), (2.5, 1.2), (0.5, 5.0)])
    def test_normalization(self, theta, mu):
        total = sum(size_stationary_pmf(n, theta, mu) for n in range(501))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            size_stationary_pmf(3, 1.0, 1.0)
        with pytest.raises(DomainError):
            size_stationary_pmf(-1, 1.0, 2.0)


class TestSizeStationaryLogRange:
    def test_matches_pointwise_pmf(self):
        table = size_stationary_log_range(1.5, 3.0, 60)
        assert table.shape == (61,)
        for n in range(61):
            assert math.exp(table[n]) == pytest.approx(
                size_stationary_pmf(n, 1.5, 3.0), rel=1e-12
            )

    def test_single_entry(self):
        table = size_stationary_log_range(2.0, 2.0, 0)
        assert table.shape == (1,)
        assert table[0] == pytest.approx(2.0 * math.log(0.5), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            size_stationary_log_range(1.0, 1.0, 5)
        with pytest.raises(DomainError):
            size_stationary_log_range(-0.25, 2.0, 5)
        with pytest.raises(DomainError):
            size_stationary_log_range(1.0, 2.0, -1)


# ---------------------------------------------------------------------------
# partition-level stationary law
# ---------------------------------------------------------------------------


class TestPartitionStationaryPmf:
    def test_frozen_values(self):
        params = ModelParams(0.5, 1.0, 2.0)
        assert partition_stationary_pmf(AllelicPartition.empty(), params) == pytest.approx(
            0.5, rel=1e-14
        )
        assert partition_stationary_pmf(decode("1^1"), params) == pytest.approx(0.25, rel=1e-14)
        assert partition_stationary_pmf(decode("1^2"), params) == pytest.approx(
            0.09375, rel=1e-13
        )
        assert partition_stationary_pmf(decode("2^1"), params) == pytest.approx(
            0.03125, rel=1e-13
        )

    def test_signed_value_for_negative_theta(self):
        params = ModelParams(0.5, -0.25, 2.0)
        # the single size-1 partition carries the whole (negative) slice weight
        assert partition_stationary_pmf(decode("1^1"), params) == pytest.approx(
            -0.14865088937534013, rel=1e-13
        )
        assert partition_stationary_pmf(AllelicPartition.empty(), params) > 0.0

    @pytest.mark.parametrize("params", REVERSIBLE_GRID, ids=str)
    def test_size_slices_sum_to_size_law(self, params):
        for n in range(9):
            slice_sum = sum(
                partition_stationary_pmf(m, params) for m in enumerate_partitions(n)
            )
            lam = size_stationary_pmf(n, params.theta, params.mu)
            assert slice_sum == pytest.approx(lam, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("params", POSITIVE_GRID, ids=str)
    def test_matches_poisson_product_form(self, params):
        # independent reconstruction: C * (theta/alpha)_(k) * the literal
        # product of Poisson factors, vacancies included out to i = 500
        c = normalizing_constant(params)
        log_mu = math.log(params.mu)
        for n in range(7):
            for m in enumerate_partitions(n):
                lead = log_ascending_factorial(
                    params.theta / params.alpha, m.num_groups
                ).to_float()
                prod = 1.0
                for i in range(1, 501):
                    rate = alpha_weight(params.alpha, i) * math.exp(-i * log_mu)
                    prod *= poisson_pmf(m.multiplicity(i), rate)
                expected = c * lead * prod
                actual = partition_stationary_pmf(m, params)
                assert actual == pytest.approx(expected, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            partition_stationary_pmf(decode("1^1"), ModelParams(0.0, 1.0, 2.0))
        with pytest.raises(DomainError):
            partition_stationary_pmf(decode("1^1"), ModelParams(0.5, 1.0, 1.0))


class TestNormalizingConstant:
    def test_frozen_value(self):
        assert normalizing_constant(ModelParams(0.5, 1.0, 2.0)) == pytest.approx(
            0.6701498320008805, rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            normalizing_constant(ModelParams(0.0, 1.0, 2.0))
        with pytest.raises(DomainError):
            normalizing_constant(ModelParams(0.5, 1.0, 0.5))


class TestMixtureForm:
    @pytest.mark.parametrize("params", REVERSIBLE_GRID, ids=str)
    def test_mixture_equals_closed_form(self, params):
        assert mixture_consistency_scan(params, 7).max_residual <= 1e-10

    def test_scan_is_tiny_on_exact_law(self):
        for params in REVERSIBLE_GRID[::5]:
            scan = mixture_consistency_scan(params, 8)
            assert scan.max_residual < 1e-12
            assert scan.worst_transition == "mixture-vs-closed-form"
            assert scan.pairs_checked == 67  # partitions of 0..8

    def test_scan_domain(self):
        with pytest.raises(DomainError):
            mixture_consistency_scan(ModelParams(0.0, 1.0, 2.0), 5)
        with pytest.raises(DomainError):
            mixture_consistency_scan(ModelParams(0.5, 1.0, 1.0), 5)
        with pytest.raises(BoundExceededError):
            mixture_consistency_scan(ModelParams(0.5, 1.0, 2.0), 15)
        with pytest.raises(DomainError):
            mixture_consistency_scan(ModelParams(0.5, 1.0, 2.0), -1)


class TestTruncatedTable:
    def test_table_contents(self):
        params = ModelParams(0.5, 1.0, 2.0)
        table = partition_stationary_truncated(params, 8)
        assert len(table) == 67
        assert 0.9 < sum(table.values()) < 1.0
        assert table[AllelicPartition.empty()] == pytest.approx(0.5, rel=1e-14)
        for m, p in table.items():
            assert p == pytest.approx(partition_stationary_pmf(m, params), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            partition_stationary_truncated(ModelParams(0.5, -0.25, 2.0), 6)
        with pytest.raises(BoundExceededError):
            partition_stationary_truncated(ModelParams(0.5, 1.0, 2.0), 15)
        with pytest.raises(DomainError):
            partition_stationary_truncated(ModelParams(0.5, 1.0, 2.0), -1)


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------


class TestSizeBalance:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("mu", [1.5, 2.0, 5.0])
    def test_exact_law_balances(self, theta, mu):
        scan = size_balance_scan(theta, mu, 200)
        assert scan.max_residual < 1e-12
        assert scan.pairs_checked == 200
        assert "->" in scan.worst_transition

    def test_perturbed_law_is_detected(self):
        theta, mu = 1.0, 2.0

        def warped(n):
            lam = size_stationary_pmf(n, theta, mu)
            return lam * 1.01 if n == 3 else lam

        residual = size_balance_scan(theta, mu, 10, warped).max_residual
        assert residual > 0.005

    def test_one_sided_zero_is_infinite(self):
        theta, mu = 1.0, 2.0

        def gapped(n):
            return 0.0 if n == 5 else size_stationary_pmf(n, theta, mu)

        assert size_balance_scan(theta, mu, 10, gapped).max_residual == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            size_balance_scan(-0.25, 2.0, 10)  # signed law needs an explicit pmf
        with pytest.raises(DomainError):
            size_balance_scan(1.0, 2.0, 0)
        with pytest.raises(DomainError):
            size_balance_scan(1.0, 1.0, 10, lambda n: 0.5**n)


class TestPartitionBalance:
    @pytest.mark.parametrize("params", REVERSIBLE_GRID, ids=str)
    def test_exact_law_balances(self, params):
        scan = partition_balance_scan(params, 6)
        assert scan.max_residual < 1e-11
        assert scan.pairs_checked > 0

    def test_perturbed_law_is_detected(self):
        params = ModelParams(0.5, 1.0, 2.0)

        def warped(m):
            p = partition_stationary_pmf(m, params)
            return p * 1.01 if m.num_groups % 2 == 1 else p

        residual = partition_balance_scan(params, 6, warped).max_residual
        assert residual > 0.005

    def test_one_sided_zero_is_infinite(self):
        params = ModelParams(0.5, 1.0, 2.0)
        hole = decode("2^1")

        def gapped(m):
            return 0.0 if m == hole else partition_stationary_pmf(m, params)

        assert partition_balance_scan(params, 4, gapped).max_residual == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            partition_balance_scan(ModelParams(0.0, 1.0, 2.0), 5)
        with pytest.raises(DomainError):
            partition_balance_scan(ModelParams(0.5, 1.0, 1.0), 5)
        with pytest.raises(DomainError):
            partition_balance_scan(ModelParams(0.5, 1.0, 2.0), -1)
        with pytest.raises(BoundExceededError):
            partition_balance_scan(ModelParams(0.5, 1.0, 2.0), 15)


# ---------------------------------------------------------------------------
# mass consistency and the weight series
# ---------------------------------------------------------------------------


class TestMassComparison:
    @pytest.mark.parametrize("params", REVERSIBLE_GRID, ids=str)
    def test_partition_mass_matches_size_mass(self, params):
        pi_sum, lambda_sum = stationary_mass_comparison(params, 10)
        assert pi_sum == pytest.approx(lambda_sum, rel=1e-11, abs=1e-300)
        if params.theta > 0.0:
            assert 0.0 < pi_sum < 1.0 + 1e-12

    def test_domain(self):
        with pytest.raises(BoundExceededError):
            stationary_mass_comparison(ModelParams(0.5, 1.0, 2.0), 15)
        with pytest.raises(DomainError):
            stationary_mass_comparison(ModelParams(0.0, 1.0, 2.0), 5)
        with pytest.raises(DomainError):
            stationary_mass_comparison(ModelParams(0.5, 1.0, 1.0), 5)
        with pytest.raises(DomainError):
            stationary_mass_comparison(ModelParams(0.5, 1.0, 2.0), -1)


class TestWeightSeries:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("mu", [1.2, 2.0, 5.0])
    def test_series_matches_closed_form(self, alpha, mu):
        assert weight_series_gap(alpha, mu) < 1e-13

    def test_short_series_suffices_for_large_mu(self):
        assert weight_series_gap(0.5, 2.0, terms=200) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            weight_series_gap(0.5, 1.0)
        with pytest.raises(DomainError):
            weight_series_gap(0.5, 2.0, terms=0)


# ---------------------------------------------------------------------------
# alpha = 0 limit
# ---------------------------------------------------------------------------


class TestAlpha0Marginal:
    def test_matches_poisson_product(self):
        b = nbin_time_param(2.0, 3.0)
        for n in range(6):
            for m in enumerate_partitions(n):
                assert alpha0_marginal(m, 1.5, 2.0, 3.0) == pytest.approx(
                    poisson_product_prob(m, 1.5, b), rel=1e-14
                )

    def test_empty_state_weight(self):
        b = nbin_time_param(2.0, 3.0)
        expected = math.exp(1.5 * math.log1p(-b))
        assert alpha0_marginal(AllelicPartition.empty(), 1.5, 2.0, 3.0) == pytest.approx(
            expected, rel=1e-13
        )

    def test_time_zero_is_point_mass_at_empty(self):
        assert alpha0_marginal(AllelicPartition.empty(), 1.0, 2.0, 0.0) == 1.0
        assert alpha0_marginal(decode("1^1"), 1.0, 2.0, 0.0) == 0.0

    def test_size_slices_follow_negative_binomial(self):
        theta, mu, t = 1.0, 2.0, 1.5
        b = nbin_time_param(mu, t)
        for n in range(7):
            slice_sum = sum(
                alpha0_marginal(m, theta, mu, t) for m in enumerate_partitions(n)
            )
            assert slice_sum == pytest.approx(neg_bin_pmf(n, theta, b), rel=1e-12)

    def test_pure_birth_is_supported(self):
        # mu = 0 is fine here even though no stationary law exists
        value = alpha0_marginal(decode("1^1"), 1.0, 0.0, 2.0)
        assert value > 0.0


class TestAlpha0LimitRate:
    def test_values(self):
        assert alpha0_limit_rate(2, 1.5, 2.0) == pytest.approx(0.1875, rel=1e-15)
        assert alpha0_limit_rate(3, 2.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert alpha0_limit_rate(1, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_agrees_with_long_time_marginal(self):
        # for mu > 1 the time parameter converges to 1/mu
        theta, mu = 1.5, 2.0
        b = nbin_time_param(mu, 700.0)
        for i in (1, 2, 5):
            limit = alpha0_limit_rate(i, theta, mu)
            assert limit == pytest.approx(theta * b**i / i, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha0_limit_rate(0, 1.0, 2.0)
        with pytest.raises(DomainError):
            alpha0_limit_rate(1, 0.0, 2.0)
        with pytest.raises(DomainError):
            alpha0_limit_rate(1, 1.0, -0.5)


# ---------------------------------------------------------------------------
# conditioning on the population size
# ---------------------------------------------------------------------------


class TestConditionalGivenSize:
    def test_stationary_table_conditions_to_sampling_formula(self):
        params = ModelParams(0.5, 1.0, 2.0)
        table = partition_stationary_truncated(params, 8)
        for n in (1, 4, 7):
            conditional = conditional_given_size(table, n)
            assert sum(conditional.values()) == pytest.approx(1.0, abs=1e-12)
            for m, p in conditional.items():
                assert p == pytest.approx(psf(n, params, m), rel=1e-12)

    def test_size_zero_slice(self):
        table = partition_stationary_truncated(ModelParams(0.5, 1.0, 2.0), 4)
        assert conditional_given_size(table, 0) == {AllelicPartition.empty(): 1.0}

    def test_plain_mapping_input(self):
        weights = {decode("1^2"): 0.3, decode("2^1"): 0.1, decode("1^1"): 0.6}
        conditional = conditional_given_size(weights, 2)
        assert conditional[decode("1^2")] == pytest.approx(0.75)
        assert conditional[decode("2^1")] == pytest.approx(0.25)

    def test_empty_slice_rejected(self):
        table = partition_stationary_truncated(ModelParams(0.5, 1.0, 2.0), 4)
        with pytest.raises(DomainError):
            conditional_given_size(table, 9)
        with pytest.raises(DomainError):
            conditional_given_size(table, -1)

    def test_unsupported_input_rejected(self):
        with pytest.raises(DomainError):
            conditional_given_size([("1^1", 0.5)], 1)

"""Acceptance gate: thirteen end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each check asserts, so a plain pytest run fails loudly too.  The
stochastic criteria pin master seeds and are bit-reproducible.
"""

import io
import math
import time

import numpy as np
import pytest

from allelic_bdi import (
    AllelicPartition,
    ModelParams,
    alpha0_marginal,
    conditional_given_size,
    enumerate_partitions,
    esf,
    growth_report,
    mixture_consistency_scan,
    nbin_time_param,
    neg_bin_pmf,
    partition_balance_scan,
    partition_stationary_truncated,
    psf,
    run_ensemble,
    size_balance_scan,
    stationary_mass_comparison,
    stationary_occupation,
    transient_pmf,
    tv_distance,
    weight_series_gap,
    write_histogram_csv,
)
from allelic_bdi.cli import main as cli_main

from conftest import REVERSIBLE_GRID, urn_marginal

MASTER_SEED = 20260817

# (alpha, theta) evaluation points for the sampling-formula criteria
FORMULA_GRID = [(0.0, 1.0), (0.25, 1.0), (0.5, 0.5), (0.9, -0.5)]


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk_ensemble():
    """10^5-replicate ensemble at alpha=0, theta=1, mu=2, t=5 (criteria 6, 7, 11)."""
    start = time.perf_counter()
    dist = run_ensemble(ModelParams(0.0, 1.0, 2.0), 5.0, 100_000, MASTER_SEED)
    return dist, time.perf_counter() - start


@pytest.fixture(scope="module")
def engine_ensembles():
    """10^5 replicates per partition engine at alpha=0.5, theta=1, mu=1.5, t=3 (criteria 9, 12)."""
    start = time.perf_counter()
    params = ModelParams(0.5, 1.0, 1.5)
    multiplicity = run_ensemble(params, 3.0, 100_000, 101)
    branching = run_ensemble(params, 3.0, 100_000, 202, engine="branching")
    return params, {"multiplicity": multiplicity, "branching": branching}, (
        time.perf_counter() - start
    )


def test_criterion_01_normalization():
    start = time.perf_counter()
    worst = 0.0
    for alpha, theta in FORMULA_GRID:
        params = ModelParams(alpha, theta)
        for n in range(16):
            total = sum(psf(n, params, m) for m in enumerate_partitions(n))
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        1,
        "sampling-formula normalization",
        ok,
        f"max |sum - 1| = {worst:.3g} (tol 1e-12) over n <= 15, {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_urn_oracle():
    start = time.perf_counter()
    worst = 0.0
    for alpha, theta in FORMULA_GRID:
        params = ModelParams(alpha, theta)
        for n in range(9):
            marginal = urn_marginal(n, params)
            for m in enumerate_partitions(n):
                worst = max(worst, abs(marginal[m] - psf(n, params, m)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        2,
        "urn marginal matches the sampling formula",
        ok,
        f"max pointwise gap = {worst:.3g} (tol 1e-10) for n <= 8, {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_03_size_detailed_balance():
    start = time.perf_counter()
    worst = 0.0
    for theta in (0.5, 1.0, 2.5):
        for mu in (1.5, 2.0, 5.0):
            worst = max(worst, size_balance_scan(theta, mu, 200).max_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        3,
        "size-process detailed balance",
        ok,
        f"max residual = {worst:.3g} (tol 1e-12) at N = 200 on a 3x3 grid, "
        f"{elapsed:.2f}s (limit 1s)",
    )


def test_criterion_04_partition_detailed_balance():
    start = time.perf_counter()
    worst = 0.0
    for params in REVERSIBLE_GRID:
        worst = max(worst, partition_balance_scan(params, 12).max_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 60.0
    _report(
        4,
        "partition-chain detailed balance",
        ok,
        f"max residual = {worst:.3g} (tol 1e-11) over 27 parameter points "
        f"(signed theta < 0 included), s <= 12, {elapsed:.2f}s (limit 60s)",
    )


def test_criterion_05_mixture_and_mass():
    worst_mix = 0.0
    worst_mass = 0.0
    worst_series = 0.0
    for params in REVERSIBLE_GRID:
        worst_mix = max(worst_mix, mixture_consistency_scan(params, 12).max_residual)
        pi_sum, lambda_sum = stationary_mass_comparison(params, 14)
        worst_mass = max(worst_mass, abs(pi_sum - lambda_sum))
    for alpha in (0.1, 0.5, 0.9):
        for mu in (1.2, 2.0, 5.0):
            worst_series = max(worst_series, weight_series_gap(alpha, mu))
    ok = worst_mix <= 1e-12 and worst_mass <= 1e-8 and worst_series <= 1e-10
    _report(
        5,
        "mixture form, mass consistency and weight series",
        ok,
        f"mixture gap = {worst_mix:.3g} (tol 1e-12), mass gap = {worst_mass:.3g} "
        f"(tol 1e-8), series gap = {worst_series:.3g} (tol 1e-10)",
    )


def test_criterion_06_transient_marginal(desk_ensemble):
    dist, elapsed = desk_ensemble
    b = nbin_time_param(2.0, 5.0)
    size_target = {n: neg_bin_pmf(n, 1.0, b) for n in range(200)}
    tv_size = tv_distance(dist.size_marginal(), size_target)
    partition_target = {
        m: alpha0_marginal(m, 1.0, 2.0, 5.0)
        for n in range(13)
        for m in enumerate_partitions(n)
    }
    empirical = {m: p for m, p in dist.probabilities().items() if m.size <= 12}
    tv_partition = tv_distance(empirical, partition_target)
    ok = tv_size < 0.02 and tv_partition < 0.03 and elapsed < 120.0
    _report(
        6,
        "time-t marginal at alpha = 0",
        ok,
        f"TV(size) = {tv_size:.4f} (tol 0.02), TV(partition, s <= 12) = "
        f"{tv_partition:.4f} (tol 0.03), R = 10^5 in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_07_conditional_slice(desk_ensemble):
    dist, _ = desk_ensemble
    conditional = conditional_given_size(dist, 4)
    target = {m: esf(4, 1.0, m) for m in enumerate_partitions(4)}
    tv = tv_distance(conditional, target)
    ok = tv < 0.05
    _report(
        7,
        "conditional law given the size",
        ok,
        f"TV(empirical slice at n = 4, exact formula) = {tv:.4f} (tol 0.05)",
    )


def test_criterion_08_ergodic_occupation():
    start = time.perf_counter()
    params = ModelParams(0.5, 1.0, 2.0)
    occupation = stationary_occupation(params, 100_000.0, 100.0, MASTER_SEED)
    elapsed = time.perf_counter() - start
    probs = occupation.probabilities()
    empty_frac = probs.get(AllelicPartition.empty(), 0.0)
    table = partition_stationary_truncated(params, 6)
    empirical = {m: p for m, p in probs.items() if m.size <= 6}
    tv = tv_distance(empirical, table)
    ok = abs(empty_frac - 0.5) <= 0.02 and tv < 0.03 and elapsed < 120.0
    _report(
        8,
        "long-run occupation matches the stationary law",
        ok,
        f"occupation(empty) = {empty_frac:.4f} (target 0.5 +/- 0.02), "
        f"TV(s <= 6) = {tv:.4f} (tol 0.03), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_09_engine_equivalence(engine_ensembles):
    _, ensembles, elapsed = engine_ensembles
    tv = tv_distance(
        ensembles["multiplicity"].joint_groups_size(), ensembles["branching"].joint_groups_size()
    )
    ok = tv < 0.03
    _report(
        9,
        "multiplicity and branching engines agree",
        ok,
        f"TV over the joint (groups, size) law at t = 3 is {tv:.4f} "
        f"(tol 0.03, R = 10^5 each, {elapsed:.1f}s)",
    )


def test_criterion_10_growth_law():
    start = time.perf_counter()
    ratios = {}
    for theta, seed in ((1.0, 77), (2.0, 78)):
        rows = growth_report(ModelParams(0.0, theta), 100_000, 200, seed)
        ratios[theta] = rows[-1].log_norm_mean / theta
    dispersion = growth_report(ModelParams(0.5, 1.0), 100_000, 200, 79)[-1].pow_norm_cv
    elapsed = time.perf_counter() - start
    ok = (
        all(abs(r - 1.0) <= 0.15 for r in ratios.values())
        and dispersion > 0.2
        and elapsed < 120.0
    )
    _report(
        10,
        "group-count growth law",
        ok,
        f"K_n/(theta log n) = {ratios[1.0]:.3f}, {ratios[2.0]:.3f} (within 15%), "
        f"normalized-count CV = {dispersion:.3f} (> 0.2 nondegeneracy), "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_11_reproducibility(desk_ensemble, tmp_path):
    dist, _ = desk_ensemble
    # library level: the same seed reproduces the ensemble bit for bit
    rerun = run_ensemble(ModelParams(0.0, 1.0, 2.0), 5.0, 100_000, MASTER_SEED)
    same_tallies = rerun.weights == dist.weights
    first, second = io.StringIO(), io.StringIO()
    write_histogram_csv(dist, first)
    write_histogram_csv(rerun, second)
    same_histogram = first.getvalue() == second.getvalue()

    # CLI level: identical flag sets produce identical output files
    outputs = []
    for tag in ("a", "b"):
        summary = tmp_path / f"summary-{tag}.json"
        hist = tmp_path / f"hist-{tag}.csv"
        traj = tmp_path / f"traj-{tag}.csv"
        code = cli_main([
            "simulate", "--alpha", "0.5", "--theta", "1", "--mu", "1.5",
            "--t", "2", "--replicates", "500", "--seed", str(MASTER_SEED),
            "--workers", "1", "--summary", str(summary),
            "--histogram", str(hist), "--trajectory", str(traj),
        ])
        assert code == 0
        outputs.append((summary.read_bytes(), hist.read_bytes(), traj.read_bytes()))
    same_cli = outputs[0] == outputs[1]

    ok = same_tallies and same_histogram and same_cli
    _report(
        11,
        "bit-identical reruns",
        ok,
        f"ensemble tallies identical: {same_tallies}, histogram bytes identical: "
        f"{same_histogram}, CLI output files identical: {same_cli}",
    )


# criterion 12's bound, fixed before either ensemble was compared with the
# exact law: the 99.9th percentile of the same TV statistic over 10^4
# ensembles of R = 10^5 drawn from the exact law itself is 0.0116
# (recomputed below by _bootstrap_tv_quantile), rounded up
EXACT_LAW_TV_BOUND = 0.012


def _bootstrap_tv_quantile(exact: dict, replicates: int, q: float) -> float:
    """Quantile ``q`` of the s <= 12 TV statistic over multinomial ensembles from ``exact``."""
    p = np.array(list(exact.values()))
    tail = max(0.0, 1.0 - float(p.sum()))
    counts = np.random.default_rng(20261018).multinomial(
        replicates, np.append(p, tail) / (p.sum() + tail), size=10_000
    )
    empirical = counts[:, :-1] / replicates
    # tv_distance on truncated laws: half the L1 gap plus half of each side's missing mass
    tv = 0.5 * np.abs(empirical - p).sum(axis=1) + 0.5 * (1.0 - empirical.sum(axis=1) + tail)
    return float(np.quantile(tv, q))


def test_criterion_12_exact_transient_law(engine_ensembles):
    params, ensembles, _ = engine_ensembles
    exact = {m: transient_pmf(m, params, 3.0) for n in range(13) for m in enumerate_partitions(n)}
    quantile = _bootstrap_tv_quantile(exact, 100_000, 0.999)
    tvs = {}
    for engine, dist in ensembles.items():
        empirical = {m: p for m, p in dist.probabilities().items() if m.size <= 12}
        tvs[engine] = tv_distance(empirical, exact)
    ok = quantile <= EXACT_LAW_TV_BOUND and all(tv < EXACT_LAW_TV_BOUND for tv in tvs.values())
    _report(
        12,
        "time-t law at alpha = 0.5 matches NB(s) * psf",
        ok,
        f"TV(partition, s <= 12) = {tvs['multiplicity']:.4f} (multiplicity), "
        f"{tvs['branching']:.4f} (branching), tol {EXACT_LAW_TV_BOUND} "
        f"(bootstrap 99.9th percentile {quantile:.4f}), R = 10^5 each",
    )


# criterion 13's bounds, fixed before either fixture was compared with the
# closed forms: per statistic, the 99.9th percentile of |statistic - exact|
# over 10^4 ensembles of R = 10^5 drawn from the exact joint law of (m_1, m_2)
# is, for (E m_1, E m_2, Cov(m_1, m_2)), 0.01241, 0.00429 and 0.00659 at
# (0.5, 1, 1.5, 3) and 0.00765, 0.00353 and 0.00251 at (0, 1, 2, 5)
# (recomputed below by _bootstrap_moment_quantiles), each rounded up
MOMENT_BOUNDS = {0.5: (0.013, 0.0043, 0.0066), 0.0: (0.0077, 0.0036, 0.0026)}


def _joint_m12_law(alpha: float, theta: float, mu: float, t: float):
    """The exact joint law of (m_1, m_2) at t from the empty state, on the triangle
    m_1 + m_2 <= N with the least N that leaves out less than 1e-12 of the mass,
    as (cells, probabilities, (E m_1, E m_2, Cov(m_1, m_2))).

    With b = b(t), r = theta / alpha, q = 1 - (1 - b)^alpha and a_i = w_i b^i / (1 - q)
    (w_1 = alpha, w_2 = alpha (1 - alpha) / 2), the m_i are Poisson(lambda a_i) given
    lambda ~ Gamma(r, 1), so P(a, b) = Gamma(r + a + b) / (Gamma(r) a! b!) a_1^a a_2^b /
    (1 + a_1 + a_2)^(r + a + b), E m_i = r a_i and Cov = r a_1 a_2; at alpha = 0 they
    are independent Poisson(theta b^i / i) and Cov = 0.
    """
    b = math.expm1((1.0 - mu) * t) / (math.exp((1.0 - mu) * t) - mu)  # mu != 1, written out
    if alpha == 0.0:
        rate_1, rate_2 = theta * b, theta * b * b / 2.0
        exact = (rate_1, rate_2, 0.0)

        def log_p(i, j):
            return (i * math.log(rate_1) - rate_1 - math.lgamma(i + 1)) + (
                j * math.log(rate_2) - rate_2 - math.lgamma(j + 1)
            )
    else:
        r, one_m_q = theta / alpha, (1.0 - b) ** alpha
        a_1, a_2 = alpha * b / one_m_q, alpha * (1.0 - alpha) / 2.0 * b * b / one_m_q
        exact = (r * a_1, r * a_2, r * a_1 * a_2)

        def log_p(i, j):
            return (
                math.lgamma(r + i + j) - math.lgamma(r) - math.lgamma(i + 1) - math.lgamma(j + 1)
                + i * math.log(a_1) + j * math.log(a_2) - (r + i + j) * math.log1p(a_1 + a_2)
            )  # fmt: skip
    cells, probs, n = [], [], 0
    while not probs or 1.0 - math.fsum(probs) >= 1e-12:  # add the diagonal m_1 + m_2 = n
        cells += [(i, n - i) for i in range(n + 1)]
        probs += [math.exp(log_p(i, n - i)) for i in range(n + 1)]
        n += 1
    return np.array(cells, dtype=float), np.array(probs), exact


def _moment_statistics(counts, cells, replicates: int):
    """Empirical E m_1, E m_2 and Cov(m_1, m_2) (over R) from tallies on ``cells``."""
    m_1, m_2 = cells[:, 0], cells[:, 1]
    mean_1, mean_2 = counts @ m_1 / replicates, counts @ m_2 / replicates
    return mean_1, mean_2, counts @ (m_1 * m_2) / replicates - mean_1 * mean_2


def _bootstrap_moment_quantiles(cells, probs, exact, replicates: int, q: float):
    """Quantile ``q`` of each |statistic - exact| over 10^4 multinomial ensembles from the law."""
    rng = np.random.default_rng(20261020)
    gaps = []
    for _ in range(10):  # 10^3 ensembles at a time, to keep the count matrix small
        counts = rng.multinomial(replicates, probs / probs.sum(), size=1_000)
        gaps.append(np.abs(np.array(_moment_statistics(counts, cells, replicates)).T - exact))
    return tuple(float(v) for v in np.quantile(np.concatenate(gaps), q, axis=0))


def test_criterion_13_multiplicity_moments(desk_ensemble, engine_ensembles):
    fixtures = {
        (0.5, 1.0, 1.5, 3.0): engine_ensembles[1],
        (0.0, 1.0, 2.0, 5.0): {"multiplicity": desk_ensemble[0]},
    }
    ok, lines = True, []
    for point, ensembles in fixtures.items():
        cells, probs, exact = _joint_m12_law(*point)
        assert np.allclose(_moment_statistics(probs, cells, 1), exact, rtol=0, atol=1e-10)
        bounds = MOMENT_BOUNDS[point[0]]
        quantiles = _bootstrap_moment_quantiles(cells, probs, np.array(exact), 100_000, 0.999)
        ok &= all(q <= bound for q, bound in zip(quantiles, bounds))
        index = {tuple(cell): k for k, cell in enumerate(cells.astype(int).tolist())}
        for engine, dist in ensembles.items():
            counts = np.zeros(len(cells))
            for m, weight in dist.weights.items():
                counts[index[m.multiplicity(1), m.multiplicity(2)]] += weight  # off the grid raises
            got = _moment_statistics(counts, cells, dist.replicates)
            ok &= all(abs(g - e) < bound for g, e, bound in zip(got, exact, bounds))
            lines.append(
                f"{point} {engine}: E m_1 = {got[0]:.5f} vs {exact[0]:.5f}, E m_2 = {got[1]:.5f} "
                f"vs {exact[1]:.5f}, Cov = {got[2]:.5f} vs {exact[2]:.5f} (tol {bounds}, "
                f"bootstrap 99.9th percentiles {tuple(round(q, 5) for q in quantiles)})"
            )
    detail = "; ".join(lines) + ", R = 10^5"
    _report(13, "multiplicity moments and their dependence at t", ok, detail)

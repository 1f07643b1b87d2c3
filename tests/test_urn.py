import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allelic_bdi import (
    AllelicPartition,
    DomainError,
    EventKind,
    ModelParams,
    enumerate_partitions,
    esf,
    growth_report,
    psf,
    tv_distance,
)
from allelic_bdi.urn import (
    _BLOCK,
    _group_count_traces,
    default_checkpoints,
    group_count_trace,
)
from conftest import PSF_GRID, urn_marginal, urn_step_distribution


@pytest.mark.parametrize("alpha,theta", PSF_GRID)
def test_step_distribution_is_a_probability_vector(alpha, theta):
    params = ModelParams(float(alpha), float(theta))
    for n in range(9):
        for m in enumerate_partitions(n):
            steps = urn_step_distribution(m, params)
            assert all(p >= 0.0 for _, p in steps)
            assert sum(p for _, p in steps) == pytest.approx(1.0, abs=1e-12)
            kinds = [e.kind for e, _ in steps]
            assert kinds[0] is EventKind.NEW_FAMILY
            assert EventKind.DEATH not in kinds


def test_step_distribution_frozen_point():
    # from 1^2 2^1 with alpha=0.5, theta=1: k=3, s=4, denominator theta+s=5
    params = ModelParams(0.5, 1.0)
    steps = dict(
        (str(event), p) for event, p in urn_step_distribution(AllelicPartition.decode("1^2 2^1"), params)
    )
    assert steps["new_family"] == pytest.approx(2.5 / 5.0, rel=1e-14)
    assert steps["growth@1"] == pytest.approx(1.0 / 5.0, rel=1e-14)
    assert steps["growth@2"] == pytest.approx(1.5 / 5.0, rel=1e-14)


def test_step_distribution_from_empty_state():
    # the first draw always founds a family, even for theta in (-alpha, 0]
    for params in (ModelParams(0.0, 1.0), ModelParams(0.9, -0.5), ModelParams(0.5, 0.0)):
        steps = urn_step_distribution(AllelicPartition.empty(), params)
        assert len(steps) == 1
        assert steps[0][0].kind is EventKind.NEW_FAMILY
        assert steps[0][1] == 1.0


@pytest.mark.parametrize("alpha,theta", PSF_GRID)
def test_marginal_dynamic_programming_equals_sampling_formula(alpha, theta):
    params = ModelParams(float(alpha), float(theta))
    for n in range(7):
        marginal = urn_marginal(n, params)
        assert sum(marginal.values()) == pytest.approx(1.0, abs=1e-12)
        for m in enumerate_partitions(n):
            assert marginal.get(m, 0.0) == pytest.approx(
                psf(n, params, m), abs=1e-12, rel=1e-10
            )


def test_default_checkpoints():
    points = default_checkpoints(1000)
    assert points[0] == 1
    assert points[-1] == 1000
    assert list(points) == sorted(set(points))
    assert all(1 <= p <= 1000 for p in points)
    # quarter-decade spacing: 10 and 100 are on the grid
    assert 10 in points and 100 in points


def test_group_count_trace_shape_and_growth():
    params = ModelParams(0.5, 1.0)
    trace = group_count_trace(500, params, np.random.default_rng([5, 1]))
    ns = [n for n, _ in trace]
    ks = [k for _, k in trace]
    assert ns == list(default_checkpoints(500))
    assert trace[0] == (1, 1)  # the first item always founds the first group
    assert all(k2 >= k1 for k1, k2 in zip(ks, ks[1:]))  # groups are never lost
    assert all(1 <= k <= n for n, k in trace)


@pytest.mark.parametrize("n_max", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_trace_and_growth_report_record_exactly_the_default_checkpoints(n_max):
    # beside a block boundary the grid's only mark there is n_max itself
    params, marks = ModelParams(0.5, 1.0), list(default_checkpoints(n_max))
    assert not {_BLOCK - 1, _BLOCK, _BLOCK + 1} & set(marks[:-1])
    assert [n for n, _ in group_count_trace(n_max, params, np.random.default_rng(0))] == marks
    assert [row.n for row in growth_report(params, n_max, 2, seed=0)] == marks


def test_group_count_trace_determinism_and_bounds():
    params = ModelParams(0.0, 2.0)
    t1 = group_count_trace(200, params, np.random.default_rng([6, 0]))
    t2 = group_count_trace(200, params, np.random.default_rng([6, 0]))
    assert t1 == t2
    with pytest.raises(DomainError):
        group_count_trace(5, params, np.random.default_rng(0))


def test_group_count_mean_matches_exact_expectation():
    # with alpha = 0 the j-th item founds a group with probability
    # theta / (theta + j), independently, so mean and variance are exact sums
    theta, n, runs = 1.0, 1000, 100
    params = ModelParams(0.0, theta)
    expected = sum(theta / (theta + j) for j in range(n))
    variance = sum(
        (theta / (theta + j)) * (1.0 - theta / (theta + j)) for j in range(n)
    )
    finals = [
        group_count_trace(n, params, np.random.default_rng([911, r]))[-1][1]
        for r in range(runs)
    ]
    standard_error = math.sqrt(variance / runs)
    assert abs(np.mean(finals) - expected) < 5.0 * standard_error


def reference_trace(n_max, params, rng):
    """The step-by-step urn loop that ``group_count_trace`` must reproduce.

    One ``rng.random()`` call per step; step n founds a group when
    u * (theta + n) < theta + alpha * k, and step 0 always does.
    """
    mark_set = set(default_checkpoints(n_max))
    theta, alpha = params.theta, params.alpha
    out = []
    k = 0
    for n in range(n_max):
        u = rng.random()
        if n == 0:
            k = 1
        elif u * (theta + n) < theta + alpha * k:
            k += 1
        if (n + 1) in mark_set:
            out.append((n + 1, k))
    return out


def assert_trace_matches_reference(n_max, params, seed):
    rng, reference_rng = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
    trace = group_count_trace(n_max, params, rng)
    assert trace == reference_trace(n_max, params, reference_rng)
    assert all(type(n) is int and type(k) is int for n, k in trace)
    # one uniform was drawn per step, so the stream continues identically
    assert rng.random() == reference_rng.random()


# at (1e-300, 1) alpha * k always rounds away beside theta, and 1 + 1e-17 * k
# first differs from 1 at k = 12, so those runs settle some blocks in the
# first pass and iterate others
TRACE_POINTS = [(0.0, 1.0), (0.0, 2.5), (1e-300, 1.0), (1e-17, 1.0)] + [
    (alpha, theta)
    for alpha in (0.3, 0.5, 0.9, 0.999)
    for theta in (0.0, -alpha + 1e-3, 1.0)
]


@pytest.mark.parametrize("n_max", [10, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("alpha,theta", TRACE_POINTS)
def test_group_count_trace_equals_reference_loop(alpha, theta, n_max):
    params = ModelParams(alpha, theta)
    for seed in (0, 41):
        assert_trace_matches_reference(n_max, params, seed)


@pytest.mark.parametrize("n_max", [10, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("alpha,theta", [(0.9, -0.5), (0.0, 1.0), (1e-17, 1.0)])
def test_runs_sharing_block_arrays_equal_reference_loop(alpha, theta, n_max):
    # a growth report solves all its runs in one set of block arrays: nothing
    # of one block or run may carry over into the next
    params, seeds = ModelParams(alpha, theta), (5, 6, 7)
    traces = _group_count_traces(n_max, params, (np.random.default_rng([s, 3]) for s in seeds))
    assert traces == [reference_trace(n_max, params, np.random.default_rng([s, 3])) for s in seeds]


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.just(0.0) | st.floats(0.0, 0.999),
    theta_offset=st.floats(1e-6, 10.0),
    n_max=st.integers(10, 50_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_count_trace_property_equals_reference_loop(alpha, theta_offset, n_max, seed):
    # theta ranges over (-alpha, -alpha + 10], which at alpha = 0 is theta > 0
    params = ModelParams(alpha, -alpha + theta_offset)
    assert_trace_matches_reference(n_max, params, seed)


@pytest.mark.parametrize("alpha,iterates", [(0.0, False), (1e-300, False), (1e-17, True)])
def test_blocks_whose_threshold_cannot_move_need_no_running_sum(monkeypatch, alpha, iterates):
    # the first pass holds k at the block's opening count; when the groups it
    # founds leave theta + alpha * k the same float it is already exact
    calls = []
    cumsum = np.cumsum

    def counting_cumsum(*args, **kwargs):
        calls.append(1)
        return cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting_cumsum)
    params = ModelParams(alpha, 1.0)
    rngs = [np.random.default_rng([s, 3]) for s in range(5)]
    traces = _group_count_traces(100_000, params, rngs)
    monkeypatch.undo()
    assert bool(calls) is iterates
    assert traces == [reference_trace(100_000, params, np.random.default_rng([s, 3])) for s in range(5)]

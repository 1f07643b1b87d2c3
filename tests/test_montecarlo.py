"""Tests for ensemble simulation, empirical distributions, total-variation
distance, occupation measures, growth statistics and the CSV writers."""

import concurrent.futures
import io
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from allelic_bdi import ctmc, montecarlo
from allelic_bdi import (
    AllelicPartition,
    DomainError,
    EmpiricalDistribution,
    ModelParams,
    RunawayError,
    default_checkpoints,
    growth_report,
    nbin_time_param,
    neg_bin_pmf,
    partition_stationary_truncated,
    run_ensemble,
    simulate,
    simulate_bdi,
    simulate_branching,
    stationary_occupation,
    tv_distance,
    write_growth_csv,
    write_histogram_csv,
)
from allelic_bdi import __version__
from conftest import AbsorbingClock, states_after_events


def decode(text):
    return AllelicPartition.decode(text)


# ---------------------------------------------------------------------------
# empirical distributions
# ---------------------------------------------------------------------------


class TestEmpiricalDistribution:
    def test_moments(self):
        dist = EmpiricalDistribution({0: 1.0, 2: 3.0}, 4.0)
        assert dist.mean() == pytest.approx(1.5)
        assert dist.variance() == pytest.approx(0.75)
        assert dist.probabilities() == {0: pytest.approx(0.25), 2: pytest.approx(0.75)}

    def test_validation(self):
        with pytest.raises(DomainError):
            EmpiricalDistribution({0: 1.0}, 0.0)
        with pytest.raises(DomainError):
            EmpiricalDistribution({0: -1.0, 1: 5.0}, 4.0)
        with pytest.raises(DomainError):
            EmpiricalDistribution({0: 1.0, 1: 1.0}, 4.0)

    def test_marginals(self):
        dist = EmpiricalDistribution(
            {decode("1^2"): 2.0, decode("2^1"): 1.0, decode("1^1"): 1.0},
            4.0,
            replicates=4,
            seed=99,
        )
        sizes = dist.size_marginal()
        assert sizes.weights == {2: 3.0, 1: 1.0}
        assert sizes.total == 4.0
        assert sizes.replicates == 4 and sizes.seed == 99
        groups = dist.group_marginal()
        assert groups.weights == {2: 2.0, 1: 2.0}
        joint = dist.joint_groups_size()
        assert joint.weights == {(2, 2): 2.0, (1, 2): 1.0, (1, 1): 1.0}


# ---------------------------------------------------------------------------
# total variation distance
# ---------------------------------------------------------------------------


class TestTvDistance:
    def test_basic_values(self):
        assert tv_distance({0: 1.0}, {0: 1.0}) == 0.0
        assert tv_distance({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
        assert tv_distance({0: 0.5, 1: 0.5}, {0: 1.0}) == pytest.approx(0.5)

    def test_symmetry(self):
        p = {0: 0.2, 1: 0.8}
        q = {0: 0.7, 2: 0.3}
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, q) == pytest.approx(0.5 * (0.5 + 0.8 + 0.3))

    def test_tail_mass_counts_as_half(self):
        # both laws keep half their mass outside the stored support
        assert tv_distance({0: 0.5}, {0: 0.5}) == pytest.approx(0.5)
        # an exact truncation of the other law: the tail is the whole gap
        assert tv_distance({0: 0.5, 1: 0.25}, {0: 0.5, 1: 0.25, 2: 0.25}) == pytest.approx(0.25)

    def test_accepts_all_distribution_types(self):
        emp = EmpiricalDistribution({0: 3.0, 1: 1.0}, 4.0)
        assert tv_distance(emp, {0: 0.75, 1: 0.25}) == pytest.approx(0.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            tv_distance({0: 1.5}, {0: 1.0})
        with pytest.raises(DomainError):
            tv_distance({0: 1.0}, {0: 0.9, 1: -0.001})
        with pytest.raises(DomainError):
            tv_distance([0.5, 0.5], {0: 1.0})


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


class TestRunEnsemble:
    def test_deterministic(self):
        params = ModelParams(0.5, 1.0, 2.0)
        a = run_ensemble(params, 2.0, 64, 11)
        b = run_ensemble(params, 2.0, 64, 11)
        assert a.weights == b.weights
        assert a.total == 64.0
        assert a.replicates == 64
        assert a.seed == 11
        c = run_ensemble(params, 2.0, 64, 12)
        assert a.weights != c.weights

    def test_partition_keys_and_counts(self):
        dist = run_ensemble(ModelParams(0.5, 1.0, 2.0), 1.0, 50, 7)
        assert all(isinstance(k, AllelicPartition) for k in dist.weights)
        assert all(float(w).is_integer() and w > 0 for w in dist.weights.values())
        assert sum(dist.weights.values()) == 50.0

    def test_bdi_engine_uses_integer_keys(self):
        dist = run_ensemble(ModelParams(0.5, 1.0, 2.0), 1.0, 50, 7, engine="bdi")
        assert all(isinstance(k, int) for k in dist.weights)

    def test_branching_engine(self):
        dist = run_ensemble(ModelParams(0.5, 1.0, 2.0), 1.0, 50, 7, engine="branching")
        assert all(isinstance(k, AllelicPartition) for k in dist.weights)

    @pytest.mark.parametrize("engine", ["multiplicity", "branching"])
    def test_worker_count_does_not_change_results(self, engine):
        params = ModelParams(0.5, 1.0, 2.0)
        serial = run_ensemble(params, 1.5, 256, 31, engine)
        parallel = run_ensemble(params, 1.5, 256, 31, engine, workers=2)
        assert serial.weights == parallel.weights

    def test_pool_is_capped_at_usable_cpus(self, monkeypatch):
        class SerialPool:
            """Records the pool size asked for and maps in this process."""

            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        params = ModelParams(0.5, 1.0, 2.0)
        pooled = run_ensemble(params, 1.5, 640, 31, workers=100_000)
        assert SerialPool.sizes == [3]  # not 100,000, nor the 640 // 64 = 10 replicates allow
        assert pooled.weights == run_ensemble(params, 1.5, 640, 31).weights

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert montecarlo._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1

    def test_validation(self):
        params = ModelParams(0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            run_ensemble(params, 1.0, 0, 1)
        with pytest.raises(DomainError):
            run_ensemble(params, 1.0, 10, 1, engine="urn")
        with pytest.raises(DomainError):
            run_ensemble(params, 1.0, 10, -1)

    def test_event_cap_propagates(self):
        with pytest.raises(RunawayError) as exc:
            run_ensemble(ModelParams(0.5, 5.0, 0.0), 100.0, 4, 1, max_events=50)
        assert "event cap" in str(exc.value)
        assert str(exc.value).startswith("replicate 0 of seed 1 (alpha=0.5, theta=5.0, mu=0.0")
        assert exc.value.events == 50

    def test_event_cap_names_the_failing_replicate(self):
        params = ModelParams(0.5, 1.0, 0.0)
        lengths = [len(simulate(params, 2.0, np.random.default_rng([5, i]))) for i in range(3)]
        assert lengths[0] <= 6 and lengths[1] <= 6 < lengths[2]  # 1, 2 and 11 events
        with pytest.raises(RunawayError) as exc:
            run_ensemble(params, 2.0, 5, 5, max_events=6)
        assert str(exc.value).startswith("replicate 2 of seed 5 (alpha=0.5, theta=1.0, mu=0.0")
        assert exc.value.events == 6
        # the state after the first six events of replicate 2, replayed from its path
        path = simulate(params, 2.0, np.random.default_rng([5, 2]))
        state = states_after_events(path)[5]
        assert exc.value.time == path.events[6][0]
        assert (exc.value.size, exc.value.groups) == (state.size, state.num_groups) == (6, 3)
        assert str(exc.value).endswith("with population size 6 in 3 groups")

    def test_event_cap_survives_the_pool(self):
        with pytest.raises(RunawayError) as exc:
            run_ensemble(ModelParams(0.5, 5.0, 0.0), 100.0, 256, 1, workers=2, max_events=50)
        assert "event cap" in str(exc.value)
        assert exc.value.events == 50
        assert exc.value.size == 50  # pure birth: every event adds one member
        assert 1 <= exc.value.groups <= 50

    @pytest.mark.parametrize("engine", montecarlo.ENGINES)
    def test_replicates_refuse_a_jump_that_does_not_advance_the_clock(self, engine):
        # replicates record no path, so the kernel itself must check the clock
        with pytest.raises(DomainError, match="strictly increasing"):
            montecarlo._replicate_outcome(
                engine, ModelParams(0.5, 1.0, 0.5), 5.0, AbsorbingClock(), 100
            )

    def test_error_shrinks_with_replicates(self):
        # TV against the exact transient size law should fall roughly as
        # 1/sqrt(R); a 16x replicate ratio gives a factor of about 4
        params = ModelParams(0.5, 1.0, 2.0)
        b = nbin_time_param(params.mu, 3.0)
        target = {n: neg_bin_pmf(n, params.theta, b) for n in range(200)}
        small = run_ensemble(params, 3.0, 1000, 5, engine="bdi")
        big = run_ensemble(params, 3.0, 16000, 5, engine="bdi")
        tv_small = tv_distance(small, target)
        tv_big = tv_distance(big, target)
        assert tv_big < 0.01
        assert tv_small > tv_big
        assert tv_small / tv_big > 2.0


# ---------------------------------------------------------------------------
# occupation measure of one long run
# ---------------------------------------------------------------------------


# seeds and replicate indices around the 32-bit word boundaries, where the
# word list numpy builds from [S, i] changes length, plus random ones
SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]
_draw = random.Random(20261018)
SEED_PAIRS = [(s, i) for s in SEED_EDGES for i in SEED_EDGES] + [
    (_draw.getrandbits(bits), _draw.getrandbits(40)) for bits in (16, 31, 33, 70, 100)
]


class TestReplicateSeeding:
    @pytest.mark.parametrize("seed,i", SEED_PAIRS)
    def test_stream_is_default_rng_of_the_pair(self, seed, i):
        ours = montecarlo._replicate_rng(seed, i)
        oracle = np.random.default_rng([seed, i])
        assert ours.bit_generator.state == oracle.bit_generator.state
        assert ours.random(4).tolist() == oracle.random(4).tolist()
        assert ours.exponential(0.3, 4).tolist() == oracle.exponential(0.3, 4).tolist()
        assert ours.integers(2**63, size=4).tolist() == oracle.integers(2**63, size=4).tolist()
        # the block-seeded generator of ensemble replicates
        ((j, rng),) = montecarlo._replicate_draws(seed, i, i + 1)
        fresh = np.random.default_rng([seed, i])
        assert j == i
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert rng.random(4).tolist() == fresh.random(4).tolist()
        assert rng.standard_exponential(4).tolist() == fresh.standard_exponential(4).tolist()


# public engine and final state, the oracle of one ensemble replicate's outcome
ORACLE_ENGINES = {
    "multiplicity": lambda p, t, rng: simulate(p, t, rng).final_state().entries,
    "branching": lambda p, t, rng: simulate_branching(p, t, rng).final_state().entries,
    "bdi": lambda p, t, rng: (simulate_bdi(p, t, rng).values or (0,))[-1],  # starts at 0
}
CHUNK_PARAMS, CHUNK_T = ModelParams(0.5, 1.0, 1.5), 0.4  # a few events per replicate
CHUNK_SEEDS = [0, 2**32 + 1, 2**64 + 3]


def _oracle_tallies(engine, seed, start, stop):
    """Tallies of a plain loop over default_rng([seed, i]), in first-occurrence order."""
    tallies = {}
    for i in range(start, stop):
        key = ORACLE_ENGINES[engine](CHUNK_PARAMS, CHUNK_T, np.random.default_rng([seed, i]))
        tallies[key] = tallies.get(key, 0) + 1
    return tallies


def _chunk(engine, seed, start, stop):
    return montecarlo._run_chunk((CHUNK_PARAMS, CHUNK_T, seed, engine, start, stop, 10**6))


class TestRunChunk:
    @pytest.mark.parametrize("seed", CHUNK_SEEDS)
    @pytest.mark.parametrize("engine", montecarlo.ENGINES)
    def test_range_across_a_word_boundary(self, engine, seed):
        # i = 2^32 - 40 .. 2^32 + 39: the word count of i changes inside the block
        start, stop = 2**32 - 40, 2**32 + 40
        tallies = _chunk(engine, seed, start, stop)
        assert list(tallies.items()) == list(_oracle_tallies(engine, seed, start, stop).items())

    @pytest.mark.parametrize("seed", CHUNK_SEEDS)
    @pytest.mark.parametrize("engine", montecarlo.ENGINES)
    def test_chunk_one_longer_than_a_block(self, engine, seed):
        stop = montecarlo._SEED_BLOCK + 1
        tallies = _chunk(engine, seed, 0, stop)
        assert sum(tallies.values()) == stop
        assert list(tallies.items()) == list(_oracle_tallies(engine, seed, 0, stop).items())

    @pytest.mark.parametrize("engine", montecarlo.ENGINES)
    def test_replicates_longer_than_a_draw_block(self, engine):
        # ensemble_large's point: pure birth with about 6,600 events per
        # replicate, so each replicate refills its draw blocks hundreds of times
        params, t_end, seed, start, stop = ModelParams(0.7, 10.0, 0.0), 6.5, 2**32 + 1, 3, 5
        tallies = montecarlo._run_chunk((params, t_end, seed, engine, start, stop, 10**6))
        expected = {}
        for i in range(start, stop):
            key = ORACLE_ENGINES[engine](params, t_end, np.random.default_rng([seed, i]))
            size = key if engine == "bdi" else sum(g * c for g, c in key)
            assert size > 10 * ctmc._DRAW_BLOCK  # pure birth: one member per event
            expected[key] = expected.get(key, 0) + 1
        assert list(tallies.items()) == list(expected.items())

    @pytest.mark.parametrize("engine", montecarlo.ENGINES)
    def test_block_that_fails_its_check_falls_back(self, monkeypatch, engine):
        seed, start, stop = 2**32 + 1, 2**32 - 5, 2**32 + 5
        expected = _chunk(engine, seed, start, stop)
        fallback = []
        replicate_rng = montecarlo._replicate_rng

        def counted(seed, i):
            fallback.append(i)
            return replicate_rng(seed, i)

        monkeypatch.setattr(montecarlo, "_block_matches", lambda *args: False)
        monkeypatch.setattr(montecarlo, "_replicate_rng", counted)
        tallies = _chunk(engine, seed, start, stop)
        assert fallback == list(range(start, stop))
        assert list(tallies.items()) == list(expected.items())

    def test_block_check_compares_the_state(self):
        seed = 2**32 + 1
        words = [np.full(3, word, np.uint32) for word in montecarlo._seed_words(seed)]
        states = montecarlo._pcg64_states(words + montecarlo._word_columns(7, 3))  # i = 7, 8, 9
        bitgen = np.random.PCG64()
        assert montecarlo._block_matches(seed, 8, states[1], bitgen)
        assert not montecarlo._block_matches(seed, 8, states[2], bitgen)

    def test_partition_keys_keep_first_occurrence_order(self):
        seed, replicates = 5, 300
        dist = run_ensemble(CHUNK_PARAMS, CHUNK_T, replicates, seed)
        expected = _oracle_tallies("multiplicity", seed, 0, replicates)
        assert [m.entries for m in dist.weights] == list(expected)
        assert list(dist.weights.values()) == list(expected.values())


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_replicate_records_no_path():
    # ensemble_large's pure-birth point: one replicate has thousands of events,
    # and a recorded path holds a (time, event) pair for each of them
    params, t_end, seed = ModelParams(0.7, 10.0, 0.0), 6.5, 3
    path = simulate(params, t_end, np.random.default_rng([seed, 0]))
    assert len(path) > 3000
    del path  # the run above also built every event object this replicate uses
    path_peak = _traced_peak(simulate, params, t_end, np.random.default_rng([seed, 0]))
    ensemble_peak = _traced_peak(run_ensemble, params, t_end, 1, seed)
    assert ensemble_peak * 20 < path_peak


class TestStationaryOccupation:
    def test_total_weight_and_determinism(self):
        params = ModelParams(0.5, 1.0, 2.0)
        occ = stationary_occupation(params, 200.0, 10.0, 8)
        assert occ.total == pytest.approx(190.0)
        assert sum(occ.weights.values()) == pytest.approx(190.0)
        assert all(isinstance(k, AllelicPartition) for k in occ.weights)
        again = stationary_occupation(params, 200.0, 10.0, 8)
        assert occ.weights == again.weights

    def test_approaches_stationary_law(self):
        params = ModelParams(0.5, 1.0, 2.0)
        occ = stationary_occupation(params, 3000.0, 100.0, 4242)
        probs = occ.probabilities()
        # pi(empty) = (1 - 1/mu)^theta = 0.5
        assert abs(probs[AllelicPartition.empty()] - 0.5) < 0.07
        table = partition_stationary_truncated(params, 6)
        assert tv_distance(occ, table) < 0.15

    @pytest.mark.parametrize(
        "params,horizon,burn_in,seed",
        [(ModelParams(0.5, 2.0, 1.5), 400.0, 25.0, 8), (ModelParams(0.0, 3.0, 1.5), 300.0, 0.5, 21)],
    )
    def test_equals_replayed_path(self, params, horizon, burn_in, seed):
        # occupation summed over the replayed states must agree exactly:
        # same keys, same first-visit key order, same float sums
        path = simulate(params, horizon, np.random.default_rng([seed, 0]))
        expected: dict[AllelicPartition, float] = {}
        t_prev, state_prev = 0.0, path.initial
        for (t, _), state in zip(path.events, states_after_events(path)):
            lo = max(t_prev, burn_in)
            if t > lo:
                expected[state_prev] = expected.get(state_prev, 0.0) + (t - lo)
            t_prev = t
            state_prev = state
        lo = max(t_prev, burn_in)
        if horizon > lo:
            expected[state_prev] = expected.get(state_prev, 0.0) + (horizon - lo)
        occ = stationary_occupation(params, horizon, burn_in, seed)
        assert list(occ.weights.items()) == list(expected.items())
        assert len(expected) > 20

    def test_memory_does_not_grow_with_events(self):
        # 47,703 events and 1,180 distinct states; the recorded path of the
        # same run holds a (time, event) pair per event
        params, horizon, seed = ModelParams(0.5, 2.0, 1.5), 4000.0, 8
        path_peak = _traced_peak(simulate, params, horizon, np.random.default_rng([seed, 0]))
        occupation_peak = _traced_peak(stationary_occupation, params, horizon, 100.0, seed)
        assert occupation_peak * 4 < path_peak

    def test_validation(self):
        good = ModelParams(0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            stationary_occupation(ModelParams(0.5, 1.0, 1.0), 100.0, 10.0, 1)
        with pytest.raises(DomainError):
            stationary_occupation(good, 100.0, 100.0, 1)
        with pytest.raises(DomainError):
            stationary_occupation(good, 100.0, -1.0, 1)
        with pytest.raises(DomainError):
            stationary_occupation(good, 100.0, 10.0, -1)


# ---------------------------------------------------------------------------
# group-count growth statistics
# ---------------------------------------------------------------------------


def _rows_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for fa, fb in zip(
            (ra.n, ra.mean_groups, ra.sd_groups, ra.log_norm_mean, ra.log_norm_cv,
             ra.pow_norm_mean, ra.pow_norm_cv),
            (rb.n, rb.mean_groups, rb.sd_groups, rb.log_norm_mean, rb.log_norm_cv,
             rb.pow_norm_mean, rb.pow_norm_cv),
        ):
            if fa != fb and not (math.isnan(fa) and math.isnan(fb)):
                return False
    return True


class TestGrowthReport:
    def test_rows_follow_checkpoints(self):
        params = ModelParams(0.5, 1.0)
        rows = growth_report(params, 1000, 4, seed=3)
        assert [row.n for row in rows] == list(default_checkpoints(1000))
        first, last = rows[0], rows[-1]
        assert first.n == 1 and last.n == 1000
        assert first.mean_groups == 1.0 and first.sd_groups == 0.0
        assert math.isnan(first.log_norm_mean) and math.isnan(first.log_norm_cv)
        assert first.pow_norm_mean == 1.0
        assert last.mean_groups > first.mean_groups

    def test_power_defaults_to_alpha(self):
        params = ModelParams(0.5, 1.0)
        rows = growth_report(params, 100, 4, seed=3)
        explicit = growth_report(params, 100, 4, seed=3, power=0.5)
        assert _rows_equal(rows, explicit)
        other = growth_report(params, 100, 4, seed=3, power=0.25)
        assert other[-1].mean_groups == rows[-1].mean_groups
        assert other[-1].pow_norm_mean == pytest.approx(
            other[-1].mean_groups / 100**0.25, rel=1e-12
        )
        assert other[-1].pow_norm_mean != rows[-1].pow_norm_mean

    def test_alpha_zero_power_is_identity(self):
        rows = growth_report(ModelParams(0.0, 2.0), 100, 4, seed=9)
        assert rows[-1].pow_norm_mean == pytest.approx(rows[-1].mean_groups, rel=1e-12)

    def test_deterministic(self):
        params = ModelParams(0.5, 1.0)
        assert _rows_equal(
            growth_report(params, 100, 5, seed=21), growth_report(params, 100, 5, seed=21)
        )
        assert not _rows_equal(
            growth_report(params, 100, 5, seed=21), growth_report(params, 100, 5, seed=22)
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            growth_report(ModelParams(0.5, 1.0), 100, 1, seed=3)
        with pytest.raises(DomainError):
            growth_report(ModelParams(0.5, 1.0), 100, 4, seed=-1)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _split_csv(text):
    header = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        else:
            body.append(line)
    return header, body


class TestWriteHistogramCsv:
    def test_ensemble_histogram(self):
        dist = run_ensemble(ModelParams(0.5, 1.0, 2.0), 1.0, 40, 13)
        buf = io.StringIO()
        write_histogram_csv(dist, buf, metadata={"engine": "multiplicity"})
        header, body = _split_csv(buf.getvalue())
        assert header["artifact"] == "allelic-bdi"
        assert header["version"] == __version__
        assert header["total_weight"] == "40.0"
        assert header["replicates"] == "40"
        assert header["seed"] == "13"
        assert header["engine"] == "multiplicity"
        assert body[0] == "key,count,probability"
        assert len(body) == 1 + len(dist.weights)
        total = 0
        for line in body[1:]:
            key, count, prob = line.split(",")
            m = decode(key)
            assert int(count) == dist.weights[m]
            assert float(prob) == dist.weights[m] / 40.0  # repr round-trips
            total += int(count)
        assert total == 40
        # keys are sorted by (size, text)
        keys = [decode(line.split(",")[0]) for line in body[1:]]
        assert keys == sorted(keys, key=lambda m: (m.size, m.encode()))

    def test_integer_keys_and_fractional_weights(self):
        occ = EmpiricalDistribution({0: 1.25, 3: 2.75}, 4.0)
        buf = io.StringIO()
        write_histogram_csv(occ, buf)
        header, body = _split_csv(buf.getvalue())
        assert "replicates" not in header
        assert body[1] == f"0,1.25,{1.25 / 4.0!r}"
        assert body[2] == f"3,2.75,{2.75 / 4.0!r}"

    def test_unsupported_key_type(self):
        dist = EmpiricalDistribution({"oops": 1.0}, 1.0)
        with pytest.raises(DomainError):
            write_histogram_csv(dist, io.StringIO())

    def test_writes_to_path(self, tmp_path):
        dist = EmpiricalDistribution({1: 2.0, 2: 2.0}, 4.0)
        target = tmp_path / "hist.csv"
        write_histogram_csv(dist, str(target))
        assert target.read_text().count("\n") >= 4


class TestWriteGrowthCsv:
    def test_round_trip(self):
        rows = growth_report(ModelParams(0.5, 1.0), 100, 4, seed=3)
        buf = io.StringIO()
        write_growth_csv(rows, buf, metadata={"runs": 4})
        header, body = _split_csv(buf.getvalue())
        assert header["artifact"] == "allelic-bdi"
        assert header["runs"] == "4"
        assert body[0] == (
            "n,mean_groups,sd_groups,log_norm_mean,log_norm_cv,pow_norm_mean,pow_norm_cv"
        )
        assert len(body) == 1 + len(rows)
        for line, row in zip(body[1:], rows):
            fields = line.split(",")
            assert int(fields[0]) == row.n
            assert float(fields[1]) == row.mean_groups
            parsed = float(fields[3])
            assert parsed == row.log_norm_mean or (
                math.isnan(parsed) and math.isnan(row.log_norm_mean)
            )
            assert float(fields[5]) == row.pow_norm_mean

    def test_writes_to_path(self, tmp_path):
        rows = growth_report(ModelParams(0.5, 1.0), 100, 4, seed=3)
        target = tmp_path / "growth.csv"
        write_growth_csv(rows, str(target))
        text = target.read_text()
        assert "n,mean_groups" in text

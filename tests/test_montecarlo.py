"""Tests for ensemble simulation, empirical distributions, total-variation
distance, occupation measures, growth statistics and the CSV writers."""

import concurrent.futures
import gc
import io
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allelic_bdi import ctmc, montecarlo
from allelic_bdi import (
    AllelicPartition,
    DomainError,
    EmpiricalDistribution,
    ModelParams,
    RunawayError,
    growth_report,
    nbin_time_param,
    neg_bin_pmf,
    partition_stationary_truncated,
    run_ensemble,
    simulate,
    simulate_branching,
    stationary_occupation,
    tv_distance,
    write_growth_csv,
    write_histogram_csv,
)
from allelic_bdi import __version__
from allelic_bdi.cli import main
from allelic_bdi.urn import default_checkpoints
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


LOCK_BLOCK = montecarlo._LOCK_STEP_BLOCK


def _recording_pool(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable and the process pool one that maps in this process.

    The returned class records the pool sizes asked for and the jobs mapped.
    """

    class RecordingPool:
        sizes, jobs = [], []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            self.jobs.extend(jobs)
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    return RecordingPool


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

    @pytest.mark.parametrize("theta", [0.0, -0.25])
    def test_branching_engine_stays_empty_when_theta_nonpositive(self, theta):
        # the empty start never moves, so no replicate reaches the theta < 0 refusal
        dist = run_ensemble(ModelParams(0.5, theta, 2.0), 5.0, 50, 7, engine="branching")
        assert dist.weights == {AllelicPartition.empty(): 50.0}

    @pytest.mark.parametrize("engine", ["multiplicity", "branching", "bdi"])
    def test_worker_count_does_not_change_results(self, monkeypatch, engine):
        # four seed blocks (in lock step on the multiplicity engine); the pool
        # merges partition keys, or the bdi engine's integer sizes, by Counter
        monkeypatch.setattr(montecarlo, "_SEED_BLOCK", LOCK_BLOCK)
        params = ModelParams(0.5, 1.0, 2.0)
        serial = run_ensemble(params, 1.5, 4 * LOCK_BLOCK, 31, engine)
        parallel = run_ensemble(params, 1.5, 4 * LOCK_BLOCK, 31, engine, workers=2)
        assert serial.weights == parallel.weights

    def test_pool_is_capped_at_usable_cpus(self, monkeypatch):
        pool = _recording_pool(monkeypatch, cpus=3)
        monkeypatch.setattr(montecarlo, "_SEED_BLOCK", 256)
        params = ModelParams(0.5, 1.0, 2.0)
        pooled = run_ensemble(params, 1.5, 1000, 31, workers=100_000)
        assert pool.sizes == [3]  # not 100,000, nor the 4 seed blocks
        assert pooled.weights == run_ensemble(params, 1.5, 1000, 31).weights

    def test_a_pool_starts_only_for_two_seed_blocks(self, monkeypatch):
        pool = _recording_pool(monkeypatch, cpus=8)
        params, block = ModelParams(0.5, 1.0, 2.0), montecarlo._SEED_BLOCK
        for replicates in (1, 1000, block):
            run_ensemble(params, 0.5, replicates, 31, workers=8)
        assert pool.sizes == []
        run_ensemble(params, 0.5, block + 1, 31, workers=8)
        assert pool.sizes == [2]

    def test_pool_jobs_are_the_aligned_seed_blocks(self, monkeypatch):
        pool = _recording_pool(monkeypatch, cpus=2)
        params, block = ModelParams(0.5, 1.0, 2.0), montecarlo._SEED_BLOCK
        pooled = run_ensemble(params, 0.5, 2 * block + 5, 31, workers=2)
        ranges = [(0, block), (block, 2 * block), (2 * block, 2 * block + 5)]  # the last partial
        cap = ctmc.DEFAULT_MAX_EVENTS
        assert pool.jobs == [(params, 0.5, 31, "multiplicity", lo, hi, cap) for lo, hi in ranges]
        assert pooled.weights == run_ensemble(params, 0.5, 2 * block + 5, 31).weights

    def test_lock_step_gets_the_same_blocks_for_every_worker_count(self, monkeypatch):
        pool = _recording_pool(monkeypatch, cpus=2)
        block = 2 * LOCK_BLOCK
        monkeypatch.setattr(montecarlo, "_SEED_BLOCK", block)
        blocks = []
        lock_step = montecarlo._lock_step

        def recorded(params, t_end, streams, lo, hi, max_events):
            blocks.append((lo, hi))
            return lock_step(params, t_end, streams, lo, hi, max_events)

        monkeypatch.setattr(montecarlo, "_lock_step", recorded)
        params, replicates = ModelParams(0.0, 1.0, 2.0), 3 * block + LOCK_BLOCK + 44
        # the last block is partial but large enough for the lock step
        expected = [(0, block), (block, 2 * block), (2 * block, 3 * block), (3 * block, replicates)]
        tallies = []
        for workers in (1, 2):
            blocks.clear()
            tallies.append(run_ensemble(params, 5.0, replicates, 31, workers=workers).weights)
            assert blocks == expected
        assert pool.sizes == [2]
        assert tallies[0] == tallies[1]

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

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_refused(self, workers):
        # as the CLI refuses --workers 0, rather than running serially
        with pytest.raises(DomainError, match="need at least one worker"):
            run_ensemble(ModelParams(0.5, 1.0, 2.0), 1.0, 10, 1, workers=workers)

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

    def test_event_cap_survives_the_pool(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_SEED_BLOCK", 128)  # two seed blocks start a pool
        with pytest.raises(RunawayError) as exc:
            run_ensemble(ModelParams(0.5, 5.0, 0.0), 100.0, 256, 1, workers=2, max_events=50)
        assert "event cap" in str(exc.value)
        assert exc.value.events == 50
        assert exc.value.size == 50  # pure birth: every event adds one member
        assert 1 <= exc.value.groups <= 50

    @pytest.mark.parametrize("engine", montecarlo.ENGINES)
    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_every_engine_refuses_a_bad_horizon(self, engine, t_end):
        # a small cap, so an engine that accepted the horizon fails fast instead of running on
        with pytest.raises(DomainError, match="horizon must be finite"):
            run_ensemble(ModelParams(0.0, 1.0, 0.0), t_end, 4, 1, engine, max_events=1000)

    def test_bdi_event_cap_names_the_population_size(self):
        # pure birth: the size process counts no groups, so the message ends at the size
        with pytest.raises(RunawayError) as exc:
            run_ensemble(ModelParams(0.5, 5.0, 0.0), 100.0, 4, 1, "bdi", max_events=50)
        assert str(exc.value).startswith("replicate 0 of seed 1 (alpha=0.5, theta=5.0, mu=0.0")
        assert (exc.value.events, exc.value.size, exc.value.groups) == (50, 50, None)
        assert str(exc.value).endswith("with population size 50")

    @pytest.mark.parametrize("engine", montecarlo.ENGINES)
    def test_replicates_refuse_a_jump_that_does_not_advance_the_clock(self, engine):
        # replicates record no path, so the kernel itself must check the clock
        kernel, empty = montecarlo._KERNELS[engine]
        with pytest.raises(DomainError, match="strictly increasing"):
            kernel(ModelParams(0.5, 1.0, 0.5), 5.0, AbsorbingClock(), empty, 100)

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


def _count_default_rng(monkeypatch):
    """The seed of every later ``np.random.default_rng`` call, in call order."""
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return seeds


MASK32, MASK64 = 2**32 - 1, 2**64 - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _pcg64_seeding_step(seed, raw):
    """numpy's pcg64_set_seed in exact integers: (state, inc) from the seed and raw increment."""
    inc = (raw << 1 | 1) % 2**128
    return ((inc + seed) * PCG64_MULT + inc) % 2**128, inc


def _state_words(state, inc):
    return [state & MASK64, state >> 64, inc & MASK64, inc >> 64]


class TestReplicateSeeding:
    @pytest.mark.parametrize("seed,i", SEED_PAIRS)
    def test_stream_is_default_rng_of_the_pair(self, monkeypatch, seed, i):
        seeds = _count_default_rng(monkeypatch)
        rng = montecarlo._block_rngs(seed, i, i + 1).start(i)
        assert seeds == [[seed, i], [seed, i]]  # the block's two checks, no fallback
        oracle = np.random.default_rng([seed, i])
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.random(4).tolist() == oracle.random(4).tolist()
        assert rng.exponential(0.3, 4).tolist() == oracle.exponential(0.3, 4).tolist()
        assert rng.integers(2**63, size=4).tolist() == oracle.integers(2**63, size=4).tolist()
        assert rng.standard_exponential(4).tolist() == oracle.standard_exponential(4).tolist()

    def test_single_runs_seed_with_default_rng_of_seed_and_zero(self, monkeypatch, tmp_path):
        seeds = _count_default_rng(monkeypatch)
        stationary_occupation(ModelParams(0.5, 1.0, 2.0), 5.0, 1.0, 2**32 + 1)
        assert seeds == [[2**32 + 1, 0]]
        seeds.clear()
        argv = ["simulate", "--theta", "1", "--t", "1", "--seed", "7"]
        assert main(argv + ["--trajectory", str(tmp_path / "t.csv")]) == 0
        assert seeds == [[7, 0]]

    def test_growth_runs_draw_default_rng_of_the_pair_across_a_block_edge(self, monkeypatch):
        params, n_max, seed = ModelParams(0.5, 1.0), 10, 2**32 + 1
        runs = montecarlo._SEED_BLOCK + 1
        expected = montecarlo._group_count_traces(
            n_max, params, (np.random.default_rng([seed, r]) for r in range(runs))
        )
        traces = []
        group_count_traces = montecarlo._group_count_traces

        def recorded(*args):
            traces.extend(group_count_traces(*args))
            return traces

        monkeypatch.setattr(montecarlo, "_group_count_traces", recorded)
        seeds = _count_default_rng(monkeypatch)
        growth_report(params, n_max, runs, seed)
        last = montecarlo._SEED_BLOCK - 1
        assert seeds == [[seed, 0], [seed, last], [seed, last + 1], [seed, last + 1]]  # checks
        assert traces == expected

    @pytest.mark.parametrize(
        "seed,lo,hi",
        [
            (5, 0, 300),  # one seed word
            # two seed words, indices up to 2^32 and from it: a block has one word count
            (2**32 + 1, 2**32 - 150, 2**32),
            (2**32 + 1, 2**32, 2**32 + 150),
            (2**64 + 3, 2**32 - 40, 2**32),  # three seed words
            (2**64 + 3, 2**32, 2**32 + 40),
            (2**150 // 7, 2**40 + 7, 2**40 + 200),  # five seed words
            # all-ones entropy words: seeds and indices up to 2^32 - 1, 2^64 - 1, 2^96 - 1
            (2**32 - 1, 2**32 - 100, 2**32),
            (2**64 - 1, 2**64 - 60, 2**64),
            (2**96 - 1, 2**32 - 60, 2**32),
            (2**96 - 1, 2**32, 2**32 + 4),
        ],
    )
    def test_block_words_equal_the_exact_seeding_step(self, seed, lo, hi):
        # every row, where the run-time check reads only the first and the last
        block = montecarlo._block_rngs(seed, lo, hi)
        words = np.frombuffer(block.starts, np.uint64).reshape(-1, 4).tolist()
        assert len(words) == hi - lo
        for i, row in zip(range(lo, hi), words):
            entropy = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
            s0, s1, s2, s3 = (int(word) for word in entropy)
            state, inc = _pcg64_seeding_step(s0 << 64 | s1, s2 << 64 | s3)
            assert row == _state_words(state, inc)
            oracle = np.random.default_rng([seed, i]).bit_generator.state["state"]
            assert oracle == {"state": state, "inc": inc}

    def test_pcg64_words_carry_through_every_limb(self):
        # seeds built backwards from sums and products whose 32-bit limbs are
        # all ones or all zeros, so every carry of the limb arithmetic is taken
        inverse = pow(PCG64_MULT, -1, 2**128)
        cases = [(2**128 - 1, 2**128 - 1), (0, 0), (2**127, 2**127 - 1)]  # (seed, raw increment)
        for product in (2**128 - 1, 2**128 - 2**32, 2**96 - 1, 2**64 - 1, 2**32, 0):
            for inc in (1, 2**128 - 1, 2**32 + 1, 2**64 - 1, 2**128 - 2**96 + 1):
                base = product * inverse % 2**128  # base * PCG64_MULT = product, mod 2^128
                for top in (0, 2**127):  # the bit that << 1 drops
                    cases.append(((base - inc) % 2**128, inc >> 1 | top))
        for base in (2**128 - 1, 2**96 - 1, 2**64, 1, 0):  # inc + seed at and past 2^128
            cases += [((base - 1) % 2**128, 0), ((base + 1) % 2**128, 2**127 - 1)]
        halves = [  # generate_state's uint32 words: s0 low, s0 high, ..., s3 high
            np.array([number >> shift >> 32 * k & MASK32 for number in column], np.uint64)
            for column in ([seed for seed, _ in cases], [raw for _, raw in cases])
            for shift in (64, 0)
            for k in (0, 1)
        ]
        words = montecarlo._pcg64_words(halves).tolist()
        assert words == [_state_words(*_pcg64_seeding_step(seed, raw)) for seed, raw in cases]

    def test_block_across_a_word_count_falls_back(self, monkeypatch):
        # a seed block starts at a multiple of 4,096, which divides 2^32, so all
        # its indices have one word count; a block across 2^32 is hashed at the
        # first one's and fails its check on the last row
        seed = 2**32 + 1
        seeds = _count_default_rng(monkeypatch)
        across = montecarlo._block_rngs(seed, 2**32 - 150, 2**32 + 150)
        assert isinstance(across, montecarlo._Generators)
        assert seeds == [[seed, 2**32 - 150], [seed, 2**32 + 149]]
        for i in (2**32 - 1, 2**32):
            oracle = np.random.default_rng([seed, i])
            assert across.start(i).bit_generator.state == oracle.bit_generator.state
        lo, hi = 2**32, 2**32 + 300
        aligned = montecarlo._block_rngs(seed, lo, hi)
        assert isinstance(aligned, montecarlo._RawBlock)
        for i in range(lo, hi):
            oracle = np.random.default_rng([seed, i])
            assert aligned.start(i).bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("lo,hi", [(2**32 - 150, 2**32), (2**32, 2**32 + 150)])
    def test_block_draws_each_stream_pair_by_pair(self, lo, hi):
        seed = 2**32 + 1
        block = montecarlo._block_rngs(seed, lo, hi)
        assert isinstance(block, montecarlo._RawBlock)
        oracles = {i: np.random.default_rng([seed, i]) for i in range(lo, hi)}
        order, exps, unis = list(range(lo, hi)), np.empty(32), np.empty(32)
        for k in range(3):  # three pairs per replicate, the replicates interleaved
            random.Random(k).shuffle(order)
            for i in order:
                block.draw_pair(i, exps, unis)
                assert exps.tolist() == oracles[i].standard_exponential(32).tolist()
                assert unis.tolist() == oracles[i].random(32).tolist()
        for i in range(lo, hi):  # the pairs are saved apart, so each stream still starts anew
            assert montecarlo._block_matches(seed, i, block.start(i))
        rng = block.start(lo)
        rng.integers(2**32, dtype=np.uint32)  # buffers the other half of a 64-bit output
        assert rng.bit_generator.state["has_uint32"] == 1
        assert montecarlo._block_matches(seed, lo, block.start(lo))

    def test_block_words_live_as_long_as_its_start(self):
        # growth_report keeps only a block's bound start: the words it loads
        # must outlive _block_rngs even when their memory is asked for again
        seed, lo, hi = 2**32 + 1, 0, 150
        block = montecarlo._block_rngs(seed, lo, hi)
        assert isinstance(block, montecarlo._RawBlock)  # it passed its check, so no fallback
        start = block.start
        del block
        gc.collect()
        for _ in range(4):
            churn = [np.full((hi - lo, 4), MASK64, np.uint64) for _ in range(8)]
            del churn
        for i in range(lo, hi):
            oracle = np.random.default_rng([seed, i])
            assert start(i).bit_generator.state == oracle.bit_generator.state
        params = ModelParams(0.5, 1.0)
        first = [repr(row) for row in growth_report(params, 300, hi, seed)]
        churn = [np.full((hi - lo, 4), MASK64, np.uint64) for _ in range(8)]
        del churn
        gc.collect()
        assert [repr(row) for row in growth_report(params, 300, hi, seed)] == first


# public engine and final state (for bdi, the size kernel): one replicate's outcome oracle
ORACLE_ENGINES = {
    "multiplicity": lambda p, t, rng: simulate(p, t, rng).final_state().entries,
    "branching": lambda p, t, rng: simulate_branching(p, t, rng).final_state().entries,
    "bdi": lambda p, t, rng: ctmc._size_kernel(p, t, rng, 0, ctmc.DEFAULT_MAX_EVENTS),
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


def _kernel_tallies(params, t_end, seed, start, stop):
    """The scalar kernel's tallies, one replicate at a time, in first-occurrence order."""
    tallies = {}
    for i in range(start, stop):
        rng = np.random.default_rng([seed, i])
        key = ctmc._multiplicity_kernel(params, t_end, rng, ctmc._EMPTY, 10**6, None)
        tallies[key] = tallies.get(key, 0) + 1
    return tallies


def _assert_kernel_tallies(tallies, params, t_end, seed, start, stop):
    expected = _kernel_tallies(params, t_end, seed, start, stop)
    assert list(tallies.items()) == list(expected.items())


def _lock_step_chunk(monkeypatch, params, t_end, seed, start, stop, max_events=10**6):
    """``_run_chunk`` over the multiplicity engine, and the block sizes run in lock step."""
    blocks = []
    lock_step = montecarlo._lock_step

    def counted(params, t_end, streams, lo, hi, max_events):
        blocks.append(hi - lo)
        return lock_step(params, t_end, streams, lo, hi, max_events)

    monkeypatch.setattr(montecarlo, "_lock_step", counted)
    tallies = montecarlo._run_chunk((params, t_end, seed, "multiplicity", start, stop, max_events))
    return tallies, blocks


class EdgeDraws:
    """Generator stand-in for replicate ``i``, drawing from fixed cycles started at offset ``i``.

    The selectors sit at the edges of [0, 1), where ``u * total`` rounds
    onto class boundaries.  With ``first``, even replicates take it as
    their first holding time.
    """

    HOLDS = [1.0, 0.5, 2.0, 0.25, 1.5]
    PICKS = [0.9, np.nextafter(1.0, 0.0), 0.0, 0.5, 1.0 - 2.0**-40, 0.999999, 0.25, 2.0**-60]

    def __init__(self, i, first=None):
        self.i, self.first, self.drawn = i, first, {}

    def _draw(self, cycle, size, out, first=None):
        start = self.drawn.get(id(cycle), 0)
        draws = [cycle[(self.i + start + j) % len(cycle)] for j in range(size or len(out))]
        if start == 0 and first is not None:
            draws[0] = first
        self.drawn[id(cycle)] = start + len(draws)
        return np.array(draws) if out is None else np.copyto(out, draws)

    def standard_exponential(self, size=None, out=None):
        return self._draw(self.HOLDS, size, out, None if self.i % 2 else self.first)

    def random(self, size=None, out=None):
        return self._draw(self.PICKS, size, out)


class RecordingStream:
    """``default_rng([seed, i])`` that records each block it draws, in draw order."""

    def __init__(self, seed, i):
        self.rng, self.blocks = np.random.default_rng([seed, i]), []

    def standard_exponential(self, size=None, out=None):
        draws = self.rng.standard_exponential(size=size, out=out)
        self.blocks.append(("exp", draws.tolist()))
        return draws

    def random(self, size=None, out=None):
        draws = self.rng.random(size=size, out=out)
        self.blocks.append(("uni", draws.tolist()))
        return draws


# multiplicity points at the edges of the domain; the horizons give replicates
# from no event at all to more than two draw blocks of them
LOCK_STEP_POINTS = [
    pytest.param(ModelParams(0.0, 1.0, 2.0), 5.0, id="criterion6-alpha0"),
    pytest.param(ModelParams(0.999, 0.5, 1.5), 2.0, id="alpha-near-1"),
    pytest.param(ModelParams(0.3, 2.0, 0.0), 1.5, id="mu0"),
    pytest.param(ModelParams(0.5, 1.0, 1.0), 3.0, id="mu1"),
    pytest.param(ModelParams(0.5, 1.0, 1.0 + 1e-6), 3.0, id="mu1plus"),
    pytest.param(ModelParams(0.2, 3.0, 4.0), 2.0, id="mu4"),
    pytest.param(ModelParams(0.4, 1e-3, 2.0), 6.0, id="tiny-theta"),
    pytest.param(ModelParams(0.4, 5e-324, 2.0), 6.0, id="subnormal-theta"),
    pytest.param(ModelParams(0.5, 1.0, 1.5), 0.0, id="t0"),
]
# block sizes on both sides of the lock-step rule, a block of two-word indices,
# and a block across 2^32 (whose streams fall back to default_rng)
LOCK_STEP_RANGES = [
    (7, 7 + LOCK_BLOCK - 1),
    (7, 7 + LOCK_BLOCK),
    (0, 300),
    (2**32, 2**32 + 300),
    (2**32 - 150, 2**32 + 150),
]


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
        monkeypatch.setattr(montecarlo, "_block_matches", lambda *args: False)
        seeds = _count_default_rng(monkeypatch)
        tallies = _chunk(engine, seed, start, stop)
        assert seeds == [[seed, i] for i in range(start, stop)]
        assert list(tallies.items()) == list(expected.items())

    def test_block_check_compares_the_state(self):
        seed = 2**32 + 1
        words = [np.full(3, word, np.uint32) for word in montecarlo._seed_words(seed)]
        states = montecarlo._pcg64_states(words + montecarlo._word_columns(7, 3))  # i = 7, 8, 9
        assert states.shape == (3, 4) and states.dtype == np.uint64
        block = montecarlo._RawBlock(7, states)
        assert montecarlo._block_matches(seed, 8, block.start(8))
        assert not montecarlo._block_matches(seed, 8, block.start(9))
        for column in range(4):  # each word of the row reaches the state that the check reads
            changed = states.copy()
            changed[1, column] ^= np.uint64(2**40)
            block = montecarlo._RawBlock(7, changed)
            assert not montecarlo._block_matches(seed, 8, block.start(8))

    def test_partition_keys_keep_first_occurrence_order(self):
        seed, replicates = 5, 300
        dist = run_ensemble(CHUNK_PARAMS, CHUNK_T, replicates, seed)
        expected = _oracle_tallies("multiplicity", seed, 0, replicates)
        assert [m.entries for m in dist.weights] == list(expected)
        assert list(dist.weights.values()) == list(expected.values())

    @pytest.mark.parametrize("start,stop", LOCK_STEP_RANGES)
    @pytest.mark.parametrize("params,t_end", LOCK_STEP_POINTS)
    def test_lock_step_tallies_equal_the_kernel_loop(self, monkeypatch, params, t_end, start, stop):
        seed = 2**32 + 1
        tallies, blocks = _lock_step_chunk(monkeypatch, params, t_end, seed, start, stop)
        _assert_kernel_tallies(tallies, params, t_end, seed, start, stop)
        assert blocks == ([stop - start] if stop - start >= LOCK_BLOCK else [])

    @pytest.mark.parametrize("params,t_end", LOCK_STEP_POINTS[:3])
    def test_lock_step_chunk_one_longer_than_a_block(self, monkeypatch, params, t_end):
        stop = montecarlo._SEED_BLOCK + 1
        tallies, blocks = _lock_step_chunk(monkeypatch, params, t_end, 0, 0, stop)
        _assert_kernel_tallies(tallies, params, t_end, 0, 0, stop)
        assert blocks == [montecarlo._SEED_BLOCK]  # the last replicate runs alone

    def test_lock_step_replicates_past_two_draw_blocks(self, monkeypatch):
        # about 0.3% of criterion-6 replicates take 64 events or more: the
        # lock step draws a third block pair for them or leaves them to the kernel
        params, t_end, seed, stop = ModelParams(0.0, 1.0, 2.0), 5.0, 21, 2000
        rngs = (np.random.default_rng([seed, i]) for i in range(stop))
        lengths = [len(simulate(params, t_end, rng)) for rng in rngs]
        assert sum(n >= 64 for n in lengths) >= 3
        tallies, _ = _lock_step_chunk(monkeypatch, params, t_end, seed, 0, stop)
        _assert_kernel_tallies(tallies, params, t_end, seed, 0, stop)

    def test_lock_step_draws_each_pair_once_in_stream_order(self, monkeypatch):
        # at t = 6 about one criterion-6 replicate in six passes event 32 in
        # lock step and about one in a hundred passes event 64
        params, t_end, seed, stop = ModelParams(0.0, 1.0, 2.0), 6.0, 21, 2000
        streams = {}  # replicate -> the streams made for it: the lock step's, then a rerun's

        def make(i):
            streams.setdefault(i, []).append(RecordingStream(seed, i))
            return streams[i][-1]

        monkeypatch.setattr(montecarlo, "_block_rngs", lambda *args: montecarlo._Generators(make))
        left = []
        lock_step = montecarlo._lock_step

        def recorded(*args):
            outcomes = lock_step(*args)
            left.extend(r for r, key in enumerate(outcomes) if key is None)  # lo is 0
            return outcomes

        monkeypatch.setattr(montecarlo, "_lock_step", recorded)
        tallies, blocks = _lock_step_chunk(monkeypatch, params, t_end, seed, 0, stop)
        assert blocks == [stop]
        _assert_kernel_tallies(tallies, params, t_end, seed, 0, stop)
        pairs = {}
        for i in range(stop):
            assert len(streams[i]) == 1 + (i in left)  # a rerun starts a stream of its own
            drawn = streams[i][0].blocks
            oracle = np.random.default_rng([seed, i])
            for j, (kind, draws) in enumerate(drawn):
                fresh = oracle.random(32) if j % 2 else oracle.standard_exponential(32)
                assert (kind, draws) == ("uni" if j % 2 else "exp", fresh.tolist())
            assert len(drawn) % 2 == 0
            pairs[i] = len(drawn) // 2
            if i not in left:  # it ran to t_end in lock step: one pair per 32 holding times
                events = len(simulate(params, t_end, np.random.default_rng([seed, i])))
                assert pairs[i] == events // 32 + 1
        assert sum(n >= 2 for n in pairs.values()) >= 100
        assert sum(n >= 3 for n in pairs.values()) >= 10

    @pytest.mark.parametrize(
        "params,first",
        [
            # a subnormal theta: u * theta rounds up to theta in the empty state
            (ModelParams(0.5, 1.5e-323, 2.0), 5e-324),
            (ModelParams(0.5, 1.5e-323, 0.0), 5e-324),
            (ModelParams(0.0, 1.0, 2.0), None),
            (ModelParams(0.999, 0.5, 0.0), None),
            (ModelParams(0.3, 2.0, 1.0), None),
        ],
    )
    def test_lock_step_selectors_at_class_edges_match_the_kernel(self, monkeypatch, params, first):
        t_end, start, stop = 3.0, 5, 5 + LOCK_BLOCK
        expected = {}
        for i in range(start, stop):
            rng = EdgeDraws(i, first)
            key = ctmc._multiplicity_kernel(params, t_end, rng, ctmc._EMPTY, 10**4, None)
            expected[key] = expected.get(key, 0) + 1
        assert len(expected) > 1 or first  # a lone founder dies out at the subnormal theta
        draws = montecarlo._Generators(lambda i: EdgeDraws(i, first))
        monkeypatch.setattr(montecarlo, "_block_rngs", lambda *args: draws)
        tallies, blocks = _lock_step_chunk(monkeypatch, params, t_end, 0, start, stop, 10**4)
        assert blocks == [stop - start]
        assert list(tallies.items()) == list(expected.items())

    @pytest.mark.parametrize("t_end,handed", [(5.0, range(0, 16)), (100.0, [LOCK_BLOCK])])
    def test_lock_step_hands_long_replicates_to_the_kernel(self, monkeypatch, t_end, handed):
        # at t = 5 nine in ten replicates end within 32 events and the block
        # steps on; at t = 100 every one runs past 32 and all rerun one by one
        params, seed = ModelParams(0.0, 1.0, 2.0), 4
        left = []
        lock_step = montecarlo._lock_step

        def counted(*args):
            outcomes = lock_step(*args)
            left.append(outcomes.count(None))
            return outcomes

        monkeypatch.setattr(montecarlo, "_lock_step", counted)
        chunk = (params, t_end, seed, "multiplicity", 0, LOCK_BLOCK, 10**6)
        tallies = montecarlo._run_chunk(chunk)
        assert len(left) == 1 and left[0] in handed
        _assert_kernel_tallies(tallies, params, t_end, seed, 0, LOCK_BLOCK)

    @pytest.mark.parametrize("t_end", [-1.0, math.nan, math.inf])
    def test_lock_step_refuses_a_horizon_the_kernel_refuses(self, monkeypatch, t_end):
        for stop in (LOCK_BLOCK, LOCK_BLOCK - 1):  # in lock step, and one by one
            with pytest.raises(DomainError, match="horizon must be finite"):
                _lock_step_chunk(monkeypatch, CHUNK_PARAMS, t_end, 1, 0, stop)

    def test_theta_at_most_zero_runs_one_by_one(self, monkeypatch):
        params = ModelParams(0.5, -0.2, 1.0)  # from the empty state nothing happens
        tallies, blocks = _lock_step_chunk(monkeypatch, params, 1.0, 3, 0, 300)
        assert blocks == []
        assert tallies == {(): 300}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_events", [1, 31, 32, 33, 63, 64])
    def test_lock_step_event_cap_names_the_replicate_a_serial_loop_names(
        self, monkeypatch, workers, max_events
    ):
        # 2,048 replicates make eight seed blocks, each run in lock step, on either worker count
        monkeypatch.setattr(montecarlo, "_SEED_BLOCK", LOCK_BLOCK)
        params, t_end, seed, replicates = ModelParams(0.0, 1.0, 2.0), 5.0, 21, 8 * LOCK_BLOCK
        for i in range(replicates):  # the serial loop stops at the first replicate past the cap
            try:
                rng = np.random.default_rng([seed, i])
                ctmc._multiplicity_kernel(params, t_end, rng, ctmc._EMPTY, max_events, None)
            except RunawayError as exc:
                first, expected = i, exc
                break
        assert first == {1: 0, 31: 8, 32: 8, 33: 8, 63: 73, 64: 73}[max_events]
        with pytest.raises(RunawayError) as exc:
            run_ensemble(params, t_end, replicates, seed, workers=workers, max_events=max_events)
        assert str(exc.value) == (
            f"replicate {first} of seed {seed} (alpha=0.0, theta=1.0, mu=2.0, t=5.0, "
            f"engine multiplicity): {expected}"
        )
        got = (exc.value.events, exc.value.time, exc.value.size, exc.value.groups)
        assert got == (expected.events, expected.time, expected.size, expected.groups)

    def test_lock_step_refuses_a_jump_that_does_not_advance_the_clock(self, monkeypatch):
        # every replicate's second holding time is lost to round-off
        absorbing = montecarlo._Generators(lambda i: AbsorbingClock())
        monkeypatch.setattr(montecarlo, "_block_rngs", lambda *args: absorbing)
        with pytest.raises(DomainError, match="strictly increasing"):
            _lock_step_chunk(monkeypatch, ModelParams(0.5, 1.0, 0.5), 5.0, 1, 0, 300)

    def test_lock_step_block_that_fails_its_check_falls_back(self, monkeypatch):
        params, t_end, seed = ModelParams(0.0, 1.0, 2.0), 5.0, 2**32 + 1
        start, stop = 2**32 - 150, 2**32 + 150
        monkeypatch.setattr(montecarlo, "_block_matches", lambda *args: False)
        seeds = _count_default_rng(monkeypatch)
        made = []  # the seeds asked for when the lock step returns, and the replicates it leaves
        lock_step = montecarlo._lock_step

        def recorded(*args):
            outcomes = lock_step(*args)
            made.append((list(seeds), [start + r for r, key in enumerate(outcomes) if key is None]))
            return outcomes

        monkeypatch.setattr(montecarlo, "_lock_step", recorded)
        tallies, blocks = _lock_step_chunk(monkeypatch, params, t_end, seed, start, stop)
        assert blocks == [stop - start]
        assert sorted({i for _, i in seeds}) == list(range(start, stop))  # each by the fallback
        assert {s for s, _ in seeds} == {seed}
        # one generator per running row, kept for its later pairs, then one per kernel rerun
        assert made[0][0] == [[seed, i] for i in range(start, stop)]
        assert seeds[stop - start :] == [[seed, i] for i in made[0][1]]
        _assert_kernel_tallies(tallies, params, t_end, seed, start, stop)

    def test_lock_step_memory_is_bounded_by_one_seed_block(self):
        # criterion 6's point, serial: the lock step holds one seed block of
        # replicates at a time, so a chunk of five blocks peaks where one does
        params, t_end = ModelParams(0.0, 1.0, 2.0), 5.0
        one = _traced_peak(run_ensemble, params, t_end, montecarlo._SEED_BLOCK, 6)
        five = _traced_peak(run_ensemble, params, t_end, 4 * montecarlo._SEED_BLOCK + 1, 6)
        assert one < montecarlo._SEED_BLOCK * 4096  # about 2 kB per replicate of the block
        assert five < 1.25 * one


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.just(0.0) | st.floats(0.0, 0.999),
    theta=st.floats(1e-9, 5.0),
    mu=st.sampled_from([0.0, 1.0, 1.0 + 1e-9]) | st.floats(0.0, 4.0),
    t_end=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**64),
    start=st.integers(0, 2**33),
    count=st.integers(LOCK_BLOCK, LOCK_BLOCK + 64),
)
def test_lock_step_property_equals_kernel_loop(alpha, theta, mu, t_end, seed, start, count):
    params = ModelParams(alpha, theta, mu)
    chunk = (params, t_end, seed, "multiplicity", start, start + count, 10**6)
    _assert_kernel_tallies(montecarlo._run_chunk(chunk), params, t_end, seed, start, start + count)


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

"""Tests for the continuous-time engines: rate tables, trajectory containers,
Gillespie simulation, the size process, and the individual-level construction."""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, given
from scipy import stats

from allelic_bdi import (
    AllelicPartition,
    DomainError,
    EventKind,
    ModelParams,
    RunawayError,
    SizeTrajectory,
    Trajectory,
    TransitionEvent,
    enumerate_partitions,
    rates,
    simulate,
    simulate_bdi,
    simulate_branching,
    write_trajectory_csv,
)
from allelic_bdi import __version__
from conftest import AbsorbingClock, group_sizes, model_params


def decode(text):
    return AllelicPartition.decode(text)


# ---------------------------------------------------------------------------
# rate tables
# ---------------------------------------------------------------------------


class TestRates:
    def test_frozen_table(self):
        # state 1^2 2^1: s = 4, k = 3
        table = rates(decode("1^2 2^1"), ModelParams(0.5, 1.0, 2.0))
        assert table == [
            (TransitionEvent.new_family(), 2.5),  # theta + alpha * k = 1 + 1.5
            (TransitionEvent.growth(1), 1.0),  # (1 - alpha) * 2
            (TransitionEvent.growth(2), 1.5),  # (2 - alpha) * 1
            (TransitionEvent.death(1), 4.0),  # mu * 1 * 2
            (TransitionEvent.death(2), 4.0),  # mu * 2 * 1
        ]
        assert math.isclose(sum(w for _, w in table), 13.0, rel_tol=1e-15)

    def test_no_death_events_when_mu_zero(self):
        table = rates(decode("1^2 2^1"), ModelParams(0.5, 1.0, 0.0))
        kinds = {ev.kind for ev, _ in table}
        assert EventKind.DEATH not in kinds
        assert math.isclose(sum(w for _, w in table), 5.0, rel_tol=1e-15)

    def test_empty_state_positive_theta(self):
        table = rates(AllelicPartition.empty(), ModelParams(0.3, 1.5, 2.0))
        assert table == [(TransitionEvent.new_family(), 1.5)]

    def test_empty_state_frozen_when_theta_nonpositive(self):
        assert rates(AllelicPartition.empty(), ModelParams(0.5, -0.25, 2.0)) == []
        assert rates(AllelicPartition.empty(), ModelParams(0.5, 0.0, 2.0)) == []

    @pytest.mark.parametrize("alpha,theta,mu", [(0.0, 1.0, 2.0), (0.5, 0.5, 1.2), (0.9, -0.45, 5.0), (0.5, 2.0, 0.0)])
    def test_total_rate_identity(self, alpha, theta, mu):
        params = ModelParams(alpha, theta, mu)
        for m in enumerate_partitions(6):
            total = sum(w for _, w in rates(m, params))
            expected = theta + (1.0 + mu) * m.size
            assert math.isclose(total, expected, rel_tol=1e-12)
            assert all(w > 0.0 for _, w in rates(m, params))

    @given(group_sizes(), model_params())
    def test_total_rate_identity_property(self, sizes, params):
        m = AllelicPartition.from_group_sizes(sizes)
        assume(params.theta + params.alpha * m.num_groups > 0.0)
        total = sum(w for _, w in rates(m, params))
        expected = params.theta + (1.0 + params.mu) * m.size
        assert math.isclose(total, expected, rel_tol=1e-12)

    def test_events_are_applicable(self):
        params = ModelParams(0.5, 1.0, 2.0)
        for m in enumerate_partitions(5):
            for ev, _ in rates(m, params):
                m.apply_event(ev)  # must not raise


# ---------------------------------------------------------------------------
# trajectory containers
# ---------------------------------------------------------------------------


def _manual_trajectory():
    events = (
        (1.0, TransitionEvent.new_family()),
        (2.0, TransitionEvent.new_family()),
        (3.0, TransitionEvent.growth(1)),
    )
    return Trajectory(AllelicPartition.empty(), events, 4.0)


class TestTrajectory:
    def test_replay_and_queries(self):
        traj = _manual_trajectory()
        assert len(traj) == 3
        assert traj.state_at(0.0) == AllelicPartition.empty()
        assert traj.state_at(0.5) == AllelicPartition.empty()
        assert traj.state_at(1.0) == decode("1^1")  # inclusive of the jump
        assert traj.state_at(2.5) == decode("1^2")
        assert traj.state_at(3.0) == decode("1^1 2^1")
        assert traj.state_at(4.0) == decode("1^1 2^1")
        assert traj.final_state() == decode("1^1 2^1")

    def test_iter_states(self):
        traj = _manual_trajectory()
        seq = list(traj.iter_states())
        assert len(seq) == 4
        assert seq[0] == (0.0, AllelicPartition.empty())
        assert seq[-1] == (3.0, decode("1^1 2^1"))

    def test_query_outside_horizon_rejected(self):
        traj = _manual_trajectory()
        with pytest.raises(DomainError):
            traj.state_at(4.5)
        with pytest.raises(DomainError):
            traj.state_at(-0.1)

    def test_eventless(self):
        traj = Trajectory(decode("2^1"), (), 3.0)
        assert traj.final_state() == decode("2^1")
        assert traj.state_at(3.0) == decode("2^1")
        assert len(traj) == 0

    def test_validation(self):
        e0 = AllelicPartition.empty()
        nf = TransitionEvent.new_family()
        with pytest.raises(DomainError):
            Trajectory(e0, (), -1.0)
        with pytest.raises(DomainError):
            Trajectory(e0, ((0.0, nf),), 1.0)  # times must be positive
        with pytest.raises(DomainError):
            Trajectory(e0, ((0.5, nf), (0.5, nf)), 1.0)  # strictly increasing
        with pytest.raises(DomainError):
            Trajectory(e0, ((1.5, nf),), 1.0)  # beyond the horizon


class TestSizeTrajectory:
    def test_value_queries(self):
        st = SizeTrajectory((1.0, 2.0), (1, 2), 3.0)
        assert st.value_at(0.0) == 0
        assert st.value_at(0.5) == 0
        assert st.value_at(1.0) == 1  # inclusive of the jump
        assert st.value_at(1.5) == 1
        assert st.value_at(3.0) == 2
        assert st.final_value == 2

    def test_initial_offset(self):
        st = SizeTrajectory((1.0,), (4,), 2.0, initial=5)
        assert st.value_at(0.5) == 5
        assert st.final_value == 4
        empty = SizeTrajectory((), (), 2.0, initial=3)
        assert empty.final_value == 3
        assert empty.value_at(1.0) == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            SizeTrajectory((1.0,), (1, 2), 2.0)
        with pytest.raises(DomainError):
            SizeTrajectory((2.0, 1.0), (1, 2), 3.0)
        with pytest.raises(DomainError):
            SizeTrajectory((1.0, 1.0), (1, 2), 3.0)
        with pytest.raises(DomainError):
            SizeTrajectory((5.0,), (1,), 3.0)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
def test_path_types_refuse_bad_horizons(horizon):
    with pytest.raises(DomainError, match="horizon"):
        Trajectory(AllelicPartition.empty(), (), horizon)
    with pytest.raises(DomainError, match="horizon"):
        SizeTrajectory((), (), horizon)


@pytest.mark.parametrize("engine", [simulate, simulate_bdi, simulate_branching])
@pytest.mark.parametrize("t_end", [math.nan, math.inf])
def test_engines_refuse_non_finite_horizons(engine, t_end):
    # a small cap, so an engine that accepted the horizon fails fast instead of running on
    with pytest.raises(DomainError, match="horizon"):
        engine(ModelParams(0.0, 1.0, 0.0), t_end, np.random.default_rng(1), max_events=1000)


@pytest.mark.parametrize("engine", [simulate, simulate_bdi, simulate_branching])
def test_engines_refuse_a_jump_that_does_not_advance_the_clock(engine):
    with pytest.raises(DomainError, match="strictly increasing"):
        engine(ModelParams(0.5, 1.0, 0.5), 5.0, AbsorbingClock())


@pytest.mark.parametrize("engine", [simulate, simulate_bdi, simulate_branching])
@pytest.mark.parametrize("params", [ModelParams(0.5, 5.0, 0.0), ModelParams(0.3, 2.0, 0.9)])
def test_event_cap_names_the_state_it_stopped_in(engine, params):
    with pytest.raises(RunawayError) as exc:
        engine(params, 200.0, np.random.default_rng(9), max_events=50)
    assert exc.value.events == 50
    # the same draws, stopped just before the jump that hit the cap
    path = engine(params, math.nextafter(exc.value.time, 0.0), np.random.default_rng(9))
    if engine is simulate_bdi:
        assert len(path.times) == 50
        assert (exc.value.size, exc.value.groups) == (path.final_value, None)
        assert str(exc.value).endswith(f"with population size {path.final_value}")
    else:
        assert len(path) == 50
        state = path.final_state()
        assert (exc.value.size, exc.value.groups) == (state.size, state.num_groups)
        text = f"with population size {state.size} in {state.num_groups} groups"
        assert str(exc.value).endswith(text)


# ---------------------------------------------------------------------------
# Gillespie simulation of the multiplicity chain
# ---------------------------------------------------------------------------


def _replay_is_consistent(traj):
    """Replay the event list and confirm sizes track the event deltas."""
    prev_size = traj.initial.size
    last_time = 0.0
    for (t, ev), (t2, state) in zip(traj.events, _states_after(traj)):
        assert t == t2
        assert t > last_time
        assert state.size == prev_size + ev.size_delta
        prev_size, last_time = state.size, t
    assert traj.final_state().size == prev_size


def _states_after(traj):
    it = traj.iter_states()
    next(it)
    return it


class TestSimulate:
    def test_deterministic_under_seed(self):
        params = ModelParams(0.5, 1.0, 2.0)
        a = simulate(params, 5.0, np.random.default_rng(42))
        b = simulate(params, 5.0, np.random.default_rng(42))
        assert a == b
        c = simulate(params, 5.0, np.random.default_rng(43))
        assert a != c

    def test_replay_consistency(self):
        params = ModelParams(0.5, 1.0, 2.0)
        traj = simulate(params, 5.0, np.random.default_rng(7))
        assert len(traj) > 0
        assert traj.horizon == 5.0
        _replay_is_consistent(traj)

    def test_zero_horizon(self):
        traj = simulate(ModelParams(0.5, 1.0, 2.0), 0.0, np.random.default_rng(1))
        assert traj.events == ()
        assert traj.final_state() == AllelicPartition.empty()

    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            simulate(ModelParams(0.5, 1.0, 2.0), -1.0, np.random.default_rng(1))

    def test_frozen_at_empty_state_when_theta_nonpositive(self):
        traj = simulate(ModelParams(0.5, -0.25, 2.0), 10.0, np.random.default_rng(3))
        assert traj.events == ()
        assert traj.final_state() == AllelicPartition.empty()
        traj = simulate(ModelParams(0.5, 0.0, 2.0), 10.0, np.random.default_rng(3))
        assert traj.events == ()

    def test_nonpositive_theta_runs_until_extinction(self):
        # with theta <= 0 the chain moves while populated and freezes at empty
        params = ModelParams(0.5, -0.25, 2.0)
        traj = simulate(params, 50.0, np.random.default_rng(11), initial=decode("2^2"))
        assert len(traj) > 0
        _replay_is_consistent(traj)
        seen_empty = False
        for _, state in traj.iter_states():
            assert not seen_empty, "no events may follow the empty state"
            seen_empty = state.size == 0
        assert traj.final_state().size == 0  # at mu = 2 extinction is certain well before t = 50

    def test_initial_state_respected(self):
        start = decode("1^1 3^1")
        traj = simulate(ModelParams(0.0, 1.0, 1.0), 2.0, np.random.default_rng(5), initial=start)
        assert traj.initial == start
        assert traj.state_at(0.0) == start

    def test_event_cap(self):
        with pytest.raises(RunawayError) as exc:
            simulate(ModelParams(0.5, 5.0, 0.0), 200.0, np.random.default_rng(9), max_events=50)
        assert exc.value.events == 50
        assert 0.0 < exc.value.time <= 200.0

    def test_first_event_time_is_exponential_theta(self):
        # from the empty state the first jump is the immigration clock
        params = ModelParams(0.5, 1.0, 2.0)
        first = [
            simulate(params, 50.0, np.random.default_rng([909, i])).events[0][0]
            for i in range(3000)
        ]
        pvalue = stats.kstest(first, "expon", args=(0.0, 1.0)).pvalue
        assert pvalue > 1e-3

    def test_mean_event_count(self):
        # E[jumps on [0,t]] = integral of theta + (1+mu) E[s(u)] du; with
        # theta = 1, mu = 2 the mean size is 1 - exp(-u), so the integral is
        # 4t - 3(1 - exp(-t))
        params = ModelParams(0.5, 1.0, 2.0)
        counts = [
            len(simulate(params, 5.0, np.random.default_rng([910, i])))
            for i in range(2000)
        ]
        expected = 4 * 5.0 - 3.0 * (1.0 - math.exp(-5.0))
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1)) / math.sqrt(len(counts))
        assert abs(mean - expected) < 5.0 * se


class TestSimulateBdi:
    def test_deterministic_under_seed(self):
        params = ModelParams(0.5, 1.0, 2.0)
        a = simulate_bdi(params, 5.0, np.random.default_rng(42))
        b = simulate_bdi(params, 5.0, np.random.default_rng(42))
        assert a == b

    def test_steps_are_unit(self):
        st = simulate_bdi(ModelParams(0.0, 2.0, 1.0), 5.0, np.random.default_rng(12))
        assert len(st.times) > 0
        prev = st.initial
        for v in st.values:
            assert abs(v - prev) == 1
            assert v >= 0
            prev = v

    def test_initial_population(self):
        # theta = 0, mu = 2: strictly subcritical from 5, absorbed at 0 long
        # before t = 100, and the empty state is then frozen
        st = simulate_bdi(ModelParams(0.5, 0.0, 2.0), 100.0, np.random.default_rng(2), initial=5)
        assert st.initial == 5
        assert st.final_value == 0
        assert len(st.times) >= 5
        assert 0 not in st.values[:-1]
        with pytest.raises(DomainError):
            simulate_bdi(ModelParams(0.0, 1.0, 1.0), 1.0, np.random.default_rng(2), initial=-1)

    def test_frozen_when_theta_nonpositive(self):
        st = simulate_bdi(ModelParams(0.5, -0.25, 2.0), 10.0, np.random.default_rng(3))
        assert st.times == ()
        assert st.final_value == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            simulate_bdi(ModelParams(0.5, 1.0, 2.0), -1.0, np.random.default_rng(1))

    def test_event_cap(self):
        with pytest.raises(RunawayError) as exc:
            simulate_bdi(ModelParams(0.5, 5.0, 0.0), 200.0, np.random.default_rng(9), max_events=50)
        assert exc.value.events == 50


# ---------------------------------------------------------------------------
# individual-level construction
# ---------------------------------------------------------------------------


# A population is a list of families, each a list of member birth times in
# increasing order, so index 0 is each family's oldest living member.  These
# list walks are the oracles for the branching engine's start, its Fenwick
# lookup and the rate table its per-individual clocks induce.


def families_from_sizes(sizes):
    """Families of the given sizes with distinct past birth times.

    Each family is older than the one before it, the rule
    ``simulate_branching`` uses for its start.
    """
    families, clock = [], 0.0
    for size in sizes:
        clock -= size
        families.append([clock + j for j in range(size)])
    return families


def oldest_family(families):
    """Index of the family holding the population's earliest birth time."""
    return min(range(len(families)), key=lambda fi: families[fi][0])


def locate(families, idx):
    """(family, position) of the idx-th individual in family-list order."""
    for fi, fam in enumerate(families):
        if idx < len(fam):
            return fi, idx
        idx -= len(fam)
    raise IndexError("individual index beyond population size")


def event_rates(families, params):
    """Multiplicity-level rate table induced by the per-individual clocks.

    With theta > 0 immigrants found families at rate theta and every member
    reproduces at unit rate, the offspring of a family's oldest member
    founding a new family with probability alpha.  With theta <= 0 there is
    no immigration; the overall oldest member produces joiners at rate
    1 - alpha and founders at rate alpha + theta instead.  Summed over
    individuals, not read from :func:`rates`, so the two can be compared.
    """
    theta, alpha, mu = params.theta, params.alpha, params.mu
    new_family = theta if theta > 0.0 else 0.0
    growth, death = {}, {}
    oldest = oldest_family(families) if families and theta <= 0.0 else None
    for fi, fam in enumerate(families):
        i = len(fam)
        if mu > 0.0:
            death[i] = death.get(i, 0.0) + mu * i
        growth[i] = growth.get(i, 0.0) + (i - 1)  # non-oldest members always join
        growth[i] += 1.0 - alpha  # the family's oldest joins at rate 1 - alpha
        if fi == oldest:
            new_family += alpha + theta  # overall-oldest founds at rate alpha + theta
        else:
            new_family += alpha
    out = []
    if new_family > 0.0:
        out.append((TransitionEvent.new_family(), new_family))
    out.extend((TransitionEvent.growth(i), w) for i, w in sorted(growth.items()) if w > 0.0)
    out.extend((TransitionEvent.death(i), w) for i, w in sorted(death.items()) if w > 0.0)
    return out


class TestAgentPopulation:
    def test_families_from_sizes(self):
        families = families_from_sizes([3, 1, 2])
        assert families == [[-3.0, -2.0, -1.0], [-4.0], [-6.0, -5.0]]
        # birth times decrease family by family, so the last family is oldest
        assert oldest_family(families) == 2

    def test_locate(self):
        families = families_from_sizes([3, 1, 2])
        assert locate(families, 0) == (0, 0)
        assert locate(families, 2) == (0, 2)
        assert locate(families, 3) == (1, 0)
        assert locate(families, 4) == (2, 0)
        assert locate(families, 5) == (2, 1)
        with pytest.raises(IndexError):
            locate(families, 6)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(0.5, 1.0, 2.0),
            ModelParams(0.0, 2.0, 1.2),
            ModelParams(0.9, 0.5, 0.0),
            ModelParams(0.5, -0.25, 2.0),
            ModelParams(0.5, 0.0, 1.5),
        ],
    )
    def test_event_rates_match_multiplicity_table(self, params):
        # the per-individual clock rates aggregate to the partition-level table
        for sizes in ([1], [2], [3, 1, 2], [1, 1, 1, 1], [5, 2, 2, 1]):
            agent_table = dict(event_rates(families_from_sizes(sizes), params))
            chain_table = dict(rates(AllelicPartition.from_group_sizes(sizes), params))
            assert agent_table.keys() == chain_table.keys()
            for ev, w in chain_table.items():
                assert agent_table[ev] == pytest.approx(w, rel=1e-9)

    @given(group_sizes(), model_params())
    def test_event_rates_match_multiplicity_table_property(self, sizes, params):
        agent_table = event_rates(families_from_sizes(sizes), params)
        chain_table = rates(AllelicPartition.from_group_sizes(sizes), params)
        assert [ev for ev, _ in agent_table] == [ev for ev, _ in chain_table]
        for (_, got), (_, want) in zip(agent_table, chain_table):
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_event_rates_empty_population(self):
        assert event_rates([], ModelParams(0.5, -0.25, 2.0)) == []
        assert event_rates([], ModelParams(0.5, 1.5, 2.0)) == [
            (TransitionEvent.new_family(), 1.5)
        ]


class TestSimulateBranching:
    def test_deterministic_under_seed(self):
        params = ModelParams(0.5, 1.0, 2.0)
        a = simulate_branching(params, 5.0, np.random.default_rng(42))
        b = simulate_branching(params, 5.0, np.random.default_rng(42))
        assert a == b

    def test_replay_consistency(self):
        traj = simulate_branching(ModelParams(0.5, 1.0, 2.0), 5.0, np.random.default_rng(7))
        assert len(traj) > 0
        _replay_is_consistent(traj)

    def test_initial_state_respected(self):
        start = decode("2^1 3^1")
        traj = simulate_branching(
            ModelParams(0.5, 1.0, 2.0), 2.0, np.random.default_rng(8), initial=start
        )
        assert traj.initial == start
        assert traj.state_at(0.0) == start

    def test_frozen_at_empty_when_theta_nonpositive(self):
        traj = simulate_branching(ModelParams(0.5, -0.25, 2.0), 10.0, np.random.default_rng(3))
        assert traj.events == ()

    def test_nonpositive_theta_from_populated_start(self):
        traj = simulate_branching(
            ModelParams(0.5, -0.25, 2.0), 50.0, np.random.default_rng(11), initial=decode("2^2")
        )
        assert len(traj) > 0
        _replay_is_consistent(traj)
        assert traj.final_state().size == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            simulate_branching(ModelParams(0.5, 1.0, 2.0), -1.0, np.random.default_rng(1))

    def test_event_cap(self):
        with pytest.raises(RunawayError) as exc:
            simulate_branching(
                ModelParams(0.5, 5.0, 0.0), 200.0, np.random.default_rng(9), max_events=50
            )
        assert exc.value.events == 50

    def test_first_event_time_is_exponential_theta(self):
        params = ModelParams(0.5, 2.0, 1.5)
        first = [
            simulate_branching(params, 50.0, np.random.default_rng([908, i])).events[0][0]
            for i in range(2000)
        ]
        pvalue = stats.kstest(first, "expon", args=(0.0, 0.5)).pvalue
        assert pvalue > 1e-3


# ---------------------------------------------------------------------------
# first jump from a populated start
# ---------------------------------------------------------------------------


# theta < 0 takes the branching engine's list walk, theta > 0 its Fenwick tree
@pytest.mark.parametrize("engine", [simulate, simulate_branching])
@pytest.mark.parametrize("alpha,theta,mu", [(0.5, -0.25, 2.0), (0.3, 1.5, 0.8)])
def test_first_jump_law_from_populated_start(engine, alpha, theta, mu):
    # the paper's rates from m = 1^1 2^2 3^1 (s = 8, k = 4), written out here
    # rather than read from rates(): a new family at theta + alpha * k, growth
    # of a size-i group at (i - alpha) * m_i, a death in one at mu * i * m_i
    multiplicities = {1: 1, 2: 2, 3: 1}
    table = {("new_family", None): theta + alpha * 4}
    table.update({("growth", i): (i - alpha) * m_i for i, m_i in multiplicities.items()})
    table.update({("death", i): mu * i * m_i for i, m_i in multiplicities.items()})
    total = sum(table.values())
    assert math.isclose(total, theta + (1.0 + mu) * 8)
    horizon = 10.0 / total
    params, start = ModelParams(alpha, theta, mu), decode("1^1 2^2 3^1")
    times, counts = [], dict.fromkeys(table, 0)
    for i in range(4000):
        path = engine(params, horizon, np.random.default_rng([913, i]), initial=start)
        if path.events:  # no jump by the horizon has probability e^-10
            t, ev = path.events[0]
            times.append(t)
            counts[ev.kind.value, ev.index] += 1
    n = len(times)
    expected = [n * rate / total for rate in table.values()]
    assert stats.chisquare(list(counts.values()), expected).pvalue > 1e-3
    # given a jump by the horizon, its time is Exp(total) truncated there
    cdf = lambda x: np.expm1(-total * x) / math.expm1(-10.0)
    assert stats.kstest(times, cdf).pvalue > 1e-3


# ---------------------------------------------------------------------------
# engine-supplied final states against replay
# ---------------------------------------------------------------------------

# (params, horizon, initial family sizes): theta > 0 with mu = 0 and mu > 0,
# theta <= 0 from a populated start, several-family starts on both signs
FINAL_STATE_CASES = [
    (ModelParams(0.5, 2.0, 0.0), 3.0, None),
    (ModelParams(0.0, 1.0, 2.0), 5.0, None),
    (ModelParams(0.3, 1.0, 1.5), 4.0, (3, 1, 2)),
    (ModelParams(0.9, 0.5, 0.0), 2.0, (1, 4, 2, 1)),
    (ModelParams(0.5, -0.25, 0.8), 4.0, (2, 3, 1, 2)),
    (ModelParams(0.7, -0.6, 0.0), 2.0, (1, 2, 5)),
    (ModelParams(0.5, 0.0, 1.2), 6.0, (2, 1, 1, 3)),
]


@pytest.mark.parametrize("engine", ["multiplicity", "branching"])
@pytest.mark.parametrize("params,t_end,sizes", FINAL_STATE_CASES)
def test_engine_final_state_equals_replay(engine, params, t_end, sizes):
    for seed in range(20):
        rng = np.random.default_rng([seed, 77])
        start = None if sizes is None else AllelicPartition.from_group_sizes(sizes)
        engine_fn = simulate if engine == "multiplicity" else simulate_branching
        path = engine_fn(params, t_end, rng, initial=start)
        replayed = Trajectory(path.initial, path.events, path.horizon)
        assert replayed == path
        assert path.final_state() == replayed.final_state()
        assert path.final_state() == path.state_at(t_end)


def test_family_slots_locate_matches_population_locate():
    # empty slots stand for families that died out; they must be skipped
    # exactly as if they had been removed from the list
    from allelic_bdi.ctmc import _FamilySlots

    rng = np.random.default_rng(5)
    for _ in range(200):
        sizes = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(1, 40)))]
        if not any(sizes):
            continue
        slots = _FamilySlots(sizes)
        live = [fi for fi, n in enumerate(sizes) if n]
        families = families_from_sizes(sizes[fi] for fi in live)
        for idx in range(sum(sizes)):
            fi, pos = locate(families, idx)
            assert slots.locate(idx) == (live[fi], pos)
        slot = int(rng.choice(live))
        slots.add(slot, -1)
        sizes[slot] -= 1
        slots.append(2)
        sizes.append(2)
        flat = [(fi, pos) for fi, n in enumerate(sizes) for pos in range(n)]
        assert [slots.locate(idx) for idx in range(len(flat))] == flat


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------


class TestWriteTrajectoryCsv:
    def test_round_trip(self):
        params = ModelParams(0.5, 1.0, 2.0)
        traj = simulate(params, 3.0, np.random.default_rng(21))
        assert len(traj) > 0
        buf = io.StringIO()
        write_trajectory_csv(traj, buf, params=params, seed=21, metadata={"note": "smoke"})
        lines = buf.getvalue().splitlines()

        header = {}
        body = []
        for line in lines:
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                header[key] = value
            else:
                body.append(line)
        assert header["artifact"] == "allelic-bdi"
        assert header["version"] == __version__
        assert float(header["alpha"]) == 0.5
        assert float(header["theta"]) == 1.0
        assert float(header["mu"]) == 2.0
        assert header["seed"] == "21"
        assert float(header["horizon"]) == 3.0
        assert header["initial"] == "0"
        assert header["note"] == "smoke"

        assert body[0] == "time,event_kind,event_index,s,k"
        rows = [line.split(",") for line in body[1:]]
        assert len(rows) == len(traj)
        states = traj.iter_states()
        next(states)
        for row, (t, ev), (_, state) in zip(rows, traj.events, states):
            assert float(row[0]) == t  # repr round-trips exactly
            assert row[1] == ev.kind.value
            assert row[2] == ("" if ev.index is None else str(ev.index))
            assert int(row[3]) == state.size
            assert int(row[4]) == state.num_groups
        assert rows[0][1] == "new_family"  # the first event from empty is a new family

    def test_writes_to_path(self, tmp_path):
        traj = _manual_trajectory()
        target = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, str(target))
        text = target.read_text()
        assert "time,event_kind,event_index,s,k" in text
        assert text.count("\n") == len(traj) + text.count("# ") + 1

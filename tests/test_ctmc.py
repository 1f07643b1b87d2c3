"""Tests for the continuous-time engines: rate tables, trajectory containers,
Gillespie simulation, the size process, and the individual-level construction."""

import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from allelic_bdi import (
    AllelicPartition,
    DomainError,
    EventKind,
    ModelParams,
    RunawayError,
    SizeTrajectory,
    Trajectory,
    TransitionEvent,
    alpha0_marginal,
    enumerate_partitions,
    simulate,
    simulate_bdi,
    simulate_branching,
    transient_pmf,
    write_trajectory_csv,
)
from allelic_bdi import __version__
from allelic_bdi.ctmc import _DRAW_BLOCK, _branching_kernel, _multiplicity_kernel
from conftest import (
    AbsorbingClock,
    group_sizes,
    model_params,
    partition_of,
    states_after_events,
)


def decode(text):
    return AllelicPartition.decode(text)


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
    def test_replay(self):
        # a path built by hand has no recorded final state: it is replayed
        traj = _manual_trajectory()
        assert len(traj) == 3
        assert traj.final_state() == decode("1^1 2^1")

    def test_eventless(self):
        traj = Trajectory(decode("2^1"), (), 3.0)
        assert traj.final_state() == decode("2^1")
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
        assert (exc.value.size, exc.value.groups) == (path.values[-1], None)
        assert str(exc.value).endswith(f"with population size {path.values[-1]}")
    else:
        assert len(path) == 50
        state = path.final_state()
        assert (exc.value.size, exc.value.groups) == (state.size, state.num_groups)
        text = f"with population size {state.size} in {state.num_groups} groups"
        assert str(exc.value).endswith(text)


# ---------------------------------------------------------------------------
# Gillespie simulation of the multiplicity chain
# ---------------------------------------------------------------------------


def _first_jump_pvalue(engine, params, seed, runs):
    """KS p-value of the first jump time from the empty state against Exp(theta).

    Each run stops at 10 / theta, so the jump times are tested against the
    exponential truncated there; a run with no jump by then (probability
    e^-10) is left out.
    """
    horizon = 10.0 / params.theta
    times = []
    for i in range(runs):
        path = engine(params, horizon, np.random.default_rng([seed, i]))
        if path.events:
            times.append(path.events[0][0])
    cdf = lambda x: np.expm1(-params.theta * x) / math.expm1(-10.0)
    return stats.kstest(times, cdf).pvalue


def _replay_is_consistent(traj):
    """Replay the event list and confirm sizes track the event deltas."""
    prev_size = traj.initial.size
    last_time = 0.0
    states = states_after_events(traj)
    for (t, ev), state in zip(traj.events, states):
        assert t > last_time
        assert state.size == prev_size + ev.size_delta
        prev_size, last_time = state.size, t
    assert traj.final_state() == (states[-1] if states else traj.initial)


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
        for state in [traj.initial, *states_after_events(traj)]:
            assert not seen_empty, "no events may follow the empty state"
            seen_empty = state.size == 0
        assert traj.final_state().size == 0  # at mu = 2 extinction is certain well before t = 50

    def test_initial_state_respected(self):
        start = decode("1^1 3^1")
        traj = simulate(ModelParams(0.0, 1.0, 1.0), 2.0, np.random.default_rng(5), initial=start)
        assert traj.initial == start

    def test_event_cap(self):
        with pytest.raises(RunawayError) as exc:
            simulate(ModelParams(0.5, 5.0, 0.0), 200.0, np.random.default_rng(9), max_events=50)
        assert exc.value.events == 50
        assert 0.0 < exc.value.time <= 200.0

    def test_first_event_time_is_exponential_theta(self):
        # from the empty state the first jump is the immigration clock
        assert _first_jump_pvalue(simulate, ModelParams(0.5, 1.0, 2.0), 909, 3000) > 1e-3

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
        assert st.values[-1] == 0
        assert len(st.times) >= 5
        assert 0 not in st.values[:-1]
        with pytest.raises(DomainError):
            simulate_bdi(ModelParams(0.0, 1.0, 1.0), 1.0, np.random.default_rng(2), initial=-1)

    def test_frozen_when_theta_nonpositive(self):
        st = simulate_bdi(ModelParams(0.5, -0.25, 2.0), 10.0, np.random.default_rng(3))
        assert st.times == st.values == ()
        assert st.initial == 0

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
    individuals, so it can be compared with the paper's rates (``paper_rates``).
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


def paper_rates(m, params):
    """The paper's rates from m, written out: a new family at theta + alpha * k
    (listed only when positive, since a nonpositive value freezes the empty
    state), growth of a size-i group at (i - alpha) * m_i and, when mu > 0, a
    death in one at mu * i * m_i; each kind by increasing size."""
    alpha, theta, mu = params.alpha, params.theta, params.mu
    new_family = theta + alpha * m.num_groups
    table = [(TransitionEvent.new_family(), new_family)] if new_family > 0.0 else []
    table += [(TransitionEvent.growth(i), (i - alpha) * c) for i, c in m]
    if mu > 0.0:
        table += [(TransitionEvent.death(i), mu * i * c) for i, c in m]
    return table


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
            chain_table = dict(paper_rates(partition_of(sizes), params))
            assert agent_table.keys() == chain_table.keys()
            for ev, w in chain_table.items():
                assert agent_table[ev] == pytest.approx(w, rel=1e-9)

    @given(group_sizes(), model_params())
    def test_event_rates_match_multiplicity_table_property(self, sizes, params):
        agent_table = event_rates(families_from_sizes(sizes), params)
        chain_table = paper_rates(partition_of(sizes), params)
        assert [ev for ev, _ in agent_table] == [ev for ev, _ in chain_table]
        for (_, got), (_, want) in zip(agent_table, chain_table):
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_event_rates_empty_population(self):
        assert event_rates([], ModelParams(0.5, -0.25, 2.0)) == []
        assert event_rates([], ModelParams(0.5, 1.5, 2.0)) == [
            (TransitionEvent.new_family(), 1.5)
        ]


# ---------------------------------------------------------------------------
# the exact time-t law against the generator
# ---------------------------------------------------------------------------


def generator_law(params, t, n_max):
    """Time-t law from the empty state, solved from the generator on {s <= n_max}.

    The rates come from :func:`event_rates`, not from the library; jumps out
    of the truncation leave the generator, so the returned law is
    sub-stochastic and its missing mass bounds how far each entry can be
    below the true one.
    """
    states = [m for n in range(n_max + 1) for m in enumerate_partitions(n)]
    index = {m: j for j, m in enumerate(states)}
    rows, cols, values = [], [], []
    for j, m in enumerate(states):
        sizes = [i for i, c in m for _ in range(c)]
        out = 0.0
        for event, rate in event_rates(families_from_sizes(sizes), params):
            out += rate
            target = index.get(m.apply_event(event))
            if target is not None:
                rows.append(target)
                cols.append(j)
                values.append(rate)
        rows.append(j)
        cols.append(j)
        values.append(-out)
    generator = csr_matrix((values, (rows, cols)), shape=(len(states), len(states)))
    start = np.zeros(len(states))
    start[index[AllelicPartition.empty()]] = 1.0
    law = expm_multiply(generator * t, start)
    return dict(zip(states, law.tolist())), 1.0 - float(law.sum())


# (alpha, theta, mu, t): alpha = 0, the criterion-9 point at an earlier time,
# pure birth near alpha = 1, and mu < 1
TRANSIENT_POINTS = [
    (0.0, 1.0, 2.0, 1.0),
    (0.5, 1.0, 1.5, 1.0),
    (0.9, 0.3, 0.0, 0.5),
    (0.3, 2.0, 0.8, 0.5),
]


@pytest.mark.parametrize("alpha,theta,mu,t", TRANSIENT_POINTS)
def test_transient_pmf_matches_the_generator(alpha, theta, mu, t):
    params = ModelParams(alpha, theta, mu)
    law, missing = generator_law(params, t, 22)
    assert missing < 1e-7
    for m, p in law.items():
        if m.size <= 10:
            # the truncated law is below the true one by at most its missing mass
            assert p - 1e-12 <= transient_pmf(m, params, t) <= p + missing + 1e-12
            if alpha == 0.0:
                assert transient_pmf(m, params, t) == pytest.approx(
                    alpha0_marginal(m, theta, mu, t), rel=1e-12
                )


def test_transient_pmf_domain():
    params = ModelParams(0.5, 1.0, 1.5)
    assert transient_pmf(AllelicPartition.empty(), params, 0.0) == 1.0
    assert transient_pmf(decode("1^1"), params, 0.0) == 0.0
    total = sum(transient_pmf(m, params, 1.0) for n in range(31) for m in enumerate_partitions(n))
    assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        transient_pmf(AllelicPartition.empty(), ModelParams(0.5, -0.25, 2.0), 1.0)
    with pytest.raises(DomainError):
        transient_pmf(AllelicPartition.empty(), params, -1.0)


# ---------------------------------------------------------------------------
# random stream v2: event class and in-class choice
# ---------------------------------------------------------------------------


class OneJump:
    """Generator stand-in whose first block makes one jump, selected by ``u``.

    The first holding time is tiny and every later one is far beyond a unit
    horizon, so the kernel makes exactly the jump the selector ``u`` picks.
    """

    def __init__(self, u):
        self.u = u

    def standard_exponential(self, size):
        return np.array([1e-9] + [1e9] * (size - 1))

    def random(self, size):
        return np.array([self.u] + [0.5] * (size - 1))


def listed_choice(m, params, u):
    """(event, clamped) that selector ``u`` picks from state ``m``, from explicit lists.

    The masses theta + alpha * k, (1 - alpha) * k, s - k and mu * s give the
    class and an integer index into it, which picks from the list of groups
    in size order, of their non-founding members or of all individuals.
    ``clamped`` is true when round-off put the index at or past the top of
    its class.
    """
    theta, alpha, mu = params.theta, params.alpha, params.mu
    s, k = m.size, m.num_groups
    groups = [i for i, c in m for _ in range(c)]
    members = [i for i in groups for _ in range(i - 1)]
    individuals = [i for i in groups for _ in range(i)]
    v = u * (theta + (1.0 + mu) * s) - (theta + alpha * k)
    if v < 0.0 or not s:
        return TransitionEvent.new_family(), False
    if v < (1.0 - alpha) * k:
        j = int(v / (1.0 - alpha)) if v / (1.0 - alpha) < k else k
        return TransitionEvent.growth(groups[min(j, k - 1)]), j >= k
    v -= (1.0 - alpha) * k
    if v < s - k:
        return TransitionEvent.growth(members[int(v)]), False
    if mu == 0.0:  # past the last class only by round-off: the top of the last nonempty one
        return TransitionEvent.growth(members[-1] if members else groups[-1]), True
    j = int((v - (s - k)) / mu) if (v - (s - k)) / mu < s else s
    return TransitionEvent.death(individuals[min(j, s - 1)]), j >= s


def kernel_choice(m, params, u):
    events = []
    _multiplicity_kernel(params, 1.0, OneJump(u), m, 10, events.append)
    ((_, event),) = events
    return event


def engine_rates(m, params, n):
    """The engine's rate table from m: the total rate, read off the first
    holding time, split in the shares of n evenly spaced selectors (cell
    midpoints) that pick each event.  Empty when m is frozen."""
    events = []
    _multiplicity_kernel(params, 1.0, OneJump(0.5), m, 10, events.append)
    if not events:
        return {}
    total = 1e-9 / events[0][0]
    picks = Counter(kernel_choice(m, params, (j + 0.5) / n) for j in range(n))
    return {event: total * c / n for event, c in picks.items()}


class TestRates:
    """The engine's first-jump rates against the paper's (``paper_rates``)."""

    def test_frozen_table(self):
        # state 1^2 2^1: s = 4, k = 3; every edge in the selector is a multiple of 1/26
        table = engine_rates(decode("1^2 2^1"), ModelParams(0.5, 1.0, 2.0), 2600)
        expected = {
            TransitionEvent.new_family(): 2.5,  # theta + alpha * k = 1 + 1.5
            TransitionEvent.growth(1): 1.0,  # (1 - alpha) * 2
            TransitionEvent.growth(2): 1.5,  # (2 - alpha) * 1
            TransitionEvent.death(1): 4.0,  # mu * 1 * 2
            TransitionEvent.death(2): 4.0,  # mu * 2 * 1
        }
        assert table.keys() == expected.keys()
        for event, rate in expected.items():
            assert table[event] == pytest.approx(rate, rel=1e-12)
        assert math.isclose(sum(table.values()), 13.0, rel_tol=1e-12)

    def test_no_death_events_when_mu_zero(self):
        table = engine_rates(decode("1^2 2^1"), ModelParams(0.5, 1.0, 0.0), 1000)
        assert EventKind.DEATH not in {ev.kind for ev in table}
        assert math.isclose(sum(table.values()), 5.0, rel_tol=1e-12)

    def test_empty_state_positive_theta(self):
        table = engine_rates(AllelicPartition.empty(), ModelParams(0.3, 1.5, 2.0), 10)
        assert table.keys() == {TransitionEvent.new_family()}
        assert table[TransitionEvent.new_family()] == pytest.approx(1.5, rel=1e-12)

    def test_empty_state_frozen_when_theta_nonpositive(self):
        assert engine_rates(AllelicPartition.empty(), ModelParams(0.5, -0.25, 2.0), 10) == {}
        assert engine_rates(AllelicPartition.empty(), ModelParams(0.5, 0.0, 2.0), 10) == {}

    @pytest.mark.parametrize("alpha,theta,mu", [(0.0, 1.0, 2.0), (0.5, 0.5, 1.2), (0.9, -0.45, 5.0), (0.5, 2.0, 0.0)])
    def test_total_rate_identity(self, alpha, theta, mu):
        params, n = ModelParams(alpha, theta, mu), 1000
        for m in enumerate_partitions(6):
            table = engine_rates(m, params, n)
            expected = theta + (1.0 + mu) * m.size
            assert math.isclose(sum(table.values()), expected, rel_tol=1e-12)
            paper = dict(paper_rates(m, params))
            assert table.keys() == paper.keys()
            for event, rate in paper.items():
                assert rate > 0.0
                # two cell edges per event: each share is within 2 / n of the exact one
                assert table[event] == pytest.approx(rate, abs=2.0 * expected / n)

    @given(group_sizes(), model_params())
    def test_total_rate_identity_property(self, sizes, params):
        m = partition_of(sizes)
        assume(params.theta + params.alpha * m.num_groups > 0.0)
        table = engine_rates(m, params, 16)
        expected = params.theta + (1.0 + params.mu) * m.size
        assert math.isclose(sum(table.values()), expected, rel_tol=1e-12)
        assert table.keys() <= dict(paper_rates(m, params)).keys()

    def test_events_are_applicable(self):
        # the kernel's own update agrees with AllelicPartition.apply_event
        params = ModelParams(0.5, 1.0, 2.0)
        for m in enumerate_partitions(5):
            for u in [j / 64.0 for j in range(64)]:
                events = []
                final = _multiplicity_kernel(params, 1.0, OneJump(u), m, 10, events.append)
                ((_, event),) = events
                assert m.apply_event(event) == AllelicPartition(final)


def state_with(s, k):
    """A partition with k groups and s members, of several distinct sizes."""
    sizes, extra = [1] * k, s - k
    for j in range(k):
        step = min(j % 3, extra)
        sizes[j] += step
        extra -= step
    sizes[-1] += extra
    return partition_of(sizes)


def class_tops(m, params):
    """Selectors at, and a few ulps below, each class's upper edge."""
    total = params.theta + (1.0 + params.mu) * m.size
    edge = params.theta + params.alpha * m.num_groups
    edges = [edge, edge + (1.0 - params.alpha) * m.num_groups]
    edges.append(edges[-1] + m.size - m.num_groups)
    out = [0.0, math.nextafter(1.0, 0.0)]
    for edge in edges:
        u = min(edge / total, math.nextafter(1.0, 0.0))
        for _ in range(4):
            out.append(u)
            u = math.nextafter(u, 0.0)
    return out


V2_PARAMS = [
    ModelParams(0.5, 1.0, 2.0),
    ModelParams(0.0, 1.0, 0.0),
    ModelParams(0.9, -0.5, 1.5),
    ModelParams(1.0 - 2.0**-40, 0.5, 0.7),  # alpha -> 1: the group class is tiny
    ModelParams(0.3, 2.0, 0.0),
]
V2_STATES = ["1^1", "1^4", "3^2", "1^3 2^1 5^2", "2^1 7^1", "1^2 4^3 9^1"]


@pytest.mark.parametrize("params", V2_PARAMS)
@pytest.mark.parametrize("state", V2_STATES)
def test_in_class_choice_matches_explicit_lists(params, state):
    m = decode(state)
    selectors = class_tops(m, params) + [j / 97.0 for j in range(97)]
    for u in selectors:
        assert kernel_choice(m, params, u) == listed_choice(m, params, u)[0], u


# (alpha, theta, mu, s, k, u) where round-off puts the selector at the top of
# a class: the group class, the death class, past the members with mu = 0,
# and past the groups with mu = 0 when every group is a singleton
ROUND_OFF_TOPS = [
    (0.28275654056020494, 3.7, 1.5, 202, 21, 0.04855514055435423),
    (0.9, 3.7, 1.5066665524816791, 268, 8, 0.9999999999999998),
    (0.999999999, 3.7, 4.771418841320994, 109, 35, 0.9999999999999998),
    (0.7, 2.0, 0.0, 92, 22, 0.9999999999999998),
    (0.25040447987993253, 3.7, 0.0, 44, 44, 0.9999999999999999),
]


@pytest.mark.parametrize("alpha,theta,mu,s,k,u", ROUND_OFF_TOPS)
def test_in_class_choice_at_the_top_after_round_off(alpha, theta, mu, s, k, u):
    params, m = ModelParams(alpha, theta, mu), state_with(s, k)
    event, clamped = listed_choice(m, params, u)
    assert clamped
    assert kernel_choice(m, params, u) == event


def test_draw_blocks_are_consumed_in_order():
    # holding time n and selector n of a run are entries n of the concatenated blocks
    params, start = ModelParams(0.5, 1.0, 0.0), decode("1^1")
    path = simulate(params, 4.5, np.random.default_rng(3), initial=start)  # pure birth
    assert len(path) > 3 * _DRAW_BLOCK
    rng = np.random.default_rng(3)
    holds, selectors, t = [], [], 0.0
    blocks = -(-(len(path) + 1) // _DRAW_BLOCK)
    for _ in range(blocks):  # refills alternate while both kinds run one per event
        holds += rng.standard_exponential(_DRAW_BLOCK).tolist()
        selectors += rng.random(_DRAW_BLOCK).tolist()
    m = start
    for (t_jump, event), hold, u in zip(path.events, holds, selectors):
        t += hold / (params.theta + m.size)  # pure birth: the total rate is theta + s
        assert t_jump == t
        assert event == listed_choice(m, params, u)[0]
        m = m.apply_event(event)


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
        assert _first_jump_pvalue(simulate_branching, ModelParams(0.5, 2.0, 1.5), 908, 2000) > 1e-3


# ---------------------------------------------------------------------------
# first jump from a populated start
# ---------------------------------------------------------------------------


# theta < 0 takes the branching engine's list walk, theta > 0 its Fenwick tree
@pytest.mark.parametrize("engine", [simulate, simulate_branching])
@pytest.mark.parametrize("alpha,theta,mu", [(0.5, -0.25, 2.0), (0.3, 1.5, 0.8)])
def test_first_jump_law_from_populated_start(engine, alpha, theta, mu):
    # the paper's rates from m = 1^1 2^2 3^1 (s = 8, k = 4), written out here
    # rather than read from the library: a new family at theta + alpha * k, growth
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
        start = None if sizes is None else partition_of(sizes)
        engine_fn = simulate if engine == "multiplicity" else simulate_branching
        path = engine_fn(params, t_end, rng, initial=start)
        replayed = Trajectory(path.initial, path.events, path.horizon)
        assert replayed == path
        assert path.final_state() == replayed.final_state()


# ---------------------------------------------------------------------------
# the branching kernel against the list-of-birth-times construction
# ---------------------------------------------------------------------------


def _blocks(draw):
    """Next float of draw(_DRAW_BLOCK), draw(_DRAW_BLOCK), ... in order."""
    while True:
        yield from draw(_DRAW_BLOCK).tolist()


def list_branching_kernel(params, t_end, rng, start, record, max_events=10**7):
    """The individual-level construction over lists of birth times.

    Every family is the list of its members' birth times, oldest first, in
    founding order (the groups of ``start`` in entry order first), and a
    family that dies out stays as an empty list.  The parent or victim is
    found by the ``locate`` walk; with theta <= 0 the overall oldest member
    reproduces at rate 1 + theta and the parent walk sums the rates member
    by member.  Passes each (time, event) pair to ``record`` unless it is
    None and returns the final entries and the number of walks that passed
    an empty family; at the event cap it raises the RunawayError the
    kernel should raise.
    """
    families = families_from_sizes(i for i, c in start for _ in range(c))
    theta, alpha, mu = params.theta, params.alpha, params.mu
    holds, selectors = _blocks(rng.standard_exponential), _blocks(rng.random)
    s, t, n, skips = start.size, 0.0, 0, 0
    record = record or (lambda pair: None)

    def walk(idx):
        nonlocal skips
        fi, pos = locate(families, idx)
        skips += any(not fam for fam in families[:fi])
        return fi, pos

    while True:
        immigration = theta if theta > 0.0 else 0.0
        birth_total = float(s) if theta > 0.0 else (s + theta if s else 0.0)
        total = immigration + birth_total + mu * s
        if total <= 0.0:
            break
        t_next = t + next(holds) / total
        if t_next > t_end:
            break
        t = t_next
        if n >= max_events:
            groups = sum(1 for fam in families if fam)
            raise RunawayError("cap", n, t, s, groups)
        n += 1
        u = next(selectors) * total
        if u < immigration:
            families.append([t])
            s += 1
            record((t, TransitionEvent.new_family()))
            continue
        if u < immigration + birth_total:
            v = u - immigration
            if theta > 0.0:
                fi, pos = walk(min(s - 1, int(v)))
                p_new = alpha if pos == 0 else 0.0
            else:
                live = [fi for fi, fam in enumerate(families) if fam]
                oldest = min(live, key=lambda fi: families[fi][0])
                acc, fi, pos = 0.0, None, None
                for fi, pos in ((fi, pos) for fi in live for pos in range(len(families[fi]))):
                    acc += 1.0 + theta if (fi, pos) == (oldest, 0) else 1.0
                    if v < acc:
                        break
                p_new = 0.0 if pos else (alpha if fi != oldest else (alpha + theta) / (1.0 + theta))
            s += 1
            if p_new > 0.0 and next(selectors) < p_new:
                families.append([t])
                record((t, TransitionEvent.new_family()))
            else:
                record((t, TransitionEvent.growth(len(families[fi]))))
                families[fi].append(t)
        else:
            fi, pos = walk(min(s - 1, int((u - immigration - birth_total) / mu)))
            record((t, TransitionEvent.death(len(families[fi]))))
            del families[fi][pos]
            s -= 1
    return tuple(sorted(Counter(len(fam) for fam in families if fam).items())), skips


def _both_runs(params, t_end, seed, sizes=(), max_events=10**7):
    """((events, final entries) of the kernel, the same of the oracle, walks past
    an empty family) from ``default_rng(seed)``."""
    start = partition_of(sizes) if sizes else AllelicPartition.empty()
    got, want = [], []
    got_final = _branching_kernel(
        params, t_end, np.random.default_rng(seed), start, max_events, got.append
    )
    want_final, skips = list_branching_kernel(
        params, t_end, np.random.default_rng(seed), start, want.append, max_events
    )
    return (got, got_final), (want, want_final), skips


# theta > 0 with mu = 0 (founders) and mu > 0 (extinct families, founder
# deaths), a start of 11 families that fills part of a 16-slot tree, and the
# theta <= 0 populated starts of FINAL_STATE_CASES
ORACLE_CASES = [
    (ModelParams(0.7, 3.0, 0.0), 3.5, ()),
    (ModelParams(0.9, 0.5, 0.0), 2.5, (1, 4, 2, 1)),
    (ModelParams(0.5, 2.0, 0.9), 6.0, ()),
    (ModelParams(0.6, 0.5, 1.1), 5.0, (1,) * 9 + (4, 3)),
    (ModelParams(0.0, 1.0, 2.0), 5.0, ()),
] + [(p, t, sizes) for p, t, sizes in FINAL_STATE_CASES if p.theta <= 0.0]


@pytest.mark.parametrize("params,t_end,sizes", ORACLE_CASES)
def test_branching_kernel_matches_list_oracle(params, t_end, sizes):
    for seed in range(40):
        got, want, _ = _both_runs(params, t_end, [seed, 31], sizes)
        assert got == want


def test_branching_kernel_matches_list_oracle_over_wide_seeds():
    # 64-bit master seeds far apart, at a point with founders, deaths and
    # extinct families; the kernel's descent must skip every empty family
    # exactly as the walk does, so count the walks that passed one
    params, skips = ModelParams(0.5, 3.0, 0.95), 0
    for seed in np.random.default_rng(2024).integers(0, 2**63, size=150).tolist():
        got, want, passed = _both_runs(params, 6.0, [seed, 3])
        assert got == want
        skips += passed
    assert skips > 100


@pytest.mark.parametrize(
    "params,sizes",
    [(ModelParams(0.5, 2.0, 0.9), ()), (ModelParams(0.5, -0.25, 0.5), (2, 3, 1, 2))],
)
def test_branching_runaway_reports_the_oracle_state(params, sizes):
    # the group count is taken from the integer sizes, extinct families excluded
    start = partition_of(sizes) if sizes else AllelicPartition.empty()
    extinct = 0
    for seed in range(10):
        cap, events = 40 + 7 * seed, []
        with pytest.raises(RunawayError) as want:
            list_branching_kernel(
                params, 1e3, np.random.default_rng([seed, 8]), start, events.append, cap
            )
        with pytest.raises(RunawayError) as got:
            _branching_kernel(params, 1e3, np.random.default_rng([seed, 8]), start, cap, None)
        got, want = got.value, want.value
        assert (got.events, got.time, got.size, got.groups) == (
            want.events, want.time, want.size, want.groups
        )
        founded = start.num_groups + sum(ev.kind is EventKind.NEW_FAMILY for _, ev in events)
        extinct += founded > want.groups
    assert extinct


def test_branching_kernel_holds_no_float_per_individual():
    # pure birth from 4e4 individuals in 40 families to about 5e4: the list
    # construction keeps one birth time per individual, the kernel one
    # integer per family
    params, t_end = ModelParams(0.5, 5.0, 0.0), 0.22
    start = partition_of([1000] * 40)
    runs = (
        lambda rng: list_branching_kernel(params, t_end, rng, start, None)[0],
        lambda rng: _branching_kernel(params, t_end, rng, start, 10**7, None),
    )
    peaks = []
    for run in runs:
        rng = np.random.default_rng([6, 0])  # built untraced: numpy imports lazily
        tracemalloc.start()
        try:
            final = run(rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert sum(i * c for i, c in final) > 4.8 * 10**4
    assert peaks[1] * 10 < peaks[0]


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
        for row, (t, ev), state in zip(rows, traj.events, states_after_events(traj)):
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

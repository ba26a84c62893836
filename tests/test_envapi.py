"""Environment contract: seeding, episode mechanics, reward function."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import collect, empirical, world
from redsim.envapi import (
    Draws,
    EpisodeFinishedError,
    InvalidActionError,
    StepResult,
    compute_reward,
    derive_seed,
    network,
    require_same_network,
    rollout,
)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, "x") == derive_seed(7, "x")
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_world_reset_initial_foothold(desk5):
    env = world.AttackWorld(desk5, seed=7)
    obs = env.reset(seed=7)
    expected = [0] * desk5.obs_dim
    expected[0] = 1  # entry discovered
    expected[1] = 1  # entry user access
    assert obs == tuple(expected)


def test_reset_same_seed_identical(desk5):
    env = world.AttackWorld(desk5, seed=0)
    assert env.reset(seed=7) == env.reset(seed=7)


def test_same_seed_same_actions_bitwise_identical_trajectory(desk5):
    def rollout():
        env = world.AttackWorld(desk5, seed=3)
        obs = env.reset(seed=3)
        rng = np.random.default_rng(5)
        out = [obs]
        done = False
        while not done:
            res = env.step(int(rng.integers(env.action_count)))
            out.append((res.observation, res.reward, res.done, res.action_success))
            done = res.done
        return out

    assert rollout() == rollout()


def test_step_after_done_raises(desk5):
    env = world.AttackWorld(desk5, seed=1)
    env.reset(seed=1)
    done = False
    while not done:
        done = env.step(0).done  # repeat scan h1 until horizon truncation
    with pytest.raises(EpisodeFinishedError):
        env.step(0)


def test_out_of_range_action_raises(desk5):
    env = world.AttackWorld(desk5, seed=1)
    env.reset(seed=1)
    with pytest.raises(InvalidActionError):
        env.step(env.action_count)
    with pytest.raises(InvalidActionError):
        env.step(-1)


def test_a_non_int_action_raises_and_collects_nothing(det3, tmp_path):
    """A float, even a whole one, or a bool is no action index: it raises rather than playing as the int it reads
    as, so a collection policy that returns one writes no log that ``read_clean_log`` would reject.  A numpy int
    is an index."""
    env = world.AttackWorld(det3, seed=1)
    env.reset(seed=1)
    for action in (1.7, 1.0, np.float64(1.0), True, np.True_, np.array(1.5), np.array([1]), "1", None):
        with pytest.raises(InvalidActionError):
            env.step(action)
    plain = world.AttackWorld(det3, seed=1)
    plain.reset(seed=1)
    assert env.step(np.int64(1)) == plain.step(1)
    n = env.action_count
    for policy in (lambda obs, rng: 0.0 + rng.integers(n), lambda obs, rng: True):
        with pytest.raises(InvalidActionError):
            collect.run_collection(world.AttackWorld(det3, seed=4), policy, 20, 4, out_path=tmp_path / "log.jsonl")
        assert list(tmp_path.iterdir()) == []


def test_episode_length_never_exceeds_max_steps(desk5):
    env = world.AttackWorld(desk5, seed=9)
    rng = np.random.default_rng(9)
    for ep in range(20):
        obs = env.reset(seed=9) if ep == 0 else env.reset()
        steps = 0
        done = False
        while not done:
            done = env.step(int(rng.integers(env.action_count))).done
            steps += 1
        assert steps <= desk5.game.max_steps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 1), st.lists(st.integers(0, 9), min_size=80, max_size=240))  # desk5 has 10 actions
def test_a_step_reports_goal_done_and_success_as_its_observation_says(desk5, desk5_model, seed, actions):
    """In the world and in the sim, ``goal`` is the observation's goal flag and ``done`` is the goal or the
    ``max_steps``-th step of the episode; in the sim, ``action_success`` is a changed observation."""
    assert [f.name for f in fields(StepResult)] == ["observation", "reward", "done", "goal", "action_success"]
    for env in (world.AttackWorld(desk5, seed), empirical.EmpiricalSim(desk5_model, seed=seed)):
        game = env.game
        obs, step = env.reset(seed=seed), 0
        for action in actions:
            res = env.step(action)
            assert res.goal == (res.observation[game.goal_index] == 1)
            assert res.done == (res.goal or step + 1 == game.max_steps)
            if isinstance(env, empirical.EmpiricalSim):
                assert res.action_success == (res.observation != obs)
            obs, step = (env.reset(), 0) if res.done else (res.observation, step + 1)


def test_spaces_constant_for_lifetime(desk5):
    env = world.AttackWorld(desk5, seed=2)
    dims = (env.obs_dim, env.action_count)
    env.reset(seed=2)
    for _ in range(50):
        env.step(0)
        assert (env.obs_dim, env.action_count) == dims
        if env._done:
            env.reset()


def test_sim_reset_returns_model_start(desk5, desk5_dataset, desk5_model):
    # oracle: the start observation is what every step-0 record shows
    step0 = {rec.obs for rec in desk5_dataset.records if rec.step == 0}
    assert len(step0) == 1
    expected = step0.pop()
    sim = empirical.EmpiricalSim(desk5_model, seed=123)
    assert sim.reset(seed=123) == expected
    assert sim.reset(seed=987654) == expected


def test_sim_single_outcome_pair_is_deterministic(desk5):
    records = [
        collect.TransitionRecord(0, 0, (0, 0, 1), 0, (1, 0, 1), 0.0, False, True),
        collect.TransitionRecord(0, 1, (1, 0, 1), 1, (1, 1, 1), 0.0, True, True),
    ]
    model = empirical.build_model(records, obs_dim=3, action_count=2)
    config = empirical.SimConfig(
        game=empirical.GameConfig(max_steps=10, goal_index=1),
        flag_worths=(0.0, 5.0, 0.0),
        action_costs=(1.0, 1.0),
    )
    sim = empirical.EmpiricalSim(model, config, seed=0)
    for seed in (0, 1, 2):
        obs = sim.reset(seed=seed)
        res = sim.step(0)
        assert res.observation == (1, 0, 1)
        assert res.reward == -1.0  # no worth on the flipped flag


def test_compute_reward_pure_cost_when_nothing_new():
    obs = (1, 1, 0, 0)
    assert compute_reward((2.0, 10.0, 5.0, 100.0), obs, obs, 1.0) == -1.0


def test_compute_reward_objective_bonus():
    worths = (0.0, 0.0, 0.0, 100.0)
    assert compute_reward(worths, (1, 1, 1, 0), (1, 1, 1, 1), 1.0) == 99.0


def test_compute_reward_matches_independent_delta_worth_sum():
    # oracle: a from-scratch loop over the flag diff
    def oracle(worths, before, after, cost):
        total = 0.0
        for i in range(len(before)):
            if after[i] == 1 and before[i] == 0:
                total += worths[i]
        return total - cost

    worths = (2.0, 10.0, 5.0, 2.0, 10.0, 5.0, 100.0)
    before = (1, 0, 0, 0, 0, 0, 0)
    after = (1, 1, 0, 1, 0, 0, 0)  # gains user on host 0 (10) and discovery of host 1 (2)
    expected = oracle(worths, before, after, 1.0)
    assert expected == 11.0
    assert compute_reward(worths, before, after, 1.0) == expected

    rng = np.random.default_rng(7)
    for _ in range(200):
        b = tuple(int(v) for v in rng.integers(0, 2, size=7))
        a = tuple(max(x, int(v)) for x, v in zip(b, rng.integers(0, 2, size=7)))
        cost = float(rng.uniform(0.1, 3.0))
        assert compute_reward(worths, b, a, cost) == pytest.approx(oracle(worths, b, a, cost))


def test_compute_reward_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_reward((1.0, 1.0), (0, 0, 0), (0, 0, 1), 1.0)


def _random_choice(seed, action_count):
    rng = np.random.default_rng(seed)
    return lambda obs: int(rng.integers(action_count))


def test_rollout_numbers_episodes_and_steps(desk5):
    env = world.AttackWorld(desk5, seed=0)
    steps = list(rollout(env, _random_choice(1, env.action_count), 6, 3))
    assert [ep for ep, step, *_ in steps if step == 0] == list(range(6))
    for (ep, step, obs, _, res), nxt in zip(steps, steps[1:] + [None]):
        if res.done:
            assert nxt is None or (nxt[0], nxt[1]) == (ep + 1, 0)
        else:
            assert (nxt[0], nxt[1]) == (ep, step + 1)
            assert nxt[2] == res.observation  # the next step starts where this one ended
        assert step < desk5.game.max_steps
    assert steps[-1][4].done


def test_rollout_first_reset_pins_the_seed(desk5):
    def trajectory(env_seed):
        env = world.AttackWorld(desk5, seed=env_seed)
        return [
            (ep, step, obs, action, res.observation, res.reward, res.done)
            for ep, step, obs, action, res in rollout(env, _random_choice(2, env.action_count), 8, 5)
        ]

    assert trajectory(0) == trajectory(123)


def test_rollout_resets_only_when_resumed(desk5):
    resets = 0

    class CountingWorld(world.AttackWorld):
        def reset(self, seed=None):
            nonlocal resets
            resets += 1
            return super().reset(seed)

    env = CountingWorld(desk5, seed=0)
    for *_, res in rollout(env, _random_choice(3, env.action_count), 5, 1):
        if res.done:
            break
    assert resets == 1
    list(rollout(env, _random_choice(3, env.action_count), 5, 1))
    assert resets == 1 + 5


def test_a_scenario_its_world_log_model_and_sim_name_one_network(desk5, mesh):
    """``network`` reads one triple from every kind of source; ``require_same_network`` raises the caller's error."""
    env = world.AttackWorld(desk5, seed=1)
    data = collect.run_collection(env, collect.uniform_random_policy(desk5.action_count), 3, 1)
    model = empirical.build_model(data.records, desk5.obs_dim, desk5.action_count, desk5.fingerprint, data.manifest)
    expected = (desk5.fingerprint, desk5.obs_dim, len(desk5.actions))
    for source in (desk5, env, data.manifest, model, empirical.EmpiricalSim(model)):
        assert network(source) == expected
        require_same_network(source, env, KeyError, "x")
    with pytest.raises(KeyError, match="source was made in a different environment"):
        require_same_network(mesh, desk5, KeyError, "source was made in")


# Bounds where Lemire's draw rejects often (3 * 2**30 + 7 rejects about a quarter of its 32-bit words),
# where it takes a whole 32-bit word (2**32) and where it switches to whole 64-bit outputs (2**32 + 1).
_EDGE_BOUNDS = (1, 2, 3, 19, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61 + 5, 2**63)
_DRAW = st.one_of(
    st.just(None),  # random()
    st.integers(1, 2**32),
    st.sampled_from(_EDGE_BOUNDS),
    st.integers(2**32 + 1, 2**63),
)


def _same_draws(seed: int, bounds) -> None:
    """``Draws(seed)`` gives what ``Generator(PCG64(seed))`` gives, bit for bit, for each ``random()`` (None) or
    ``integers(n)`` in ``bounds``."""
    ours, numpy = Draws(seed), np.random.Generator(np.random.PCG64(seed))
    for n in bounds:
        if n is None:
            assert ours.random().hex() == numpy.random().hex()
        else:
            assert ours.integers(n) == int(numpy.integers(n)), n


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(_DRAW, max_size=150))
def test_draws_replay_numpys_generator(seed, bounds):
    """Any seed and any mix of ``random()`` and ``integers(n)``, 1 <= n <= 2**63, read past several chunks of raw
    outputs.  numpy does not promise to keep ``Generator``'s streams (NEP 19): if an upgrade moves them, this names it."""
    _same_draws(seed, bounds)


def test_draws_cross_chunk_boundaries_in_every_phase():
    """240 draws mixing a pending 32-bit half, a rejection-prone bound and whole-output draws, started at four
    offsets, read across every kind of chunk boundary."""
    for offset in range(4):
        _same_draws(derive_seed(offset), [None] * offset + [3 * 2**30 + 7, None, 2**32 + 1, 17] * 60)


def test_draws_reject_what_numpy_rejects():
    for n in (0, -1, 2**63 + 1):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(n)
        with pytest.raises(ValueError):
            Draws(0).integers(n)

"""Environment contract: seeding, episode mechanics, reward function."""

import numpy as np
import pytest

from redsim import collect, empirical, world
from redsim.envapi import (
    EpisodeFinishedError,
    InvalidActionError,
    compute_reward,
    derive_seed,
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
            out.append((res.observation, res.reward, res.done, res.info["action_success"]))
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

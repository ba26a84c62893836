"""Tabular Q-learning, greedy selection, and the value-iteration oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import agents, artifacts, presets, world
from redsim.cli import EXIT_ARTIFACT, main
from redsim.agents import QTable, TrainConfig, greedy_action, train_q_learning, value_iteration
from redsim.collect import TransitionRecord
from redsim.dqn import DqnNet
from redsim.empirical import EmpiricalSim, SimConfig, build_model
from redsim.envapi import GameConfig, compute_reward


def _toy_bandit_model():
    """Two observations, two actions; action 1 reaches the goal flag."""
    start, bad, goal = (0, 0), (1, 0), (0, 1)
    records = []
    for e in range(4):
        records.append(TransitionRecord(2 * e, 0, start, 0, bad, 0.0, True, True))
        records.append(TransitionRecord(2 * e + 1, 0, start, 1, goal, 0.0, True, True))
    model = build_model(records, obs_dim=2, action_count=2)
    config = SimConfig(
        game=GameConfig(max_steps=3, gamma=1.0, goal_index=1),
        flag_worths=(0.0, 10.0),
        action_costs=(1.0, 1.0),
    )
    return model, config


def test_bandit_learns_rewarded_action():
    model, config = _toy_bandit_model()
    sim = EmpiricalSim(model, config, seed=0)
    result = train_q_learning(sim, TrainConfig(episodes=300, seed=0, epsilon_decay_steps=300))
    assert greedy_action(result.policy, (0, 0)) == 1


def test_training_is_deterministic(desk5_model):
    def run():
        sim = EmpiricalSim(desk5_model, seed=4)
        out = train_q_learning(sim, TrainConfig(episodes=300, seed=4))
        return out

    a, b = run(), run()
    assert set(a.policy.values) == set(b.policy.values)
    for key in a.policy.values:
        assert np.array_equal(a.policy.values[key], b.policy.values[key])
    assert a.curve == b.curve


def test_greedy_action_examples():
    q = QTable(3)
    q.values[(0, 0)] = np.array([1.0, 3.0, 2.0])
    assert greedy_action(q, (0, 0)) == 1
    q.values[(0, 1)] = np.array([2.0, 2.0, 1.0])
    assert greedy_action(q, (0, 1)) == 0
    # unseen observation: all-zero values, tie-break to action 0
    assert greedy_action(q, (1, 1)) == 0


def test_greedy_action_invariant_under_positive_scaling():
    rng = np.random.default_rng(11)
    q = QTable(5)
    for _ in range(200):
        obs = tuple(int(v) for v in rng.integers(0, 2, size=4))
        values = rng.normal(size=5)
        q.values[obs] = values
        scale = float(rng.uniform(0.1, 50.0))
        scaled = QTable(5)
        scaled.values[obs] = values * scale
        assert greedy_action(q, obs) == greedy_action(scaled, obs) == int(np.argmax(values))


def test_value_iteration_deterministic_chain_arithmetic(det3):
    # single path, all probabilities 1: worths + bonus minus action count
    # 2 discoveries (2 each) + 2 user grabs (10 each) + root (5) + bonus (100) - 6 actions
    solution = value_iteration(det3)
    assert solution.optimal_return == pytest.approx(129.0 - 6.0, abs=1e-9)


def test_value_iteration_expected_retries_and_monte_carlo_agreement():
    # one unreliable required action with unlimited patience: the optimum is
    # analytic (retries are geometric) and a vectorized Monte-Carlo rollout
    # of the greedy policy must agree within 0.5%
    doc = presets.chain_scenario(n_hosts=2, exploit_prob=0.5, escalate_prob=1.0, max_steps=10_000)
    scenario = world.parse_scenario(doc)
    solution = value_iteration(scenario)
    # scan (1) + exploit retries (1/0.5 = 2) + escalate (1) + objective (1) = 5 expected actions
    assert solution.optimal_return == pytest.approx(95.0, abs=1e-6)

    states = world.reachable_observations(scenario)
    index = {obs: i for i, obs in enumerate(states)}
    policy = solution.policy
    worths = scenario.flag_worths()
    rng = np.random.default_rng(20240601)
    episodes = 1_000_000
    state = np.full(episodes, index[scenario.initial_observation()], dtype=np.int64)
    returns = np.zeros(episodes)
    alive = np.ones(episodes, dtype=bool)
    goal_flag = scenario.objective_flag
    for _ in range(scenario.game.max_steps):
        if not alive.any():
            break
        for s in np.unique(state[alive]):
            obs = states[s]
            mask = alive & (state == s)
            action = scenario.actions[policy[obs]]
            outcomes = world.exact_transition(scenario, obs, action)
            n = int(mask.sum())
            if len(outcomes) == 1:
                chosen = np.zeros(n, dtype=np.int64)
            else:
                chosen = (rng.random(n) >= outcomes[0][1]).astype(np.int64)
            for j, (next_obs, _p) in enumerate(outcomes):
                sel = np.where(mask)[0][chosen == j]
                if sel.size == 0:
                    continue
                returns[sel] += compute_reward(worths, obs, next_obs, action.cost)
                state[sel] = index[next_obs]
                if next_obs[goal_flag] == 1:
                    alive[sel] = False
    assert not alive.any()
    mc = float(returns.mean())
    assert abs(mc - solution.optimal_return) / abs(solution.optimal_return) < 0.005


def test_value_iteration_horizon_below_path_is_pure_cost(desk5):
    short = value_iteration(desk5, horizon=5)
    assert short.optimal_return == pytest.approx(-5.0, abs=1e-9)
    shorter = value_iteration(desk5, horizon=3)
    assert shorter.optimal_return == pytest.approx(-3.0, abs=1e-9)


def test_value_iteration_respects_enumeration_budget(mesh):
    with pytest.raises(world.EnumerationBudgetError):
        value_iteration(mesh, max_obs=10)


def test_q_learning_matches_value_iteration_on_model_mdp():
    # deterministic toy model MDP: the greedy return must match planning on
    # the model itself to 1e-6
    o0, o1, o2, goal = (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)
    chain = [(o0, 0, o1), (o1, 0, o2), (o2, 0, goal)]
    records = []
    for e in range(3):
        for i, (obs, action, nxt) in enumerate(chain):
            records.append(
                TransitionRecord(e, i, obs, action, nxt, 0.0, i == 2, True)
            )
    model = build_model(records, obs_dim=3, action_count=2)
    config = SimConfig(
        game=GameConfig(max_steps=20, gamma=1.0, goal_index=2),
        flag_worths=(1.0, 2.0, 50.0),
        action_costs=(1.0, 1.0),
    )
    planned = agents.value_iteration_model(model, config)
    sim = EmpiricalSim(model, config, seed=2)
    result = train_q_learning(
        sim, TrainConfig(episodes=4000, seed=2, epsilon_end=0.2, epsilon_decay_steps=500)
    )
    rollout = EmpiricalSim(model, config, seed=3)
    obs = rollout.reset(seed=3)
    total = 0.0
    done = False
    while not done:
        res = rollout.step(greedy_action(result.policy, obs))
        total += res.reward
        obs = res.observation
        done = res.done
    assert total == pytest.approx(planned.optimal_return, abs=1e-6)


def test_policy_round_trip_q_table(tmp_path, desk5_model):
    sim = EmpiricalSim(desk5_model, seed=4)
    config = TrainConfig(episodes=200, seed=4)
    result = train_q_learning(sim, config)
    path = tmp_path / "p.policy"
    agents.save_policy(
        result.policy,
        path,
        fingerprint=desk5_model.fingerprint,
        obs_dim=desk5_model.obs_dim,
        train_config=config,
    )
    loaded = agents.load_policy(path)
    assert loaded.algorithm == "q_table"
    assert loaded.fingerprint == desk5_model.fingerprint
    assert set(loaded.policy.values) == set(result.policy.values)
    for key, row in result.policy.values.items():
        assert np.array_equal(loaded.policy.values[key], row)


def test_curve_csv_columns(desk5_model):
    sim = EmpiricalSim(desk5_model, seed=4)
    result = train_q_learning(sim, TrainConfig(episodes=5, seed=4))
    lines = result.curve_csv().splitlines()
    assert lines[0] == "step,episode_return,episode_length,epsilon"
    assert len(lines) == 6


def _saved(tmp_path, policy):
    """Where ``save_policy`` wrote ``policy``, a policy on 2-value observations."""
    path = tmp_path / "p.policy"
    agents.save_policy(policy, path, fingerprint="toy", obs_dim=2, train_config=TrainConfig())
    return path


def _toy_q_table() -> QTable:
    q = QTable(3)
    q.values[(0, 0)] = np.array([1.0, 3.0, 2.0])
    q.values[(0, 1)] = np.array([2.0, 2.0, 1.0])
    return q


def _rename_first_q_key(key):
    def edit(payload):
        table = payload["data"]["q"]
        table[key] = table.pop(next(iter(table)))
    return edit


def _set_first_q_row(row):
    def edit(payload):
        table = payload["data"]["q"]
        table[next(iter(table))] = row
    return edit


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(payload):
        for step in path:
            payload = payload[step]
        payload[key] = value
    return edit


def _drop(*path_and_key):
    *path, key = path_and_key

    def edit(payload):
        for step in path:
            payload = payload[step]
        del payload[key]
    return edit


_BAD_Q_PAYLOADS = {
    "no-data": _drop("data"),
    "data-list": _set("data", []),
    "no-kind": _drop("data", "kind"),
    "kind-list": _set("data", "kind", ["q_table"]),
    "no-q": _drop("data", "q"),
    "q-list": _set("data", "q", [[1.0, 3.0, 2.0]]),
    "no-obs-dim": _drop("obs_dim"),
    "obs-dim-str": _set("obs_dim", "2"),
    "obs-dim-float": _set("obs_dim", 2.0),
    "obs-dim-bool": _set("obs_dim", True),
    "obs-dim-0": _set("obs_dim", 0),
    "no-action-count": _drop("action_count"),
    "action-count-str": _set("action_count", "3"),
    "action-count-0": _set("action_count", 0),
    "q-action-count-4": _set("data", "action_count", 4),
    "key-1-value": _rename_first_q_key("00"),
    "key-3-values": _rename_first_q_key("000000"),
    "key-not-hex": _rename_first_q_key("zz"),
    "row-1-value": _set_first_q_row([1.0]),
    "row-4-values": _set_first_q_row([1.0, 2.0, 3.0, 4.0]),
    "row-nested": _set_first_q_row([[1.0, 3.0, 2.0]]),
    "row-str": _set_first_q_row(["a", "b", "c"]),
    "row-dict": _set_first_q_row({"0": 1.0}),
}


def _set_layer(index, key, shape):
    def edit(payload):
        payload["data"]["layers"][index][key] = np.zeros(shape).tolist()
    return edit


_BAD_DQN_PAYLOADS = {
    "no-layers": _drop("data", "layers"),
    "layers-dict": _set("data", "layers", {"w": [[1.0]]}),
    "layers-empty": _set("data", "layers", []),
    "layer-str": _set("data", "layers", ["w"]),
    "no-w": _drop("data", "layers", 0, "w"),
    "first-w-transposed": _set_layer(0, "w", (4, 2)),
    "first-b-short": _set_layer(0, "b", (3,)),
    "last-w-wide": _set_layer(1, "w", (4, 4)),
    "last-b-scalar": _set_layer(1, "b", ()),
    "drop-last-layer": lambda payload: payload["data"]["layers"].pop(),
    "obs-dim-3": _set("obs_dim", 3),
    "action-count-4": _set("action_count", 4),
}


@pytest.mark.parametrize("edit", list(_BAD_Q_PAYLOADS.values()), ids=list(_BAD_Q_PAYLOADS))
def test_malformed_q_table_policy_rejected(tmp_path, edit):
    _check_policy_edit_rejected(tmp_path, _toy_q_table(), edit)


@pytest.mark.parametrize("edit", list(_BAD_DQN_PAYLOADS.values()), ids=list(_BAD_DQN_PAYLOADS))
def test_malformed_dqn_policy_rejected(tmp_path, edit):
    _check_policy_edit_rejected(tmp_path, DqnNet(2, 3, (4,), seed=0), edit)


def _check_policy_edit_rejected(tmp_path, policy, edit):
    path = _saved(tmp_path, policy)
    assert agents.load_policy(path).obs_dim == 2  # the unedited payload loads
    payload = artifacts.read_artifact(path, agents.POLICY_FORMAT)
    edit(payload)
    artifacts.write_artifact(path, agents.POLICY_FORMAT, payload)
    with pytest.raises(agents.PolicyError):
        agents.load_policy(path)


@pytest.mark.parametrize("edit", [_drop("data"), _set_first_q_row([1.0])], ids=["no-data", "row-1-value"])
def test_malformed_policy_file_exits_artifact(tmp_path, desk5, desk5_sim_policy, edit):
    """A re-checksummed desk5 policy with a broken payload exits 7, not 1 or 0."""
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    path = tmp_path / "p.policy"
    agents.save_policy(
        desk5_sim_policy.policy, path, fingerprint=desk5.fingerprint, obs_dim=desk5.obs_dim,
        train_config=TrainConfig(),
    )
    payload = artifacts.read_artifact(path, agents.POLICY_FORMAT)
    edit(payload)
    artifacts.write_artifact(path, agents.POLICY_FORMAT, payload)
    argv = ["eval", "--env", f"world:{scenario}", "--policy", str(path), "--episodes", "2", "--out", str(tmp_path / "e")]
    assert main(argv) == EXIT_ARTIFACT


@settings(deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 255)] * 2),
        st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
        max_size=12,
    )
)
def test_q_table_policy_round_trip_property(tmp_path_factory, rows):
    q = QTable(3)
    for obs, row in rows.items():
        q.values[obs] = np.array(row)
    path = _saved(tmp_path_factory.mktemp("q"), q)
    loaded = agents.load_policy(path).policy
    assert set(loaded.values) == set(q.values)
    for obs, row in q.values.items():
        assert np.array_equal(loaded.values[obs], row)
    again = _saved(tmp_path_factory.mktemp("q"), loaded)
    assert again.read_bytes() == path.read_bytes()

"""Tabular Q-learning, greedy selection, and the value-iteration oracle."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import agents, artifacts, collect, presets, world
from redsim.cli import EXIT_ARTIFACT, main
from redsim.agents import LoadedPolicy, QTable, TrainConfig, greedy_action, train_q_learning, value_iteration
from redsim.collect import TransitionRecord
from redsim.dqn import DqnNet, train_dqn
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
    q.values[(0, 0)] = [1.0, 3.0, 2.0]
    assert greedy_action(q, (0, 0)) == 1
    q.values[(0, 1)] = [2.0, 2.0, 1.0]
    assert greedy_action(q, (0, 1)) == 0
    # unseen observation: all-zero values, tie-break to action 0
    assert greedy_action(q, (1, 1)) == 0


def test_greedy_action_invariant_under_positive_scaling():
    rng = np.random.default_rng(11)
    q = QTable(5)
    for _ in range(200):
        obs = tuple(int(v) for v in rng.integers(0, 2, size=4))
        values = rng.normal(size=5)
        q.values[obs] = values.tolist()
        scale = float(rng.uniform(0.1, 50.0))
        scaled = QTable(5)
        scaled.values[obs] = (values * scale).tolist()
        assert greedy_action(q, obs) == greedy_action(scaled, obs) == int(np.argmax(values))


# Values that tie, signed zeros and infinities often, among any other finite floats.
_Q_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]), st.floats(allow_nan=False))


@given(st.lists(_Q_VALUE, min_size=1, max_size=64))
def test_a_q_rows_list_rule_is_numpys(row):
    """``max(row)`` is ``np.max``, and ``row.index(max(row))`` and ``greedy_action``, of the bare table and of the
    table held in a ``LoadedPolicy``, are ``np.argmax``.

    The maximum is the same float bit for bit unless the row holds -0.0: of two zeros ``max`` keeps the first and
    ``np.max`` may return either.  No Q-learning row holds one, since an update ``q + d`` is -0.0 only when ``q`` is.
    """
    values = np.array(row)
    assert max(row) == np.max(values)
    if all(math.copysign(1.0, value) > 0 for value in row if value == 0.0):
        assert max(row).hex() == float(np.max(values)).hex()
    q = QTable(len(row))
    q.values[(0,)] = row
    loaded = LoadedPolicy(q, "q_table", "", 1, len(row), {})
    assert row.index(max(row)) == greedy_action(q, (0,)) == greedy_action(loaded, (0,)) == int(np.argmax(values))


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


def test_value_iteration_respects_enumeration_budget(mesh, monkeypatch):
    monkeypatch.setattr(world, "MAX_OBS", 10)
    with pytest.raises(world.EnumerationBudgetError):
        value_iteration(mesh)


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


def test_curve_csv_columns(tmp_path, desk5_model):
    sim = EmpiricalSim(desk5_model, seed=4)
    result = train_q_learning(sim, TrainConfig(episodes=5, seed=4))
    artifacts.write_csv(tmp_path / "curve.csv", agents.CURVE_COLUMNS, [vars(p) for p in result.curve])
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "step,episode_return,episode_length,epsilon"
    assert len(lines) == 6


_DQN_SMALL = {"algorithm": "dqn", "hidden_sizes": (8,), "batch_size": 4, "target_sync_interval": 20}


@pytest.mark.parametrize("trainer, extra", [(train_q_learning, {}), (train_dqn, _DQN_SMALL)], ids=["q", "dqn"])
@pytest.mark.parametrize("max_env_steps", [1, 37, 250])
def test_training_stops_after_the_episode_that_reaches_max_env_steps(desk5_model, trainer, extra, max_env_steps):
    sim = EmpiricalSim(desk5_model, seed=2)
    config = TrainConfig(episodes=10_000, seed=3, max_env_steps=max_env_steps, **extra)
    curve = trainer(sim, config).curve
    assert curve[-1].step >= max_env_steps
    assert len(curve) == 1 or curve[-2].step < max_env_steps


def test_q_learning_evaluates_once_at_each_multiple_of_eval_interval(desk5_model):
    config = TrainConfig(episodes=40, seed=6, eval_interval=25, eval_episodes=3)
    result = train_q_learning(EmpiricalSim(desk5_model, seed=1), config, eval_env=EmpiricalSim(desk5_model, seed=2))
    total_steps = result.curve[-1].step
    assert [step for step, _ in result.evals] == list(range(25, total_steps + 1, 25))
    assert all(np.isfinite(ret) for _, ret in result.evals)
    assert train_q_learning(EmpiricalSim(desk5_model, seed=1), config).evals == []


_UNUSABLE_CONFIGS = {
    "unknown-algorithm": {"algorithm": "nonsense"},
    "no-eval-episodes": {"eval_interval": 5, "eval_episodes": 0},
    "negative-eval-interval": {"eval_interval": -7},
    "negative-max-env-steps": {"max_env_steps": -3},
    "no-target-sync": {"target_sync_interval": 0},
    "no-replay": {"replay_capacity": 0},
    "no-batch": {"batch_size": 0},
    "empty-layer": {"hidden_sizes": (0,)},
    "nan-learning-rate": {"learning_rate": float("nan")},
    "inf-learning-rate": {"learning_rate": float("inf")},
}


@pytest.mark.parametrize("fields", list(_UNUSABLE_CONFIGS.values()), ids=list(_UNUSABLE_CONFIGS))
def test_train_config_rejects_values_training_cannot_use(fields):
    assert TrainConfig(hidden_sizes=()).hidden_sizes == ()  # a linear net stays valid
    with pytest.raises(ValueError):
        TrainConfig(**fields)


@pytest.mark.parametrize("trainer, other", [(train_q_learning, "dqn"), (train_dqn, "q_learning")], ids=["q", "dqn"])
def test_a_trainer_rejects_a_config_for_the_other_algorithm(desk5_model, trainer, other):
    """A Q-table saved beside ``algorithm = "dqn"`` would misname what trained it."""
    with pytest.raises(ValueError, match=f"given a config for '{other}'"):
        trainer(EmpiricalSim(desk5_model, seed=1), TrainConfig(algorithm=other, episodes=5))


def test_train_config_rejects_a_batch_the_replay_buffer_cannot_hold():
    """A buffer smaller than a batch never fills one, so DQN would take no Adam step."""
    assert TrainConfig(replay_capacity=32, batch_size=32).batch_size == 32
    with pytest.raises(ValueError, match="batch_size 32 exceeds replay_capacity 10"):
        TrainConfig(episodes=30, replay_capacity=10, batch_size=32)


def _saved(tmp_path, policy):
    """Where ``save_policy`` wrote ``policy``, a policy on 2-value observations."""
    path = tmp_path / "p.policy"
    agents.save_policy(policy, path, fingerprint="toy", obs_dim=2, train_config=_train_config_of(policy))
    return path


def _train_config_of(policy) -> TrainConfig:
    """The default config of the algorithm that trains ``policy``."""
    return TrainConfig(algorithm="dqn" if isinstance(policy, DqnNet) else "q_learning")


def _toy_q_table() -> QTable:
    q = QTable(3)
    q.values[(0, 0)] = [1.0, 3.0, 2.0]
    q.values[(0, 1)] = [2.0, 2.0, 1.0]
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
    "key-upper-case": _rename_first_q_key("0A0B"),
    "key-leading-space": _rename_first_q_key(" 0000"),
    "key-two-spellings": lambda payload: payload["data"]["q"].update({"0a00": [1.0] * 3, "0A00": [2.0] * 3}),
    "row-1-value": _set_first_q_row([1.0]),
    "row-4-values": _set_first_q_row([1.0, 2.0, 3.0, 4.0]),
    "row-nested": _set_first_q_row([[1.0, 3.0, 2.0]]),
    "row-str": _set_first_q_row(["a", "b", "c"]),
    "row-dict": _set_first_q_row({"0": 1.0}),
    "value-str": _set_first_q_row(["1.5", 3.0, 2.0]),
    "value-bool": _set_first_q_row([True, 3.0, 2.0]),
    "value-null": _set_first_q_row([None, 3.0, 2.0]),
    "value-too-large": _set_first_q_row([10**400, 3.0, 2.0]),
    "value-nan": _set_first_q_row([float("nan"), 3.0, 2.0]),
    "value-inf": _set_first_q_row([1.0, float("inf"), 2.0]),
    "value-neg-inf": _set_first_q_row([1.0, 3.0, -float("inf")]),
    "fingerprint-int": _set("fingerprint", 5),
    "no-fingerprint": _drop("fingerprint"),
    "train-config-list": _set("train_config", []),
    "no-train-config": _drop("train_config"),
    "train-config-dqn": _set("train_config", "algorithm", "dqn"),
}


def _set_layer(index, key, shape):
    def edit(payload):
        payload["data"]["layers"][index][key] = np.zeros(shape).tolist()
    return edit


def _set_layer_entry(index, key, at, value):
    def edit(payload):
        *outer, last = at
        entries = payload["data"]["layers"][index][key]
        for i in outer:
            entries = entries[i]
        entries[last] = value
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
    "w-str": _set_layer_entry(0, "w", (0, 0), "1.5"),
    "w-bool": _set_layer_entry(1, "w", (3, 2), True),
    "w-null": _set_layer_entry(0, "w", (1, 3), None),
    "b-str": _set_layer_entry(0, "b", (2,), "0"),
    "b-bool": _set_layer_entry(1, "b", (0,), False),
    "b-null": _set_layer_entry(1, "b", (1,), None),
    "w-nan": _set_layer_entry(0, "w", (1, 2), float("nan")),
    "w-inf": _set_layer_entry(1, "w", (0, 1), float("inf")),
    "b-neg-inf": _set_layer_entry(0, "b", (3,), -float("inf")),
    "train-config-q-learning": _set("train_config", "algorithm", "q_learning"),
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


def _non_finite_q_table() -> QTable:
    q = _toy_q_table()
    q.values[(0, 0)] = [1.0, np.inf, 2.0]
    return q


def _non_finite_dqn() -> DqnNet:
    net = DqnNet(2, 3, (4,), seed=0)
    net.layers[1][0][0, 1] = np.nan
    return net


def _q_table_of_4_values() -> QTable:
    q = QTable(3)
    q.values[(0, 0, 0, 1)] = [1.0, 3.0, 2.0]
    return q


@pytest.mark.parametrize(
    "make, obs_dim, match",
    [
        (_non_finite_q_table, 2, "finite"),
        (_non_finite_dqn, 2, "finite"),
        (lambda: DqnNet(16, 13, (8,), seed=0), 5, "do not chain"),
        (_q_table_of_4_values, 2, "out of range"),
    ],
    ids=["q-table-inf", "dqn-weight-nan", "dqn-obs-dim", "q-table-obs-dim"],
)
def test_save_policy_refuses_what_load_policy_rejects(tmp_path, make, obs_dim, match):
    """A NaN or an infinity, or a policy that does not fit ``obs_dim``, raises PolicyError; no file is written."""
    path, policy = tmp_path / "p.policy", make()
    with pytest.raises(agents.PolicyError, match=match):
        agents.save_policy(policy, path, fingerprint="toy", obs_dim=obs_dim, train_config=_train_config_of(policy))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "policy, algorithm", [(_toy_q_table(), "dqn"), (DqnNet(2, 3, (4,), seed=0), "q_learning")], ids=["q", "dqn"]
)
def test_save_policy_refuses_a_train_config_for_the_other_algorithm(tmp_path, policy, algorithm):
    """A file whose ``train_config.algorithm`` did not train its ``data.kind`` is never written."""
    with pytest.raises(agents.PolicyError, match=f"train_config for '{algorithm}'"):
        agents.save_policy(policy, tmp_path / "p.policy", fingerprint="toy", obs_dim=2,
                           train_config=TrainConfig(algorithm=algorithm))
    assert list(tmp_path.iterdir()) == []


def test_a_q_table_of_json_ints_loads_as_floats(tmp_path):
    def ints(payload):
        payload["data"]["q"] = {"0000": [1, 3, 2], "0001": [2, -2, 1.5]}

    path = _saved(tmp_path, _toy_q_table())
    payload = artifacts.read_artifact(path, agents.POLICY_FORMAT)
    ints(payload)
    artifacts.write_artifact(path, agents.POLICY_FORMAT, payload)
    values = agents.load_policy(path).policy.values
    assert values == {(0, 0): [1.0, 3.0, 2.0], (0, 1): [2.0, -2.0, 1.5]}
    assert all(value.__class__ is float for row in values.values() for value in row)


@pytest.mark.parametrize(
    "edit",
    [
        _drop("data"),
        _set_first_q_row([1.0]),
        lambda payload: _rename_first_q_key(" " + next(iter(payload["data"]["q"])))(payload),
        lambda payload: _set_first_q_row(["1.5"] * payload["action_count"])(payload),
        lambda payload: _set_first_q_row([float("nan"), float("inf")] + [2.0] * (payload["action_count"] - 2))(payload),
    ],
    ids=["no-data", "row-1-value", "key-leading-space", "value-str", "value-nan-inf"],
)
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


@pytest.mark.parametrize(
    "edit",
    [_set("fingerprint", 5), _set("train_config", []), _set("train_config", "algorithm", "dqn")],
    ids=["fingerprint-int", "train-config-list", "train-config-dqn"],
)
def test_mistyped_policy_provenance_stats_exits_artifact(tmp_path, edit):
    """``stats`` prints a policy's fingerprint and training seed; a mistyped one, or another algorithm's, exits 7."""
    path = _saved(tmp_path, _toy_q_table())
    payload = artifacts.read_artifact(path, agents.POLICY_FORMAT)
    edit(payload)
    artifacts.write_artifact(path, agents.POLICY_FORMAT, payload)
    assert main(["stats", str(path)]) == EXIT_ARTIFACT


@settings(deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 255)] * 2),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        max_size=12,
    )
)
def test_q_table_policy_round_trip_property(tmp_path_factory, rows):
    q = QTable(3)
    for obs, row in rows.items():
        q.values[obs] = row
    path = _saved(tmp_path_factory.mktemp("q"), q)
    loaded = agents.load_policy(path).policy
    assert set(loaded.values) == set(q.values)
    for obs, row in q.values.items():
        assert np.array_equal(loaded.values[obs], row)
    again = _saved(tmp_path_factory.mktemp("q"), loaded)
    assert again.read_bytes() == path.read_bytes()


def _solution_digest(solution) -> str:
    """sha256 of everything a ValueSolution reports, in a fixed order."""
    text = repr(
        (
            sorted(solution.values.items()),
            sorted(solution.policy.items()),
            solution.optimal_return,
            solution.iterations,
            solution.residual,
        )
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_PLAN_SCENARIOS = {
    "desk3": presets.deterministic_chain,
    "desk5": presets.chain_scenario,
    "desk5-noisy": lambda: presets.chain_scenario(noise=0.1),
    "mesh": presets.mesh_scenario,
}
_PLAN_HORIZONS = (5, 10, 20, 40, 100, None)  # None: the scenario's max_steps

# Digests of world value iteration per scenario and horizon, as the planner
# computed them when the solve still enumerated transitions one by one.
GOLDEN_WORLD_PLANS = {
    "desk3": {
        5: "cc42bfb8452d827ddfa2f60c2cdd753f7a98581269678b37e483fddc30b3bacd",
        10: "d7909d77b51948613dd6d52b9810e815211978b2a5b0a9fba4cb6efd707bd468",
        20: "d7909d77b51948613dd6d52b9810e815211978b2a5b0a9fba4cb6efd707bd468",
        40: "d7909d77b51948613dd6d52b9810e815211978b2a5b0a9fba4cb6efd707bd468",
        100: "d7909d77b51948613dd6d52b9810e815211978b2a5b0a9fba4cb6efd707bd468",
        None: "d7909d77b51948613dd6d52b9810e815211978b2a5b0a9fba4cb6efd707bd468",
    },
    "desk5": {
        5: "50ca4101b8a925dfa22d0417f078770262da7d64e7d992875d7f607de27386b4",
        10: "756bea044675cc2fdaaa9aa6ba9881fc8850e155b9c9eb42e365a671f1527c4c",
        20: "33d6fdab46473739628ca60d8826f74f5ff37ed7eea9890bbf78626a5259538d",
        40: "537cbe67c85a9c32e17a3496e296ebcc15e754a01de2562c842f9fe6afa16345",
        100: "537cbe67c85a9c32e17a3496e296ebcc15e754a01de2562c842f9fe6afa16345",
        None: "537cbe67c85a9c32e17a3496e296ebcc15e754a01de2562c842f9fe6afa16345",
    },
    "desk5-noisy": {
        5: "8456476a4e7c12b13f6a89132480c60c864f0a07d375d741bd37ede2431f570c",
        10: "73a64d06652f398b1f200b6bb0a60a222cf8e12284ecacf973cbb0a1fae91cf3",
        20: "e00ee42f2018f79023fa50423a18850de2e81f92e61338b9c451c1fd882f00a0",
        40: "b6bb93f75ad749448d76e0d2bdfed8b5fd3d2e6bde4848ce5defdc2f11cac182",
        100: "b6bb93f75ad749448d76e0d2bdfed8b5fd3d2e6bde4848ce5defdc2f11cac182",
        None: "b6bb93f75ad749448d76e0d2bdfed8b5fd3d2e6bde4848ce5defdc2f11cac182",
    },
    "mesh": {
        5: "305db8f5ad99c9790c473084c669ef6e1eb591907cd1044c2b1e88379079bafc",
        10: "95d9f79799492e3b971d1087bf0a88515ba7dcb21f9cb4cdf86d7f916570432b",
        20: "ee71924aaf3b8624e26c8d564b5ef03f12913771a9c986c184ef989af58c80a1",
        40: "409c09dea1043da95f0f942548b731992cdaf760116449cf112a274a0f259592",
        100: "409c09dea1043da95f0f942548b731992cdaf760116449cf112a274a0f259592",
        None: "409c09dea1043da95f0f942548b731992cdaf760116449cf112a274a0f259592",
    },
}


@pytest.mark.parametrize("name", sorted(_PLAN_SCENARIOS))
def test_golden_world_value_iteration_digests(name):
    scenario = world.parse_scenario(_PLAN_SCENARIOS[name]())
    digests = {
        horizon: _solution_digest(value_iteration(scenario, horizon=horizon)) for horizon in _PLAN_HORIZONS
    }
    assert digests == GOLDEN_WORLD_PLANS[name]


# Digests of value iteration on a 200-episode random mesh model (seed 5),
# which leaves pairs unseen, so the self-transition fallback is planned too.
GOLDEN_MODEL_PLANS = {
    5: "217c997022bb0f834e844657b59be299d24ad6051e54e9e68465e260552e232b",
    10: "0306eb651890078ac3ebb3d9361d6258209b01d21022cd5809b278d42b560da1",
    20: "c53033d92c343dbed3e6a6bb8fcb34ccbbf9964246318f854cff3934627875e2",
    40: "39391ba41efed1506f6c8e01af0e15ad7870c903750d4f381e23423f0dd41279",
    100: "dd985bdac8b9f31ab07bda49cb12a1a82816dd2b11bad9f950c4511365399330",
    None: "dd985bdac8b9f31ab07bda49cb12a1a82816dd2b11bad9f950c4511365399330",
}


def test_golden_model_value_iteration_digests():
    scenario = world.parse_scenario(presets.mesh_scenario())
    env = world.AttackWorld(scenario, seed=5)
    data = collect.run_collection(env, collect.uniform_random_policy(env.action_count), 200, 5)
    model = build_model(
        data.records, obs_dim=scenario.obs_dim, action_count=env.action_count,
        fingerprint=scenario.fingerprint,
        metadata={"reward": data.manifest["reward"], "game": data.manifest["game"]},
    )
    config = SimConfig.from_model(model)
    digests = {
        horizon: _solution_digest(agents.value_iteration_model(model, config, horizon=horizon))
        for horizon in _PLAN_HORIZONS
    }
    assert digests == GOLDEN_MODEL_PLANS

"""Evaluation, transfer, fidelity and the game-horizon study."""

import dataclasses
import hashlib
import json
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import artifacts, collect, empirical, evaluate, presets, world
from redsim.cli import EXIT_OK, main
from redsim.agents import LoadedPolicy, QTable, TrainConfig, train_q_learning, value_iteration
from redsim.empirical import EmpiricalSim, build_model, merge_models
from redsim.evaluate import IncompatiblePolicyError, fidelity_report, transfer_eval

from conftest import count_transitions


class _PlanPolicy:
    """Greedy adapter around a value-iteration policy map."""

    def __init__(self, plan, action_count):
        self.plan = plan
        self.action_count = action_count

    def action_values(self, obs):
        values = np.zeros(self.action_count)
        action = self.plan.get(tuple(obs))
        if action is not None:
            values[action] = 1.0
        return values


class _NoisePolicy:
    """Adapter whose argmax is a fresh random action every call."""

    def __init__(self, action_count, seed):
        self.action_count = action_count
        self.rng = np.random.default_rng(seed)

    def action_values(self, obs):
        values = np.zeros(self.action_count)
        values[self.rng.integers(self.action_count)] = 1.0
        return values


def test_optimal_policy_on_deterministic_world_matches_oracle_exactly(det3):
    solution = value_iteration(det3)
    env = world.AttackWorld(det3, seed=1)
    report = evaluate.evaluate_policy(
        env, _PlanPolicy(solution.policy, env.action_count), 20, 1, "world"
    )
    assert report.success_rate == 1.0
    assert report.mean_return == pytest.approx(solution.optimal_return, abs=1e-12)
    assert report.std_return == pytest.approx(0.0, abs=1e-12)


def test_random_policy_strictly_worse_than_optimal(desk5, desk5_solution):
    env = world.AttackWorld(desk5, seed=2)
    optimal = evaluate.evaluate_policy(
        env, _PlanPolicy(desk5_solution.policy, env.action_count), 200, 2, "world"
    )
    env2 = world.AttackWorld(desk5, seed=2)
    random_report = evaluate.evaluate_policy(
        env2, _NoisePolicy(env2.action_count, 2), 200, 2, "world"
    )
    assert random_report.success_rate < optimal.success_rate
    assert random_report.mean_return < optimal.mean_return


def test_evaluation_does_not_mutate_policy(desk5_model, desk5_sim_policy):
    q = desk5_sim_policy.policy
    before = {k: v.copy() for k, v in q.values.items()}
    evaluate.evaluate_policy(EmpiricalSim(desk5_model, seed=8), q, 20, 8, "sim")
    assert set(q.values) == set(before)
    for key, row in before.items():
        assert np.array_equal(q.values[key], row)


def test_trace_lengths_respect_horizon(desk5, desk5_sim_policy):
    env = world.AttackWorld(desk5, seed=5)
    report = evaluate.evaluate_policy(env, desk5_sim_policy.policy, 30, 5, "world")
    assert all(len(t) <= desk5.game.max_steps for t in report.coa)


def test_transfer_identical_traces_on_deterministic_scenario(det3, tmp_path):
    env = world.AttackWorld(det3, seed=3)
    result = collect.run_collection(
        env, collect.uniform_random_policy(env.action_count), 300, 3
    )
    model = build_model(
        result.records,
        obs_dim=det3.obs_dim,
        action_count=len(det3.actions),
        fingerprint=det3.fingerprint,
        metadata={"reward": result.manifest["reward"], "game": result.manifest["game"]},
    )
    trained = train_q_learning(
        EmpiricalSim(model, seed=3), TrainConfig(episodes=2000, seed=3)
    )
    solution = value_iteration(det3)
    report = transfer_eval(
        trained.policy,
        world.AttackWorld(det3, seed=4),
        EmpiricalSim(model, seed=4),
        episodes=25,
        seed=4,
        optimal_return=solution.optimal_return,
    )
    assert report.coa_agreement == 1.0
    assert report.sim.coa == report.world.coa
    assert report.return_gap == pytest.approx(0.0, abs=1e-12)
    assert report.normalized_gap == pytest.approx(0.0, abs=1e-12)


def test_transfer_gap_normalisation_formula(desk5, desk5_model, desk5_sim_policy, desk5_solution):
    report = transfer_eval(
        desk5_sim_policy.policy,
        world.AttackWorld(desk5, seed=6),
        EmpiricalSim(desk5_model, seed=6),
        episodes=25,
        seed=6,
        optimal_return=desk5_solution.optimal_return,
    )
    expected = abs(report.world.mean_return - report.sim.mean_return) / max(
        1.0, abs(desk5_solution.optimal_return)
    )
    assert report.normalized_gap == pytest.approx(expected, abs=1e-12)
    assert report.world_pairs_in_model is not None


def test_transfer_steps_the_world_once_per_evaluated_step(desk5, desk5_solution, monkeypatch):
    # The optimal plan against a 5-episode model meets pairs the model never saw.
    env = world.AttackWorld(desk5, seed=4)
    data = collect.run_collection(env, collect.uniform_random_policy(env.action_count), 5, 4)
    model = build_model(
        data.records,
        obs_dim=desk5.obs_dim,
        action_count=len(desk5.actions),
        fingerprint=desk5.fingerprint,
        metadata={"reward": data.manifest["reward"], "game": data.manifest["game"]},
    )
    policy = _PlanPolicy(desk5_solution.policy, len(desk5.actions))

    calls = 0
    apply_action = world.AttackWorld._apply_action

    def counting_apply_action(self, action):
        nonlocal calls
        calls += 1
        return apply_action(self, action)

    monkeypatch.setattr(world.AttackWorld, "_apply_action", counting_apply_action)
    report = transfer_eval(
        policy, world.AttackWorld(desk5, seed=6), EmpiricalSim(model, seed=6), episodes=40, seed=6
    )
    assert calls == sum(len(trace) for trace in report.world.coa) == 421
    assert report.world_pairs_in_model == 381 / 421  # steps on pairs the model saw


def test_transfer_rejects_mismatched_policy(desk5, mesh):
    loaded = LoadedPolicy(QTable(len(mesh.actions)), "q_table", mesh.fingerprint, mesh.obs_dim, len(mesh.actions), {})
    with pytest.raises(IncompatiblePolicyError):
        transfer_eval(loaded, world.AttackWorld(desk5, seed=1))


def test_evaluate_rejects_a_loaded_policy_of_another_environment(desk5):
    n = len(desk5.actions)
    loaded = LoadedPolicy(QTable(n), "q_table", "0" * 64, desk5.obs_dim, n, {})
    with pytest.raises(IncompatiblePolicyError, match="trained against a different environment"):
        evaluate.evaluate_policy(world.AttackWorld(desk5, seed=1), loaded, 2, 0)


def test_a_loaded_policy_with_an_empty_fingerprint_is_of_another_environment(desk5):
    n = len(desk5.actions)
    loaded = LoadedPolicy(QTable(n), "q_table", "", desk5.obs_dim, n, {})
    with pytest.raises(IncompatiblePolicyError, match="trained against a different environment"):
        evaluate.evaluate_policy(world.AttackWorld(desk5, seed=1), loaded, 2, 0)


def test_a_bare_policy_carries_no_provenance_and_passes(desk5):
    report = evaluate.evaluate_policy(world.AttackWorld(desk5, seed=1), QTable(len(desk5.actions)), 2, 0)
    assert report.episodes == 2


def test_fidelity_zero_on_exhaustive_deterministic_data(det3):
    env = world.AttackWorld(det3, seed=9)
    result = collect.run_collection(
        env, collect.uniform_random_policy(env.action_count), 400, 9
    )
    model = build_model(
        result.records,
        obs_dim=det3.obs_dim,
        action_count=len(det3.actions),
        fingerprint=det3.fingerprint,
    )
    report = fidelity_report(model, det3, visit_threshold=1)
    assert report.coverage == 1.0
    assert report.max_tv_confident == 0.0
    assert all(p.tv_distance == 0.0 for p in report.pairs)


def _tv_reference(p: dict, q: dict) -> float:
    """Total variation between two outcome distributions, summed over the union of their outcomes in set order."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _count_distribution(model, obs, action) -> dict:
    """One pair's outcome probabilities, each count over the pair's total, from ``model.counts`` in sorted order."""
    outcomes = model.counts[obs, action]
    total = sum(outcomes.values())
    return {k: c / total for k, c in sorted(outcomes.items())}


def _fidelity_reference(model, scenario):
    """``(obs, action, visits, tv)`` of every visited reachable pair, pair by pair from the model's count dicts."""
    pairs = []
    for obs in world.reachable_observations(scenario):
        if obs[scenario.objective_flag] == 1:
            continue
        for action in scenario.actions:
            if model.has_pair(obs, action.id):
                exact = dict(world.exact_transition(scenario, obs, action))
                tv = _tv_reference(_count_distribution(model, obs, action.id), exact)
                pairs.append((obs, action.id, sum(model.counts[obs, action.id].values()), tv))
    return pairs


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5), st.floats(0.05, 0.95), st.floats(0.01, 0.45), st.integers(1, 40),
    st.integers(0, 2**32 - 1), st.integers(0, 30),
)
def test_fidelity_audit_is_the_per_pair_reference_bit_for_bit(n_hosts, exploit_prob, noise, episodes, seed, threshold):
    scenario = world.parse_scenario(presets.chain_scenario(n_hosts=n_hosts, exploit_prob=exploit_prob, noise=noise))
    env = world.AttackWorld(scenario, seed=seed)
    data = collect.run_collection(env, collect.uniform_random_policy(env.action_count), episodes, seed)
    model = build_model(
        data.records, obs_dim=scenario.obs_dim, action_count=env.action_count, fingerprint=scenario.fingerprint
    )
    expected = _fidelity_reference(model, scenario)
    report = fidelity_report(model, scenario, visit_threshold=threshold)
    got = [(p.obs, p.action, p.visits, p.tv_distance) for p in report.pairs]
    assert [(o, a, n, tv.hex()) for o, a, n, tv in got] == [(o, a, n, tv.hex()) for o, a, n, tv in expected]
    assert all(type(n) is int and type(tv) is float for _, _, n, tv in got)
    confident = [tv for _, _, n, tv in expected if n >= threshold]
    assert report.confident_pairs == len(confident)
    assert report.max_tv_confident == (max(confident) if confident else 0.0)
    assert report.mean_tv_confident == (float(np.mean(confident)) if confident else 0.0)


def test_fidelity_audit_sums_outcomes_the_world_cannot_produce(det3):
    """A hand-made row with outcomes off the world's law: every outcome on either side counts once."""
    x0 = det3.initial_observation()
    [(after, _)] = world.exact_transition(det3, x0, det3.actions[0])
    odd = tuple(1 - v for v in x0)
    counts = count_transitions([(x0, 0, x0, 1), (x0, 0, odd, 2), (x0, 0, after, 3), (x0, 1, odd, 4)])
    model = empirical.EmpiricalModel(det3.obs_dim, len(det3.actions), det3.fingerprint, x0, counts=counts)
    report = fidelity_report(model, det3, visit_threshold=1)
    assert [(p.obs, p.action, p.visits) for p in report.pairs] == [(x0, 0, 6), (x0, 1, 4)]
    exact_1 = dict(world.exact_transition(det3, x0, det3.actions[1]))
    expected = [fsum((1 / 6, 2 / 6, 1 - 3 / 6)) / 2, _tv_reference({odd: 1.0}, exact_1)]
    assert [p.tv_distance for p in report.pairs] == pytest.approx(expected, rel=1e-15)
    assert report.pairs[1].tv_distance == 1.0


def test_fidelity_tv_bound_at_threshold_visits_with_binomial_oracle():
    # A 0.6/0.4 pair estimated from exactly 200 visits.  The exact binomial
    # oracle puts P(TV <= 0.05) at 0.8706, so the bound is a likely-but-not-
    # certain event; the frozen seed below is one of the passing draws.
    n, p = 200, 0.6
    in_band = fsum(
        comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(110, 131)
    )
    assert in_band == pytest.approx(0.870607, abs=1e-6)

    scenario = world.parse_scenario(presets.chain_scenario(n_hosts=2, exploit_prob=0.6))
    state = list(scenario.initial_observation())
    state[3] = 1
    state = tuple(state)
    exploit = next(a for a in scenario.actions if a.kind == "exploit_user")
    env = world.AttackWorld(scenario, seed=40)
    env.reset(seed=40)
    outcomes = []
    for _ in range(n):
        env.set_state(state)
        outcomes.append((state, exploit.id, env.step(exploit.id).observation, 1))
    model = empirical.EmpiricalModel(
        scenario.obs_dim, len(scenario.actions), scenario.fingerprint,
        x0=scenario.initial_observation(), counts=count_transitions(outcomes),
    )
    exact = dict(world.exact_transition(scenario, state, exploit))
    tv = _tv_reference(_count_distribution(model, state, exploit.id), exact)
    assert tv <= 0.05


def test_fidelity_unvisited_pairs_counted_as_gap_not_failure(det3):
    [(after, _)] = world.exact_transition(det3, det3.initial_observation(), det3.actions[0])
    records = [collect.TransitionRecord(0, 0, det3.initial_observation(), 0, after, 0.0, True, True)]
    model = build_model(
        records, obs_dim=det3.obs_dim, action_count=len(det3.actions),
        fingerprint=det3.fingerprint,
    )
    report = fidelity_report(model, det3, visit_threshold=200)
    assert report.visited_pairs == 1
    assert report.coverage < 1.0
    assert report.low_confidence_pairs == report.reachable_pairs
    assert {(tuple(p.obs), p.action) for p in report.pairs} == {
        (det3.initial_observation(), 0)
    }


def test_fidelity_of_merged_shards_equals_unsharded(desk5, desk5_dataset):
    dims = dict(
        obs_dim=desk5.obs_dim,
        action_count=len(desk5.actions),
        fingerprint=desk5.fingerprint,
    )
    records = desk5_dataset.records[:20_000]
    third = len(records) // 3
    shards = [
        build_model(records[:third], **dims),
        build_model(records[third : 2 * third], **dims),
        build_model(records[2 * third :], **dims),
    ]
    merged = merge_models(merge_models(shards[0], shards[1]), shards[2])
    whole = build_model(records, **dims)
    a = fidelity_report(merged, desk5, visit_threshold=50)
    b = fidelity_report(whole, desk5, visit_threshold=50)
    assert a.to_dict() == b.to_dict()


def test_max_steps_study_convergence_and_monotonicity(desk5, desk5_model):
    config = TrainConfig(episodes=4000, seed=13, epsilon_decay_steps=15_000)
    study = evaluate.max_steps_study(
        desk5_model, desk5, [5, 20, 40], config, eval_episodes=200, seed=13
    )
    assert study.shortest_path == 10
    below, twice, quadruple = study.rows
    assert below.trained_return <= 0.0
    assert not below.converged
    assert twice.converged
    assert quadruple.converged
    optima = [r.optimal_return for r in study.rows]
    assert optima == sorted(optima)


def test_report_exports(tmp_path, det3, desk5_solution):
    env = world.AttackWorld(det3, seed=1)
    solution = value_iteration(det3)
    report = evaluate.evaluate_policy(
        env, _PlanPolicy(solution.policy, env.action_count), 5, 1, "world"
    )
    json_path = tmp_path / "r.json"
    artifacts.write_json(json_path, report.to_dict())
    assert json_path.exists()
    rows = [report.to_dict(include_traces=False)]
    csv_path = tmp_path / "r.csv"
    artifacts.write_csv(csv_path, sorted(rows[0]), rows)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2
    assert "mean_return" in lines[0]


def _small_model(scenario, episodes=3, seed=1):
    env = world.AttackWorld(scenario, seed=seed)
    data = collect.run_collection(env, collect.uniform_random_policy(env.action_count), episodes, seed)
    return build_model(
        data.records,
        obs_dim=scenario.obs_dim,
        action_count=len(scenario.actions),
        fingerprint=scenario.fingerprint,
        metadata={"reward": data.manifest["reward"], "game": data.manifest["game"]},
    )


def test_fidelity_rejects_model_from_another_scenario(desk5, mesh):
    with pytest.raises(empirical.IncompatibleModelError):
        fidelity_report(_small_model(desk5), mesh)


def test_max_steps_study_rejects_model_from_another_scenario(desk5, mesh):
    with pytest.raises(empirical.IncompatibleModelError):
        evaluate.max_steps_study(_small_model(desk5), mesh, [20], TrainConfig(episodes=5))


def test_max_steps_study_rejects_a_dqn_config(desk5):
    """The study trains Q-learning, so a config for DQN names a run it does not make."""
    with pytest.raises(ValueError, match="q_learning trainer was given a config for 'dqn'"):
        evaluate.max_steps_study(_small_model(desk5), desk5, [20], TrainConfig(algorithm="dqn", episodes=5))


def test_transfer_rejects_sim_from_another_scenario(desk5, mesh):
    q = QTable(len(desk5.actions))
    with pytest.raises(empirical.IncompatibleModelError):
        transfer_eval(q, world.AttackWorld(desk5, seed=1), EmpiricalSim(_small_model(mesh), seed=1), episodes=2)


def _grown(model, flags=0, actions=0):
    """``model`` with ``flags`` more observation values (each 0) and ``actions`` more actions, its game padded to fit."""
    pad = (0,) * flags
    reward = model.metadata["reward"]
    return dataclasses.replace(
        model,
        obs_dim=model.obs_dim + flags,
        action_count=model.action_count + actions,
        x0=model.x0 + pad,
        counts={(obs + pad, a): {n + pad: c for n, c in row.items()} for (obs, a), row in model.counts.items()},
        metadata={**model.metadata, "reward": {
            "flag_worths": reward["flag_worths"] + [0.0] * flags,
            "action_costs": reward["action_costs"] + [1.0] * actions,
        }},
    )


_SOURCE_CHECKS = {
    "fidelity": lambda model, scenario: fidelity_report(model, scenario),
    "study": lambda model, scenario: evaluate.max_steps_study(model, scenario, [20], TrainConfig(episodes=5)),
    "transfer": lambda model, scenario: transfer_eval(
        QTable(len(scenario.actions)), world.AttackWorld(scenario, seed=1), EmpiricalSim(model, seed=1), episodes=2
    ),
}


@pytest.mark.parametrize("growth", [{"flags": 1}, {"actions": 3}], ids=["obs_dim", "action_count"])
@pytest.mark.parametrize("check", list(_SOURCE_CHECKS.values()), ids=list(_SOURCE_CHECKS))
def test_a_model_of_other_dimensions_is_incompatible(desk5, check, growth):
    """A model with the scenario's fingerprint but not its ``obs_dim`` or action count is from another environment."""
    model = _grown(_small_model(desk5), **growth)
    assert model.fingerprint == desk5.fingerprint
    EmpiricalSim(model, seed=1)  # the grown model fits its own game
    with pytest.raises(empirical.IncompatibleModelError, match="dims"):
        check(model, desk5)


# sha256 of the mesh fidelity audit (JSON and CSV) on a 200-episode random
# log (seed 5), recorded when the audit still enumerated the world law pair
# by pair; a 20-visit threshold leaves both confident and low-confidence pairs.
GOLDEN_MESH_FIDELITY = {
    "fidelity.json": "b2994465dcc9c1ca0c47dde879a28867cb7c7624b0cd11aa9e4aaa86fabc92ba",
    "fidelity.json.csv": "88637b2043c4cf51754c28fe77a31cf04e5b296e2c6dc3408899f09b3737541f",
}


def test_golden_mesh_fidelity_digests(tmp_path):
    scenario = tmp_path / "mesh.json"
    scenario.write_text(json.dumps(presets.mesh_scenario()), encoding="utf-8")
    log, model, fid = tmp_path / "d.jsonl", tmp_path / "m.model", tmp_path / "fidelity.json"
    commands = [
        ["collect", "--scenario", str(scenario), "--episodes", "200", "--seed", "5", "--out", str(log)],
        ["build-sim", "--data", str(log), "--out", str(model)],
        ["fidelity", "--model", str(model), "--scenario", str(scenario), "--visit-threshold", "20",
         "--out", str(fid)],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (fid, tmp_path / "fidelity.json.csv")
    }
    assert digests == GOLDEN_MESH_FIDELITY

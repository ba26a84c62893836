"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The heavy shared inputs (the ~157k-step random-policy dataset,
its model, the exact planning solution) come from session fixtures, so the
whole suite stays inside the stated runtime budgets.
"""

import time
from fractions import Fraction

import numpy as np

from redsim import cli, collect, evaluate, presets, world
from redsim.agents import TrainConfig, train_q_learning
from redsim.dqn import DqnNet, numeric_gradients, train_dqn
from redsim.empirical import EmpiricalSim, build_model, merge_models
from redsim.evaluate import fidelity_report, transfer_eval

from conftest import table_distribution


def _ok(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {detail}")


def test_criterion_01_transition_estimates_are_exact_counts(desk5, desk5_dataset, desk5_model):
    """The table's per-entry probabilities equal an independent brute-force recount exactly."""
    t0 = time.perf_counter()
    assert len(desk5_dataset.records) <= 10**6

    recount: dict[tuple, dict[tuple, int]] = {}
    for rec in desk5_dataset.records:
        bucket = recount.setdefault((rec.obs, rec.action), {})
        bucket[rec.next_obs] = bucket.get(rec.next_obs, 0) + 1

    model = build_model(
        desk5_dataset.records, obs_dim=desk5.obs_dim, action_count=len(desk5.actions)
    )
    assert len(model.counts) == len(recount)
    for (obs, action), outcomes in recount.items():
        total = sum(outcomes.values())
        distribution = table_distribution(model, obs, action)
        assert distribution.keys() == outcomes.keys()
        for next_obs, count in outcomes.items():
            estimated = distribution[next_obs]
            assert Fraction(estimated).limit_denominator(10**9) == Fraction(count, total)
            assert estimated == count / total
        float_sum = sum(distribution.values())
        assert abs(float_sum - 1.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(1, f"{len(recount)} pairs recounted exactly on {len(desk5_dataset.records)} records in {elapsed:.1f}s")


def test_criterion_02_merge_is_a_count_monoid(desk5, desk5_dataset):
    """merge(build(D1), build(D2)) == build(D1 u D2) for 100 random splits."""
    t0 = time.perf_counter()
    records = desk5_dataset.records[:10_000]
    dims = dict(
        obs_dim=desk5.obs_dim,
        action_count=len(desk5.actions),
        fingerprint=desk5.fingerprint,
    )
    whole = build_model(records, **dims)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cut = int(rng.integers(1, len(records)))
        merged = merge_models(
            build_model(records[:cut], **dims), build_model(records[cut:], **dims)
        )
        assert merged == whole
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(2, f"100 random splits of {len(records)} records merged table-exactly in {elapsed:.1f}s")


def test_criterion_03_fidelity_at_full_scale(desk5, desk5_dataset, desk5_model):
    """Every pair with >=200 visits sits within 0.05 total variation of the truth."""
    t0 = time.perf_counter()
    steps = len(desk5_dataset.records)
    assert 150_000 <= steps <= 165_000  # ~157k-step random-policy dataset
    report = fidelity_report(desk5_model, desk5, visit_threshold=200)
    confident = [p for p in report.pairs if p.visits >= 200]
    assert confident, "dataset did not reach the visit threshold anywhere"
    worst = max(p.tv_distance for p in confident)
    assert worst <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(3, f"{len(confident)} pairs with >=200 visits, worst TV {worst:.4f} on {steps} steps")


def test_criterion_04_sim_trained_policy_transfers(desk5, desk5_sim_policy, desk5_solution):
    """Trained only in the sim, optimal back in the world: the core claim."""
    t0 = time.perf_counter()
    report = evaluate.evaluate_policy(
        world.AttackWorld(desk5, seed=404), desk5_sim_policy.policy, 60, 404, "world"
    )
    gap = abs(report.mean_return - desk5_solution.optimal_return) / abs(
        desk5_solution.optimal_return
    )
    assert report.success_rate == 1.0
    assert gap <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(
        4,
        f"world return {report.mean_return:.2f} vs optimal {desk5_solution.optimal_return:.2f} "
        f"(gap {100 * gap:.2f}%), goal reached in 60/60 episodes",
    )


def test_criterion_05_sim_training_throughput(desk5, desk5_model):
    """Generated sim trains >=500x faster than the latency-bound world."""
    sim = EmpiricalSim(desk5_model, seed=55)
    t0 = time.perf_counter()
    train_q_learning(sim, TrainConfig(episodes=10**6, seed=55, max_env_steps=10_000))
    sim_rate = 10_000 / (time.perf_counter() - t0)

    latent = world.parse_scenario(presets.chain_scenario(step_latency_ms=50.0))
    world_env = world.AttackWorld(latent, seed=55)
    world_steps = 120  # latency-dominated, so a short sample measures the rate
    t0 = time.perf_counter()
    train_q_learning(world_env, TrainConfig(episodes=10**6, seed=55, max_env_steps=world_steps))
    world_rate = world_steps / (time.perf_counter() - t0)
    ratio = sim_rate / world_rate
    assert ratio >= 500.0

    t0 = time.perf_counter()
    train_q_learning(
        EmpiricalSim(desk5_model, seed=56),
        TrainConfig(episodes=10**6, seed=56, max_env_steps=100_000),
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(
        5,
        f"sim {sim_rate:.0f} steps/s vs world {world_rate:.1f} steps/s "
        f"({ratio:.0f}x); 100k sim steps in {elapsed:.1f}s",
    )


def test_criterion_06_game_horizon_study(desk5, desk5_model):
    """Too-short horizons cannot converge; generous horizons reach the optimum."""
    shortest = world.shortest_success_path(desk5)
    config = TrainConfig(episodes=4000, seed=66, epsilon_decay_steps=15_000)
    study = evaluate.max_steps_study(
        desk5_model, desk5, [5, 2 * shortest, 4 * shortest, 80], config,
        eval_episodes=200, seed=66,
    )
    below, twice, quadruple, full = study.rows
    assert below.max_steps < shortest
    assert below.trained_return <= 0.0
    assert not below.converged
    for row in (twice, quadruple, full):
        assert row.converged
        assert abs(row.trained_return - row.optimal_return) <= 0.05 * abs(row.optimal_return)
    optima = [r.optimal_return for r in study.rows]
    assert optima == sorted(optima)
    _ok(
        6,
        f"horizon {below.max_steps}: return {below.trained_return:.1f} (non-converged); "
        f"horizons {[r.max_steps for r in (twice, quadruple, full)]} within 5%; optima non-decreasing",
    )


def test_criterion_07_dqn_numerics_and_architecture_ranking(desk5, desk5_model, desk5_solution):
    """Gradient exactness, optimal returns, and the wider-net ranking."""
    rng = np.random.default_rng(777)
    net = DqnNet(obs_dim=desk5.obs_dim, action_count=len(desk5.actions), hidden_sizes=(12, 8), seed=7)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=(16, desk5.obs_dim))
        actions = rng.integers(len(desk5.actions), size=16)
        targets = rng.normal(size=16)
        _, grads = net.loss_and_grads(x, actions, targets)
        numeric = numeric_gradients(net, x, actions, targets)
        for (gw, gb), (nw, nb) in zip(grads, numeric):
            for a, n in ((gw, nw), (gb, nb)):
                scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
                worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    assert worst <= 1e-4

    def run(hidden, steps):
        config = TrainConfig(
            algorithm="dqn", episodes=10**6, learning_rate=1.5e-3, gamma=0.99,
            epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_steps=10_000,
            replay_capacity=60_000, batch_size=32, target_sync_interval=250,
            hidden_sizes=hidden, seed=5, eval_interval=2_000, eval_episodes=20,
            max_env_steps=steps,
        )
        sim = EmpiricalSim(desk5_model, seed=5)
        return train_dqn(sim, config, eval_env=EmpiricalSim(desk5_model, seed=5))

    wide = run((100, 100), 24_000)
    narrow = run((50,), 30_000)
    threshold = 0.95 * desk5_solution.optimal_return

    def convergence_step(result):
        return next((step for step, ret in result.evals if ret >= threshold), None)

    wide_step = convergence_step(wide)
    narrow_step = convergence_step(narrow)
    assert wide_step is not None
    assert narrow_step is None or wide_step <= narrow_step

    report = evaluate.evaluate_policy(
        EmpiricalSim(desk5_model, seed=71), wide.policy, 100, 71, "sim"
    )
    gap = abs(report.mean_return - desk5_solution.optimal_return) / abs(
        desk5_solution.optimal_return
    )
    assert gap <= 0.05
    _ok(
        7,
        f"max grad error {worst:.2e}; (100,100) converged at step {wide_step} vs (50,) at "
        f"{narrow_step}; greedy return {report.mean_return:.2f} (gap {100 * gap:.2f}%)",
    )


def test_criterion_08_pipeline_determinism(tmp_path):
    """Identical resolved configs produce byte-identical primary artifacts."""
    import json as _json

    scenario_path = tmp_path / "sc.json"
    scenario_path.write_text(_json.dumps(presets.chain_scenario()), encoding="utf-8")

    def stage_outputs(tag):
        data = tmp_path / f"{tag}.jsonl"
        model = tmp_path / f"{tag}.model"
        q_policy = tmp_path / f"{tag}-q.policy"
        dqn_policy = tmp_path / f"{tag}-dqn.policy"
        assert cli.main([
            "collect", "--scenario", str(scenario_path), "--episodes", "120",
            "--seed", "8", "--out", str(data),
        ]) == cli.EXIT_OK
        assert cli.main(["build-sim", "--data", str(data), "--out", str(model)]) == cli.EXIT_OK
        assert cli.main([
            "train", "--env", f"sim:{model}", "--algo", "q_learning",
            "--episodes", "800", "--seed", "9", "--out", str(q_policy),
        ]) == cli.EXIT_OK
        assert cli.main([
            "train", "--env", f"sim:{model}", "--algo", "dqn", "--episodes", "60",
            "--hidden", "16", "--seed", "9", "--out", str(dqn_policy),
        ]) == cli.EXIT_OK
        return [p.read_bytes() for p in (data, collect.manifest_path(data), model, q_policy, dqn_policy)]

    assert stage_outputs("first") == stage_outputs("second")
    _ok(8, "collect, build-sim, and both trainers re-ran byte-identically")


def test_criterion_09_sparse_data_degrades_gracefully(desk5, desk5_dataset, desk5_model, desk5_solution):
    """A starved dataset widens the sim-to-world gap and the confidence gaps."""
    starved_records = []
    for rec in desk5_dataset.records:
        if rec.episode >= 13:
            break
        starved_records.append(rec)
    assert 900 <= len(starved_records) <= 1_100
    starved = build_model(
        starved_records,
        obs_dim=desk5.obs_dim,
        action_count=len(desk5.actions),
        fingerprint=desk5.fingerprint,
        metadata=desk5_model.metadata,
    )

    def gap_for(model):
        trained = train_q_learning(
            EmpiricalSim(model, seed=911),
            TrainConfig(episodes=6000, seed=911, epsilon_decay_steps=20_000),
        )
        report = transfer_eval(
            trained.policy,
            world.AttackWorld(desk5, seed=912),
            EmpiricalSim(model, seed=912),
            episodes=50,
            seed=912,
            optimal_return=desk5_solution.optimal_return,
        )
        return report.normalized_gap

    rich_gap = gap_for(desk5_model)
    starved_gap = gap_for(starved)
    assert starved_gap > rich_gap

    rich_fid = fidelity_report(desk5_model, desk5, visit_threshold=200)
    starved_fid = fidelity_report(starved, desk5, visit_threshold=200)
    assert starved_fid.low_confidence_pairs > rich_fid.low_confidence_pairs
    _ok(
        9,
        f"gap {starved_gap:.4f} (1k steps) > {rich_gap:.4f} (157k); "
        f"low-confidence pairs {starved_fid.low_confidence_pairs} > {rich_fid.low_confidence_pairs}",
    )

"""Per-layer instrumentation of redsim, applied from outside the package.

``install`` wraps the public functions of each module in ``src/redsim``
at every name they are looked up under: a function imported by name into
another module (``cli.train_dqn``, ``world.compute_reward``) is a separate
binding, so each binding gets its own wrapper with the same span name.
``per_layer_metrics`` turns the tracer's spans into the metrics listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import os

from redsim import agents, artifacts, cli, collect, dqn, empirical, envapi, evaluate, world

# The span names the traced run reports, with where each one is looked up.
_SPANS = (
    ("world.exact_transition", (world, agents, evaluate), "exact_transition"),
    ("world.reachable_observations", (world, agents, evaluate), "reachable_observations"),
    ("envapi.compute_reward", (envapi, world, empirical, agents), "compute_reward"),
    ("collect.read_log", (collect,), "read_log"),
    ("collect.validate_log", (collect,), "validate_log"),
    ("empirical.build_model", (empirical,), "build_model"),
    ("empirical.save_model", (empirical,), "save_model"),
    ("empirical.load_model", (empirical,), "load_model"),
    ("empirical.sim_init", (empirical.EmpiricalSim,), "__init__"),
    ("artifacts.read_artifact", (artifacts,), "read_artifact"),
    ("agents.greedy_action", (agents, dqn, evaluate), "greedy_action"),
    ("agents.train_q_learning", (agents, evaluate), "train_q_learning"),
    ("dqn.forward", (dqn.DqnNet,), "forward"),
    ("dqn.loss_and_grads", (dqn.DqnNet,), "loss_and_grads"),
    ("dqn.adam_step", (dqn.Adam,), "step"),
    ("dqn.train_dqn", (dqn, cli), "train_dqn"),
    ("evaluate.evaluate_policy", (evaluate,), "evaluate_policy"),
    ("evaluate.transfer_eval", (evaluate,), "transfer_eval"),
    ("evaluate.fidelity_report", (evaluate,), "fidelity_report"),
)


def install(tracer) -> None:
    """Wrap every traced boundary; ``tracer.unpatch_all`` undoes it."""
    for name, owners, attr in _SPANS:
        for owner in owners:
            tracer.patch_span(owner, attr, name)

    def count_transfer_steps(_result, _args):
        if tracer.active("evaluate.transfer_eval"):
            tracer.count("evaluate.transfer_world_steps")

    tracer.patch_span(world.AttackWorld, "step", "world.step", count_transfer_steps)

    def log_bytes(_result, args):
        tracer.count("collect.log_bytes", os.path.getsize(args[1]))

    def artifact_bytes(_result, args):
        tracer.count("artifacts.bytes_written", os.path.getsize(args[0]))

    tracer.patch_span(collect, "write_log", "collect.write_log", log_bytes)
    tracer.patch_span(artifacts, "write_artifact", "artifacts.write_artifact", artifact_bytes)

    def backups(action_count):
        def after(solution, args):
            tracer.count("agents.vi_backups", solution.iterations * len(solution.values) * action_count(args[0]))
        return after

    tracer.patch_span(agents, "value_iteration", "agents.value_iteration", backups(lambda s: len(s.actions)))
    tracer.patch_span(evaluate, "value_iteration", "agents.value_iteration", backups(lambda s: len(s.actions)))
    tracer.patch_span(
        agents, "value_iteration_model", "agents.value_iteration_model", backups(lambda m: m.action_count)
    )

    # The sim's fallback share: a step whose (obs, action) pair the model never
    # saw.  The wrapper follows each sim's observation through reset and step.
    sim_obs: dict[int, tuple] = {}
    reset = envapi.Env.reset
    sim_step = envapi.Env.step

    def traced_reset(self, seed=None):
        obs = tracer.call("envapi.reset", reset, self, seed)
        sim_obs[id(self)] = obs
        return obs

    def traced_sim_step(self, action):
        if not self.model.has_pair(sim_obs[id(self)], action):
            tracer.count("empirical.sim_fallback_steps")
        result = tracer.call("empirical.sim_step", sim_step, self, action)
        sim_obs[id(self)] = result.observation
        return result

    tracer.patch(envapi.Env, "reset", traced_reset)
    tracer.patch(empirical.EmpiricalSim, "step", traced_sim_step)


# Per-call timings are reported as p50 and p99 with their call count.
_PER_CALL = (
    "world.step",
    "envapi.reset",
    "envapi.compute_reward",
    "empirical.sim_step",
    "agents.greedy_action",
    "dqn.forward",
    "dqn.loss_and_grads",
    "dqn.adam_step",
)

_TOTAL_SECONDS = (
    "world.reachable_observations",
    "collect.write_log",
    "collect.read_log",
    "empirical.build_model",
    "empirical.save_model",
    "empirical.sim_init",
    "empirical.load_model",
    "artifacts.read_artifact",
    "artifacts.write_artifact",
    "agents.value_iteration",
    "agents.value_iteration_model",
    "evaluate.evaluate_policy",
    "evaluate.fidelity_report",
)

_SELF_SECONDS = ("collect.validate_log", "agents.train_q_learning", "dqn.train_dqn")

_CLI_STAGES = ("collect", "build_sim", "train", "transfer", "eval", "fidelity")


def per_layer_metrics(tracer, iterations: int) -> dict[str, tuple[float, str]]:
    """Span metrics per traced iteration; a boundary the workload never crosses reads 0."""
    stats = tracer.stats
    counters = tracer.counters

    def calls(name):
        return stats[name].count / iterations if name in stats else 0.0

    def seconds(name, self_time=False):
        if name not in stats:
            return 0.0
        return (stats[name].self_ns if self_time else stats[name].total_ns) / 1e9 / iterations

    def micros(name, q):
        return stats[name].percentile_ns(q) / 1e3 if name in stats else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for stage in _CLI_STAGES:
        out[f"cli.{stage}_s"] = (seconds(f"cli.{stage}"), "s")
    for name in _PER_CALL:
        out[f"{name}_calls"] = (calls(name), "count")
        out[f"{name}_us_p50"] = (micros(name, 50), "us")
        out[f"{name}_us_p99"] = (micros(name, 99), "us")
    for name in _TOTAL_SECONDS:
        out[f"{name}_s"] = (seconds(name), "s")
    for name in _SELF_SECONDS:
        out[f"{name}_self_s"] = (seconds(name, self_time=True), "s")
    out["world.exact_transition_calls"] = (calls("world.exact_transition"), "count")
    out["collect.read_log_calls"] = (calls("collect.read_log"), "count")
    out["collect.log_mb_per_s"] = (
        ratio(counters.get("collect.log_bytes", 0) / 1e6, seconds("collect.write_log") * iterations),
        "MB/s",
    )
    out["artifacts.bytes_written"] = (counters.get("artifacts.bytes_written", 0) / iterations, "bytes")
    out["empirical.sim_fallback_ratio"] = (
        ratio(counters.get("empirical.sim_fallback_steps", 0), calls("empirical.sim_step") * iterations),
        "ratio",
    )
    vi_seconds = seconds("agents.value_iteration") + seconds("agents.value_iteration_model")
    out["agents.vi_backups_per_s"] = (
        ratio(counters.get("agents.vi_backups", 0), vi_seconds * iterations),
        "backups/s",
    )
    out["evaluate.transfer_world_steps"] = (
        counters.get("evaluate.transfer_world_steps", 0) / iterations,
        "count",
    )
    out["sim_vs_world_step_ratio"] = (
        ratio(micros("world.step", 50), micros("empirical.sim_step", 50)),
        "ratio",
    )
    return out

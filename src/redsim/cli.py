"""Command-line front end for the whole pipeline.

Every subcommand is batch: it reads artifacts, writes artifacts, and exits.
All randomness is controlled by --seed, every output gets a resolved-config
snapshot written next to it (``<out>.run.json``), and failure modes map to
distinct exit codes so shell harnesses can assert them:

    0  success
    1  unexpected error
    2  usage error (unknown flag / bad argument), or a run its flags cannot complete
    3  missing or unreadable file
    4  invalid scenario
    5  invalid or corrupt dataset
    6  incompatible artifacts (another network: fingerprint or dimension mismatch)
    7  damaged artifact container (version or checksum)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, agents, artifacts, collect, empirical, envapi, evaluate, world
from .artifacts import ArtifactChecksumError, ArtifactVersionError, sniff_format
from .dqn import train_dqn

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SCENARIO = 4
EXIT_DATA = 5
EXIT_INCOMPATIBLE = 6
EXIT_ARTIFACT = 7

OUT_DIR_ENV = "REDSIM_OUT_DIR"


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _checked(kind, ok, expected: str):
    """An argparse ``type=`` function: ``kind(raw)`` if ``ok`` holds for it, else a usage error."""

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_gamma = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")


def _positive_ints(raw: str) -> tuple[int, ...]:
    """Comma-separated positive integers; empty items are skipped."""
    return tuple(_positive_int(item) for item in raw.split(",") if item)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(OUT_DIR_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_snapshot(out: Path, args) -> None:
    doc = {
        "command": args.command,
        "resolved": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    artifacts.write_json(Path(str(out) + ".run.json"), doc)


def _write_report(args, doc: dict, columns, rows) -> None:
    """``doc`` as JSON at ``--out``, ``rows`` as CSV at ``<out>.csv``, and the run snapshot."""
    out = _out_path(args.out)
    artifacts.write_json(out, doc)
    artifacts.write_csv(Path(str(out) + ".csv"), columns, rows)
    _write_snapshot(out, args)


def _world_env(path: str, seed: int, max_steps: int | None) -> world.AttackWorld:
    """The world of a scenario file, its game horizon replaced by ``max_steps`` when given."""
    scenario = world.load_scenario(path)
    if max_steps is not None:
        scenario = dataclasses.replace(scenario, game=dataclasses.replace(scenario.game, max_steps=max_steps))
    return world.AttackWorld(scenario, seed=seed)


def _make_env(spec: str, seed: int, max_steps: int | None, fallback: str):
    """Environment from a 'world:<scenario.json>' or 'sim:<model>' spec string."""
    kind, _, path = spec.partition(":")
    if not path or kind not in ("world", "sim"):
        raise CliError(
            EXIT_USAGE, "bad-env", f"--env must look like world:<scenario> or sim:<model>, got {spec!r}"
        )
    if kind == "world":
        return _world_env(path, seed, max_steps), "world"
    model = empirical.load_model(path)
    config = empirical.SimConfig.from_model(model, max_steps=max_steps, fallback=fallback)
    return empirical.EmpiricalSim(model, config, seed=seed), "sim"


# --- subcommands ------------------------------------------------------------

def _cmd_scenario_validate(args) -> int:
    scenario = world.load_scenario(args.scenario)
    print(
        f"ok name={scenario.name!r} hosts={len(scenario.hosts)} "
        f"actions={scenario.action_count} obs_dim={scenario.obs_dim} "
        f"shortest_path={world.shortest_success_path(scenario)} "
        f"fingerprint={scenario.fingerprint[:16]}"
    )
    return EXIT_OK


def _cmd_collect(args) -> int:
    env = _world_env(args.scenario, args.seed, args.max_steps)
    if args.policy == "random":
        policy = collect.uniform_random_policy(env.action_count)
    else:
        if not args.policy_file:
            raise CliError(
                EXIT_USAGE, "bad-policy", "--policy epsilon-greedy needs --policy-file"
            )
        loaded = agents.load_policy(args.policy_file)
        evaluate.check_compat(env, loaded)
        policy = collect.epsilon_greedy_policy(
            lambda obs: agents.greedy_action(loaded, obs),
            args.epsilon,
            env.action_count,
        )
    out = _out_path(args.out)
    result = collect.run_collection(env, policy, args.episodes, args.seed, out_path=out)
    _write_snapshot(out, args)
    print(f"wrote {result.manifest['total_steps']} steps to {out}")
    return EXIT_OK


def _cmd_build_sim(args) -> int:
    model = empirical.build_model_from_log(args.data)
    out = _out_path(args.out)
    empirical.save_model(model, out)
    _write_snapshot(out, args)
    print(
        f"wrote model to {out}: {model.pair_support} (obs, action) pairs, "
        f"{model.total_transitions} transitions"
    )
    return EXIT_OK


def _train_config(args) -> agents.TrainConfig:
    try:
        return agents.TrainConfig(
            algorithm=args.algo,
            episodes=args.episodes,
            gamma=args.gamma,
            learning_rate=args.learning_rate
            if args.learning_rate is not None
            else (0.1 if args.algo == "q_learning" else 1e-3),
            epsilon_start=args.epsilon_start,
            epsilon_end=args.epsilon_end,
            epsilon_decay_steps=args.epsilon_decay_steps,
            replay_capacity=args.replay_capacity,
            batch_size=args.batch_size,
            target_sync_interval=args.target_sync,
            hidden_sizes=args.hidden,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, "bad-train-config", str(exc)) from None


def _cmd_train(args) -> int:
    config = _train_config(args)
    env, _ = _make_env(args.env, args.seed, args.max_steps, args.fallback)
    trainer = agents.train_q_learning if args.algo == "q_learning" else train_dqn
    result = trainer(env, config)
    out = _out_path(args.out)
    agents.save_policy(
        result.policy,
        out,
        fingerprint=env.fingerprint,
        obs_dim=env.obs_dim,
        train_config=config,
    )
    artifacts.write_csv(Path(str(out) + ".curve.csv"), agents.CURVE_COLUMNS, [vars(p) for p in result.curve])
    _write_snapshot(out, args)
    final = result.curve[-1].episode_return if result.curve else float("nan")
    print(f"wrote policy to {out} ({len(result.curve)} episodes, last return {final})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    env, tag = _make_env(args.env, args.seed, args.max_steps, args.fallback)
    loaded = agents.load_policy(args.policy)
    report = evaluate.evaluate_policy(env, loaded, args.episodes, args.seed, environment_tag=tag)
    row = report.to_dict(include_traces=False)
    _write_report(args, report.to_dict(), sorted(row), [row])
    print(
        f"{tag}: mean return {report.mean_return:.3f} success rate {report.success_rate:.3f}"
    )
    return EXIT_OK


def _cmd_transfer(args) -> int:
    scenario = world.load_scenario(args.scenario)
    loaded = agents.load_policy(args.policy)
    world_env = world.AttackWorld(scenario, seed=args.seed)
    sim_env = None
    if args.model:
        sim_env = empirical.EmpiricalSim(empirical.load_model(args.model), seed=args.seed)
    solution = agents.value_iteration(scenario)
    report = evaluate.transfer_eval(
        loaded,
        world_env,
        sim_env,
        episodes=args.episodes,
        seed=args.seed,
        optimal_return=solution.optimal_return,
    )
    flat = {
        "world_mean_return": report.world.mean_return,
        "world_success_rate": report.world.success_rate,
        "sim_mean_return": report.sim.mean_return if report.sim else "",
        "optimal_return": report.optimal_return,
        "return_gap": report.return_gap if report.return_gap is not None else "",
        "world_gap_to_optimal": report.world_gap_to_optimal,
        "coa_agreement": report.coa_agreement if report.coa_agreement is not None else "",
    }
    _write_report(args, report.to_dict(), sorted(flat), [flat])
    print(
        f"world return {report.world.mean_return:.3f} vs optimal "
        f"{report.optimal_return:.3f} (gap {100 * report.world_gap_to_optimal:.2f}%), "
        f"success rate {report.world.success_rate:.3f}"
    )
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    scenario = world.load_scenario(args.scenario)
    model = empirical.load_model(args.model)
    report = evaluate.fidelity_report(model, scenario, visit_threshold=args.visit_threshold)
    # each distinct observation's text once; keyed by value, as they are the world's int tuples
    obs_text = {obs: "".join(map(str, obs)) for obs in {p.obs for p in report.pairs}}
    rows = [
        {"obs": obs_text[p.obs], "action": p.action, "visits": p.visits, "tv_distance": p.tv_distance}
        for p in report.pairs
    ]
    _write_report(args, report.to_dict(), ("obs", "action", "visits", "tv_distance"), rows)
    print(
        f"coverage {report.coverage:.3f}, {report.confident_pairs} confident pairs, "
        f"max TV {report.max_tv_confident:.4f}, "
        f"{report.low_confidence_pairs} low-confidence pairs"
    )
    return EXIT_OK


def _cmd_study_max_steps(args) -> int:
    scenario = world.load_scenario(args.scenario)
    model = empirical.load_model(args.model)
    values = list(args.values)
    if not values:
        raise CliError(EXIT_USAGE, "bad-values", "--values needs a comma-separated list")
    config = agents.TrainConfig(episodes=args.episodes, seed=args.seed)
    study = evaluate.max_steps_study(
        model, scenario, values, config, eval_episodes=args.eval_episodes, seed=args.seed
    )
    doc = study.to_dict()
    columns = ("max_steps", "optimal_return", "trained_return", "success_rate", "within_tolerance", "converged")
    _write_report(args, doc, columns, doc["rows"])
    for row in study.rows:
        print(
            f"max_steps={row.max_steps}: trained {row.trained_return:.3f} vs optimal "
            f"{row.optimal_return:.3f}, converged={row.converged}"
        )
    return EXIT_OK


def _cmd_stats(args) -> int:
    lines, networks = [], []
    for path in args.artifacts:
        tag = sniff_format(path)
        if tag == empirical.MODEL_FORMAT:
            source = model = empirical.load_model(path)
            kind, seed = "model", model.metadata.get("source_seed")
            extra = f" pairs={model.pair_support} transitions={model.total_transitions} obs={len(model.observations())}"
        elif tag == agents.POLICY_FORMAT:
            source = agents.load_policy(path)
            kind, seed = "policy", source.train_config.get("seed")
            extra = f" algorithm={source.algorithm}"
        else:  # a transition log; its manifest names its network
            _, report, source = collect.read_clean_log(path)
            kind, seed = "log", source.get("seed")
            extra = f" steps={report.total_steps} episodes={report.episodes}"
        networks.append(envapi.network(source))
        lines.append(f"{path}: {kind} fingerprint={networks[-1][0][:16]} seed={seed}{extra}")
    for line in lines:  # only once every artifact has loaded, so a bad one prints nothing
        print(line)
    if len(set(networks)) > 1:  # one fingerprint with other dims is another network too
        raise CliError(
            EXIT_INCOMPATIBLE,
            "fingerprint-mismatch",
            f"artifacts span {len(set(networks))} different environments",
        )
    if len(lines) > 1:
        print(f"chain ok: {len(lines)} artifacts share fingerprint {networks[0][0][:16]}")
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redsim", description="attack-graph gym and generated-simulator pipeline"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario-validate", help="parse and validate a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_scenario_validate)

    p = sub.add_parser("collect", help="run a collection policy and log transitions")
    p.add_argument("--scenario", required=True)
    p.add_argument("--policy", choices=("random", "epsilon-greedy"), default="random")
    p.add_argument("--policy-file", default=None)
    p.add_argument("--epsilon", type=_probability, default=0.3)
    p.add_argument("--episodes", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("build-sim", help="estimate the transition model from a log")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_sim)

    p = sub.add_parser("train", help="train an agent in a world or generated sim")
    defaults = agents.TrainConfig()
    p.add_argument("--env", required=True, help="world:<scenario.json> or sim:<model>")
    p.add_argument("--algo", choices=("q_learning", "dqn"), default="q_learning")
    p.add_argument("--episodes", type=_positive_int, default=defaults.episodes)
    p.add_argument("--gamma", type=_gamma, default=None)
    p.add_argument("--learning-rate", type=_positive_float, default=None)
    p.add_argument("--epsilon-start", type=_probability, default=defaults.epsilon_start)
    p.add_argument("--epsilon-end", type=_probability, default=defaults.epsilon_end)
    p.add_argument("--epsilon-decay-steps", type=_positive_int, default=defaults.epsilon_decay_steps)
    p.add_argument("--replay-capacity", type=_positive_int, default=defaults.replay_capacity)
    p.add_argument("--batch-size", type=_positive_int, default=defaults.batch_size)
    p.add_argument("--target-sync", type=_positive_int, default=defaults.target_sync_interval)
    p.add_argument("--hidden", type=_positive_ints, default=defaults.hidden_sizes)
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--fallback", choices=(empirical.FALLBACK_SELF, empirical.FALLBACK_REJECT),
                   default=empirical.FALLBACK_SELF)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation of a saved policy")
    p.add_argument("--env", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--fallback", choices=(empirical.FALLBACK_SELF, empirical.FALLBACK_REJECT),
                   default=empirical.FALLBACK_SELF)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transfer", help="evaluate a sim-trained policy back in the world")
    p.add_argument("--policy", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--model", default=None, help="source sim model for the paired report")
    p.add_argument("--episodes", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="transfer_report.json")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("fidelity", help="total-variation audit of a model vs the world")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--visit-threshold", type=_non_negative_int, default=200)
    p.add_argument("--out", default="fidelity_report.json")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("study-max-steps", help="game-horizon design study on the sim")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--values", type=_positive_ints, required=True, help="comma-separated max_steps values")
    p.add_argument("--episodes", type=_positive_int, default=3000)
    p.add_argument("--eval-episodes", type=_positive_int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="max_steps_study.json")
    p.set_defaults(func=_cmd_study_max_steps)

    p = sub.add_parser("stats", help="describe artifacts and verify their provenance chain")
    p.add_argument("artifacts", nargs="+")
    p.set_defaults(func=_cmd_stats)

    return parser


# Most specific first: subclasses must precede their bases.
_ERROR_MAP = (
    (world.ScenarioError, EXIT_SCENARIO, "invalid-scenario"),
    (collect.LogValidationError, EXIT_DATA, "invalid-log"),
    (collect.IncompatibleDatasetError, EXIT_INCOMPATIBLE, "incompatible-dataset"),
    (empirical.AmbiguousStartError, EXIT_DATA, "ambiguous-start"),
    (empirical.IncompatibleModelError, EXIT_INCOMPATIBLE, "incompatible-model"),
    (evaluate.IncompatiblePolicyError, EXIT_INCOMPATIBLE, "incompatible-policy"),
    (ArtifactVersionError, EXIT_ARTIFACT, "artifact-version"),
    (ArtifactChecksumError, EXIT_ARTIFACT, "artifact-checksum"),
    (empirical.NoDataError, EXIT_USAGE, "no-data"),
    (empirical.ModelError, EXIT_DATA, "invalid-dataset"),
    (agents.PolicyError, EXIT_ARTIFACT, "invalid-policy"),
    (agents.TrainingDivergedError, EXIT_USAGE, "training-diverged"),
    (json.JSONDecodeError, EXIT_DATA, "invalid-json"),
    (FileNotFoundError, EXIT_IO, "missing-file"),
    (OSError, EXIT_IO, "io-error"),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        for etype, code, kind in _ERROR_MAP:
            if isinstance(exc, etype):
                print(f"error: {kind}: {exc}", file=sys.stderr)
                return code
        print(f"error: unexpected: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

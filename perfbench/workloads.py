"""The benchmark's workloads: set-up, one timed iteration, and output checks.

Each workload runs closed-loop in one process and one thread: the next
operation starts when the previous one returns.  CLI stages go through
``redsim.cli.main`` in-process; the rest calls functions the package
exports.  Every iteration repeats the same inputs, which come from the
workload seed, so iterations of one run do identical work.
"""

from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

from redsim import agents, cli, collect, empirical, world

import layers
from speed import SpeedMeter

# World optimum of desk6_mesh.json at its default horizon, 100 steps, as the
# package computed it when this benchmark was written.
MESH_OPTIMUM = 177.08333333316858
MESH_HORIZONS = (10, 20, 40, 100)  # the last one is the scenario's default
TRANSFER_MAX_GAP = 0.05  # acceptance criterion 4


class StageFailed(Exception):
    """An operation failed, so the rest of the iteration cannot run."""


class Session:
    """Counts operations and failures; traces timed regions when given a tracer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.meter = None

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def _timed_call(self, fn, *args, **kwargs):
        """Call ``fn``; return its wall time and result, and feed the region's meter."""
        if self.meter is not None:
            self.meter.before_op()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            if self.meter is not None:
                self.meter.add(elapsed)
        return elapsed, result

    def cli(self, *argv) -> float:
        """Run one CLI stage in-process and return its wall time in seconds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        with redirect_stdout(sys.stderr):
            if self.tracer is not None:
                elapsed, code = self._timed_call(
                    self.tracer.call, "cli." + argv[0].replace("-", "_"), cli.main, argv
                )
            else:
                elapsed, code = self._timed_call(cli.main, argv)
        if code != 0:
            self._fail(f"redsim {' '.join(argv)} exited {code}")
            raise StageFailed(argv[0])
        return elapsed

    def op(self, what: str, fn, *args, **kwargs):
        """Run one library operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return self._timed_call(fn, *args, **kwargs)[1]
        except Exception as exc:
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            raise StageFailed(what) from exc

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"check {what}")
        return ok

    @contextmanager
    def timed(self, tracer=None):
        """Timed region: the wall time of the operations run in it.

        After the region, ``region['s']`` holds that time as measured,
        ``region['ref_s']`` the same at the reference speed (see ``speed``) and
        ``region['probes']`` the probe times it was scaled by.
        """
        region = {}
        self.tracer = tracer
        self.meter = meter = SpeedMeter()
        try:
            if tracer is None:
                yield region
            else:
                with tracer.installed(layers.install):
                    yield region
        finally:
            self.tracer = self.meter = None
            meter.finish()
            region.update(s=meter.raw_s, ref_s=meter.ref_s, probes=meter.probes)


def _region_times(region) -> dict[str, float]:
    return {"wall_s": region["s"], "wall_ref_s": region["ref_s"], "probe_s": statistics.median(region["probes"])}


def _last_curve_step(curve_csv: Path) -> int:
    """Environment steps taken in training: the step column of the curve's last row."""
    last = curve_csv.read_text(encoding="utf-8").strip().splitlines()[-1]
    return int(last.split(",")[0])


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke

    def setup(self, session: Session) -> None:
        raise NotImplementedError

    def iterate(self, session: Session, tracer=None) -> dict[str, float]:
        """One timed iteration followed by its output checks; returns its samples."""
        raise NotImplementedError


class PipelineDesk5(Workload):
    """The README quickstart: collect, build-sim, Q-learning in the sim, transfer."""

    name = "pipeline-desk5"

    def __init__(self, *args):
        super().__init__(*args)
        self.scenario = self.root / "scenarios" / "desk5_chain.json"
        self.collect_episodes, self.train_episodes, self.transfer_episodes = (
            (150, 2000, 20) if self.smoke else (2050, 6000, 50)
        )

    def _stages(self, session: Session, out: Path, collect_episodes, train_episodes, transfer_episodes):
        seed = self.seed
        log, model, policy = out / "d.jsonl", out / "m.model", out / "p.policy"
        times = {}
        times["collect"] = session.cli(
            "collect", "--scenario", self.scenario, "--policy", "random",
            "--episodes", collect_episodes, "--seed", seed, "--out", log,
        )
        times["build_sim"] = session.cli("build-sim", "--data", log, "--out", model)
        times["train"] = session.cli(
            "train", "--env", f"sim:{model}", "--algo", "q_learning",
            "--episodes", train_episodes, "--seed", seed + 1, "--out", policy,
        )
        session.cli(
            "transfer", "--policy", policy, "--scenario", self.scenario, "--model", model,
            "--episodes", transfer_episodes, "--seed", seed + 2, "--out", out / "transfer.json",
        )
        return times

    def setup(self, session):
        # A toy pass through every stage, so lazy imports and first-use costs
        # are paid before timing.  Its outputs are not checked.
        self._stages(session, self.work / "warm", 20, 50, 5)

    def iterate(self, session, tracer=None):
        out = self.work
        with session.timed(tracer) as region:
            times = self._stages(
                session, out, self.collect_episodes, self.train_episodes, self.transfer_episodes
            )
        total_steps = collect.read_manifest(out / "d.jsonl")["total_steps"]
        model = empirical.load_model(out / "m.model")
        session.check(
            model.total_transitions == total_steps,
            f"model total_transitions {model.total_transitions} == manifest total_steps {total_steps}",
        )
        report = json.loads((out / "transfer.json").read_text(encoding="utf-8"))
        session.check(report["world"]["success_rate"] == 1.0, "transfer success_rate == 1.0")
        session.check(
            report["world_gap_to_optimal"] <= TRANSFER_MAX_GAP,
            f"transfer world_gap_to_optimal {report['world_gap_to_optimal']} <= {TRANSFER_MAX_GAP}",
        )
        train_steps = _last_curve_step(out / "p.policy.curve.csv")
        return {
            **_region_times(region),
            "collect_steps_per_s": total_steps / times["collect"],
            "build_sim_records_per_s": total_steps / times["build_sim"],
            "train_steps_per_s": train_steps / times["train"],
        }


class DqnDesk5(Workload):
    """DQN (100,100) trained in a desk5 sim, then a greedy evaluation in the sim."""

    name = "dqn-desk5"

    def __init__(self, *args):
        super().__init__(*args)
        self.scenario = self.root / "scenarios" / "desk5_chain.json"
        self.model = self.work / "m.model"
        self.model_episodes, self.train_episodes, self.eval_episodes = (
            (30, 5, 5) if self.smoke else (300, 50, 50)
        )

    def _train(self, session, episodes, policy):
        # A slow epsilon decay keeps behaviour near-random, so every seed takes
        # about the same number of env steps (within ~1%; the default decay
        # lets learning shorten episodes, ~10% apart across seeds).
        return session.cli(
            "train", "--env", f"sim:{self.model}", "--algo", "dqn", "--hidden", "100,100",
            "--epsilon-decay-steps", 100_000,
            "--episodes", episodes, "--seed", self.seed + 1, "--out", policy,
        )

    def setup(self, session):
        log = self.work / "d.jsonl"
        session.cli(
            "collect", "--scenario", self.scenario, "--policy", "random",
            "--episodes", self.model_episodes, "--seed", self.seed, "--out", log,
        )
        session.cli("build-sim", "--data", log, "--out", self.model)
        self._train(session, 2, self.work / "warm.policy")

    def iterate(self, session, tracer=None):
        policy, report_path = self.work / "dqn.policy", self.work / "eval.json"
        with session.timed(tracer) as region:
            train_s = self._train(session, self.train_episodes, policy)
            session.cli(
                "eval", "--env", f"sim:{self.model}", "--policy", policy,
                "--episodes", self.eval_episodes, "--seed", self.seed + 2, "--out", report_path,
            )
        loaded = session.op("load_policy", agents.load_policy, policy)
        session.check(
            loaded.algorithm == "dqn" and loaded.policy.hidden_sizes == (100, 100),
            "DQN policy reloads with hidden sizes (100, 100)",
        )
        report = json.loads(report_path.read_text(encoding="utf-8"))
        session.check(report["episodes"] == self.eval_episodes, "eval report covers every episode")
        return {
            **_region_times(region),
            "train_steps_per_s": _last_curve_step(Path(str(policy) + ".curve.csv")) / train_s,
        }


class AuditMesh6(Workload):
    """Fidelity audit and value iteration (world and model) on the 1,272-state mesh."""

    name = "audit-mesh6"

    def __init__(self, *args):
        super().__init__(*args)
        self.scenario_path = self.root / "scenarios" / "desk6_mesh.json"
        self.model_path = self.work / "mesh.model"
        self.model_episodes = 60 if self.smoke else 1000

    def setup(self, session):
        scenario = session.op("load_scenario", world.load_scenario, self.scenario_path)
        env = session.op("AttackWorld", world.AttackWorld, scenario, seed=self.seed)
        policy = collect.uniform_random_policy(env.action_count)
        data = session.op(
            "run_collection", collect.run_collection, env, policy, self.model_episodes, self.seed
        )
        model = session.op(
            "build_model", empirical.build_model, data.records,
            obs_dim=scenario.obs_dim, action_count=env.action_count,
            fingerprint=scenario.fingerprint,
            metadata={"reward": data.manifest["reward"], "game": data.manifest["game"]},
        )
        session.op("save_model", empirical.save_model, model, self.model_path)
        self.scenario = scenario
        self._never_visited = None

    def _count_never_visited(self, model) -> int:
        """Reachable (obs, action) pairs the model has no data for, counted independently."""
        goal = self.scenario.objective_flag
        return sum(
            1
            for obs in world.reachable_observations(self.scenario)
            if obs[goal] != 1
            for action in range(len(self.scenario.actions))
            if not model.has_pair(obs, action)
        )

    def iterate(self, session, tracer=None):
        report_path = self.work / "fidelity.json"
        world_solutions = {}
        with session.timed(tracer) as region:
            session.cli(
                "fidelity", "--model", self.model_path, "--scenario", self.scenario_path,
                "--out", report_path,
            )
            model = session.op("load_model", empirical.load_model, self.model_path)
            config = session.op("SimConfig.from_model", empirical.SimConfig.from_model, model)
            for horizon in MESH_HORIZONS:
                world_solutions[horizon] = session.op(
                    "value_iteration", agents.value_iteration, self.scenario, horizon=horizon
                )
            for horizon in MESH_HORIZONS:
                session.op(
                    "value_iteration_model", agents.value_iteration_model, model, config,
                    horizon=horizon,
                )
        optimum = world_solutions[MESH_HORIZONS[-1]].optimal_return
        session.check(
            abs(optimum - MESH_OPTIMUM) <= 1e-9,
            f"world optimum at the default horizon {optimum!r} == {MESH_OPTIMUM!r}",
        )
        if self._never_visited is None:
            self._never_visited = self._count_never_visited(model)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        visited = len(report["pairs"])
        session.check(
            report["visited_pairs"] == visited
            and visited + self._never_visited == report["reachable_pairs"],
            f"fidelity visited {visited} + never-visited {self._never_visited} "
            f"== reachable_pairs {report['reachable_pairs']}",
        )
        return _region_times(region)


WORKLOADS = {w.name: w for w in (PipelineDesk5, DqnDesk5, AuditMesh6)}

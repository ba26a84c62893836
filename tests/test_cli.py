"""CLI plumbing: subcommands, exit codes, artifacts, provenance snapshots."""

import json
import warnings

import pytest

import numpy as np

from redsim import agents, artifacts, cli, collect, empirical, presets
from redsim.cli import (
    EXIT_ARTIFACT,
    EXIT_DATA,
    EXIT_INCOMPATIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCENARIO,
    EXIT_USAGE,
    main,
)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "desk5.json"
    path.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    return path


@pytest.fixture()
def mesh_file(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(presets.mesh_scenario()), encoding="utf-8")
    return path


def _collect(scenario_file, tmp_path, name="d.jsonl", episodes=150, seed=7):
    out = tmp_path / name
    code = main(
        [
            "collect",
            "--scenario", str(scenario_file),
            "--policy", "random",
            "--episodes", str(episodes),
            "--seed", str(seed),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


def _build(data, tmp_path, name="m.model"):
    out = tmp_path / name
    assert main(["build-sim", "--data", str(data), "--out", str(out)]) == EXIT_OK
    return out


def _train(model, tmp_path, name="p.policy", episodes=3000, seed=1):
    out = tmp_path / name
    code = main(
        [
            "train",
            "--env", f"sim:{model}",
            "--algo", "q_learning",
            "--episodes", str(episodes),
            "--seed", str(seed),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


def test_scenario_validate_ok(scenario_file, capsys):
    assert main(["scenario-validate", "--scenario", str(scenario_file)]) == EXIT_OK
    assert "shortest_path=10" in capsys.readouterr().out


def test_scenario_validate_rejects_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["scenario-validate", "--scenario", str(bad)]) == EXIT_SCENARIO


def test_missing_file_exit_code(tmp_path):
    assert main(["scenario-validate", "--scenario", str(tmp_path / "no.json")]) == EXIT_IO
    assert main(["build-sim", "--data", str(tmp_path / "no.jsonl"), "--out", "x"]) == EXIT_IO


def test_unknown_flag_is_usage_error(scenario_file):
    with pytest.raises(SystemExit) as err:
        main(["scenario-validate", "--scenario", str(scenario_file), "--bogus"])
    assert err.value.code == 2


def test_full_pipeline_and_transfer_gap(scenario_file, tmp_path, capsys):
    data = _collect(scenario_file, tmp_path, episodes=400)
    model = _build(data, tmp_path)
    policy = _train(model, tmp_path, episodes=4000)
    report = tmp_path / "t.json"
    code = main(
        [
            "transfer",
            "--policy", str(policy),
            "--scenario", str(scenario_file),
            "--model", str(model),
            "--episodes", "50",
            "--seed", "3",
            "--out", str(report),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["world"]["success_rate"] == 1.0
    assert doc["world_gap_to_optimal"] <= 0.05
    assert (tmp_path / "t.json.csv").exists()


def test_every_stage_writes_run_snapshot(scenario_file, tmp_path):
    data = _collect(scenario_file, tmp_path)
    model = _build(data, tmp_path)
    for artifact, command in ((data, "collect"), (model, "build-sim")):
        snap = json.loads((artifact.parent / (artifact.name + ".run.json")).read_text())
        assert snap["command"] == command
        assert "created_at" in snap
        assert snap["resolved"]["out"].endswith(artifact.name)


def test_incompatible_artifacts_exit_code(scenario_file, mesh_file, tmp_path):
    mesh_data = _collect(mesh_file, tmp_path, name="mesh.jsonl")
    mesh_model = _build(mesh_data, tmp_path, name="mesh.model")
    mesh_policy = _train(mesh_model, tmp_path, name="mesh.policy", episodes=500)
    code = main(
        [
            "transfer",
            "--policy", str(mesh_policy),
            "--scenario", str(scenario_file),
            "--out", str(tmp_path / "t.json"),
        ]
    )
    assert code == EXIT_INCOMPATIBLE


def test_corrupt_model_exit_code(scenario_file, tmp_path):
    data = _collect(scenario_file, tmp_path)
    model = _build(data, tmp_path)
    raw = model.read_bytes()
    model.write_bytes(raw[: len(raw) - 40])
    code = main(
        [
            "train",
            "--env", f"sim:{model}",
            "--out", str(tmp_path / "p.policy"),
        ]
    )
    assert code == EXIT_ARTIFACT


def test_corrupt_log_exit_code(scenario_file, tmp_path):
    data = _collect(scenario_file, tmp_path, episodes=20)
    lines = data.read_text().splitlines()
    lines[3] = "garbage"
    data.write_text("\n".join(lines) + "\n")
    assert main(["build-sim", "--data", str(data), "--out", str(tmp_path / "m")]) == EXIT_DATA


def test_stats_verifies_chain(scenario_file, tmp_path, capsys):
    data = _collect(scenario_file, tmp_path, episodes=60)
    model = _build(data, tmp_path)
    policy = _train(model, tmp_path, episodes=300)
    assert main(["stats", str(data), str(model), str(policy)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "chain ok" in out


def test_stats_flags_cross_scenario_mixing(scenario_file, mesh_file, tmp_path):
    a = _collect(scenario_file, tmp_path, name="a.jsonl", episodes=20)
    b = _collect(mesh_file, tmp_path, name="b.jsonl", episodes=20)
    assert main(["stats", str(a), str(b)]) == EXIT_INCOMPATIBLE


def test_stats_prints_every_line_once_all_artifacts_have_loaded(scenario_file, mesh_file, tmp_path, capsys):
    """Exact ``stats`` output of a chain, of a two-scenario mix, and of a chain whose second artifact is corrupt."""
    data = _collect(scenario_file, tmp_path, episodes=60)
    model = _build(data, tmp_path)
    policy = _train(model, tmp_path, episodes=300)
    mesh = _collect(mesh_file, tmp_path, name="mesh.jsonl", episodes=20)
    desk5_fp, mesh_fp = "8c94a6c60a07de11", "d19ee163edacfd88"
    log_line = f"{data}: log fingerprint={desk5_fp} seed=7 steps=4662 episodes=60\n"
    capsys.readouterr()
    assert main(["stats", str(data), str(model), str(policy)]) == EXIT_OK
    assert capsys.readouterr().out == (
        log_line
        + f"{model}: model fingerprint={desk5_fp} seed=7 pairs=100 transitions=4662 obs=11\n"
        + f"{policy}: policy fingerprint={desk5_fp} seed=1 algorithm=q_table\n"
        + f"chain ok: 3 artifacts share fingerprint {desk5_fp}\n"
    )
    assert main(["stats", str(data), str(mesh)]) == EXIT_INCOMPATIBLE
    assert capsys.readouterr().out == log_line + f"{mesh}: log fingerprint={mesh_fp} seed=7 steps=1979 episodes=20\n"
    assert main(["stats", str(data), str(_tampered(model, tmp_path)), str(policy)]) == EXIT_ARTIFACT
    assert capsys.readouterr().out == ""


def test_eval_subcommand_on_sim(scenario_file, tmp_path):
    data = _collect(scenario_file, tmp_path, episodes=300)
    model = _build(data, tmp_path)
    policy = _train(model, tmp_path, episodes=3000)
    out = tmp_path / "eval.json"
    code = main(
        [
            "eval",
            "--env", f"sim:{model}",
            "--policy", str(policy),
            "--episodes", "25",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["environment"] == "sim"
    assert doc["episodes"] == 25


def test_fidelity_subcommand(scenario_file, tmp_path):
    data = _collect(scenario_file, tmp_path, episodes=300)
    model = _build(data, tmp_path)
    out = tmp_path / "fid.json"
    code = main(
        [
            "fidelity",
            "--model", str(model),
            "--scenario", str(scenario_file),
            "--visit-threshold", "50",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["reachable_pairs"] == 100
    assert 0.0 <= doc["coverage"] <= 1.0


def test_epsilon_greedy_collection_needs_policy_file(scenario_file, tmp_path):
    code = main(
        [
            "collect",
            "--scenario", str(scenario_file),
            "--policy", "epsilon-greedy",
            "--episodes", "5",
            "--out", str(tmp_path / "d.jsonl"),
        ]
    )
    assert code == 2


def test_epsilon_greedy_collection_with_trained_policy(scenario_file, tmp_path):
    data = _collect(scenario_file, tmp_path, episodes=200)
    model = _build(data, tmp_path)
    policy = _train(model, tmp_path, episodes=2000)
    out = tmp_path / "guided.jsonl"
    code = main(
        [
            "collect",
            "--scenario", str(scenario_file),
            "--policy", "epsilon-greedy",
            "--policy-file", str(policy),
            "--epsilon", "0.4",
            "--episodes", "40",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "guided.jsonl.manifest.json").read_text())
    assert manifest["policy"] == "epsilon-greedy(epsilon=0.4)"
    # guided collection finds the goal far more often than random play
    assert manifest["episodes"] == 40


def test_study_max_steps_subcommand(scenario_file, tmp_path):
    data = _collect(scenario_file, tmp_path, episodes=400)
    model = _build(data, tmp_path)
    out = tmp_path / "study.json"
    code = main(
        [
            "study-max-steps",
            "--model", str(model),
            "--scenario", str(scenario_file),
            "--values", "5,20",
            "--episodes", "2500",
            "--eval-episodes", "100",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["shortest_path"] == 10
    first, second = doc["rows"]
    assert first["max_steps"] == 5 and not first["converged"]
    assert second["max_steps"] == 20 and second["converged"]
    assert (tmp_path / "study.json.csv").exists()


def test_output_root_env_var(scenario_file, tmp_path, monkeypatch):
    root = tmp_path / "outputs"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(root))
    code = main(
        [
            "collect",
            "--scenario", str(scenario_file),
            "--episodes", "10",
            "--seed", "1",
            "--out", "runs/d.jsonl",
        ]
    )
    assert code == EXIT_OK
    assert (root / "runs" / "d.jsonl").exists()


def test_rerun_with_identical_config_is_byte_identical(scenario_file, tmp_path):
    a = _collect(scenario_file, tmp_path, name="a.jsonl", episodes=50)
    b = _collect(scenario_file, tmp_path, name="b.jsonl", episodes=50)
    assert a.read_bytes() == b.read_bytes()
    ma = _build(a, tmp_path, name="a.model")
    mb = _build(b, tmp_path, name="b.model")
    assert ma.read_bytes() == mb.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["collect", "--scenario", "s.json", "--episodes", "0", "--out", "d.jsonl"],
        ["collect", "--scenario", "s.json", "--episodes", "5", "--max-steps", "-1", "--out", "d.jsonl"],
        ["train", "--env", "sim:m.model", "--max-steps", "0", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--hidden", "abc", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--hidden", "100,0", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--episodes", "0", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--target-sync", "0", "--out", "p.policy"],
        ["eval", "--env", "sim:m.model", "--policy", "p.policy", "--episodes", "0", "--out", "e.json"],
        ["transfer", "--policy", "p.policy", "--scenario", "s.json", "--episodes", "0"],
        ["study-max-steps", "--model", "m.model", "--scenario", "s.json", "--values", "5,x"],
        ["train", "--env", "sim:m.model", "--gamma", "0", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--gamma", "1.5", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--gamma", "nan", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--learning-rate", "-1", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--learning-rate", "inf", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--epsilon-start", "2", "--out", "p.policy"],
        ["train", "--env", "sim:m.model", "--epsilon-end", "-0.1", "--out", "p.policy"],
        ["collect", "--scenario", "s.json", "--episodes", "5", "--epsilon", "3", "--out", "d.jsonl"],
        ["fidelity", "--model", "m.model", "--scenario", "s.json", "--visit-threshold", "-3"],
        ["fidelity", "--model", "m.model", "--scenario", "s.json", "--visit-threshold", "0.5"],
    ],
)
def test_bad_numeric_argument_is_usage_error(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE


def test_float_arguments_accept_their_bounds():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["train", "--env", "sim:m.model", "--gamma", "1", "--learning-rate", "1e-4",
         "--epsilon-start", "0", "--epsilon-end", "1", "--out", "p.policy"]
    )
    assert (args.gamma, args.learning_rate, args.epsilon_start, args.epsilon_end) == (1.0, 1e-4, 0.0, 1.0)
    args = parser.parse_args(["fidelity", "--model", "m", "--scenario", "s", "--visit-threshold", "0"])
    assert args.visit_threshold == 0


def test_build_sim_parses_the_log_once(scenario_file, tmp_path, monkeypatch):
    data = _collect(scenario_file, tmp_path, episodes=20)
    calls = []
    read_log = collect.read_log

    def counting_read_log(path):
        calls.append(path)
        return read_log(path)

    monkeypatch.setattr(collect, "read_log", counting_read_log)
    _build(data, tmp_path)
    assert len(calls) == 1


def _drop_line(index):
    return lambda lines: lines[:index] + lines[index + 1:]


def _replace_line(index, text):
    return lambda lines: lines[:index] + [text] + lines[index + 1:]


def _break_chain(lines):
    obj = json.loads(lines[3])
    obj["obs"] = [1] * len(obj["obs"])
    return lines[:3] + [json.dumps(obj)] + lines[4:]


def _episode0_action_99(lines):
    objs = [json.loads(line) for line in lines]
    return [json.dumps({**o, "action": 99} if o["episode"] == 0 else o) for o in objs]


def _add_step(manifest):
    manifest["total_steps"] += 1


def _retyped(**fields):
    """Line 1 rewritten with ``fields`` replaced, as the record's ``json.dumps``."""
    return lambda lines: [json.dumps({**json.loads(lines[0]), **fields})] + lines[1:]


def _retyped_obs(convert):
    """Line 1 with its ``obs`` replaced by ``convert(obs)``."""
    return lambda lines: _retyped(obs=convert(json.loads(lines[0])["obs"]))(lines)


@pytest.mark.parametrize(
    "edit_log, edit_manifest, code",
    [
        (None, None, EXIT_OK),
        (None, "delete", EXIT_IO),
        (_replace_line(2, "garbage"), None, EXIT_DATA),
        (_replace_line(2, "garbage"), "delete", EXIT_DATA),
        (_drop_line(2), None, EXIT_DATA),
        (_break_chain, None, EXIT_DATA),
        (_break_chain, "delete", EXIT_DATA),
        (None, _add_step, EXIT_DATA),
        (lambda lines: [], None, EXIT_DATA),
        (lambda lines: [], "delete", EXIT_IO),
        (None, "{not json", EXIT_DATA),
        (None, '{"format": "other"}', EXIT_INCOMPATIBLE),
        (_episode0_action_99, None, EXIT_DATA),
        (_retyped(action=1.7), None, EXIT_DATA),
        (_retyped(action=True), None, EXIT_DATA),
        (_retyped(episode=0.0), None, EXIT_DATA),
        (_retyped(reward="-1.0"), None, EXIT_DATA),
        (_retyped(reward=False), None, EXIT_DATA),
        (_retyped(reward=10**400), None, EXIT_DATA),
        (_retyped(done="false"), None, EXIT_DATA),
        (_retyped(action_success=1), None, EXIT_DATA),
        (_retyped_obs(lambda obs: "".join(map(str, obs))), None, EXIT_DATA),
        (_retyped_obs(lambda obs: [float(v) for v in obs]), None, EXIT_DATA),
        (_retyped_obs(lambda obs: [bool(v) for v in obs]), None, EXIT_DATA),
    ],
)
def test_build_sim_exit_codes(scenario_file, tmp_path, edit_log, edit_manifest, code):
    """A log that fails its audit exits 5 even when its manifest is also missing."""
    data = _collect(scenario_file, tmp_path, episodes=5)
    if edit_log is not None:
        lines = edit_log(data.read_text().splitlines())
        data.write_text("".join(line + "\n" for line in lines))
    manifest = collect.manifest_path(data)
    if edit_manifest == "delete":
        manifest.unlink()
    elif isinstance(edit_manifest, str):
        manifest.write_text(edit_manifest)
    elif edit_manifest is not None:
        doc = json.loads(manifest.read_text())
        edit_manifest(doc)
        manifest.write_text(json.dumps(doc))
    assert main(["build-sim", "--data", str(data), "--out", str(tmp_path / "m")]) == code
    assert main(["stats", str(data)]) == code



@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Scenario, log, model and policy files for desk5 and the mesh, built once."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {}
    for name, doc in (("desk5", presets.chain_scenario()), ("mesh", presets.mesh_scenario())):
        scenario = root / f"{name}.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        log = _collect(scenario, root, name=f"{name}.jsonl", episodes=20)
        model = _build(log, root, name=f"{name}.model")
        policy = _train(model, root, name=f"{name}.policy", episodes=50)
        paths[name] = {"scenario": scenario, "log": log, "model": model, "policy": policy}
    return paths


def _file_argument_command(target, bad, files, out):
    """A command whose ``target`` file argument is ``bad`` and whose other inputs are valid."""
    if target == "scenario":
        return ["scenario-validate", "--scenario", str(bad)]
    if target == "model":
        return ["fidelity", "--model", str(bad), "--scenario", str(files["scenario"]), "--out", str(out)]
    if target == "policy":
        return ["eval", "--env", f"world:{files['scenario']}", "--policy", str(bad),
                "--episodes", "1", "--out", str(out)]
    if target == "stats":
        return ["stats", str(bad)]
    return ["build-sim", "--data", str(bad), "--out", str(out)]


@pytest.mark.parametrize("state", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize(
    "target, not_utf8_code",
    [
        ("scenario", EXIT_SCENARIO),
        ("model", EXIT_ARTIFACT),
        ("policy", EXIT_ARTIFACT),
        ("log", EXIT_DATA),
        ("manifest", EXIT_DATA),
        ("stats", EXIT_DATA),
    ],
)
def test_file_argument_exit_codes(pipeline, tmp_path, capsys, target, not_utf8_code, state):
    """Missing and unreadable paths exit 3; a file that is not UTF-8 exits with its format's code."""
    files = pipeline["desk5"]
    source = files["model" if target == "stats" else "log" if target == "manifest" else target]
    bad = tmp_path / f"bad{source.suffix}"
    bad.write_bytes(source.read_bytes())
    if source == files["log"]:  # build-sim also reads the manifest sidecar
        collect.manifest_path(bad).write_bytes(collect.manifest_path(source).read_bytes())
    damaged = collect.manifest_path(bad) if target == "manifest" else bad
    lines = damaged.read_bytes().splitlines(keepends=True)
    damaged.unlink()
    if state == "directory":
        damaged.mkdir()
    elif state == "not-utf8":
        n = min(2, len(lines) - 1)
        damaged.write_bytes(b"".join(lines[:n] + [b"\xff\xfe" + lines[n]] + lines[n + 1:]))
    code = main(_file_argument_command(target, bad, files, tmp_path / "out.json"))
    expected = not_utf8_code if state == "not-utf8" else EXIT_IO
    assert code == expected, capsys.readouterr().err
    assert "unexpected" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        lambda d, m, out: ["fidelity", "--model", str(m["model"]), "--scenario", str(d["scenario"]),
                           "--out", str(out)],
        lambda d, m, out: ["study-max-steps", "--model", str(m["model"]), "--scenario", str(d["scenario"]),
                           "--values", "5", "--episodes", "1", "--eval-episodes", "1", "--out", str(out)],
        lambda d, m, out: ["transfer", "--policy", str(d["policy"]), "--scenario", str(d["scenario"]),
                           "--model", str(m["model"]), "--episodes", "1", "--out", str(out)],
        lambda d, m, out: ["collect", "--scenario", str(d["scenario"]), "--policy", "epsilon-greedy",
                           "--policy-file", str(m["policy"]), "--episodes", "1", "--out", str(out)],
        lambda d, m, out: ["eval", "--env", f"world:{d['scenario']}", "--policy", str(m["policy"]),
                           "--episodes", "1", "--out", str(out)],
        lambda d, m, out: ["fidelity", "--model", str(_with_more_actions(d["model"], out.parent)),
                           "--scenario", str(d["scenario"]), "--out", str(out)],
        lambda d, m, out: ["study-max-steps", "--model", str(_with_more_actions(d["model"], out.parent)),
                           "--scenario", str(d["scenario"]), "--values", "5", "--episodes", "1",
                           "--eval-episodes", "1", "--out", str(out)],
        lambda d, m, out: ["stats", str(d["log"]), str(_with_more_actions(d["model"], out.parent))],
    ],
    ids=["fidelity", "study", "transfer-model", "collect-policy", "eval-policy", "fidelity-dims", "study-dims",
         "stats-dims"],
)
def test_artifact_from_another_network_is_incompatible(pipeline, tmp_path, command):
    argv = command(pipeline["desk5"], pipeline["mesh"], tmp_path / "out")
    assert main(argv) == EXIT_INCOMPATIBLE
    assert not (tmp_path / "out").exists()


def _with_more_actions(model, tmp_path, extra=3):
    """A copy of ``model`` with ``extra`` more actions and its recorded costs padded to fit; the fingerprint is kept."""
    def grow(payload):
        payload["action_count"] += extra
        payload["metadata"]["reward"]["action_costs"] += [1.0] * extra
    return _rewritten(model, tmp_path, grow)


def _sparse_model(files, tmp_path):
    """The model of a 5-episode desk5 log (seed 3), which never saw some pairs on the way to the goal."""
    log = _collect(files["scenario"], tmp_path, name="sparse.jsonl", episodes=5, seed=3)
    return _build(log, tmp_path, name="sparse.model")


def _policy_into_an_unseen_pair(model_path, path):
    """A Q-table policy that gains a flag at each step until it meets an action the model never saw, then takes it."""
    model = empirical.load_model(model_path)
    q = agents.QTable(model.action_count)
    for obs in model.observations():
        actions = range(model.action_count)
        unseen = [a for a in actions if not model.has_pair(obs, a)]
        onward = [a for a in actions if any(sum(n) > sum(obs) for n in model.counts.get((obs, a), ()))]
        q.values[obs] = np.eye(model.action_count)[(unseen or onward)[0]].tolist()
    agents.save_policy(q, path, fingerprint=model.fingerprint, obs_dim=model.obs_dim, train_config=agents.TrainConfig())
    return path


def test_a_reject_action_run_onto_an_unseen_pair_exits_usage(pipeline, tmp_path, capsys):
    """``train`` and ``eval`` under reject-action exit 2 as ``no-data`` when a step meets a pair the data never saw."""
    model = _sparse_model(pipeline["desk5"], tmp_path)
    policy = _policy_into_an_unseen_pair(model, tmp_path / "unseen.policy")
    sim = ["--env", f"sim:{model}", "--fallback", "reject-action", "--out", str(tmp_path / "out")]
    for argv in (["train", *sim, "--episodes", "50"], ["eval", *sim, "--policy", str(policy)]):
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("error: no-data: ")
        assert not list(tmp_path.glob("out*"))


def _copy_log(files, tmp_path, manifest=None):
    """A copy of the desk5 log and its manifest; ``manifest`` replaces the manifest text."""
    log = tmp_path / "copy.jsonl"
    log.write_bytes(files["log"].read_bytes())
    source = collect.manifest_path(files["log"]).read_text()
    collect.manifest_path(log).write_text(source if manifest is None else manifest)
    return log


def _two_start_log(tmp_path):
    """A log that passes its audit but starts its two episodes from different observations."""
    log = tmp_path / "two-starts.jsonl"
    records = [collect.TransitionRecord(e, 0, obs, 0, obs, -1.0, True, False) for e, obs in enumerate(((0, 0), (0, 1)))]
    collect.write_log(records, log)
    collect.write_manifest(
        {"format": collect.LOG_FORMAT, "fingerprint": "f", "obs_dim": 2, "action_count": 1,
         "total_steps": 2, "episodes": 2, "o0": [[0, 0], [0, 1]]},
        log,
    )
    return log


def _rewritten(path, tmp_path, edit):
    """A copy of an artifact whose payload ``edit`` changed, under a valid checksum."""
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    out = tmp_path / f"edited{path.suffix}"
    artifacts.write_artifact(out, doc["format"], doc["payload"])
    return out


def _bad_scenario(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"hosts": 5}')
    return path


def _tampered(path, tmp_path):
    doc = json.loads(path.read_text())
    doc["payload"]["metadata"]["source_seed"] = 12345
    out = tmp_path / f"tampered{path.suffix}"
    out.write_text(json.dumps(doc))
    return out


def _eval(scenario, policy, tmp_path):
    return ["eval", "--env", f"world:{scenario}", "--policy", str(policy), "--episodes", "1",
            "--out", str(tmp_path / "eval.json")]


def _build_sim(log, tmp_path):
    return ["build-sim", "--data", str(log), "--out", str(tmp_path / "m.model")]


def _fidelity(model, scenario, tmp_path):
    return ["fidelity", "--model", str(model), "--scenario", str(scenario), "--out", str(tmp_path / "f.json")]


# One row per ``cli._ERROR_MAP`` kind: a command ``(desk5 files, mesh files,
# tmp_path) -> argv`` given one real bad input, and the exit code that the
# README's table gives for that input.
_EXIT_TABLE = {
    "invalid-scenario": (EXIT_SCENARIO, lambda d, m, t: ["scenario-validate", "--scenario", str(_bad_scenario(t))]),
    "invalid-log": (EXIT_DATA, lambda d, m, t: ["stats", str(_copy_log(d, t, manifest="[1, 2]"))]),
    "incompatible-dataset": (
        EXIT_INCOMPATIBLE, lambda d, m, t: _build_sim(_copy_log(d, t, manifest='{"format": "other"}'), t)
    ),
    "ambiguous-start": (EXIT_DATA, lambda d, m, t: _build_sim(_two_start_log(t), t)),
    "incompatible-model": (EXIT_INCOMPATIBLE, lambda d, m, t: _fidelity(m["model"], d["scenario"], t)),
    "incompatible-policy": (EXIT_INCOMPATIBLE, lambda d, m, t: _eval(d["scenario"], m["policy"], t)),
    "artifact-version": (EXIT_ARTIFACT, lambda d, m, t: _eval(d["scenario"], d["model"], t)),
    "artifact-checksum": (EXIT_ARTIFACT, lambda d, m, t: _fidelity(_tampered(d["model"], t), d["scenario"], t)),
    "invalid-dataset": (
        EXIT_DATA,
        lambda d, m, t: _fidelity(_rewritten(d["model"], t, lambda p: p.update(obs_dim=0)), d["scenario"], t),
    ),
    "invalid-policy": (
        EXIT_ARTIFACT,
        lambda d, m, t: _eval(d["scenario"], _rewritten(d["policy"], t, lambda p: p.update(obs_dim=-1)), t),
    ),
    "training-diverged": (
        EXIT_USAGE,
        lambda d, m, t: ["train", "--env", f"sim:{d['model']}", "--algo", "dqn", "--learning-rate", "1e200",
                         "--hidden", "16", "--batch-size", "8", "--episodes", "30", "--out", str(t / "p.policy")],
    ),
    "no-data": (
        EXIT_USAGE,
        lambda d, m, t: ["train", "--env", f"sim:{_sparse_model(d, t)}", "--fallback", "reject-action",
                         "--episodes", "50", "--out", str(t / "p.policy")],
    ),
    "invalid-json": (EXIT_DATA, lambda d, m, t: _build_sim(_copy_log(d, t, manifest="{not json"), t)),
    "missing-file": (EXIT_IO, lambda d, m, t: ["scenario-validate", "--scenario", str(t / "missing.json")]),
    "io-error": (EXIT_IO, lambda d, m, t: _fidelity(t, d["scenario"], t)),
}


def test_exit_table_covers_every_error_kind():
    assert sorted(kind for _, _, kind in cli._ERROR_MAP) == sorted(_EXIT_TABLE)


@pytest.mark.parametrize("kind", sorted(_EXIT_TABLE))
def test_exit_code_table(pipeline, tmp_path, capsys, kind):
    """Each error kind exits with the README's code, reported under its own kind."""
    code, command = _EXIT_TABLE[kind]
    argv = command(pipeline["desk5"], pipeline["mesh"], tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(f"error: {kind}: ")


def _set_meta(block, key, value):
    """A payload edit that sets ``metadata[block][key]``, or ``metadata[block]`` itself when ``key`` is None."""
    def edit(payload):
        if key is None:
            payload["metadata"][block] = value
        else:
            payload["metadata"][block][key] = value
    return edit


def _set_first(key, value):
    """A payload edit that sets the first entry of ``metadata["reward"][key]``."""
    def edit(payload):
        payload["metadata"]["reward"][key][0] = value
    return edit


# Edits of a recorded reward or game that the sim rejects, as payload edits of ``metadata``.
_BAD_GAMES = pytest.mark.parametrize(
    "edit",
    [
        _set_meta("reward", None, "abc"),
        _set_meta("game", None, "abc"),
        _set_meta("reward", "flag_worths", "abc"),
        _set_first("flag_worths", "NaN"),
        _set_first("flag_worths", 10**400),
        _set_first("action_costs", 0),
        _set_meta("game", "max_steps", 0),
        _set_meta("game", "max_steps", True),
        _set_meta("game", "gamma", 2),
        _set_meta("game", "goal_index", 99),
        _set_meta("game", "goal_index", 1.5),
    ],
    ids=["reward-str", "game-str", "worths-str", "worth-nan-str", "worth-400-digits", "costs-0",
         "max-steps-0", "max-steps-bool", "gamma-2", "goal-index-99", "goal-index-float"],
)


@_BAD_GAMES
def test_a_model_with_a_malformed_or_unfitting_game_exits_data(pipeline, tmp_path, capsys, edit):
    """A re-checksummed desk5 model whose recorded reward or game is wrong exits 5, never 0 or 1."""
    model = _rewritten(pipeline["desk5"]["model"], tmp_path, edit)
    argv = ["train", "--env", f"sim:{model}", "--episodes", "1", "--out", str(tmp_path / "p.policy")]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: invalid-dataset: ")
    assert not (tmp_path / "p.policy").exists()


@_BAD_GAMES
def test_a_log_with_a_malformed_or_unfitting_game_builds_no_model(pipeline, tmp_path, capsys, edit):
    """``build-sim`` checks a recorded reward and game as ``train`` would, and exits 5 before writing."""
    manifest = json.loads(collect.manifest_path(pipeline["desk5"]["log"]).read_text())
    edit({"metadata": manifest})
    log = _copy_log(pipeline["desk5"], tmp_path, manifest=json.dumps(manifest))
    capsys.readouterr()
    assert main(_build_sim(log, tmp_path)) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: invalid-dataset: ")
    assert not (tmp_path / "m.model").exists()


def _set_counts(value, times=1):
    """A payload edit that sets ``times`` counts of the first pair with that many outcomes to ``value``."""
    def edit(payload):
        outcomes = next(o for row in payload["counts"].values() for o in row.values() if len(o) >= times)
        for next_hex in [*outcomes][:times]:
            outcomes[next_hex] = value
    return edit


def _model_command(command, files, model, tmp_path):
    if command == "train":
        return ["train", "--env", f"sim:{model}", "--episodes", "1", "--out", str(tmp_path / "p.policy")]
    if command == "fidelity":
        return _fidelity(model, files["scenario"], tmp_path)
    return ["stats", str(model)]


@pytest.mark.parametrize(
    "edit, command",
    [(_set_counts(2**63), "train"), (_set_counts(2**63), "fidelity"), (_set_counts(2**63), "stats"),
     (_set_counts(2**52 + 1, times=2), "train")],
    ids=["2**63-train", "2**63-fidelity", "2**63-stats", "two-2**52+1-train"],
)
def test_a_model_whose_pair_counts_sum_past_2_53_exits_data(pipeline, tmp_path, capsys, edit, command):
    """A pair's visits are summed in float64, exact only up to 2**53: a model past that is rejected, not misread."""
    model = _rewritten(pipeline["desk5"]["model"], tmp_path, edit)
    capsys.readouterr()
    assert main(_model_command(command, pipeline["desk5"], model, tmp_path)) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: invalid-dataset: ")


def test_a_model_with_a_count_of_2_53_trains(pipeline, tmp_path):
    model = _rewritten(pipeline["desk5"]["model"], tmp_path, _set_counts(2**53))
    assert main(_model_command("train", pipeline["desk5"], model, tmp_path)) == EXIT_OK
    assert 2**53 in empirical.load_model(model).table.visits.tolist()


def test_a_policy_without_a_fingerprint_exits_artifact(pipeline, tmp_path):
    """A policy file must say which environment it was trained in; one that does not is not evaluated."""
    policy = _rewritten(pipeline["desk5"]["policy"], tmp_path, lambda p: p.pop("fingerprint"))
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(presets.chain_scenario(noise=0.1, exploit_prob=0.6)), encoding="utf-8")
    assert main(_eval(noisy, policy, tmp_path)) == EXIT_ARTIFACT


def _json_ints(node):
    """``node`` with every float that equals an int written as that int."""
    if isinstance(node, dict):
        return {k: _json_ints(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_json_ints(v) for v in node]
    return int(node) if node.__class__ is float and node.is_integer() else node


@pytest.mark.parametrize("doc", [presets.chain_scenario(), presets.mesh_scenario()], ids=["desk5", "mesh"])
def test_a_scenario_written_with_json_ints_plays_its_float_twin(tmp_path, capsys, doc):
    """``"worth": 2`` reads as ``2.0``: the fingerprint and every output byte stay the same."""
    twins = {"floats": json.dumps(doc), "ints": json.dumps(_json_ints(doc))}
    assert twins["floats"] != twins["ints"]
    outputs = []
    for name, text in twins.items():
        root = tmp_path / name
        root.mkdir()
        scenario = root / "s.json"
        scenario.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["scenario-validate", "--scenario", str(scenario)]) == EXIT_OK
        validated = capsys.readouterr().out
        log = _collect(scenario, root, episodes=20)
        model = _build(log, root)
        outputs.append((validated, log.read_bytes(), collect.manifest_path(log).read_bytes(), model.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_flags_default_to_the_train_config_defaults():
    args = cli.build_parser().parse_args(["train", "--env", "sim:m.model", "--out", "p.policy"])
    defaults = agents.TrainConfig()
    assert (args.episodes, args.epsilon_start, args.epsilon_end, args.epsilon_decay_steps, args.replay_capacity,
            args.batch_size, args.target_sync, args.hidden) == (
        defaults.episodes, defaults.epsilon_start, defaults.epsilon_end, defaults.epsilon_decay_steps,
        defaults.replay_capacity, defaults.batch_size, defaults.target_sync_interval, defaults.hidden_sizes)


def test_diverging_dqn_warns_nothing_before_its_error(pipeline, tmp_path, capsys):
    """Only the finiteness check reports a divergence: under warnings as errors the run still exits 2."""
    _, command = _EXIT_TABLE["training-diverged"]
    argv = command(pipeline["desk5"], pipeline["mesh"], tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: training-diverged: ")


def test_diverging_q_learning_exits_usage_with_only_its_error(pipeline, tmp_path, capsys):
    """A Q-value that overflows stops training at that update as ``training-diverged``: exit 2, no numpy warning
    before the error line and no policy file, not a saved policy that fails its own finiteness check."""
    out = tmp_path / "p.policy"
    argv = ["train", "--env", f"sim:{pipeline['desk5']['model']}", "--learning-rate", "1e200",
            "--episodes", "300", "--out", str(out)]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would end the run as "unexpected"
        assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: training-diverged: non-finite Q-value ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_batch_larger_than_replay_buffer_is_a_usage_error(pipeline, tmp_path, capsys):
    out = tmp_path / "p.policy"
    argv = ["train", "--env", f"sim:{pipeline['desk5']['model']}", "--algo", "dqn", "--replay-capacity", "10",
            "--batch-size", "32", "--episodes", "5", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad-train-config: batch_size 32 exceeds replay_capacity 10\n"
    assert not out.exists()

"""Trajectory logging: round trips, manifests, merging, validation, coverage."""

import json

import pytest

from redsim import collect, empirical, world
from redsim.cli import EXIT_DATA, main
from redsim.collect import IncompatibleDatasetError, LogValidationError


def _collect(scenario, episodes, seed, out=None):
    env = world.AttackWorld(scenario, seed=seed)
    policy = collect.uniform_random_policy(env.action_count)
    return collect.run_collection(env, policy, episodes, seed, out_path=out)


def test_record_count_bounded_by_horizon(desk5, tmp_path):
    result = _collect(desk5, 100, 3, out=tmp_path / "d.jsonl")
    assert len(result.records) <= 100 * desk5.game.max_steps
    assert result.manifest["total_steps"] == len(result.records)
    assert result.manifest["episodes"] == 100


def test_manifest_totals_match_recount(desk5, tmp_path):
    result = _collect(desk5, 50, 5, out=tmp_path / "d.jsonl")
    report = collect.validate_log(result.log_path)
    assert report.total_steps == result.manifest["total_steps"]
    assert report.episodes == result.manifest["episodes"]
    assert report.manifest_consistent is True


def test_same_seed_byte_identical_logs(desk5, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    _collect(desk5, 40, 9, out=a)
    _collect(desk5, 40, 9, out=b)
    assert a.read_bytes() == b.read_bytes()
    assert collect.manifest_path(a).read_bytes() == collect.manifest_path(b).read_bytes()


def test_read_clean_log_reads_the_manifest_once(desk5, tmp_path, monkeypatch):
    result = _collect(desk5, 5, 1, out=tmp_path / "d.jsonl")
    read_manifest, paths = collect.read_manifest, []
    monkeypatch.setattr(collect, "read_manifest", lambda path: paths.append(path) or read_manifest(path))
    assert collect.read_clean_log(result.log_path)[1] == result.manifest
    assert paths == [result.log_path]


def test_log_round_trip_identical_records(desk5, tmp_path):
    result = _collect(desk5, 20, 1, out=tmp_path / "d.jsonl")
    assert collect.read_log(result.log_path) == result.records


def test_record_chain_is_consistent(desk5, tmp_path):
    result = _collect(desk5, 30, 2, out=tmp_path / "d.jsonl")
    report = collect.validate_log(result.log_path)
    assert report.chain_violations == []
    assert report.step_gaps == []
    assert report.clean


def test_tampered_next_obs_reported_exactly_once(desk5, tmp_path):
    result = _collect(desk5, 10, 4, out=tmp_path / "d.jsonl")
    lines = result.log_path.read_text().splitlines()
    # corrupt the chain between step 2 and step 3 of episode 0
    obj = json.loads(lines[2])
    obj["next_obs"][-2] = 1 - obj["next_obs"][-2]
    lines[2] = json.dumps(obj, separators=(",", ":"))
    result.log_path.write_text("\n".join(lines) + "\n")
    report = collect.validate_log(result.log_path)
    assert len(report.chain_violations) == 1
    assert report.chain_violations[0] == (0, 3)


def test_corrupt_record_raises_with_line_numbers(desk5, tmp_path):
    result = _collect(desk5, 5, 6, out=tmp_path / "d.jsonl")
    lines = result.log_path.read_text().splitlines()
    lines[1] = '{"episode": 0, "step": 1'  # truncated JSON
    lines[4] = '{"episode": 0}'  # missing fields
    raw = [line.encode() for line in lines]
    raw[6] = b"\xff" + raw[6]  # not UTF-8
    result.log_path.write_bytes(b"\n".join(raw) + b"\n")
    with pytest.raises(LogValidationError) as err:
        collect.validate_log(result.log_path)
    assert err.value.lines == [2, 5, 7]


def test_merge_concatenates_and_renumbers(desk5, tmp_path):
    a = _collect(desk5, 12, 1, out=tmp_path / "a.jsonl")
    b = _collect(desk5, 7, 2, out=tmp_path / "b.jsonl")
    merged = collect.merge_logs([a.log_path, b.log_path], tmp_path / "m.jsonl")
    assert merged.manifest["total_steps"] == len(a.records) + len(b.records)
    assert merged.manifest["episodes"] == 19
    episodes = sorted({rec.episode for rec in merged.records})
    assert episodes == list(range(19))
    assert collect.validate_log(merged.log_path).clean


def test_merge_of_logs_without_records(desk5, tmp_path):
    """An empty log with a manifest to match merges into an empty log: no episodes and no start observations."""
    source = _collect(desk5, 3, 1, out=tmp_path / "a.jsonl")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    collect.write_manifest({**source.manifest, "total_steps": 0, "episodes": 0, "o0": []}, empty)
    assert collect.validate_log(empty).clean
    merged = collect.merge_logs([empty, empty], tmp_path / "m.jsonl")
    assert merged.records == []
    assert merged.log_path.read_bytes() == b""
    assert {k: merged.manifest[k] for k in ("total_steps", "episodes", "o0", "seed")} == {
        "total_steps": 0, "episodes": 0, "o0": [], "seed": None
    }
    assert merged.manifest["policy"] == "merged(uniform-random, uniform-random)"
    assert merged.manifest["sources"] == [str(empty), str(empty)]
    assert collect.read_manifest(merged.log_path) == merged.manifest
    assert collect.validate_log(merged.log_path).clean


def test_merge_of_a_log_with_interleaved_episodes_passes_its_audit(desk5, tmp_path):
    """The audit follows each episode on its own, so a log may interleave them; its merge counts each episode once."""
    source = _collect(desk5, 2, 3, out=tmp_path / "a.jsonl")
    lines = source.log_path.read_text().splitlines(keepends=True)
    first = [line for line, rec in zip(lines, source.records) if rec.episode == 0]
    second = [line for line, rec in zip(lines, source.records) if rec.episode == 1]
    source.log_path.write_text("".join(second[:1] + first + second[1:]))
    assert collect.validate_log(source.log_path).clean
    merged = collect.merge_logs([source.log_path], tmp_path / "m.jsonl")
    assert merged.manifest["episodes"] == 2
    assert merged.manifest["total_steps"] == len(source.records)
    assert collect.validate_log(merged.log_path).clean


def test_merge_rejects_different_scenarios(desk5, mesh, tmp_path):
    a = _collect(desk5, 5, 1, out=tmp_path / "a.jsonl")
    b = _collect(mesh, 5, 1, out=tmp_path / "b.jsonl")
    with pytest.raises(IncompatibleDatasetError):
        collect.merge_logs([a.log_path, b.log_path], tmp_path / "m.jsonl")


def test_merge_rejects_a_source_that_fails_its_audit(desk5, tmp_path):
    """A log missing its last episode fails its manifest check; merging it must not rewrite the totals."""
    a = _collect(desk5, 10, 1, out=tmp_path / "a.jsonl")
    kept = sum(1 for rec in a.records if rec.episode < 9)
    a.log_path.write_text("".join(a.log_path.read_text().splitlines(keepends=True)[:kept]))
    with pytest.raises(LogValidationError):
        empirical.build_model_from_log(a.log_path)
    with pytest.raises(LogValidationError):
        collect.merge_logs([a.log_path], tmp_path / "m.jsonl")
    assert not (tmp_path / "m.jsonl").exists()


def test_merge_order_does_not_change_model(desk5, tmp_path):
    a = _collect(desk5, 15, 1, out=tmp_path / "a.jsonl")
    b = _collect(desk5, 10, 2, out=tmp_path / "b.jsonl")
    ab = collect.merge_logs([a.log_path, b.log_path], tmp_path / "ab.jsonl")
    ba = collect.merge_logs([b.log_path, a.log_path], tmp_path / "ba.jsonl")
    dims = dict(obs_dim=desk5.obs_dim, action_count=len(desk5.actions))
    model_ab = empirical.build_model(ab.records, **dims)
    model_ba = empirical.build_model(ba.records, **dims)
    assert model_ab == model_ba


def test_epsilon_greedy_collection_policy_descriptor(desk5):
    env = world.AttackWorld(desk5, seed=1)
    policy = collect.epsilon_greedy_policy(lambda obs: 0, epsilon=0.25, action_count=env.action_count)
    result = collect.run_collection(env, policy, 5, 1)
    assert result.manifest["policy"] == "epsilon-greedy(epsilon=0.25)"
    assert result.manifest["total_steps"] == len(result.records)


def test_all_reachable_pairs_visited_at_scale(desk5, desk5_dataset):
    # oracle: breadth-first enumeration of the reachable observation space
    sources = [
        o
        for o in world.reachable_observations(desk5)
        if o[desk5.objective_flag] != 1
    ]
    # every eligible pair, those whose effect flag is already set included
    required = {
        (obs, action)
        for obs in sources
        for action, rule in enumerate(desk5.rules)
        if all(sum(v << i for i, v in enumerate(obs)) & need for need in rule.needs)
    }
    visited = {(rec.obs, rec.action) for rec in desk5_dataset.records}
    assert required <= visited


def _rewrite(log_path, edit):
    """Apply ``edit(obj)`` to every record of a log, in place."""
    lines = []
    for line in log_path.read_text().splitlines():
        obj = json.loads(line)
        edit(obj)
        lines.append(json.dumps(obj, separators=(",", ":")))
    log_path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "field, value",
    [("action", 99), ("action", -1), ("obs", [0] * 15), ("next_obs", [0] * 17), ("obs", [300] * 16)],
)
def test_out_of_range_records_raise_with_line_numbers(desk5, tmp_path, field, value):
    result = _collect(desk5, 5, 6, out=tmp_path / "d.jsonl")
    first_episode = [i + 1 for i, rec in enumerate(result.records) if rec.episode == 0]

    def edit(obj):
        if obj["episode"] == 0:
            obj[field] = value

    _rewrite(result.log_path, edit)
    with pytest.raises(LogValidationError) as err:
        collect.validate_log(result.log_path)
    assert err.value.lines == first_episode


def _blank_first_line_log(scenario, tmp_path):
    """A 2-episode log led by a blank line, with ``action`` 99 on its sixth line."""
    result = _collect(scenario, 2, 6, out=tmp_path / "d.jsonl")
    lines = result.log_path.read_text().splitlines()
    obj = json.loads(lines[4])
    obj["action"] = 99
    lines[4] = json.dumps(obj, separators=(",", ":"))
    result.log_path.write_text("\n" + "\n".join(lines) + "\n")
    return result.log_path


@pytest.mark.parametrize(
    "read",
    [collect.validate_log, collect.read_clean_log, lambda log: collect.merge_logs([log], log.with_name("m.jsonl"))],
    ids=["validate_log", "read_clean_log", "merge_logs"],
)
def test_out_of_range_lines_count_blank_lines(desk5, tmp_path, read):
    log = _blank_first_line_log(desk5, tmp_path)
    with pytest.raises(LogValidationError) as err:
        read(log)
    assert err.value.lines == [6]
    assert "first at line 6" in str(err.value)


def test_build_sim_out_of_range_lines_count_blank_lines(desk5, tmp_path, capsys):
    log = _blank_first_line_log(desk5, tmp_path)
    assert main(["build-sim", "--data", str(log), "--out", str(tmp_path / "m.model")]) == EXIT_DATA
    assert "first at line 6" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: [1, 2],
        lambda m: "manifest",
        lambda m: {**m, "fingerprint": 5},
        lambda m: {**m, "fingerprint": None},
        lambda m: {k: v for k, v in m.items() if k != "fingerprint"},
        lambda m: {**m, "obs_dim": "16"},
        lambda m: {**m, "obs_dim": 0},
        lambda m: {**m, "obs_dim": True},
        lambda m: {k: v for k, v in m.items() if k != "obs_dim"},
        lambda m: {**m, "action_count": 14.0},
        lambda m: {**m, "action_count": -1},
        lambda m: {**m, "action_count": None},
    ],
    ids=[
        "list", "string", "int-fingerprint", "null-fingerprint", "no-fingerprint", "string-obs_dim",
        "zero-obs_dim", "bool-obs_dim", "no-obs_dim", "float-action_count", "negative-action_count",
        "null-action_count",
    ],
)
def test_mistyped_manifest_exits_data(desk5, tmp_path, capsys, edit):
    log = _collect(desk5, 5, 7, out=tmp_path / "d.jsonl").log_path
    path = collect.manifest_path(log)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
    with pytest.raises(LogValidationError):
        collect.read_manifest(log)
    capsys.readouterr()
    for argv in (["stats", str(log)], ["build-sim", "--data", str(log), "--out", str(tmp_path / "m.model")]):
        assert main(argv) == EXIT_DATA, argv
        assert "unexpected" not in capsys.readouterr().err
    assert not (tmp_path / "m.model").exists()

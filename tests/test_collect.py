"""Trajectory logging: round trips, manifests, merging, validation, coverage."""

import json
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from redsim import artifacts, collect, empirical, presets, world
from redsim.cli import EXIT_DATA, EXIT_IO, main
from redsim.collect import IncompatibleDatasetError, LogValidationError

from conftest import DATASET_EPISODES, DATASET_SEED


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
    """The streamed log holds exactly the records the same run keeps in a list when given no path."""
    kept = _collect(desk5, 20, 1)
    assert kept.log_path is None
    result = _collect(desk5, 20, 1, out=tmp_path / "d.jsonl")
    assert collect.read_log(result.log_path) == kept.records
    assert result.manifest == kept.manifest == collect.read_manifest(result.log_path)


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
    assert merged.manifest["sources"] == ["empty.jsonl", "empty.jsonl"]
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


def test_the_shared_dataset_holds_the_records_its_run_made(desk5, desk5_dataset):
    """The session dataset, read back from its streamed log, equals the same run kept in a list."""
    kept = _collect(desk5, DATASET_EPISODES, DATASET_SEED)
    assert desk5_dataset.records == kept.records
    assert desk5_dataset.manifest == kept.manifest


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


def test_collection_to_a_path_holds_no_record_list(desk5, tmp_path):
    """The records stream to the log as they are made, so memory stays flat in the number of episodes."""
    env = world.AttackWorld(desk5, seed=3)
    policy = collect.uniform_random_policy(env.action_count)
    tracemalloc.start()
    try:
        result = collect.run_collection(env, policy, 300, 3, out_path=tmp_path / "d.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.manifest["episodes"] == 300
    assert peak < 1_000_000


def _fails_once_lines_are_on_disk(env, directory):
    """A random policy that raises as soon as the log's temp file beside its target holds bytes."""
    pick = collect.uniform_random_policy(env.action_count)

    def policy(obs, rng):
        if any(path.stat().st_size for path in directory.glob("*.tmp")):
            raise RuntimeError("policy failed")
        return pick(obs, rng)

    return policy


def test_a_collection_that_fails_midway_leaves_nothing_on_a_fresh_path(desk5, tmp_path):
    env = world.AttackWorld(desk5, seed=4)
    with pytest.raises(RuntimeError, match="policy failed"):
        collect.run_collection(env, _fails_once_lines_are_on_disk(env, tmp_path), 2000, 4, out_path=tmp_path / "d.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_a_collection_that_fails_midway_leaves_the_old_log_and_its_manifest(desk5, tmp_path):
    """The old manifest goes only after the last line, so a collection that raises leaves the old dataset whole."""
    log = _collect(desk5, 5, 1, out=tmp_path / "d.jsonl").log_path
    old = _written(log)
    env = world.AttackWorld(desk5, seed=4)
    with pytest.raises(RuntimeError, match="policy failed"):
        collect.run_collection(env, _fails_once_lines_are_on_disk(env, tmp_path), 2000, 4, out_path=log)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d.jsonl", "d.jsonl.manifest.json"]
    assert _written(log) == old
    assert collect.read_clean_log(log)[0].episodes == 5


def test_the_old_manifest_goes_after_the_last_line_and_before_the_log_lands(desk5, tmp_path, monkeypatch):
    """When the log is put in place its temp file is whole and the old manifest gone; cut there, build-sim exits 3."""
    log = _collect(desk5, 5, 1, out=tmp_path / "d.jsonl").log_path
    old, whole = log.read_bytes(), _collect(desk5, 40, 2).records
    seen = []

    def cut(temp, path):
        seen.append((collect.read_log(temp) == whole, collect.manifest_path(path).exists()))
        raise RuntimeError("killed")

    monkeypatch.setattr(artifacts.os, "replace", cut)
    with pytest.raises(RuntimeError, match="killed"):
        _collect(desk5, 40, 2, out=log)
    monkeypatch.undo()
    assert seen == [(True, False)]
    assert [path.name for path in tmp_path.iterdir()] == ["d.jsonl"]
    assert log.read_bytes() == old
    assert main(["build-sim", "--data", str(log), "--out", str(tmp_path / "m.model")]) == EXIT_IO


def test_cli_collect_reads_nothing_back(tmp_path, monkeypatch):
    """``redsim collect`` writes its log and never asks for the records, so it neither scans nor reads the log."""
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    calls = []
    for name in ("_scan", "read_log"):
        monkeypatch.setattr(collect, name, lambda *args, _name=name, _f=getattr(collect, name): calls.append(_name) or _f(*args))
    assert main(["collect", "--scenario", str(scenario), "--episodes", "20", "--out", str(tmp_path / "d.jsonl")]) == 0
    assert calls == []
    assert collect.validate_log(tmp_path / "d.jsonl").total_steps == collect.read_manifest(tmp_path / "d.jsonl")["total_steps"]
    assert calls == ["_scan"]


def test_merged_manifest_names_its_sources_alike_however_they_are_spelled(desk5, tmp_path, monkeypatch):
    data, elsewhere = tmp_path / "data", tmp_path / "elsewhere"
    elsewhere.mkdir(parents=True)
    data.mkdir()
    for name, seed in (("a.jsonl", 1), ("b.jsonl", 2)):
        _collect(desk5, 5, seed, out=data / name)
    written = []
    for cwd, spell in ((tmp_path, lambda name: f"data/{name}"), (elsewhere, lambda name: str(data / name))):
        monkeypatch.chdir(cwd)
        merged = collect.merge_logs([spell("a.jsonl"), spell("b.jsonl")], spell("m.jsonl")).log_path
        written.append((merged.read_bytes(), collect.manifest_path(merged).read_bytes()))
    assert written[0] == written[1]
    assert json.loads(written[0][1])["sources"] == ["a.jsonl", "b.jsonl"]


def _two_logs(scenario, directory, episodes):
    """Logs ``a.jsonl`` and ``b.jsonl`` in ``directory``, collected at seeds 1 and 2."""
    return [_collect(scenario, episodes, seed, out=directory / f"{name}.jsonl").log_path for name, seed in (("a", 1), ("b", 2))]


def _written(log):
    return log.read_bytes(), collect.manifest_path(log).read_bytes()


def test_merge_of_a_generator_of_paths_writes_what_a_list_writes(desk5, tmp_path):
    """The paths are taken into a list once, so a generator's are both scanned and named in ``sources``."""
    logs = _two_logs(desk5, tmp_path, 5)
    from_list = collect.merge_logs(logs, tmp_path / "list.jsonl").log_path
    from_generator = collect.merge_logs((log for log in logs), tmp_path / "generator.jsonl").log_path
    assert _written(from_generator) == _written(from_list)
    assert json.loads(_written(from_list)[1])["sources"] == ["a.jsonl", "b.jsonl"]


def test_merge_streams_its_sources(desk5, tmp_path):
    """No list of scanned rows is held, so a merge's memory stays flat in the size of its sources."""
    logs = _two_logs(desk5, tmp_path, 300)
    tracemalloc.start()
    try:
        merged = collect.merge_logs(logs, tmp_path / "m.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert merged.manifest["episodes"] == 600
    assert peak < 2_000_000


def test_merge_audits_each_source_by_read_clean_log_then_scans_it_again(desk5, tmp_path, monkeypatch):
    logs = _two_logs(desk5, tmp_path, 3)
    audited, scanned = [], []
    read_clean_log, scan = collect.read_clean_log, collect._scan
    monkeypatch.setattr(collect, "read_clean_log", lambda path: audited.append(path) or read_clean_log(path))
    monkeypatch.setattr(collect, "_scan", lambda path: scanned.append(path) or scan(path))
    collect.merge_logs(logs, tmp_path / "m.jsonl")
    assert audited == logs
    assert scanned == logs + logs


def _second_source_turns_corrupt(monkeypatch, logs):
    """Patch ``_scan`` so that the stream of ``logs[1]``, its second scan, yields one row and then raises."""
    scan, scans = collect._scan, []

    def turns_corrupt(path):
        scans.append(path)
        rows = scan(path)
        if scans.count(logs[1]) == 2:  # the second source's stream: one good row, then a line that no longer parses
            yield next(rows)
            raise LogValidationError(f"1 corrupt record(s) in {path}", lines=[2])
        yield from rows

    monkeypatch.setattr(collect, "_scan", turns_corrupt)


def test_a_line_corrupt_on_the_second_scan_leaves_no_merged_log(desk5, tmp_path, monkeypatch):
    logs = _two_logs(desk5, tmp_path, 3)
    before = sorted(tmp_path.iterdir())
    _second_source_turns_corrupt(monkeypatch, logs)
    with pytest.raises(LogValidationError, match="1 corrupt record"):
        collect.merge_logs(logs, tmp_path / "m.jsonl")
    assert sorted(tmp_path.iterdir()) == before


def test_a_failed_merge_into_one_of_its_sources_leaves_that_source_whole(desk5, tmp_path, monkeypatch):
    """A second scan of the other source that raises leaves the target source's log and manifest as they were."""
    logs = _two_logs(desk5, tmp_path, 3)
    before = sorted(tmp_path.iterdir()), _written(logs[0])
    _second_source_turns_corrupt(monkeypatch, logs)
    with pytest.raises(LogValidationError, match="1 corrupt record"):
        collect.merge_logs(logs, logs[0])
    monkeypatch.undo()
    assert (sorted(tmp_path.iterdir()), _written(logs[0])) == before
    assert collect.read_clean_log(logs[0])[0].episodes == 3


def test_a_merge_into_one_of_its_sources_writes_what_a_fresh_path_gets(desk5, tmp_path):
    """The second scan reads the source while its replacement is written beside it, so it reads the source whole."""
    logs = _two_logs(desk5, tmp_path, 20)
    fresh = _written(collect.merge_logs(logs, tmp_path / "m.jsonl").log_path)
    assert _written(collect.merge_logs(logs, logs[0]).log_path) == fresh


# --- the row path: collection and merging hand write_log plain rows ---------

_PRESETS = {"desk3": presets.deterministic_chain, "desk5": presets.chain_scenario, "mesh": presets.mesh_scenario}


@lru_cache(maxsize=None)
def _preset(name):
    return world.parse_scenario(_PRESETS[name]())


def _row(rec):
    return rec.episode, rec.step, rec.obs, rec.action, rec.next_obs, rec.reward, rec.done, rec.action_success


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_PRESETS)), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_a_collection_streams_the_bytes_write_log_writes_of_its_records(tmp_path_factory, name, episodes, seed):
    """Rows streamed to a path, the same run's records and those records as plain tuples write one log."""
    directory = tmp_path_factory.mktemp("rows")
    streamed = _collect(_preset(name), episodes, seed, out=directory / "d.jsonl")
    kept = _collect(_preset(name), episodes, seed)
    assert streamed.manifest == kept.manifest
    collect.write_log(kept.records, directory / "records.jsonl")
    collect.write_log(map(_row, kept.records), directory / "rows.jsonl")
    expected = "".join(rec.to_json() + "\n" for rec in kept.records).encode()
    assert streamed.log_path.read_bytes() == expected
    assert (directory / "records.jsonl").read_bytes() == expected
    assert (directory / "rows.jsonl").read_bytes() == expected


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_PRESETS)), st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_a_merge_writes_what_write_log_writes_of_its_renumbered_sources(tmp_path_factory, name, first, second, seed):
    directory = tmp_path_factory.mktemp("merge")
    logs = [
        _collect(_preset(name), episodes, seed + i, out=directory / f"{i}.jsonl").log_path
        for i, episodes in enumerate((first, second))
    ]
    expected, offset = [], 0
    for log in logs:
        renumber: dict[int, int] = {}
        for rec in collect.read_log(log):
            expected.append(replace(rec, episode=renumber.setdefault(rec.episode, offset + len(renumber))))
        offset += len(renumber)
    collect.write_log(expected, directory / "r.jsonl")
    merged = collect.merge_logs(logs, directory / "m.jsonl")
    assert merged.log_path.read_bytes() == (directory / "r.jsonl").read_bytes()
    assert merged.manifest["total_steps"] == len(expected)


_CACHED = (0, 0, (1, 0), 1, (1, 1), 1, True, False)
# A field of ``_CACHED`` and a value equal to it that no line can hold.
_TWINS = [
    (2, (True, 0)), (2, (1.0, 0)), (2, (1, False)),
    (3, True), (3, 1.0),
    (4, (True, 1)), (4, (1, 1.0)),
    (5, True),
    (6, 1), (6, 1.0),
    (7, 0), (7, 0.0),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_TWINS), st.integers(1, 5), st.integers(0, 3))
def test_a_row_whose_tail_equals_a_cached_one_still_raises(tmp_path_factory, twin, before, after):
    """The cache keys a tail by its objects, so a row of 1.0, True or 1 where the cached row has 1, 1 or True
    is formatted on its own and raises TypeError; nothing lands."""
    field, value = twin
    rows = [(0, step, *_CACHED[2:]) for step in range(before)]
    bad = list(rows[-1])
    bad[1], bad[field] = before, value
    rows += [tuple(bad)] + [(0, before + 1 + step, *_CACHED[2:]) for step in range(after)]
    directory = tmp_path_factory.mktemp("twin")
    with pytest.raises(TypeError):
        collect.write_log(rows, directory / "d.jsonl")
    assert list(directory.iterdir()) == []

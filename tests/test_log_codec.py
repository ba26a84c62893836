"""JSONL record codec: byte-exact encoding, round trips, and golden artifact digests."""

import hashlib
import json
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import collect, presets
from redsim.cli import EXIT_OK, main
from redsim.collect import LOG_FORMAT, LogValidationError, TransitionRecord, manifest_path, read_log, validate_log

observations = st.lists(st.integers(0, 255), min_size=0, max_size=20).map(tuple)
rewards = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10).map(float),
    st.integers(-1000, 1000),
    st.sampled_from([-0.0, 0.0, 1e-300, -1e300, 0.1, -0.25, 1e16]),
)
records = st.builds(
    TransitionRecord,
    episode=st.integers(0, 2**40),
    step=st.integers(0, 10_000),
    obs=observations,
    action=st.integers(-5, 300),
    next_obs=observations,
    reward=rewards,
    done=st.booleans(),
    action_success=st.booleans(),
)


def _dumps_reference(rec: TransitionRecord) -> str:
    """The record line as the generic JSON encoder writes it."""
    return json.dumps(
        {
            "episode": rec.episode,
            "step": rec.step,
            "obs": list(rec.obs),
            "action": rec.action,
            "next_obs": list(rec.next_obs),
            "reward": rec.reward,
            "done": rec.done,
            "action_success": rec.action_success,
        },
        separators=(",", ":"),
    )


@given(records)
def test_to_json_matches_generic_encoder(rec):
    assert rec.to_json() == _dumps_reference(rec)


@given(records)
def test_from_obj_round_trips_to_json(rec):
    back = TransitionRecord.from_obj(json.loads(rec.to_json()))
    if math.isnan(rec.reward):
        assert math.isnan(back.reward)
        back.reward = rec.reward
    assert back == rec


def test_a_line_depends_on_its_record_alone(tmp_path):
    """A record of bools and floats raises TypeError after an equal record of ints was written: no memo hides it."""
    ints = TransitionRecord(0, 0, (1, 0), 1, (1, 1), 1, True, False)
    other = TransitionRecord(0, 1, (True, False), True, (1.0, True), True, True, False)
    assert ints.to_json() == _dumps_reference(ints)
    with pytest.raises(TypeError):
        other.to_json()
    with pytest.raises(TypeError):
        collect.write_log([ints, other], tmp_path / "d.jsonl")


@pytest.mark.parametrize(
    "field, value",
    [
        ("episode", True),
        ("step", 1.0),
        ("done", 1),
        ("action_success", np.True_),
        ("obs", (1.0, 0)),
        ("obs", (True, False)),
        ("next_obs", (1, np.True_)),
        ("action", True),
        ("action", 2.0),
        ("reward", True),
    ],
    ids=[
        "bool-episode",
        "float-step",
        "int-done",
        "numpy-bool-action-success",
        "float-obs",
        "bool-obs",
        "numpy-bool-next-obs",
        "bool-action",
        "float-action",
        "bool-reward",
    ],
)
def test_a_record_that_no_line_can_hold_raises_type_error(tmp_path, field, value):
    """``{"episode":True``, ``"step":1.0``, ``"obs":[1.0,0]``, ``"action":true`` and ``"done":true`` for 1
    are lines ``read_log`` rejects or misreads; ``"reward":true`` it rejects."""
    rec = replace(TransitionRecord(0, 0, (1, 0), 1, (1, 1), -1.0, False, True), **{field: value})
    with pytest.raises(TypeError, match=field):
        rec.to_json()
    good = TransitionRecord(0, 0, (1, 0), 1, (1, 1), -1.0, False, True)
    with pytest.raises(TypeError, match=field):
        collect.write_log([good, rec], tmp_path / "d.jsonl")


def test_numpy_int_episode_and_step_are_written_as_digits(tmp_path):
    rec = TransitionRecord(np.int64(3), np.uint8(7), (1, 0), np.int32(1), (1, 1), -1.0, False, True)
    collect.write_log([rec], tmp_path / "d.jsonl")
    assert (tmp_path / "d.jsonl").read_text(encoding="utf-8") == rec.to_json() + "\n" == _dumps_reference(
        replace(rec, episode=3, step=7, action=1)
    ) + "\n"


def _read_log_reference(path):
    """``read_log`` as a plain loop: ``json.loads`` plus ``from_obj`` on every non-blank line.

    Returns the records, the file line number of each, and the ``(lineno, message)`` of each corrupt line.
    """
    records, lines, bad = [], [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    records.append(TransitionRecord.from_obj(json.loads(line.strip().decode("utf-8"))))
                    lines.append(lineno)
                except (ValueError, TypeError) as exc:
                    bad.append((lineno, str(exc)))
    return records, lines, bad


def _replace_first(old: bytes, new: bytes):
    return lambda line: line.replace(old, new, 1)


def _reorder_keys(line: bytes) -> bytes:
    obj = json.loads(line)
    return json.dumps(dict(reversed(obj.items())), separators=(",", ":")).encode()


def _rewrite_reward(rewrite):
    """Write a finite float reward another way that JSON reads as the same number."""
    def edit(line: bytes) -> bytes:
        reward = json.loads(line)["reward"]
        if reward.__class__ is not float or not math.isfinite(reward):
            return line
        return line.replace(b'"reward":%r' % reward, b'"reward":' + rewrite(reward), 1)
    return edit


# Edits that keep a line valid JSON but not what ``to_json`` writes, or break it.
LINE_MUTATIONS = {
    "episode-leading-zero": _replace_first(b'"episode":', b'"episode":0'),
    "step-leading-zero": _replace_first(b'"step":', b'"step":0'),
    "episode-minus": _replace_first(b'"episode":', b'"episode":-'),
    "step-minus": _replace_first(b'"step":', b'"step":-'),
    "step-plus": _replace_first(b'"step":', b'"step":+'),
    "space-after-colon": _replace_first(b'"obs":', b'"obs": '),
    "space-before-tail": _replace_first(b',"obs"', b' ,"obs"'),
    "space-inside": _replace_first(b'{"episode"', b'{ "episode"'),
    "reordered-keys": _reorder_keys,
    "duplicate-episode": lambda line: line[:-1] + b',"episode":7}',
    "duplicate-step": lambda line: line[:-1] + b',"step":7}',
    "duplicate-action": lambda line: line[:-1] + b',"action":3}',
    "integral-reward": _rewrite_reward(lambda r: b"%d" % r if r.is_integer() and abs(r) < 1e15 else b"%r" % r),
    "exponent-reward": _rewrite_reward(lambda r: b"%re0" % r if "e" not in repr(r) else b"%r" % r),
    "duplicate-reward": _replace_first(b'"reward":', b'"reward":1.0e0,"reward":'),
    "not-utf8": lambda line: line[:-1] + b'\xff}',
    "not-utf8-in-tail": _replace_first(b'"done"', b'"d\xffone"'),
    "truncated": lambda line: line[:-1],
    "blank": lambda line: b"",
    "spaces-only": lambda line: b"   ",
}

_tail_records = st.builds(
    TransitionRecord,
    episode=st.just(0),
    step=st.just(0),
    obs=st.lists(st.integers(0, 3), max_size=3).map(tuple),
    action=st.integers(-1, 3),
    next_obs=st.lists(st.integers(0, 3), max_size=3).map(tuple),
    reward=rewards,
    done=st.booleans(),
    action_success=st.booleans(),
)


@st.composite
def log_lines(draw):
    """Canonical lines sharing a few tails, some of them mutated by one of a few edits."""
    tails = draw(st.lists(_tail_records, min_size=1, max_size=4))
    mutations = draw(st.lists(st.sampled_from(sorted(LINE_MUTATIONS)), min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(1, 25))):
        rec = draw(st.sampled_from(tails))
        rec = replace(rec, episode=draw(st.integers(0, 120)), step=draw(st.integers(0, 12)))
        line = rec.to_json().encode()
        mutation = draw(st.none() | st.sampled_from(mutations))
        lines.append(LINE_MUTATIONS[mutation](line) if mutation else line)
    return lines


def _check_read_log_matches_reference(path):
    expected, _, bad = _read_log_reference(path)
    if not bad:
        assert [repr(rec) for rec in read_log(path)] == [repr(rec) for rec in expected]
        return
    _check_raises_reference_error(read_log, path, bad)


def _check_raises_reference_error(read, path, bad):
    with pytest.raises(LogValidationError) as excinfo:
        read(path)
    assert excinfo.value.lines == [lineno for lineno, _ in bad]
    for lineno, message in bad[:5]:
        assert f"line {lineno}: {message}" in str(excinfo.value)


@pytest.mark.parametrize("mutation", sorted(LINE_MUTATIONS))
def test_read_log_parses_mutated_line_in_full(tmp_path, mutation):
    """A mutated line whose tail is cached, or that comes twice, reads as ``json.loads`` reads it."""
    rec = TransitionRecord(3, 10, (1, 0, 2), 2, (1, 1, 2), 0.5, False, True)
    canonical = rec.to_json().encode()
    mutated = LINE_MUTATIONS[mutation](replace(rec, episode=4, step=11).to_json().encode())
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"\n".join([canonical, mutated, mutated, canonical, b""]))
    _check_read_log_matches_reference(path)


@settings(deadline=None)
@given(log_lines(), st.sampled_from([b"\n", b"\r\n", b" \n"]), st.sampled_from([0, 1, collect._MAX_TAILS]))
def test_read_log_matches_json_loads_per_line(tmp_path_factory, lines, newline, max_tails):
    path = tmp_path_factory.mktemp("log") / "d.jsonl"
    path.write_bytes(b"".join(line + newline for line in lines))
    with mock.patch.object(collect, "_MAX_TAILS", max_tails):
        _check_read_log_matches_reference(path)


def _audit_reference(records):
    """The audit as a plain loop over records: counts in order of first appearance, starts, chain and step checks."""
    counts, starts, chain_violations, step_gaps, last = {}, set(), [], [], {}
    for rec in records:
        outcomes = counts.setdefault((rec.obs, rec.action), {})
        outcomes[rec.next_obs] = outcomes.get(rec.next_obs, 0) + 1
        prev = last.get(rec.episode)
        if rec.step == 0:
            starts.add(rec.obs)
            if prev is not None:
                step_gaps.append((rec.episode, rec.step))
        elif prev is None or prev.step != rec.step - 1:
            step_gaps.append((rec.episode, rec.step))
        elif prev.next_obs != rec.obs:
            chain_violations.append((rec.episode, rec.step))
        last[rec.episode] = rec
    return _ordered(counts), sorted(starts), chain_violations, step_gaps, len(last)


def _ordered(counts):
    """A count table as nested lists, so that comparing two compares their orders too."""
    return [(pair, list(outcomes.items())) for pair, outcomes in counts.items()]


def _renumbered(lines, length):
    """The lines, their ``{"episode":E,"step":S`` prefixes renumbered to run through episodes of ``length`` steps."""
    return [
        re.sub(rb'^\{"episode":[0-9]+,"step":[0-9]+', b'{"episode":%d,"step":%d' % divmod(i, length), line, count=1)
        for i, line in enumerate(lines)
    ]


# A manifest for a generated log: none, or one whose dimensions may leave some
# of its actions and observations out of range, with its totals right or not.
_manifest_specs = st.none() | st.tuples(st.integers(1, 3), st.integers(1, 4), st.booleans())


@settings(deadline=None)
@given(
    log_lines(),
    st.sampled_from([None, 1, 3, 8]),
    st.lists(st.integers(0, 30), max_size=3),
    st.sampled_from([b"\n", b"\r\n", b" \n"]),
    st.sampled_from([0, 1, collect._MAX_TAILS]),
    _manifest_specs,
)
def test_validate_log_audits_lines_as_a_plain_loop_over_their_records(
    tmp_path_factory, lines, episode_length, blanks, newline, max_tails, spec
):
    """The one-pass audit of a log's lines reports what a plain loop over its records finds, or raises for the
    file lines a plain check of the manifest's dimensions finds out of range.

    Renumbered lines run through whole episodes, whose observation chains hold or break.
    """
    lines = _renumbered(lines, episode_length) if episode_length else list(lines)
    for at in blanks:
        lines.insert(at, b"")
    path = tmp_path_factory.mktemp("log") / "d.jsonl"
    path.write_bytes(b"".join(line + newline for line in lines))
    expected, linenos, bad = _read_log_reference(path)
    out_of_range = []
    if spec is not None:
        obs_dim, action_count, totals_right = spec
        out_of_range = [
            lineno
            for lineno, rec in zip(linenos, expected)
            if rec.action not in range(action_count)
            or any(len(o) != obs_dim or not all(0 <= v <= 255 for v in o) for o in (rec.obs, rec.next_obs))
        ]
        starts = sorted({rec.obs for rec in expected if rec.step == 0})
        manifest = {
            "format": LOG_FORMAT,
            "fingerprint": "f",
            "obs_dim": obs_dim,
            "action_count": action_count,
            "total_steps": len(expected) if totals_right else -1,
            "episodes": len({rec.episode for rec in expected}),
            "o0": [list(o) for o in starts],
        }
        manifest_path(path).write_text(json.dumps(manifest), encoding="utf-8")
    with mock.patch.object(collect, "_MAX_TAILS", max_tails):
        if bad:
            _check_raises_reference_error(validate_log, path, bad)
            return
        if out_of_range:
            with pytest.raises(LogValidationError) as excinfo:
                validate_log(path)
            assert excinfo.value.lines == out_of_range
            assert str(excinfo.value) == (
                f"{len(out_of_range)} record(s) out of range for obs_dim={obs_dim}, "
                f"action_count={action_count} (first at line {out_of_range[0]})"
            )
            return
        got = validate_log(path)
    assert (_ordered(got.counts), got.start_observations, got.chain_violations, got.step_gaps, got.episodes) == (
        _audit_reference(expected)
    )
    assert got.total_steps == len(expected)
    assert got.manifest_consistent == (None if spec is None else totals_right)


# Values equal as numbers but written otherwise; no two may share a tail.  Only a float
# reward has an equal int twin that a line can hold; the other bools and floats no line holds.
_twin_tails = st.builds(
    TransitionRecord,
    episode=st.just(0),
    step=st.just(0),
    obs=st.sampled_from([(1, 0), (True, False), (1.0, 0), (1, False)]) | observations,
    action=st.sampled_from([1, 1.0, True, 0, False, -0.0]) | st.integers(-1, 3),
    next_obs=st.sampled_from([(0,), (False,), (0.0,), (-0.0,)]) | observations,
    reward=st.sampled_from([0.0, -0.0, 0, False, 1, 1.0, True, math.nan, -math.nan]) | rewards,
    done=st.booleans(),
    action_success=st.booleans(),
)


def _rejected(rec) -> bool:
    """Whether ``to_json`` raises TypeError for the record, which no line can hold."""
    try:
        rec.to_json()
    except TypeError:
        return True
    return False


@settings(deadline=None)
@given(
    st.lists(_twin_tails, min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 120), st.integers(0, 12)), min_size=1, max_size=40),
    st.sampled_from([0, 1, 3, collect._MAX_TAILS]),
)
def test_write_log_writes_each_records_to_json_line(tmp_path_factory, tails, picks, max_tails):
    """Records sharing a few tails' objects, beyond the cache bound too, are written as ``json.dumps`` writes them.

    Records among them that ``to_json`` rejects make ``write_log`` raise, however their twins were cached.
    """
    records = [replace(tails[i % len(tails)], episode=episode, step=step) for i, episode, step in picks]
    path = tmp_path_factory.mktemp("log") / "d.jsonl"
    with mock.patch.object(collect, "_MAX_TAILS", max_tails):
        if any(map(_rejected, records)):
            with pytest.raises(TypeError):
                collect.write_log(records, path)
            records = [rec for rec in records if not _rejected(rec)]
        collect.write_log(records, path)
    text = path.read_bytes().decode("utf-8")
    assert text == "".join(rec.to_json() + "\n" for rec in records)
    assert text == "".join(_dumps_reference(rec) + "\n" for rec in records)


@settings(deadline=None)
@given(st.lists(_twin_tails, min_size=1, max_size=6))
def test_write_log_writes_only_lines_read_log_reads_back(tmp_path_factory, tails):
    """Each record raises TypeError at ``write_log``, or its line reads back as an equal record."""
    path = tmp_path_factory.mktemp("log") / "d.jsonl"
    for rec in tails:
        try:
            collect.write_log([rec], path)
        except TypeError:
            continue
        (back,) = read_log(path)
        if back.reward != back.reward:  # NaN: equal only as NaN
            assert rec.reward != rec.reward
            back.reward = rec.reward
        assert back == rec


def test_read_log_parses_each_distinct_tail_once(tmp_path, monkeypatch):
    """A desk5 log repeats few texts after ``"step":N``; ``read_log`` runs ``json.loads`` once per text."""
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    log = tmp_path / "d.jsonl"
    argv = ["collect", "--scenario", str(scenario), "--episodes", "120", "--seed", "7", "--out", str(log)]
    assert main(argv) == EXIT_OK
    lines = log.read_bytes().splitlines()
    tails = {line[line.index(b',"obs":'):] for line in lines}
    expected = [TransitionRecord.from_obj(json.loads(line)) for line in lines]
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    assert read_log(log) == expected
    assert 0 < len(calls) <= len(tails) < len(lines) // 10


def test_a_mesh_log_formats_and_parses_each_distinct_tail_once(tmp_path, monkeypatch):
    """A 300-episode random mesh log holds more distinct tails than a desk5 log; all of them fit the caches."""
    scenario = tmp_path / "mesh.json"
    scenario.write_text(json.dumps(presets.mesh_scenario()), encoding="utf-8")
    log = tmp_path / "d.jsonl"
    formatted, to_json = [], TransitionRecord.to_json
    monkeypatch.setattr(TransitionRecord, "to_json", lambda rec: formatted.append(rec) or to_json(rec))
    argv = ["collect", "--scenario", str(scenario), "--episodes", "300", "--seed", "1", "--out", str(log)]
    assert main(argv) == EXIT_OK
    lines = log.read_bytes().splitlines()
    tails = {line[line.index(b',"obs":'):] for line in lines}
    assert len(formatted) == len(tails) > 4096
    expected = [TransitionRecord.from_obj(json.loads(line)) for line in lines]
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    assert read_log(log) == expected
    assert len(calls) == len(tails) < len(lines)


# sha256 of a 120-episode log, its manifest and the model built from it, per
# scenario: the noise-free desk5 chain, the mesh (several footholds per
# target, worth-bearing flags) and a noisy chain whose exploits often fail.
GOLDEN = {
    "desk5": {
        "d.jsonl": "acf9e54192026b6e60cfd04b03d7c441c9e5b8187be65249547c635964362d30",
        "d.jsonl.manifest.json": "d6087c2a88b3fc1bec45ed75682c723070ea9f07492128c55040064edb8ca5ff",
        "m.model": "b013c6eb81a70456afa972f79d63d6367b9dd6e17119e786daa79af80b4756b6",
    },
    "mesh": {
        "d.jsonl": "481839fb9697faaf19d39f84941334b3f736b94919d93dc2362ccbb8b7f24159",
        "d.jsonl.manifest.json": "70e1a8baa92e6740710d04497dee0bf2c8589f8f49fc4d18f9d7e1e0cd8af4a1",
        "m.model": "ffbfd8aa51b7b691ce3c8e73c897e3ef64f75992b5be36f86e857565c3daea2e",
    },
    "desk5-noisy": {
        "d.jsonl": "599ad72250bd01b974182e80d5660c62b58d41d2f90591812cfbca9bf44297fe",
        "d.jsonl.manifest.json": "0bbec1a953b2b34a952de5c79dd514c4efd4587280db15f66485b53c9a10be60",
        "m.model": "20a923695ee25963fab20abb3fc4a6d39537020d94ee1d4c7fa1ea31fd9d5468",
    },
}
_GOLDEN_SCENARIOS = {
    "desk5": presets.chain_scenario,
    "mesh": presets.mesh_scenario,
    "desk5-noisy": lambda: presets.chain_scenario(noise=0.1, exploit_prob=0.6),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifact_digests(tmp_path, name):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_GOLDEN_SCENARIOS[name]()), encoding="utf-8")
    log, model = tmp_path / "d.jsonl", tmp_path / "m.model"
    argv = ["collect", "--scenario", str(scenario), "--episodes", "120", "--seed", "7", "--out", str(log)]
    assert main(argv) == EXIT_OK
    assert main(["build-sim", "--data", str(log), "--out", str(model)]) == EXIT_OK
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (log, manifest_path(log), model)
    }
    assert digests == GOLDEN[name]


# sha256 of the training and report outputs built on that desk5 model: a
# Q-learning policy, a one- and a two-hidden-layer DQN policy (the second
# syncs its target net every 50 learn steps) with their learning curves, a
# world evaluation and a sim-paired transfer report.  Any change to a sampled
# stream (environment, exploration, replay) changes at least one of them.
GOLDEN_OUTPUTS = {
    "q.policy": "2124fcb4fd9fef75e8a208a8c76f9aedbdc7763aa4b29b4e2c3d12f7dd737907",
    "q.policy.curve.csv": "c4d5fc4b59b07f4449b65b3602dc006b9b7606890d3ba3d7cdf4c74cdc2607b9",
    "dqn.policy": "9fa6c3bae3bbe2497fc71d10c3f15ea871c655ea8f4ffb4eb7ac3932ab9ec062",
    "dqn.policy.curve.csv": "ed12e94f8891c873eef0f48d1e7ec8105519c22da5bd193d0446d6032688d958",
    "dqn2.policy": "2de134ad5b781f807cec8ad093c5f8443a6c4e567cdecdd47d374277fcf1fcec",
    "dqn2.policy.curve.csv": "41f42fbdfb2f6e6a29d4483c7004e0ee6b49f78977eff54f48f5a2f42d8975c7",
    "eval.json": "ede59e46371317dab64d1c5b36cd51b2bfb708c80e4621f9113be7a6f9c7e594",
    "eval.json.csv": "4d52f4bb756f9fc8b620e644374fbee77f7c3e53937985251cbb827c9547b718",
    "transfer.json": "1dc31360aa0ca63026a1c464ebc519f8e84b1daf4f4192ba9bce615f3dab7e44",
    "transfer.json.csv": "b0d19d26d5e74a111db037ff80c305840c477fe871afacabb343852af96de4af",
}


def test_golden_training_and_report_digests(tmp_path):
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    log, model = tmp_path / "d.jsonl", tmp_path / "m.model"
    q, dqn, dqn2 = tmp_path / "q.policy", tmp_path / "dqn.policy", tmp_path / "dqn2.policy"
    ev, tr = tmp_path / "eval.json", tmp_path / "transfer.json"
    commands = [
        ["collect", "--scenario", str(scenario), "--episodes", "120", "--seed", "7", "--out", str(log)],
        ["build-sim", "--data", str(log), "--out", str(model)],
        ["train", "--env", f"sim:{model}", "--episodes", "300", "--seed", "3", "--out", str(q)],
        ["train", "--env", f"sim:{model}", "--algo", "dqn", "--hidden", "16", "--episodes", "20",
         "--seed", "3", "--out", str(dqn)],
        ["train", "--env", f"sim:{model}", "--algo", "dqn", "--hidden", "32,32", "--episodes", "20",
         "--target-sync", "50", "--seed", "3", "--out", str(dqn2)],
        ["eval", "--env", f"world:{scenario}", "--policy", str(q), "--episodes", "20", "--seed", "5",
         "--out", str(ev)],
        ["transfer", "--policy", str(q), "--scenario", str(scenario), "--model", str(model),
         "--episodes", "30", "--seed", "5", "--out", str(tr)],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    outputs = (q, dqn, dqn2, ev, tr)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for out in outputs
        for path in (out, out.with_name(out.name + (".curve.csv" if out in (q, dqn, dqn2) else ".csv")))
    }
    assert digests == GOLDEN_OUTPUTS


# sha256 of the fidelity audit and the horizon study built on that desk5
# model; they pin the report serialisers byte for byte.
GOLDEN_AUDITS = {
    "fidelity.json": "07b93cf59904751aa80c2eeb656a805d572f94a24e92c53cad944e2e139ac798",
    "fidelity.json.csv": "d831f714c383d238596c1d717caf196e3224177207294f3f6678b84a68bf2408",
    "study.json": "3fc0a9007e8db97544d5abb907ac450c0ba584991a7e6a605f12e65aa582c066",
    "study.json.csv": "a2c73af5822bf735320e301062bf7468df3b2dd2dccc8a6779e999548a842b87",
}


def test_golden_fidelity_and_study_digests(tmp_path):
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    log, model = tmp_path / "d.jsonl", tmp_path / "m.model"
    fid, study = tmp_path / "fidelity.json", tmp_path / "study.json"
    commands = [
        ["collect", "--scenario", str(scenario), "--episodes", "120", "--seed", "7", "--out", str(log)],
        ["build-sim", "--data", str(log), "--out", str(model)],
        ["fidelity", "--model", str(model), "--scenario", str(scenario), "--visit-threshold", "20",
         "--out", str(fid)],
        ["study-max-steps", "--model", str(model), "--scenario", str(scenario), "--values", "5,20",
         "--episodes", "300", "--eval-episodes", "20", "--seed", "4", "--out", str(study)],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for out in (fid, study)
        for path in (out, out.with_name(out.name + ".csv"))
    }
    assert digests == GOLDEN_AUDITS


# sha256 of the fidelity audit of a 200-episode mesh model: thousands of
# per-pair rows of floats, so it pins the JSON writer on a large report.
GOLDEN_MESH_AUDIT = {
    "fidelity.json": "fff1ef1afd9a4285789f64f9e056bdc8fe3e73fda127b0328665706f961a9b2a",
    "fidelity.json.csv": "07c73cdcd26f3cb9341264d9ff3b598645e6ebe2c7fd67f529b8626b659e7d11",
}


def test_golden_mesh_fidelity_digests(tmp_path):
    scenario = tmp_path / "mesh.json"
    scenario.write_text(json.dumps(presets.mesh_scenario()), encoding="utf-8")
    log, model, fid = tmp_path / "d.jsonl", tmp_path / "m.model", tmp_path / "fidelity.json"
    commands = [
        ["collect", "--scenario", str(scenario), "--episodes", "200", "--seed", "7", "--out", str(log)],
        ["build-sim", "--data", str(log), "--out", str(model)],
        ["fidelity", "--model", str(model), "--scenario", str(scenario), "--out", str(fid)],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (fid, fid.with_name("fidelity.json.csv"))
    }
    assert digests == GOLDEN_MESH_AUDIT


# sha256 of a log merged from two clean 30-episode desk5 logs (seeds 7 and
# 8) and of its manifest, which names its sources as they were given.
GOLDEN_MERGE = {
    "m.jsonl": "c0ea6e04e85ec267054c9f07b7d7e9adf7ed3afe62a45ec2753455acda322644",
    "m.jsonl.manifest.json": "f2e95d5a9df9c6efc70fabf7860a576439a06a250a5ff8ec3bb648fd3c1bb9a6",
}


def test_golden_merged_log_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    for name, seed in (("a.jsonl", "7"), ("b.jsonl", "8")):
        argv = ["collect", "--scenario", str(scenario), "--episodes", "30", "--seed", seed, "--out", name]
        assert main(argv) == EXIT_OK
    merged = collect.merge_logs(["a.jsonl", "b.jsonl"], "m.jsonl").log_path
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (merged, manifest_path(merged))}
    assert digests == GOLDEN_MERGE

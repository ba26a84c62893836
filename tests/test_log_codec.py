"""JSONL record codec: byte-exact encoding, round trips, and golden artifact digests."""

import hashlib
import json
import math

from hypothesis import given, strategies as st

from redsim import presets
from redsim.cli import EXIT_OK, main
from redsim.collect import TransitionRecord, manifest_path

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


# sha256 of a 120-episode desk5 log, its manifest and the model built from it.
GOLDEN = {
    "d.jsonl": "acf9e54192026b6e60cfd04b03d7c441c9e5b8187be65249547c635964362d30",
    "d.jsonl.manifest.json": "d6087c2a88b3fc1bec45ed75682c723070ea9f07492128c55040064edb8ca5ff",
    "m.model": "b013c6eb81a70456afa972f79d63d6367b9dd6e17119e786daa79af80b4756b6",
}


def test_golden_artifact_digests(tmp_path):
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    log, model = tmp_path / "d.jsonl", tmp_path / "m.model"
    argv = ["collect", "--scenario", str(scenario), "--episodes", "120", "--seed", "7", "--out", str(log)]
    assert main(argv) == EXIT_OK
    assert main(["build-sim", "--data", str(log), "--out", str(model)]) == EXIT_OK
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (log, manifest_path(log), model)
    }
    assert digests == GOLDEN

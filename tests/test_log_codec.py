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


# sha256 of the training and report outputs built on that desk5 model: a
# Q-learning and a small DQN policy with their learning curves, a world
# evaluation and a sim-paired transfer report.  Any change to a sampled
# stream (environment, exploration, replay) changes at least one of them.
GOLDEN_OUTPUTS = {
    "q.policy": "2124fcb4fd9fef75e8a208a8c76f9aedbdc7763aa4b29b4e2c3d12f7dd737907",
    "q.policy.curve.csv": "c4d5fc4b59b07f4449b65b3602dc006b9b7606890d3ba3d7cdf4c74cdc2607b9",
    "dqn.policy": "9fa6c3bae3bbe2497fc71d10c3f15ea871c655ea8f4ffb4eb7ac3932ab9ec062",
    "dqn.policy.curve.csv": "ed12e94f8891c873eef0f48d1e7ec8105519c22da5bd193d0446d6032688d958",
    "eval.json": "ede59e46371317dab64d1c5b36cd51b2bfb708c80e4621f9113be7a6f9c7e594",
    "eval.json.csv": "4d52f4bb756f9fc8b620e644374fbee77f7c3e53937985251cbb827c9547b718",
    "transfer.json": "1dc31360aa0ca63026a1c464ebc519f8e84b1daf4f4192ba9bce615f3dab7e44",
    "transfer.json.csv": "b0d19d26d5e74a111db037ff80c305840c477fe871afacabb343852af96de4af",
}


def test_golden_training_and_report_digests(tmp_path):
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    log, model = tmp_path / "d.jsonl", tmp_path / "m.model"
    q, dqn = tmp_path / "q.policy", tmp_path / "dqn.policy"
    ev, tr = tmp_path / "eval.json", tmp_path / "transfer.json"
    commands = [
        ["collect", "--scenario", str(scenario), "--episodes", "120", "--seed", "7", "--out", str(log)],
        ["build-sim", "--data", str(log), "--out", str(model)],
        ["train", "--env", f"sim:{model}", "--episodes", "300", "--seed", "3", "--out", str(q)],
        ["train", "--env", f"sim:{model}", "--algo", "dqn", "--hidden", "16", "--episodes", "20",
         "--seed", "3", "--out", str(dqn)],
        ["eval", "--env", f"world:{scenario}", "--policy", str(q), "--episodes", "20", "--seed", "5",
         "--out", str(ev)],
        ["transfer", "--policy", str(q), "--scenario", str(scenario), "--model", str(model),
         "--episodes", "30", "--seed", "5", "--out", str(tr)],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    outputs = (q, dqn, ev, tr)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for out in outputs
        for path in (out, out.with_name(out.name + (".curve.csv" if out in (q, dqn) else ".csv")))
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

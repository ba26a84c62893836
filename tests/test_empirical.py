"""Empirical model: exact counting, normalisation, merging, sampling, persistence."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from redsim import artifacts, collect, empirical, presets, world
from redsim.artifacts import ArtifactChecksumError, ArtifactVersionError
from redsim.cli import EXIT_DATA, main
from redsim.collect import TransitionRecord
from redsim.empirical import (
    AmbiguousStartError,
    EmpiricalModel,
    EmpiricalSim,
    ModelError,
    NoDataError,
    SimConfig,
    build_model,
    merge_models,
    model_stats,
)
from redsim.envapi import GameConfig


O, A, B = (0, 0), (1, 0), (1, 1)


def test_counts_normalise_exactly():
    records = [
        TransitionRecord(e, 0, O, 0, nxt, 0.0, True, True)
        for e, nxt in enumerate((A, A, A, B))
    ]
    model = build_model(records, obs_dim=2, action_count=1)
    assert model.transition_prob(O, 0, A) == 0.75
    assert model.transition_prob(O, 0, B) == 0.25
    assert model.distribution(O, 0) == {A: 0.75, B: 0.25}


def test_single_record_probability_one():
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=1
    )
    assert model.transition_prob(O, 0, A) == 1.0
    assert model.pair_support == 1


def test_unobserved_next_probability_zero():
    records = [
        TransitionRecord(e, 0, O, 0, nxt, 0.0, True, True)
        for e, nxt in enumerate((A, A, A, B))
    ]
    model = build_model(records, obs_dim=2, action_count=1)
    assert model.transition_prob(O, 0, (0, 1)) == 0.0


def test_missing_pair_raises_no_data():
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=2
    )
    with pytest.raises(NoDataError):
        model.transition_prob(A, 0, O)
    with pytest.raises(NoDataError):
        model.distribution(O, 1)


def test_distributions_sum_to_one_rationally(desk5_model):
    for (obs, action), outcomes in desk5_model.counts.items():
        total = sum(outcomes.values())
        assert sum(Fraction(c, total) for c in outcomes.values()) == 1
        float_sum = sum(desk5_model.distribution(obs, action).values())
        assert abs(float_sum - 1.0) <= 1e-12


def test_empty_dataset_rejected():
    with pytest.raises(ModelError):
        build_model([], obs_dim=2, action_count=1)


def test_ambiguous_start_rejected():
    records = [
        TransitionRecord(0, 0, O, 0, A, 0.0, True, True),
        TransitionRecord(1, 0, B, 0, A, 0.0, True, True),
    ]
    with pytest.raises(AmbiguousStartError):
        build_model(records, obs_dim=2, action_count=1)


def test_merge_identity_and_commutativity(desk5, desk5_model):
    empty = EmpiricalModel(
        desk5_model.obs_dim,
        desk5_model.action_count,
        desk5_model.fingerprint,
        x0=None,
    )
    assert merge_models(desk5_model, empty) == desk5_model
    assert merge_models(empty, desk5_model) == desk5_model

    half = len(desk5_model.counts) // 2
    keys = list(desk5_model.counts)
    m1 = EmpiricalModel(desk5_model.obs_dim, desk5_model.action_count, desk5_model.fingerprint, desk5_model.x0)
    m2 = EmpiricalModel(desk5_model.obs_dim, desk5_model.action_count, desk5_model.fingerprint, desk5_model.x0)
    for i, key in enumerate(keys):
        target = m1 if i < half else m2
        for next_obs, count in desk5_model.counts[key].items():
            target.record(key[0], key[1], next_obs, count)
    assert merge_models(m1, m2) == merge_models(m2, m1) == desk5_model


def test_merge_associative_random_splits(desk5, desk5_dataset):
    rng = np.random.default_rng(17)
    records = desk5_dataset.records[:30_000]
    dims = dict(
        obs_dim=desk5.obs_dim,
        action_count=len(desk5.actions),
        fingerprint=desk5.fingerprint,
    )
    cut1, cut2 = sorted(rng.integers(1, len(records) - 1, size=2))
    if cut1 == cut2:
        cut2 += 1
    m1 = build_model(records[:cut1] or records[:1], **dims)
    m2 = build_model(records[cut1:cut2] or records[:1], **dims)
    m3 = build_model(records[cut2:], **dims)
    left = merge_models(merge_models(m1, m2), m3)
    right = merge_models(m1, merge_models(m2, m3))
    whole = build_model(records, **dims)
    assert left == right == whole


def test_merge_rejects_mismatched_models(desk5_model, mesh):
    other = EmpiricalModel(mesh.obs_dim, len(mesh.actions), mesh.fingerprint)
    with pytest.raises(empirical.IncompatibleModelError):
        merge_models(desk5_model, other)


def test_split_halves_merge_to_whole_log_model(desk5, desk5_dataset):
    records = desk5_dataset.records[:10_000]
    dims = dict(
        obs_dim=desk5.obs_dim,
        action_count=len(desk5.actions),
        fingerprint=desk5.fingerprint,
    )
    half = len(records) // 2
    merged = merge_models(build_model(records[:half], **dims), build_model(records[half:], **dims))
    assert merged == build_model(records, **dims)


def test_sim_sampling_matches_counts_with_binomial_oracle():
    records = [
        TransitionRecord(e, 0, O, 0, nxt, 0.0, True, True)
        for e, nxt in enumerate((A, A, A, B))
    ]
    model = build_model(records, obs_dim=2, action_count=1)
    config = SimConfig(
        game=GameConfig(max_steps=1, goal_index=0),
        flag_worths=(0.0, 0.0),
        action_costs=(1.0,),
    )
    sim = EmpiricalSim(model, config, seed=1234)
    n = 100_000
    hits = 0
    for ep in range(n):
        sim.reset(seed=1234) if ep == 0 else sim.reset()
        if sim.step(0).observation == A:
            hits += 1
    freq = hits / n

    # oracle: exact binomial mass of the asserted acceptance band
    def log_pmf(k):
        return (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * math.log(0.75)
            + (n - k) * math.log(0.25)
        )

    lo, hi = math.ceil(0.745 * n), math.floor(0.755 * n)
    band_mass = math.fsum(math.exp(log_pmf(k)) for k in range(lo, hi + 1))
    assert band_mass > 0.999  # the band is a >=99.9% event, so the seeded draw is sound
    assert 0.745 <= freq <= 0.755


def test_sim_unseen_pair_self_transition_fallback():
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=2
    )
    config = SimConfig(
        game=GameConfig(max_steps=5, goal_index=1),
        flag_worths=(0.0, 0.0),
        action_costs=(1.0, 2.5),
    )
    sim = EmpiricalSim(model, config, seed=0)
    obs = sim.reset(seed=0)
    res = sim.step(1)  # action 1 never observed
    assert res.observation == obs
    assert res.reward == -2.5
    assert res.done is False
    assert res.info["action_success"] is False


def test_sim_unseen_pair_reject_mode():
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=2
    )
    config = SimConfig(
        game=GameConfig(max_steps=5, goal_index=1),
        flag_worths=(0.0, 0.0),
        action_costs=(1.0, 1.0),
        fallback=empirical.FALLBACK_REJECT,
    )
    sim = EmpiricalSim(model, config, seed=0)
    sim.reset(seed=0)
    with pytest.raises(NoDataError):
        sim.step(1)


def test_model_round_trip(tmp_path, desk5_model):
    path = tmp_path / "m.model"
    empirical.save_model(desk5_model, path)
    loaded = empirical.load_model(path)
    assert loaded == desk5_model
    assert loaded.metadata == desk5_model.metadata


def test_model_version_mismatch(tmp_path, desk5_model):
    path = tmp_path / "m.model"
    empirical.save_model(desk5_model, path)
    text = path.read_text().replace("redsim-model-v1", "redsim-model-v9")
    path.write_text(text)
    with pytest.raises(ArtifactVersionError):
        empirical.load_model(path)


def test_truncated_model_fails_checksum(tmp_path, desk5_model):
    path = tmp_path / "m.model"
    empirical.save_model(desk5_model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ArtifactChecksumError):
        empirical.load_model(path)


def test_tampered_payload_fails_checksum(tmp_path, desk5_model):
    path = tmp_path / "m.model"
    empirical.save_model(desk5_model, path)
    text = path.read_text()
    assert '"obs_dim":16' in text
    path.write_text(text.replace('"obs_dim":16', '"obs_dim":17'))
    with pytest.raises(ArtifactChecksumError):
        empirical.load_model(path)


def test_model_stats_single_record():
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=1
    )
    stats = model_stats(model)
    assert stats["pair_support"] == 1
    assert stats["observations_seen"] in (1, 2)
    assert stats["total_transitions"] == 1


def test_model_stats_agree_with_log_validation(desk5_model, desk5_dataset):
    stats = model_stats(desk5_model)
    report = collect.validate_log(desk5_dataset.log_path)
    assert stats["total_transitions"] == report.total_steps
    assert stats["pair_support"] == report.visited_pairs
    assert stats["observations_seen"] == report.unique_observations


def test_scale_dataset_supports_most_reachable_pairs(desk5, desk5_model):
    # oracle: reachable-space enumeration plus the recounted visit totals
    sources = [
        o for o in world.reachable_observations(desk5) if o[desk5.objective_flag] != 1
    ]
    reachable_pairs = [(obs, a.id) for obs in sources for a in desk5.actions]
    well_visited = 0
    for obs, action in reachable_pairs:
        if desk5_model.has_pair(obs, action):
            if sum(desk5_model.outcome_counts(obs, action).values()) >= 200:
                well_visited += 1
    assert well_visited / len(reachable_pairs) >= 0.95


def test_generator_is_scenario_agnostic(desk5, mesh):
    # identical code path for structurally different scenarios
    models = {}
    for scenario in (desk5, mesh):
        env = world.AttackWorld(scenario, seed=21)
        result = collect.run_collection(
            env, collect.uniform_random_policy(env.action_count), 40, 21
        )
        models[scenario.name] = build_model(
            result.records,
            obs_dim=scenario.obs_dim,
            action_count=len(scenario.actions),
            fingerprint=scenario.fingerprint,
        )
    assert models["desk5-chain"].obs_dim == 16
    assert models["desk6-mesh"].obs_dim == 19
    for scenario in (desk5, mesh):
        model = models[scenario.name]
        assert model.x0 == scenario.initial_observation()
        assert model.pair_support > 0


def _edit_payload(payload, edit):
    doc = json.loads(json.dumps(payload))
    edit(doc)
    return doc


def _first_outcomes(doc):
    row = next(iter(doc["counts"].values()))
    return next(iter(row.values()))


def _set_first_count(value):
    def edit(doc):
        outcomes = _first_outcomes(doc)
        outcomes[next(iter(outcomes))] = value
    return edit


def _add_action(action_str):
    def edit(doc):
        row = next(iter(doc["counts"].values()))
        row[action_str] = dict(next(iter(row.values())))
    return edit


def _action_99(doc):
    _rename_first_key(next(iter(doc["counts"].values())), lambda key: "99")


def _rename_first_key(table, rename):
    key = next(iter(table))
    table[rename(key)] = table.pop(key)


def _long_next_obs(doc):
    _rename_first_key(_first_outcomes(doc), lambda key: key + "00")


def _short_obs(doc):
    _rename_first_key(doc["counts"], lambda key: key[:-2])


@pytest.mark.parametrize(
    "edit",
    [
        _action_99,
        _add_action("-1"),
        _long_next_obs,
        _short_obs,
        lambda doc: doc.update(x0=doc["x0"] + [0]),
        _set_first_count(-4),
        _set_first_count(0),
        _set_first_count(2.5),
        _set_first_count("3"),
        _set_first_count(True),
        lambda doc: doc.update(obs_dim=0),
        lambda doc: doc.update(action_count=0),
        lambda doc: next(iter(doc["counts"].values())).update({"0": {}}),
        _add_action("x"),
        lambda doc: doc["counts"].update({"zz": {"0": {}}}),
        lambda doc: doc.pop("obs_dim"),
    ],
    ids=["action-99", "action--1", "next-obs-17-bytes", "obs-15-bytes", "x0-17", "count--4", "count-0",
         "count-2.5", "count-str", "count-bool", "obs-dim-0", "action-count-0", "no-outcomes", "action-not-int",
         "obs-not-hex", "no-obs-dim"],
)
def test_out_of_range_model_payload_rejected(desk5_model, edit):
    payload = desk5_model.to_payload()
    assert EmpiricalModel.from_payload(payload) == desk5_model
    with pytest.raises(ModelError):
        EmpiricalModel.from_payload(_edit_payload(payload, edit))


def test_out_of_range_model_file_exits_data(tmp_path, desk5_model):
    scenario = tmp_path / "desk5.json"
    scenario.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    path = tmp_path / "m.model"
    artifacts.write_artifact(
        path, empirical.MODEL_FORMAT, _edit_payload(desk5_model.to_payload(), _set_first_count(-4))
    )
    for argv in (
        ["train", "--env", f"sim:{path}", "--episodes", "1", "--out", str(tmp_path / "p")],
        ["fidelity", "--model", str(path), "--scenario", str(scenario), "--out", str(tmp_path / "f")],
        ["stats", str(path)],
    ):
        assert main(argv) == EXIT_DATA, argv


def _action_99_on_line_1(lines):
    return [json.dumps({**json.loads(lines[0]), "action": 99})] + lines[1:]


def _broken_chain_on_line_2(lines):
    obj = json.loads(lines[1])
    assert obj["step"] == 1
    obj["obs"] = [1] * len(obj["obs"])
    return lines[:1] + [json.dumps(obj)] + lines[2:]


@pytest.mark.parametrize("edit", [_action_99_on_line_1, _broken_chain_on_line_2])
def test_library_log_path_audits_like_build_sim(tmp_path, capsys, edit):
    """``build_model_from_log`` rejects what ``build-sim`` rejects, with the same message."""
    env = world.AttackWorld(world.parse_scenario(presets.chain_scenario()), seed=3)
    data = tmp_path / "d.jsonl"
    collect.run_collection(env, collect.uniform_random_policy(env.action_count), 5, 3, out_path=data)
    lines = edit(data.read_text().splitlines())
    data.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(collect.LogValidationError) as excinfo:
        empirical.build_model_from_log(data)
    capsys.readouterr()
    assert main(["build-sim", "--data", str(data), "--out", str(tmp_path / "m")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: invalid-log: {excinfo.value}\n"


# --- properties of the tuple-keyed count tables -------------------------------

_DIMS = dict(obs_dim=3, action_count=4, fingerprint="toy")
_observations = st.tuples(*[st.integers(0, 3) | st.integers(0, 255)] * 3)


@st.composite
def _record_lists(draw):
    """Non-empty records on 3-value observations; a step-0 record, if any, starts from (0, 0, 0)."""
    steps = draw(st.lists(st.tuples(_observations, st.integers(0, 3), _observations), min_size=1, max_size=30))
    records = [TransitionRecord(0, 1, obs, a, nxt, 0.0, False, True) for obs, a, nxt in steps]
    if draw(st.booleans()):
        records.append(TransitionRecord(0, 0, (0, 0, 0), draw(st.integers(0, 3)), draw(_observations), 0.0, False, True))
    return records


_models = _record_lists().map(lambda records: build_model(records, **_DIMS))


@given(_models)
def test_payload_round_trip_property(model):
    payload = json.loads(artifacts.canonical_json(model.to_payload()))
    back = EmpiricalModel.from_payload(payload)
    assert back == model
    assert artifacts.canonical_json(back.to_payload()) == artifacts.canonical_json(model.to_payload())


@given(_models, _models, _models)
def test_merge_is_a_commutative_monoid(a, b, c):
    empty = EmpiricalModel(**_DIMS)
    assert merge_models(a, empty) == merge_models(empty, a) == a
    assert merge_models(a, b) == merge_models(b, a)
    assert merge_models(merge_models(a, b), c) == merge_models(a, merge_models(b, c))


@given(_record_lists(), _observations)
def test_observations_are_the_recorded_ones_plus_x0(records, x0):
    model = EmpiricalModel(**_DIMS, x0=x0)
    for rec in records:
        model.record(rec.obs, rec.action, rec.next_obs)
    expected = {rec.obs for rec in records} | {rec.next_obs for rec in records} | {x0}
    assert model.observations() == expected
    assert len(EmpiricalModel.from_payload(model.to_payload()).observations()) == len(expected)
    assert model_stats(model)["observations_seen"] == len(expected)


@given(st.lists(_observations, max_size=20))
def test_observation_tuples_sort_as_their_bytes(observations):
    """Why tuple keys keep the byte order of the outcomes the sim samples from."""
    assert sorted(observations) == [tuple(raw) for raw in sorted(bytes(o) for o in observations)]

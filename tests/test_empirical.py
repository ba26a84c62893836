"""Empirical model: exact counting, normalisation, merging, sampling, persistence."""

import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import agents, artifacts, collect, empirical, presets, world
from redsim.artifacts import ArtifactChecksumError, ArtifactVersionError
from redsim.cli import EXIT_DATA, EXIT_OK, main
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
from redsim.envapi import GameConfig, derive_seed

from conftest import count_transitions, table_distribution


O, A, B = (0, 0), (1, 0), (1, 1)


def test_counts_normalise_exactly():
    records = [
        TransitionRecord(e, 0, O, 0, nxt, 0.0, True, True)
        for e, nxt in enumerate((A, A, A, B))
    ]
    model = build_model(records, obs_dim=2, action_count=1)
    assert table_distribution(model, O, 0) == {A: 0.75, B: 0.25}


def test_single_record_probability_one():
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=1
    )
    assert table_distribution(model, O, 0) == {A: 1.0}
    assert model.pair_support == 1


def test_unobserved_next_probability_zero():
    records = [
        TransitionRecord(e, 0, O, 0, nxt, 0.0, True, True)
        for e, nxt in enumerate((A, A, A, B))
    ]
    model = build_model(records, obs_dim=2, action_count=1)
    assert (0, 1) not in table_distribution(model, O, 0)  # only observed outcomes have entries


def test_missing_pair_is_one_self_fallback_entry():
    """An unseen pair has no visits; its row is one entry back to its own state, with probability 1."""
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=2
    )
    table = model.table
    for obs, action in ((A, 0), (O, 1)):
        row = table.index[obs] * 2 + action
        assert table.visits[row] == 0
        assert table_distribution(model, obs, action) == {obs: 1.0}
        assert table.row_start[row] in table.fallback


def test_distributions_sum_to_one_rationally(desk5_model):
    for (obs, action), outcomes in desk5_model.counts.items():
        total = sum(outcomes.values())
        assert sum(Fraction(c, total) for c in outcomes.values()) == 1
        float_sum = sum(table_distribution(desk5_model, obs, action).values())
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

    pairs, cut = list(desk5_model.counts.items()), desk5_model.pair_support // 2
    m1, m2 = (dataclasses.replace(desk5_model, counts=dict(half)) for half in (pairs[:cut], pairs[cut:]))
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


def test_merged_model_keeps_only_the_reward_and_game_of_its_first_source(desk5, tmp_path, capsys):
    """A merge drops its sources' provenance, so ``stats`` reads no seed, as for a merged log."""
    models = []
    for seed in (1, 2):
        log = tmp_path / f"{seed}.jsonl"
        env = world.AttackWorld(desk5, seed=seed)
        collect.run_collection(env, collect.uniform_random_policy(env.action_count), 20, seed, out_path=log)
        models.append(empirical.build_model_from_log(log))
    a, b = models
    empty = EmpiricalModel(a.obs_dim, a.action_count, a.fingerprint)
    merged = merge_models(a, b)
    assert merged.total_transitions == a.total_transitions + b.total_transitions
    assert merged.metadata == {"reward": a.metadata["reward"], "game": a.metadata["game"]}
    assert merge_models(empty, b).metadata == {"reward": b.metadata["reward"], "game": b.metadata["game"]}
    assert merge_models(empty, empty).metadata == {}
    path = tmp_path / "merged.model"
    empirical.save_model(merged, path)
    assert empirical.load_model(path).metadata == merged.metadata
    capsys.readouterr()
    assert main(["stats", str(path)]) == EXIT_OK
    assert " seed=None " in capsys.readouterr().out


def test_merge_rejects_a_pair_whose_counts_sum_past_2_53():
    """``load_model`` would reject such a model, so ``merge_models`` does not build it."""
    half = EmpiricalModel(2, 1, x0=O, counts={(O, 0): {A: 2**52}})
    assert merge_models(half, dataclasses.replace(half, counts={(O, 0): {B: 2**52}})).table.visits.tolist()[0] == 2**53
    with pytest.raises(ModelError, match=r"sum past 2\*\*53"):
        merge_models(half, dataclasses.replace(half, counts={(O, 0): {B: 2**52 + 1}}))


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


class _FixedDraw:
    """Stands in for the sim's per-episode Draws: ``integers(total)`` returns one chosen value."""

    def __init__(self, value: int, total: int):
        self.value, self.total = value, total

    def integers(self, high):
        assert high == self.total
        return self.value


def _check_draw_mapping(counts: dict):
    """Every draw value ``0..total-1`` once: outcome k comes out count_k times, in sorted-observation order."""
    model = EmpiricalModel(obs_dim=2, action_count=1, x0=O, counts={(O, 0): dict(counts)})
    config = SimConfig(game=GameConfig(max_steps=1), flag_worths=(0.0, 0.0), action_costs=(1.0,))
    sim = EmpiricalSim(model, config, seed=0)
    total = sum(counts.values())
    outcomes = []
    for value in range(total):
        sim.reset()
        sim._rng = _FixedDraw(value, total)
        outcomes.append(sim.step(0).observation)
    assert outcomes == [obs for obs, count in sorted(counts.items()) for _ in range(count)]


@pytest.mark.parametrize(
    "counts", [{A: 1}, {A: 3, B: 1}, {B: 2, O: 1, A: 5}, {(9, 9): 4, (0, 200): 1, (0, 2): 2}]
)
def test_sim_draw_mapping_is_exact(counts):
    _check_draw_mapping(counts)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 255), st.integers(0, 255)), st.integers(1, 6), min_size=1, max_size=6
    )
)
def test_sim_draw_mapping_is_exact_property(counts):
    _check_draw_mapping(counts)


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
    assert res.action_success is False


def test_sim_fallback_step_draws_nothing_and_reject_rows_stay_empty():
    model = build_model(
        [TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=2
    )
    config = SimConfig(
        game=GameConfig(max_steps=5, goal_index=1),
        flag_worths=(0.0, 0.0),
        action_costs=(1.0, 2.5),
    )
    sim = EmpiricalSim(model, config, seed=0)
    sim.reset(seed=0)
    assert sim.step(1).reward == -2.5  # action 1 never observed
    # the episode's stream is untouched: its next draw is a fresh stream's first
    assert sim._rng.random() == np.random.default_rng(derive_seed(0, 0)).random()
    # rows in (observation, action) order over the sorted observations O, A
    assert np.diff(empirical.compile_model(model, config).row_start).tolist() == [1, 1, 1, 1]
    reject = SimConfig(config.game, config.flag_worths, config.action_costs, fallback=empirical.FALLBACK_REJECT)
    assert np.diff(empirical.compile_model(model, reject).row_start).tolist() == [1, 0, 0, 0]


def _fitting_pair():
    """A model on 2-value observations with 2 actions, and a config that fits it."""
    model = build_model([TransitionRecord(0, 0, O, 0, A, 0.0, True, True)], obs_dim=2, action_count=2)
    return model, SimConfig(GameConfig(max_steps=5, goal_index=1), (0.0, 0.0), (1.0, 1.0))


_MISFITS = {
    "costs-short": lambda model, config: (model, SimConfig(config.game, config.flag_worths, (1.0,))),
    "worths-short": lambda model, config: (model, SimConfig(config.game, (0.0,), config.action_costs)),
    "goal-index-99": lambda model, config: (
        model, SimConfig(GameConfig(max_steps=5, goal_index=99), config.flag_worths, config.action_costs)
    ),
    "goal-index--3": lambda model, config: (
        model, SimConfig(GameConfig(max_steps=5, goal_index=-3), config.flag_worths, config.action_costs)
    ),
    "no-x0": lambda model, config: (_without_x0(model), config),
}


def _without_x0(model):
    return dataclasses.replace(model, x0=None)


@pytest.mark.parametrize("use", [EmpiricalSim, agents.value_iteration_model], ids=["sim", "value-iteration"])
@pytest.mark.parametrize("misfit", list(_MISFITS.values()), ids=list(_MISFITS))
def test_a_config_that_does_not_fit_its_model_raises_model_error(use, misfit):
    model, config = _fitting_pair()
    use(model, config)  # the fitting pair works
    with pytest.raises(ModelError):
        use(*misfit(model, config))


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
            if sum(desk5_model.counts[obs, action].values()) >= 200:
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


def _rename_first_action(rename):
    return lambda doc: _rename_first_key(next(iter(doc["counts"].values())), rename)


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
        lambda doc: doc.update(fingerprint=5),
        lambda doc: doc.pop("fingerprint"),
        lambda doc: doc.update(obs_dim=str(doc["obs_dim"])),
        lambda doc: doc.update(obs_dim=float(doc["obs_dim"])),
        lambda doc: doc.update(action_count=doc["action_count"] + 0.9),
        _rename_first_action(lambda key: " " + key),
        _rename_first_action(lambda key: "0_" + key),
        _rename_first_action(lambda key: "+" + key),
        _rename_first_action(lambda key: "0" + key),
        lambda doc: doc["counts"].update({" " + key: row for key, row in doc["counts"].items()}),
    ],
    ids=["action-99", "action--1", "next-obs-17-bytes", "obs-15-bytes", "x0-17", "count--4", "count-0",
         "count-2.5", "count-str", "count-bool", "obs-dim-0", "action-count-0", "no-outcomes", "action-not-int",
         "obs-not-hex", "no-obs-dim", "fingerprint-int", "no-fingerprint", "obs-dim-str", "obs-dim-float",
         "action-count-fraction", "action-space", "action-underscore", "action-plus", "action-leading-zero",
         "obs-two-spellings"],
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


def test_mistyped_model_fingerprint_stats_exits_data(tmp_path, desk5_model):
    """``stats`` prints a model's fingerprint; one that is not a string exits 5, not 1."""
    path = tmp_path / "m.model"
    payload = desk5_model.to_payload()
    payload["fingerprint"] = 5
    artifacts.write_artifact(path, empirical.MODEL_FORMAT, payload)
    assert main(["stats", str(path)]) == EXIT_DATA


@pytest.mark.parametrize(
    "metadata",
    [lambda meta: sorted(meta.items()), lambda meta: "", lambda meta: 0, lambda meta: [], lambda meta: None],
    ids=["list-of-pairs", "empty-str", "zero", "empty-list", "null"],
)
def test_model_metadata_that_is_not_an_object_exits_data(tmp_path, desk5_model, metadata):
    """A model's ``metadata`` is read as it was written, not coerced into a dict."""
    payload = desk5_model.to_payload()
    payload["metadata"] = metadata(payload["metadata"])
    with pytest.raises(ModelError, match="metadata"):
        EmpiricalModel.from_payload(payload)
    path = tmp_path / "m.model"
    artifacts.write_artifact(path, empirical.MODEL_FORMAT, payload)
    assert main(["stats", str(path)]) == EXIT_DATA


def test_a_model_payload_without_metadata_loads_empty_metadata():
    payload = empirical.build_model([TransitionRecord(0, 0, (0,), 0, (1,), 0.0, True, True)], 1, 1).to_payload()
    del payload["metadata"]
    assert EmpiricalModel.from_payload(payload).metadata == {}


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


_RESPELLINGS = (str.upper, lambda key: " " + key, lambda key: key[:2] + " " + key[2:])


@settings(deadline=None)
@given(_models, st.data())
def test_an_observation_key_has_one_spelling(tmp_path_factory, model, data):
    """A payload reads back as the model that wrote it; any other spelling of one of its observation keys exits 5."""
    payload = json.loads(artifacts.canonical_json(model.to_payload()))
    assert EmpiricalModel.from_payload(payload) == model
    counts = payload["counts"]
    keys = [(counts, obs_hex) for obs_hex in counts] + [
        (outcomes, next_hex) for row in counts.values() for outcomes in row.values() for next_hex in outcomes
    ]
    table, key = data.draw(st.sampled_from(keys))
    respell = data.draw(st.sampled_from([respell for respell in _RESPELLINGS if respell(key) != key]))
    table[respell(key)] = table.pop(key)
    with pytest.raises(ModelError, match="lower-case hex"):
        EmpiricalModel.from_payload(payload)
    path = tmp_path_factory.mktemp("model") / "m.model"
    artifacts.write_artifact(path, empirical.MODEL_FORMAT, payload)
    assert main(["stats", str(path)]) == EXIT_DATA


@given(_models, _models, _models)
def test_merge_is_a_commutative_monoid(a, b, c):
    empty = EmpiricalModel(**_DIMS)
    assert merge_models(a, empty) == merge_models(empty, a) == a
    assert merge_models(a, b) == merge_models(b, a)
    assert merge_models(merge_models(a, b), c) == merge_models(a, merge_models(b, c))


@given(_record_lists(), _observations)
def test_observations_are_the_recorded_ones_plus_x0(records, x0):
    counts = count_transitions((rec.obs, rec.action, rec.next_obs, 1) for rec in records)
    model = EmpiricalModel(**_DIMS, x0=x0, counts=counts)
    expected = {rec.obs for rec in records} | {rec.next_obs for rec in records} | {x0}
    assert model.observations() == expected
    assert len(EmpiricalModel.from_payload(model.to_payload()).observations()) == len(expected)
    assert model_stats(model)["observations_seen"] == len(expected)


@given(st.lists(_observations, max_size=20))
def test_observation_tuples_sort_as_their_bytes(observations):
    """Why tuple keys keep the byte order of the outcomes the sim samples from."""
    assert sorted(observations) == [tuple(raw) for raw in sorted(bytes(o) for o in observations)]


@given(_record_lists())
def test_audit_counts_are_the_models_counts(records):
    """The audit's one pass tallies what an independent recount finds, and the model keeps that table."""
    report = collect.audit_records(records, None, None)
    tallied = Counter()
    for (obs, action), outcomes in report.counts.items():
        for next_obs, n in outcomes.items():
            tallied[obs, action, next_obs] += n
    assert tallied == Counter((rec.obs, rec.action, rec.next_obs) for rec in records)
    assert report.visited_pairs == len({(rec.obs, rec.action) for rec in records})
    assert report.unique_observations == len({rec.obs for rec in records} | {rec.next_obs for rec in records})
    model = build_model(iter(records), **_DIMS)
    assert model.counts == report.counts
    assert model.x0 == ((0, 0, 0) if any(rec.step == 0 for rec in records) else None)


def test_build_model_from_log_counts_in_the_audits_pass(desk5_dataset, monkeypatch):
    audits = []
    audit_records = collect.audit_records

    def counting_audit(records, log_path, manifest):
        audits.append(log_path)
        return audit_records(records, log_path, manifest)

    monkeypatch.setattr(collect, "audit_records", counting_audit)
    model = empirical.build_model_from_log(desk5_dataset.log_path)
    assert audits == [desk5_dataset.log_path]
    assert model.total_transitions == desk5_dataset.manifest["total_steps"]
    stats = model_stats(model)
    assert model.metadata["build_stats"] == {
        k: stats[k] for k in ("pair_support", "total_transitions", "observations_seen")
    }

"""Ground-truth world: scenario validation, exact transition oracle, probabilities."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import presets, world
from redsim.cli import EXIT_SCENARIO, main
from redsim.envapi import compute_reward
from redsim.world import (
    DanglingReferenceError,
    ScenarioError,
    ScenarioParseError,
    UnreachableObjectiveError,
    exact_transition,
)


def test_auto_actions_generates_standard_set():
    doc = presets.chain_scenario()
    doc.pop("actions")
    doc["auto_actions"] = True
    scenario = world.parse_scenario(doc)
    assert len(scenario.actions) == 3 * 5 + 1
    kinds = [a.kind for a in scenario.actions]
    assert kinds.count("scan") == 5
    assert kinds.count("exploit_user") == 5
    assert kinds.count("escalate_root") == 5
    assert kinds.count("objective") == 1
    assert [a.id for a in scenario.actions] == list(range(16))


def test_disconnected_objective_rejected():
    doc = presets.chain_scenario()
    # cut the chain between h2 and h3
    for host in doc["hosts"]:
        host["neighbors"] = [n for n in host["neighbors"] if {host["id"], n} != {"h2", "h3"}]
    with pytest.raises(UnreachableObjectiveError):
        world.parse_scenario(doc)


def test_dangling_neighbor_rejected():
    doc = presets.chain_scenario()
    doc["hosts"][0]["neighbors"].append("h9")
    with pytest.raises(DanglingReferenceError):
        world.parse_scenario(doc)


def test_parse_error_on_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"hosts": [', encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        world.load_scenario(path)


def test_parse_error_on_bad_values():
    doc = presets.chain_scenario()
    doc["actions"][0]["success_prob"] = 1.5
    with pytest.raises(ScenarioParseError):
        world.parse_scenario(doc)
    doc = presets.chain_scenario()
    doc["actions"][0]["cost"] = 0.0
    with pytest.raises(ScenarioParseError):
        world.parse_scenario(doc)


def _worth_x(doc):
    doc["hosts"][1]["worth"] = "x"


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {"hosts": 5},
        _worth_x,
        lambda doc: doc.update(reward=[]),
        lambda doc: doc.update(game={"max_steps": "many"}),
        lambda doc: doc["hosts"].append(7),
        lambda doc: doc["actions"][0].update(success_prob=None),
        lambda doc: doc["game"].update(max_steps=float("inf")),
        lambda doc: doc["hosts"][1].update(worth="3"),
        lambda doc: doc["actions"][0].update(success_prob="0.5"),
        lambda doc: doc.update(noise=False),
        lambda doc: doc.update(name=5),
        lambda doc: doc["game"].update(max_steps=80.7),
        lambda doc: doc["game"].update(max_steps=True),
        lambda doc: doc["hosts"][0].update(neighbors="h1"),
        lambda doc: doc["hosts"][1].update(worth=10**400),
    ],
    ids=["hosts-int", "worth-str", "reward-list", "max-steps-str", "host-int", "prob-null", "max-steps-inf",
         "worth-numeric-str", "prob-numeric-str", "noise-bool", "name-int", "max-steps-float", "max-steps-bool",
         "neighbors-str", "worth-400-digits"],
)
def test_wrongly_typed_scenario_exits_scenario(tmp_path, edit):
    doc = presets.chain_scenario()
    doc = edit(doc) or doc
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        world.load_scenario(path)
    assert main(["scenario-validate", "--scenario", str(path)]) == EXIT_SCENARIO


@pytest.mark.parametrize(
    "base, edit",
    [
        (presets.chain_scenario, lambda doc: doc["game"].update(max_step=5, gama=0.5)),
        (presets.chain_scenario, lambda doc: doc.update(nosie=0.1)),
        (presets.chain_scenario, lambda doc: doc["reward"].update(action_cst=2.0)),
        (presets.chain_scenario, lambda doc: doc["hosts"][1].update(wroth=3.0)),
        (presets.chain_scenario, lambda doc: doc["actions"][0].update(sucess_prob=0.5)),
        (presets.mesh_scenario, lambda doc: doc["action_defaults"]["exploit_user"].update(sucess_prob=0.1)),
        (presets.mesh_scenario, lambda doc: doc["action_defaults"].update(exploit_usr={"success_prob": 0.1})),
        (presets.mesh_scenario, lambda doc: doc["action_defaults"]["scan"].update(kind="objective")),
    ],
    ids=["game-misspelt", "top-level", "reward", "host", "action", "defaults-entry", "defaults-kind",
         "defaults-kind-key"],
)
def test_an_unknown_key_exits_scenario(tmp_path, base, edit):
    """A misspelt field must not silently take its default."""
    doc = base()
    edit(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioParseError, match="unknown key"):
        world.load_scenario(path)
    assert main(["scenario-validate", "--scenario", str(path)]) == EXIT_SCENARIO


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(action_defaults={"scan": {"success_prob": 0.1}}),
        lambda doc: doc.update(action_defaults={}),
        lambda doc: doc.update(action_defaults={"scan": {"cost": 2.0}}, auto_actions=False),
        lambda doc: doc.update(auto_actions=True),
    ],
    ids=["defaults", "empty-defaults", "defaults-auto-false", "auto-actions"],
)
def test_explicit_actions_beside_generated_ones_exit_scenario(tmp_path, edit):
    """``action_defaults`` and ``auto_actions`` shape generated actions only; beside an explicit list they do nothing."""
    doc = presets.chain_scenario()
    edit(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioParseError, match="explicit action list"):
        world.load_scenario(path)
    assert main(["scenario-validate", "--scenario", str(path)]) == EXIT_SCENARIO


def _object_paths(node, path=()):
    """The path of every JSON object in a document."""
    if isinstance(node, list):
        return [found for i, child in enumerate(node) for found in _object_paths(child, (*path, i))]
    if not isinstance(node, dict):
        return []
    return [path, *(found for key, child in node.items() for found in _object_paths(child, (*path, key)))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_object_of_a_scenario_rejects_a_key_it_does_not_define(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_BASES)))
    node = doc
    for step in data.draw(st.sampled_from(_object_paths(doc))):
        node = node[step]
    node["x-" + data.draw(st.text(max_size=4))] = data.draw(st.sampled_from([0.5, 1, "h0", {}]))
    with pytest.raises(ScenarioParseError, match="unknown key"):
        world.parse_scenario(doc)


def test_an_int_too_long_to_read_exits_scenario(tmp_path):
    """Python refuses to read an int of more than 4,300 digits; that is a bad scenario, not an unexpected error."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(presets.chain_scenario()).replace('"worth": 0.0', '"worth": ' + "9" * 5000, 1))
    with pytest.raises(ScenarioParseError):
        world.load_scenario(path)
    assert main(["scenario-validate", "--scenario", str(path)]) == EXIT_SCENARIO


def _set_reward(field, value):
    def edit(doc):
        doc["reward"][field] = value
    return edit


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["hosts"][1].update(worth=_NAN),
        lambda doc: doc["hosts"][1].update(worth=_INF),
        _set_reward("user_worth", _NAN),
        _set_reward("root_worth", _INF),
        _set_reward("objective_bonus", _INF),
        _set_reward("action_cost", _NAN),
        _set_reward("action_cost", _INF),
        lambda doc: doc["actions"][0].update(cost=_NAN),
        lambda doc: doc["actions"][0].update(cost=_INF),
        lambda doc: doc.update(step_latency_ms=_NAN),
        lambda doc: doc.update(step_latency_ms=_INF),
        lambda doc: doc.update(step_latency_ms=-_INF),
        lambda doc: doc.update(step_latency_ms=-1.0),
    ],
    ids=["worth-nan", "worth-inf", "user-worth-nan", "root-worth-inf", "objective-bonus-inf", "action-cost-nan",
         "action-cost-inf", "cost-nan", "cost-inf", "latency-nan", "latency-inf", "latency--inf", "latency--1"],
)
def test_non_finite_scenario_value_exits_scenario(tmp_path, edit):
    """NaN and infinities are valid JSON to the parser, but mean nothing as worths, costs or latencies."""
    doc = presets.chain_scenario()
    edit(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        world.load_scenario(path)
    assert main(["scenario-validate", "--scenario", str(path)]) == EXIT_SCENARIO


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["h0", "h1", "vault", "scan", "objective", "q"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["id", "kind", "target", "worth", "neighbors"]) | st.text(max_size=4),
                      children, max_size=4),
    max_leaves=12,
)
_BASES = [presets.chain_scenario(n_hosts=n) for n in range(2, 7)] + [presets.mesh_scenario()]


@st.composite
def mutated_scenarios(draw):
    """A preset scenario of at most 6 hosts with a few values, found by random paths, replaced or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if draw(st.booleans()):
            parent[key] = draw(json_values)
        else:
            del parent[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, st.dictionaries(st.sampled_from(sorted(_BASES[0])), json_values), mutated_scenarios()))
def test_fuzzed_scenario_documents_raise_only_scenario_errors(doc):
    try:
        world.parse_scenario(doc)
    except ScenarioError:
        pass


def _number_paths(node, path=()):
    """The path of every JSON number (not bool) in a document."""
    if isinstance(node, dict):
        node = node.items()
    elif isinstance(node, list):
        node = enumerate(node)
    else:
        return [path] if node.__class__ in (int, float) else []
    return [found for key, child in node for found in _number_paths(child, (*path, key))]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_number_given_as_a_string_bool_or_null_is_rejected(data):
    """Every number a preset holds must be a JSON number: its string form, a bool or null raises ScenarioParseError."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_BASES)))
    *parents, key = data.draw(st.sampled_from(_number_paths(doc)))
    node = doc
    for step in parents:
        node = node[step]
    node[key] = data.draw(st.sampled_from([str(node[key]), True, False, None]))
    with pytest.raises(ScenarioParseError):
        world.parse_scenario(doc)


def test_transition_unmet_preconditions_is_noop(desk5):
    start = desk5.initial_observation()
    exploit_h3 = next(
        a for a in desk5.actions if a.kind == "exploit_user" and a.target == "h3"
    )
    packed = sum(v << i for i, v in enumerate(start))
    assert not all(packed & need for need in desk5.rules[exploit_h3.id].needs)
    assert exact_transition(desk5, start, exploit_h3) == [(start, 1.0)]


def test_a_repeated_neighbor_changes_no_rule(desk5):
    doc = presets.chain_scenario()
    for host in doc["hosts"]:
        host["neighbors"] = host["neighbors"] * 2
    assert world.parse_scenario(doc).rules == desk5.rules


def test_transition_probabilities_read_from_action_spec(desk5):
    doc = presets.chain_scenario(exploit_prob=0.6)
    scenario = world.parse_scenario(doc)
    start = list(scenario.initial_observation())
    start[3] = 1  # h1 discovered
    start = tuple(start)
    exploit_h1 = next(
        a for a in scenario.actions if a.kind == "exploit_user" and a.target == "h1"
    )
    outcomes = dict(exact_transition(scenario, start, exploit_h1))
    success = list(start)
    success[4] = 1
    assert outcomes[tuple(success)] == pytest.approx(0.6)
    assert outcomes[start] == pytest.approx(0.4)
    assert sum(outcomes.values()) == pytest.approx(1.0)


def test_scan_of_discovered_host_single_outcome(desk5):
    start = list(desk5.initial_observation())
    start[3] = 1  # h1 already discovered
    start = tuple(start)
    scan_h1 = next(a for a in desk5.actions if a.kind == "scan" and a.target == "h1")
    assert exact_transition(desk5, start, scan_h1) == [(start, 1.0)]


def test_outcome_probabilities_sum_to_one_everywhere(mesh):
    for obs in world.reachable_observations(mesh):
        if obs[mesh.objective_flag] == 1:
            continue
        for action in mesh.actions:
            probs = [p for _, p in exact_transition(mesh, obs, action)]
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0 for p in probs)


def test_sampled_frequencies_match_oracle_within_tv_bound(desk5):
    # 100k samples of one stochastic (state, action); TV to the exact law <= 0.02
    scenario = world.parse_scenario(presets.chain_scenario(exploit_prob=0.8))
    state = list(scenario.initial_observation())
    state[3] = 1
    state = tuple(state)
    exploit_h1 = next(
        a for a in scenario.actions if a.kind == "exploit_user" and a.target == "h1"
    )
    exact = dict(exact_transition(scenario, state, exploit_h1))
    env = world.AttackWorld(scenario, seed=77)
    env.reset(seed=77)
    counts = {}
    n = 100_000
    for _ in range(n):
        env.set_state(state)
        res = env.step(exploit_h1.id)
        counts[res.observation] = counts.get(res.observation, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(o, 0) / n - exact.get(o, 0.0)) for o in set(counts) | set(exact)
    )
    assert tv <= 0.02


def test_scan_step_reveals_host_and_pays_delta_worth(mesh):
    # mesh hosts carry discovery worth, so a successful scan nets worth - cost
    env = world.AttackWorld(mesh, seed=8)
    obs = env.reset(seed=8)
    scan_web = next(
        a for a in mesh.actions if a.kind == "scan" and a.target == "web"
    )
    res = env.step(scan_web.id)
    web = mesh.host_index["web"]
    assert obs[3 * web] == 0
    assert res.observation[3 * web] == 1
    assert res.action_success is True
    assert res.reward == 2.0 - scan_web.cost


def test_set_state_then_step_follows_the_exact_law(mesh):
    """Every action from every reachable non-goal mesh state lands on an
    outcome the oracle lists and pays what ``compute_reward`` gives for it."""
    worths = mesh.flag_worths()
    env = world.AttackWorld(mesh, seed=9)
    env.reset(seed=9)
    for obs in world.reachable_observations(mesh):
        if obs[mesh.objective_flag] == 1:
            continue
        for action in mesh.actions:
            env.set_state(obs)
            res = env.step(action.id)
            assert res.observation in dict(exact_transition(mesh, obs, action))
            assert res.reward == compute_reward(worths, obs, res.observation, action.cost)


@pytest.mark.parametrize("value", [2, -1])
def test_set_state_rejects_a_flag_outside_zero_one(desk5, value):
    env = world.AttackWorld(desk5)
    state = list(desk5.initial_observation())
    state[3] = value
    with pytest.raises(ValueError, match="0 or 1"):
        env.set_state(state)


def test_monotone_flags_along_any_trajectory(mesh):
    env = world.AttackWorld(mesh, seed=5)
    rng = np.random.default_rng(5)
    for ep in range(30):
        obs = env.reset(seed=5) if ep == 0 else env.reset()
        done = False
        while not done:
            res = env.step(int(rng.integers(env.action_count)))
            assert all(after >= before for before, after in zip(obs, res.observation))
            obs = res.observation
            done = res.done


def test_observation_markov_by_exhaustive_enumeration(mesh):
    # Two states rendering the same observation must transition identically
    # when projected to observations.  The state IS the observation here, so
    # the exhaustive check is that the projection is injective on the
    # reachable set and the oracle depends only on it.
    reachable = world.reachable_observations(mesh)
    projections = {}
    for state in reachable:
        key = bytes(state)
        assert key not in projections or projections[key] == state
        projections[key] = state
    for state in reachable:
        if state[mesh.objective_flag] == 1:
            continue
        for action in mesh.actions:
            again = exact_transition(mesh, tuple(state), action)
            assert exact_transition(mesh, state, action) == again


def test_noise_folds_into_effective_success_probability():
    noisy = world.parse_scenario(presets.chain_scenario(exploit_prob=0.8, noise=0.1))
    state = list(noisy.initial_observation())
    state[3] = 1
    state = tuple(state)
    exploit_h1 = next(
        a for a in noisy.actions if a.kind == "exploit_user" and a.target == "h1"
    )
    outcomes = dict(exact_transition(noisy, state, exploit_h1))
    # 0.8 * 0.9 + 0.2 * 0.1 = 0.74
    success = list(state)
    success[4] = 1
    assert outcomes[tuple(success)] == pytest.approx(0.74)
    # unmet preconditions stay no-ops even with noise
    exploit_h3 = next(
        a for a in noisy.actions if a.kind == "exploit_user" and a.target == "h3"
    )
    assert exact_transition(noisy, noisy.initial_observation(), exploit_h3) == [
        (noisy.initial_observation(), 1.0)
    ]


def test_reachable_enumeration_counts(desk5, mesh):
    reach5 = world.reachable_observations(desk5)
    sources = [o for o in reach5 if o[desk5.objective_flag] != 1]
    assert len(sources) == 10
    assert len(reach5) == 11
    assert desk5.initial_observation() == reach5[0]
    assert len(world.reachable_observations(mesh)) > len(reach5)


def test_shortest_success_path(desk5, det3):
    # chain of 5: scan+exploit per non-entry host, escalate, objective
    assert world.shortest_success_path(desk5) == 4 + 4 + 1 + 1
    assert world.shortest_success_path(det3) == 2 + 2 + 1 + 1


def test_fingerprint_covers_dynamics_not_rewards():
    base = world.parse_scenario(presets.chain_scenario())
    regamed = world.parse_scenario(
        presets.chain_scenario(objective_bonus=55.0, max_steps=300)
    )
    different = world.parse_scenario(presets.chain_scenario(exploit_prob=0.5))
    assert base.fingerprint == regamed.fingerprint
    assert base.fingerprint != different.fingerprint


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize(
    "name, factory",
    [
        ("desk3_deterministic", presets.deterministic_chain),
        ("desk5_chain", presets.chain_scenario),
        ("desk6_mesh", presets.mesh_scenario),
    ],
)
def test_shipped_scenario_files_are_the_presets(name, factory):
    """The benchmark and README run ``scenarios/*.json``; the tests build the presets.  They are one scenario."""
    shipped, preset = world.load_scenario(SCENARIOS / f"{name}.json"), world.parse_scenario(factory())
    assert shipped == preset
    assert shipped.fingerprint == preset.fingerprint


def test_scenario_file_round_trip(tmp_path, desk5):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    loaded = world.load_scenario(path)
    assert loaded.fingerprint == desk5.fingerprint
    assert loaded.actions == desk5.actions

"""Ground-truth world: scenario validation, exact transition oracle, probabilities."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import presets, world
from redsim.cli import EXIT_SCENARIO, main
from redsim.world import (
    DanglingReferenceError,
    ScenarioError,
    ScenarioParseError,
    UnreachableObjectiveError,
    exact_transition,
    preconditions_met,
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
    ],
    ids=["hosts-int", "worth-str", "reward-list", "max-steps-str", "host-int", "prob-null", "max-steps-inf"],
)
def test_wrongly_typed_scenario_exits_scenario(tmp_path, edit):
    doc = presets.chain_scenario()
    doc = edit(doc) or doc
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


def test_transition_unmet_preconditions_is_noop(desk5):
    start = desk5.initial_observation()
    exploit_h3 = next(
        a for a in desk5.actions if a.kind == "exploit_user" and a.target == "h3"
    )
    assert not preconditions_met(desk5, start, exploit_h3)
    assert exact_transition(desk5, start, exploit_h3) == [(start, 1.0)]


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
    assert res.info["action_success"] is True
    assert res.reward == 2.0 - scan_web.cost


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


def test_scenario_file_round_trip(tmp_path, desk5):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(presets.chain_scenario()), encoding="utf-8")
    loaded = world.load_scenario(path)
    assert loaded.fingerprint == desk5.fingerprint
    assert loaded.actions == desk5.actions

"""The compiled transition tables against the laws they are compiled from.

The references here are the per-pair forms: ``exact_transition`` and
``compute_reward`` for the world, the model's count dicts for a model.  The
breadth-first enumeration below is the one the world used before it
compiled its law, kept as the reference for the state order.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import agents, collect, empirical, evaluate, presets, world
from redsim.empirical import (
    FALLBACK_REJECT,
    FALLBACK_SELF,
    EmpiricalModel,
    SimConfig,
    build_model,
    compile_model,
    merge_models,
)
from redsim.envapi import GameConfig, compute_reward

from conftest import count_transitions

_probs = st.floats(0.05, 0.99)
_worths = st.sampled_from((0.0, 0.5, 2.0, 10.0))


@st.composite
def _chains(draw):
    doc = presets.chain_scenario(
        n_hosts=draw(st.integers(2, 5)),
        scan_prob=draw(_probs),
        exploit_prob=draw(_probs),
        escalate_prob=draw(_probs),
        user_worth=draw(_worths),
        root_worth=draw(_worths),
        noise=draw(st.floats(0.01, 0.45)),
    )
    for host in doc["hosts"]:
        host["worth"] = draw(_worths)
    for action in doc["actions"]:
        action["cost"] = draw(st.sampled_from((0.5, 1.0, 3.0)))
    return doc


@st.composite
def _meshes(draw):
    doc = presets.mesh_scenario(noise=draw(st.floats(0.01, 0.45)))
    for kind in ("scan", "exploit_user", "escalate_root", "objective"):
        doc["action_defaults"][kind]["success_prob"] = draw(_probs)
    return doc


def _reference_bfs(scenario):
    """Reachable observations in breadth-first order, by ``exact_transition`` alone."""
    start = scenario.initial_observation()
    seen, order, frontier = {start}, [start], [start]
    while frontier:
        nxt = []
        for obs in frontier:
            if obs[scenario.objective_flag] == 1:
                continue
            for action in scenario.actions:
                for out, _ in world.exact_transition(scenario, obs, action):
                    if out not in seen:
                        seen.add(out)
                        order.append(out)
                        nxt.append(out)
        frontier = nxt
    return order


def _rows(mdp):
    """Each row's entries as ``(next observation, weight, reward)`` lists, row by row."""
    start = mdp.row_start.tolist()
    entries = list(zip(
        (mdp.states[j] for j in mdp.next_state.tolist()), mdp.weight.tolist(), mdp.reward.tolist()
    ))
    return [entries[lo:hi] for lo, hi in zip(start, start[1:])]


def _check_world(doc):
    scenario = world.parse_scenario(doc)
    mdp = world.compile_world(scenario)
    assert mdp.states == _reference_bfs(scenario) == world.reachable_observations(scenario)
    assert mdp.start == 0 and mdp.states[0] == scenario.initial_observation()
    assert mdp.action_count == len(scenario.actions)
    assert mdp.goal.tolist() == [obs[scenario.objective_flag] == 1 for obs in mdp.states]
    worths = scenario.flag_worths()
    rows = iter(_rows(mdp))
    for obs in mdp.states:
        for action in scenario.actions:
            row = next(rows)
            if obs[scenario.objective_flag] == 1:
                assert row == []
                continue
            assert [(nxt, p) for nxt, p, _ in row] == world.exact_transition(scenario, obs, action)
            assert [r for _, _, r in row] == [compute_reward(worths, obs, nxt, action.cost) for nxt, _, _ in row]


@settings(max_examples=60, deadline=None)
@given(_chains())
def test_compiled_chain_law_is_the_exact_law(doc):
    _check_world(doc)


@settings(max_examples=4, deadline=None)
@given(_meshes())
def test_compiled_mesh_law_is_the_exact_law(doc):
    _check_world(doc)


@settings(max_examples=40, deadline=None)
@given(_chains(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_compiled_model_rows_are_the_sorted_counts(doc, episodes, seed):
    scenario = world.parse_scenario(doc)
    env = world.AttackWorld(scenario, seed=seed)
    data = collect.run_collection(env, collect.uniform_random_policy(env.action_count), episodes, seed)
    model = build_model(
        data.records, obs_dim=scenario.obs_dim, action_count=env.action_count,
        metadata={"reward": data.manifest["reward"], "game": data.manifest["game"]},
    )
    config = SimConfig.from_model(model)
    mdp = compile_model(model, config)
    assert mdp.states == sorted(model.observations())
    assert mdp.states[mdp.start] == model.x0
    assert mdp.goal.tolist() == [config.game.is_goal(obs) for obs in mdp.states]
    assert mdp.weight.dtype == np.int64
    rows = iter(_rows(mdp))
    for obs in mdp.states:
        for action in range(model.action_count):
            row = next(rows)
            counts = model.counts.get((obs, action), {obs: 1})
            assert [(nxt, c) for nxt, c, _ in row] == sorted(counts.items())
            assert [r for nxt, _, r in row] == [
                compute_reward(config.flag_worths, obs, nxt, config.action_costs[action]) for nxt, _, _ in row
            ]


def _compile_model_reference(model, config):
    """``compile_model`` as a loop over every (observation, action) row, each entry priced by ``compute_reward``."""
    states = sorted(model.observations())
    index = {obs: i for i, obs in enumerate(states)}
    row_start, next_state, weight, reward = [0], [], [], []
    for obs in states:
        for action in range(model.action_count):
            outcomes = model.counts.get((obs, action)) or ({obs: 1} if config.fallback == FALLBACK_SELF else {})
            for next_obs, count in sorted(outcomes.items()):
                next_state.append(index[next_obs])
                weight.append(count)
                reward.append(compute_reward(config.flag_worths, obs, next_obs, config.action_costs[action]))
            row_start.append(len(next_state))
    goal = [config.game.is_goal(obs) for obs in states]
    return states, row_start, next_state, weight, reward, goal, index[model.x0]


_table_worths = st.sampled_from((0.0, -0.0, 0.1, 0.5, 2.0, 1e-300, 1e16)) | st.floats(0.0, 1e6)
_table_costs = st.sampled_from((0.1, 1.0, 3.0)) | st.floats(1e-3, 1e3)


@st.composite
def _count_tables(draw):
    """A model of arbitrary counts (flags may turn off, values reach 3) and a config that fits it."""
    obs_dim, actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    observations = st.tuples(*[st.integers(0, 3)] * obs_dim)
    x0 = draw(observations)
    triples = st.tuples(observations, st.integers(0, actions - 1), observations, st.integers(1, 5))
    model = EmpiricalModel(obs_dim, actions, x0=x0, counts=count_transitions(draw(st.lists(triples, max_size=25))))
    config = SimConfig(
        GameConfig(max_steps=5, goal_index=draw(st.integers(-obs_dim, obs_dim - 1))),
        tuple(draw(st.lists(_table_worths, min_size=obs_dim, max_size=obs_dim))),
        tuple(draw(st.lists(_table_costs, min_size=actions, max_size=actions))),
        fallback=draw(st.sampled_from((FALLBACK_SELF, FALLBACK_REJECT))),
    )
    return model, config


@settings(max_examples=300, deadline=None)
@given(_count_tables())
def test_compiled_model_is_the_row_by_row_table_bit_for_bit(table):
    model, config = table
    mdp = compile_model(model, config)
    states, row_start, next_state, weight, reward, goal, start = _compile_model_reference(model, config)
    assert (mdp.states, mdp.start, mdp.action_count) == (states, start, model.action_count)
    for array, expected, dtype in (
        (mdp.row_start, row_start, np.int64),
        (mdp.next_state, next_state, np.int64),
        (mdp.weight, weight, np.int64),
        (mdp.reward, reward, np.float64),
        (mdp.goal, goal, bool),
    ):
        assert array.dtype == dtype
        assert array.tobytes() == np.array(expected, dtype=dtype).tobytes()


_TABLE_ARRAYS = ("flags", "row_start", "next_state", "weight", "visits", "fallback", "rise")


def _table_reference(model):
    """A model's ``CountTable`` fields, row by row from its count dicts."""
    states = sorted(model.observations())
    index = {obs: i for i, obs in enumerate(states)}
    row_start, next_state, weight, visits, fallback, rise = [0], [], [], [], [], []
    for obs in states:
        for action in range(model.action_count):
            outcomes = model.counts.get((obs, action))
            visits.append(sum(outcomes.values()) if outcomes else 0)
            if not outcomes:
                fallback.append(len(next_state))
            for next_obs, count in sorted((outcomes or {obs: 1}).items()):
                next_state.append(index[next_obs])
                weight.append(count)
                rise.append([b > a for a, b in zip(obs, next_obs)])
            row_start.append(len(next_state))
    arrays = dict(
        flags=np.array(states, dtype=np.float64).reshape(len(states), model.obs_dim),
        row_start=np.array(row_start, dtype=np.int64),
        next_state=np.array(next_state, dtype=np.int64),
        weight=np.array(weight, dtype=np.int64),
        visits=np.array(visits, dtype=np.int64),
        fallback=np.array(fallback, dtype=np.int64),
        rise=np.array(rise, dtype=bool).reshape(len(rise), model.obs_dim).T.copy(),
    )
    return states, index, arrays


def _check_table(model):
    states, index, arrays = _table_reference(model)
    table = model.table
    assert model.table is table and (table.states, table.index) == (states, index)
    for name in _TABLE_ARRAYS:
        array, expected = getattr(table, name), arrays[name]
        assert (array.dtype, array.shape) == (expected.dtype, expected.shape), name
        assert array.tobytes() == expected.tobytes(), name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = expected


@settings(max_examples=200, deadline=None)
@given(_count_tables(), st.integers(0, 25))
def test_every_way_to_make_a_model_holds_the_table_of_its_counts(table, cut):
    """Counted, loaded from a payload or merged from two shards: each model's table is its counts', read-only."""
    model, _ = table
    dims, pairs = (model.obs_dim, model.action_count), list(model.counts.items())
    halves = (
        EmpiricalModel(*dims, x0=model.x0, counts=dict(pairs[:cut])),
        EmpiricalModel(*dims, counts=dict(pairs[cut:])),
    )
    for made in (EmpiricalModel.from_payload(model.to_payload()), merge_models(*halves), model):
        assert made == model
        _check_table(made)


def test_a_collected_models_table_is_its_counts(desk5_model):
    _check_table(desk5_model)


def test_a_model_is_fixed_when_it_is_made():
    """No field can be rebound, before or after the table is read, and the table is the counts the model was given."""
    counts = count_transitions([((0, 0), 1, (0, 1), 1), ((0, 0), 1, (0, 1), 2)])
    model = EmpiricalModel(2, 2, x0=(0, 0), counts=counts)
    assert not hasattr(model, "record") and model.counts == {((0, 0), 1): {(0, 1): 3}}
    for read_table in (False, True):
        if read_table:
            _check_table(model)
        for name in [f.name for f in dataclasses.fields(model)] + ["table"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, {})
    assert model.table.visits.tolist() == [0, 3, 0, 0]
    planned = agents.value_iteration_model(model, SimConfig(GameConfig(max_steps=3), (1.0, 1.0), (1.0, 1.0)))
    assert planned.policy == {(0, 0): 1} and model.counts == {((0, 0), 1): {(0, 1): 3}}


def test_a_model_is_tabled_once_for_every_reader(monkeypatch):
    """The planner at four horizons, the sim, the audit, the transfer coverage and the stats share ``model.table``."""
    built = []
    count_table = empirical.count_table
    monkeypatch.setattr(empirical, "count_table", lambda model: built.append(model) or count_table(model))
    scenario = world.parse_scenario(presets.chain_scenario())
    model = _small_model(scenario)
    config = SimConfig.from_model(model)
    for horizon in (10, 20, 40, 100):
        agents.value_iteration_model(model, config, horizon=horizon)
    sim = empirical.EmpiricalSim(model, config, seed=1)
    evaluate.fidelity_report(model, scenario)
    solution = agents.value_iteration(scenario)
    policy = agents.QTable(len(scenario.actions))
    for obs, action in solution.policy.items():
        policy.row(obs)[action] = 1.0
    report = evaluate.transfer_eval(policy, world.AttackWorld(scenario, seed=1), sim, episodes=3, seed=1)
    empirical.model_stats(model)
    assert built == [model] and 0 < report.world_pairs_in_model <= 1


def _small_model(scenario):
    env = world.AttackWorld(scenario, seed=1)
    data = collect.run_collection(env, collect.uniform_random_policy(env.action_count), 5, 1)
    return build_model(
        data.records, obs_dim=scenario.obs_dim, action_count=env.action_count, fingerprint=scenario.fingerprint,
        metadata={"reward": data.manifest["reward"], "game": data.manifest["game"]},
    )


def test_a_scenario_compiles_its_law_once(monkeypatch):
    """The planner at four horizons, the fidelity audit and the enumeration share ``Scenario.law``."""
    compiled = []
    compile_world = world.compile_world
    monkeypatch.setattr(world, "compile_world", lambda scenario: compiled.append(scenario) or compile_world(scenario))
    scenario = world.parse_scenario(presets.chain_scenario())
    model = _small_model(scenario)
    for horizon in (10, 20, 40, 100):
        agents.value_iteration(scenario, horizon=horizon)
    evaluate.fidelity_report(model, scenario)
    states = world.reachable_observations(scenario)
    assert len(compiled) == 1 and compiled[0] is scenario
    states.clear()  # a copy: the law keeps its states
    assert world.reachable_observations(scenario) == scenario.law.states != []


def test_a_scenario_law_is_read_only():
    law = world.parse_scenario(presets.chain_scenario()).law
    for array in (law.row_start, law.next_state, law.weight, law.reward, law.goal):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_a_replaced_scenario_compiles_its_own_law():
    scenario = world.parse_scenario(presets.chain_scenario())
    noisy = dataclasses.replace(scenario, noise=0.25)
    assert noisy.law is not scenario.law
    assert noisy.law.weight.tolist() == world.compile_world(noisy).weight.tolist() != scenario.law.weight.tolist()

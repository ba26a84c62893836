"""The compiled transition tables against the laws they are compiled from.

The references here are the per-pair forms: ``exact_transition`` and
``compute_reward`` for the world, the model's count dicts for a model.  The
breadth-first enumeration below is the one the world used before it
compiled its law, kept as the reference for the state order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from redsim import collect, presets, world
from redsim.empirical import SimConfig, build_model, compile_model
from redsim.envapi import compute_reward

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

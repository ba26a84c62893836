"""One rule per number: every range a caller gives is checked by ``envapi.game_number``.

The CLI's flags, ``TrainConfig``, ``GameConfig``, every ``episodes`` and the
fidelity threshold read the same rule table, so a number one of them takes
the others take too, and a number none can use raises ``ValueError`` when it
is given, not partway through a run.
"""

import argparse
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import cli, collect, empirical, evaluate, world
from redsim.agents import TrainConfig
from redsim.envapi import COUNT, INDEX, NON_NEGATIVE, POSITIVE, PROBABILITY, STEPS, UNIT, GameConfig, game_number

_RULES = {
    "NON_NEGATIVE": NON_NEGATIVE,
    "POSITIVE": POSITIVE,
    "UNIT": UNIT,
    "PROBABILITY": PROBABILITY,
    "STEPS": STEPS,
    "COUNT": COUNT,
    "INDEX": INDEX,
}

# The fields each rule governs, as ``(config, field, other fields a valid value needs)``.
_FIELDS = {
    "STEPS": [
        *((TrainConfig, name, {}) for name in (
            "episodes", "max_env_steps", "epsilon_decay_steps", "target_sync_interval", "eval_episodes")),
        (TrainConfig, "replay_capacity", {"batch_size": 1}),  # batch_size <= replay_capacity is a relation
        (TrainConfig, "batch_size", {"replay_capacity": 10**401}),
        (TrainConfig, "hidden_sizes", {}),  # one entry, wrapped in a tuple below
        (GameConfig, "max_steps", {}),
    ],
    "COUNT": [(TrainConfig, "eval_interval", {})],
    "UNIT": [(TrainConfig, "gamma", {}), (GameConfig, "gamma", {"max_steps": 5})],
    "POSITIVE": [(TrainConfig, "learning_rate", {})],
    "PROBABILITY": [(TrainConfig, "epsilon_start", {}), (TrainConfig, "epsilon_end", {})],
    "INDEX": [(GameConfig, "goal_index", {"max_steps": 5})],
    "NON_NEGATIVE": [],  # scenario worths and a model's recorded rewards, read from files
}

_PLAIN_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**400), 10**400),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([0.0, 1.0, 0.5, -0.0, 1e-300, 2.0**53, 10**400, True, False]),
)
_NUMBERS = st.one_of(
    _PLAIN_NUMBERS,
    st.integers(-3, 3).map(np.int64),
    st.floats(-2.0, 2.0).map(np.float64),
    st.floats(-2.0, 2.0).map(np.float32),
    st.sampled_from(["1", [1]]),
)


def _verdict(call):
    """What ``call()`` returns, or ValueError if it raises one."""
    try:
        return call()
    except ValueError:
        return ValueError


def test_every_ranged_config_field_has_a_rule():
    """The table above names every number of both configs, so the property covers each one."""
    covered = {(config, name) for rows in _FIELDS.values() for config, name, _ in rows}
    numbers = {(TrainConfig, f.name) for f in dataclasses.fields(TrainConfig) if f.name not in ("algorithm", "seed")}
    assert covered == numbers | {(GameConfig, f.name) for f in dataclasses.fields(GameConfig)}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_RULES)), _PLAIN_NUMBERS)
def test_a_flag_reads_a_numbers_text_as_game_number_reads_the_number(rule_name, number):
    rule = _RULES[rule_name]
    expected = _verdict(lambda: game_number(number, "x", rule))
    parse = cli._checked(rule)
    try:
        parsed = parse(str(number))
    except argparse.ArgumentTypeError as exc:
        assert expected is ValueError
        assert str(exc) == f"expected {rule[2]}, got {str(number)!r}"
    else:
        assert parsed.__class__ is rule[0] and parsed == expected


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_RULES)), _NUMBERS)
def test_both_configs_give_game_numbers_verdict_on_every_field_it_governs(rule_name, number):
    rule = _RULES[rule_name]
    accepted = _verdict(lambda: game_number(number, "x", rule)) is not ValueError
    for config, name, others in _FIELDS[rule_name]:
        value = (number,) if name == "hidden_sizes" else number
        made = _verdict(lambda: config(**others, **{name: value}))
        assert (made is not ValueError) == accepted, (config.__name__, name, number)
        if accepted:
            assert getattr(made, name) is value  # stored as given: a config only checks


@pytest.fixture(scope="module")
def small_model(desk5):
    env = world.AttackWorld(desk5, seed=0)
    data = collect.run_collection(env, collect.uniform_random_policy(env.action_count), 20, 0)
    return empirical.build_model(
        data.records, obs_dim=desk5.obs_dim, action_count=env.action_count, fingerprint=desk5.fingerprint,
        metadata={"reward": data.manifest["reward"], "game": data.manifest["game"]},
    )


def _collect(desk5, tmp_path, episodes):
    env = world.AttackWorld(desk5, seed=0)
    out = tmp_path / "d.jsonl"
    try:
        collect.run_collection(env, collect.uniform_random_policy(env.action_count), episodes, 0, out_path=out)
    finally:
        assert not out.exists() and not collect.manifest_path(out).exists()  # refused before a line is written


def _evaluate(small_model, episodes):
    chosen = []
    sim = empirical.EmpiricalSim(small_model, seed=0)
    try:
        evaluate._greedy_eval(sim, lambda obs: chosen.append(obs) or 0, episodes, 0, "sim")
    finally:
        assert not chosen  # refused before a step is played


# Each number a site took and then failed on (or used wrongly) further on, and the site that now refuses it.
_DEFECTS = {
    "TrainConfig: float episodes (train_q_learning's TypeError)": lambda *_: TrainConfig(episodes=2.5),
    "TrainConfig: float replay_capacity (train_dqn's TypeError)": lambda *_: TrainConfig(replay_capacity=40.5),
    "TrainConfig: numpy episodes (save_policy's JSON error)": lambda *_: TrainConfig(episodes=np.int64(3)),
    "TrainConfig: bool learning_rate (saved as true)": lambda *_: TrainConfig(learning_rate=True),
    "TrainConfig: float max_env_steps": lambda *_: TrainConfig(max_env_steps=2.5),
    "TrainConfig: float eval_interval": lambda *_: TrainConfig(eval_interval=1.5),
    "TrainConfig: float hidden size": lambda *_: TrainConfig(hidden_sizes=(100, 2.5)),
    "TrainConfig: bool gamma": lambda *_: TrainConfig(gamma=True),
    "GameConfig: float max_steps (collection's TypeError)": lambda *_: GameConfig(max_steps=2.5),
    "GameConfig: numpy max_steps (done np.False_)": lambda *_: GameConfig(max_steps=np.int64(7)),
    "GameConfig: float goal_index": lambda *_: GameConfig(max_steps=5, goal_index=1.5),
    "SimConfig.from_model: float max_steps (played as 2)": lambda d, m, t: empirical.SimConfig.from_model(
        m, max_steps=2.5
    ),
    "run_collection: float episodes": lambda d, m, t: _collect(d, t, 2.5),
    "run_collection: numpy episodes": lambda d, m, t: _collect(d, t, np.int64(3)),
    "_greedy_eval: float episodes (evaluate_policy, transfer_eval)": lambda d, m, t: _evaluate(m, 2.5),
    "fidelity_report: negative visit_threshold": lambda d, m, t: evaluate.fidelity_report(m, d, visit_threshold=-1),
    "fidelity_report: float visit_threshold": lambda d, m, t: evaluate.fidelity_report(m, d, visit_threshold=0.5),
}


@pytest.mark.parametrize("call", list(_DEFECTS.values()), ids=list(_DEFECTS))
def test_a_number_no_run_can_use_raises_value_error_where_it_is_given(desk5, small_model, tmp_path, call):
    with pytest.raises(ValueError, match=r"must be (an int|a number|a finite number)"):
        call(desk5, small_model, tmp_path)


def test_none_is_no_number_but_leaves_max_env_steps_and_gamma_unset():
    assert TrainConfig(max_env_steps=None, gamma=None).gamma is None
    for name in ("episodes", "learning_rate", "eval_interval", "epsilon_end"):
        with pytest.raises(ValueError, match=f"{name} must be"):
            TrainConfig(**{name: None})
    with pytest.raises(ValueError, match="gamma must be"):
        GameConfig(max_steps=5, gamma=None)


def test_a_float_subclass_passes_where_a_float_belongs_and_is_stored_as_given():
    rate, gamma = np.float64(0.01), np.float64(0.9)
    assert TrainConfig(learning_rate=rate, gamma=gamma).learning_rate is rate
    assert GameConfig(max_steps=3, gamma=gamma).gamma is gamma
    assert TrainConfig(gamma=1).gamma.__class__ is int  # an int where a float belongs is kept too
    assert game_number(rate, "x", POSITIVE).__class__ is float

"""RL agents and the exact planning oracle.

Tabular Q-learning is the first-class algorithm here: the generated sim is
a finite tabular MDP, so a Q-table can represent its optimal policy
exactly.  Value iteration over the world's exact transition distributions
provides the optimality yardstick that evaluation and transfer tests
compare against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import chain

import numpy as np

from . import artifacts
from .empirical import FALLBACK_SELF, compile_model
from .envapi import COUNT, POSITIVE, PROBABILITY, STEPS, UNIT, Draws, Env, Observation, TabularMDP, derive_seed
from .envapi import game_number, read_network, rollout
from .world import Scenario

# The benchmark's per-layer tracer (perfbench/layers.py) wraps these names here too.
from .envapi import compute_reward  # noqa: F401, E402
from .world import exact_transition, reachable_observations  # noqa: F401, E402

POLICY_FORMAT = "redsim-policy-v1"

CURVE_COLUMNS = ("step", "episode_return", "episode_length", "epsilon")


class PolicyError(Exception):
    """Policy files or policy/environment combinations that cannot work."""


class TrainingDivergedError(Exception):
    """A loss, Q-value or weight became non-finite during training."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (training step {step})")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = "q_learning"
    episodes: int = 2000
    max_env_steps: int | None = None
    gamma: float | None = None  # None: take the environment's game gamma
    learning_rate: float = 0.1
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 10_000
    replay_capacity: int = 20_000
    batch_size: int = 32
    target_sync_interval: int = 500
    hidden_sizes: tuple[int, ...] = (100, 100)
    seed: int = 0
    eval_interval: int = 0
    eval_episodes: int = 20

    def __post_init__(self):
        if self.algorithm not in ("q_learning", "dqn"):
            raise ValueError(f"algorithm must be q_learning or dqn, not {self.algorithm!r}")
        for name, rule in (  # each ranged field's envapi.game_number rule
            ("episodes", STEPS), ("max_env_steps", STEPS), ("epsilon_decay_steps", STEPS), ("replay_capacity", STEPS),
            ("batch_size", STEPS), ("target_sync_interval", STEPS), ("eval_episodes", STEPS), ("eval_interval", COUNT),
            ("gamma", UNIT), ("learning_rate", POSITIVE), ("epsilon_start", PROBABILITY), ("epsilon_end", PROBABILITY),
        ):
            value = getattr(self, name)
            if value is not None or name not in ("max_env_steps", "gamma"):  # None: no step cap, the game's gamma
                game_number(value, name, rule)
        for size in self.hidden_sizes:
            game_number(size, "hidden_sizes entry", STEPS)
        if self.batch_size > self.replay_capacity:  # the buffer would never hold a batch, so DQN would never learn
            raise ValueError(f"batch_size {self.batch_size} exceeds replay_capacity {self.replay_capacity}")

    def epsilon_at(self, step: int) -> float:
        frac = min(1.0, step / self.epsilon_decay_steps)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


class QTable:
    """Action values keyed by observation; unseen observations read as zeros.

    A row of ``values`` is a list of ``action_count`` floats, which Q-learning
    and ``greedy_action`` use without numpy's per-call cost; ``action_values``
    hands it out as a float64 array, as every other policy does."""

    def __init__(self, action_count: int):
        self.action_count = int(action_count)
        self.values: dict[Observation, list[float]] = {}

    def action_values(self, obs: Observation) -> np.ndarray:
        row = self.values.get(obs)
        return np.zeros(self.action_count) if row is None else np.array(row)

    def row(self, obs: Observation) -> list[float]:
        row = self.values.get(obs)
        if row is None:
            row = self.values[obs] = [0.0] * self.action_count
        return row

    def __len__(self) -> int:
        return len(self.values)


def greedy_action(policy, obs) -> int:
    """The first action of greatest value, as ``np.argmax`` picks it: ties break to the lowest action index.
    A ``LoadedPolicy`` plays the policy it holds.  A Q-table's row holds finite floats (training stops at the
    first non-finite value and loading rejects one), so ``row.index(max(row))`` makes that pick."""
    if isinstance(policy, LoadedPolicy):
        policy = policy.policy
    if isinstance(policy, QTable):
        row = policy.values.get(obs)
        return 0 if row is None else row.index(max(row))
    return int(np.argmax(policy.action_values(obs)))


@dataclass
class CurvePoint:
    step: int
    episode_return: float
    episode_length: int
    epsilon: float


@dataclass
class TrainResult:
    policy: object
    curve: list[CurvePoint] = field(default_factory=list)
    evals: list[tuple[int, float]] = field(default_factory=list)


def epsilon_greedy_steps(env: Env, config: TrainConfig, rng, result: TrainResult, eval_env: Env | None):
    """The epsilon-greedy training run of ``result.policy`` in ``env``;
    yields ``(global_step, obs, action, next_obs, reward, goal)``.

    Both learners train through it.  Each action is random with
    probability ``config.epsilon_at(global_step)``, drawn from ``rng``,
    and greedy under the policy otherwise.  ``global_step`` counts the steps
    taken, this one included; ``goal``, the one end that cuts a learner's
    bootstrap, marks a step into a goal state (an end with no goal is
    truncation at ``max_steps``).  The consumer learns from a step before the
    generator resumes; then, every ``config.eval_interval`` steps with an
    ``eval_env``, the ``evaluate_policy`` mean return over
    ``config.eval_episodes`` is appended to ``result.evals``, and each
    finished episode appends its ``CurvePoint`` to ``result.curve``.  The
    run ends after ``config.episodes`` episodes, or with the first episode
    to finish at or past ``config.max_env_steps`` steps.
    """
    from .evaluate import evaluate_policy

    policy = result.policy
    global_step = 0
    ep_return = 0.0
    evaluating = config.eval_interval and eval_env is not None
    # epsilon_at's float expression and greedy_action's pick of a Q-table, written out: both run every step
    start, span, decay = config.epsilon_start, config.epsilon_end - config.epsilon_start, config.epsilon_decay_steps
    random, integers, count = rng.random, rng.integers, env.action_count
    q_values = policy.values if isinstance(policy, QTable) else None

    def choose(obs) -> int:
        if random() < start + span * min(1.0, global_step / decay):
            return int(integers(count))
        if q_values is None:
            return greedy_action(policy, obs)
        row = q_values.get(obs)
        return 0 if row is None else row.index(max(row))

    for _, step, obs, action, next_obs, reward, done, _ in rollout(env, choose, config.episodes, config.seed):
        ep_return += reward
        global_step += 1
        yield global_step, obs, action, next_obs, reward, done and env.game.is_goal(next_obs)
        if evaluating and global_step % config.eval_interval == 0:
            eval_seed = derive_seed(config.seed, "eval")
            mean_return = evaluate_policy(eval_env, policy, config.eval_episodes, eval_seed).mean_return
            result.evals.append((global_step, mean_return))
        if done:
            result.curve.append(CurvePoint(global_step, ep_return, step + 1, config.epsilon_at(global_step)))
            ep_return = 0.0
            if config.max_env_steps is not None and global_step >= config.max_env_steps:
                return


def train_q_learning(env: Env, config: TrainConfig, eval_env: Env | None = None) -> TrainResult:
    """One-step tabular Q-learning with epsilon-greedy behaviour.

    Bootstrapping is cut only on goal termination; horizon truncation keeps
    the bootstrap so the learned values approximate the stationary optimum
    rather than an artifact of the training horizon.  The first update that
    leaves a Q-value non-finite raises TrainingDivergedError.
    """
    if config.algorithm != "q_learning":
        raise ValueError(f"a q_learning trainer was given a config for {config.algorithm!r}")
    rng = Draws(derive_seed(config.seed, "q-learning"))
    q = QTable(env.action_count)
    gamma = config.gamma if config.gamma is not None else env.game.gamma
    alpha = config.learning_rate
    result = TrainResult(policy=q)
    for global_step, obs, action, next_obs, reward, goal in epsilon_greedy_steps(env, config, rng, result, eval_env):
        onward = None if goal else q.values.get(next_obs)
        # np.max's float: an update q + d is -0.0 only when q is, so no row holds the -0.0 np.max might prefer
        bootstrap = 0.0 if onward is None else max(onward)
        row = q.row(obs)
        row[action] = value = row[action] + alpha * (reward + gamma * bootstrap - row[action])
        if not math.isfinite(value):
            raise TrainingDivergedError(f"non-finite Q-value {value!r}", global_step)
    return result


# --- exact planning ---------------------------------------------------------

@dataclass
class ValueSolution:
    values: dict[Observation, float]
    optimal_return: float
    policy: dict[Observation, int]
    horizon: int
    iterations: int
    residual: float


# The backup residual below which value iteration stops early.
VALUE_TOL = 1e-9


def _solve_tabular(mdp: TabularMDP, gamma, horizon) -> ValueSolution:
    """Backward induction over ``mdp``'s entries, entry ``e`` taken with probability ``mdp.prob[e]``.

    Runs at most ``horizon`` backups and stops early once the backup residual
    drops below ``VALUE_TOL`` (the values have then reached the fixed point, so a
    longer horizon cannot change them by more than the residual).  Goal
    states are worth 0 and get no policy entry.
    """
    states, n = mdp.states, len(mdp.states)
    shape = (n, mdp.action_count)
    rows = np.repeat(np.arange(n * mdp.action_count), np.diff(mdp.row_start))
    next_state, prob, reward = mdp.next_state, mdp.prob, mdp.reward

    def backup(values):
        # bincount adds each row's entries in order, as a sequential sum would
        return np.bincount(rows, prob * (reward + gamma * values[next_state]), n * mdp.action_count).reshape(shape)

    values = np.zeros(n)
    iterations = 0
    residual = np.inf
    for _ in range(horizon):
        new_values = backup(values).max(axis=1)
        new_values[mdp.goal] = 0.0
        iterations += 1
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual < VALUE_TOL:
            break
    greedy = backup(values).argmax(axis=1)
    return ValueSolution(
        values={states[i]: float(values[i]) for i in range(n)},
        optimal_return=float(values[mdp.start]),
        policy={states[i]: int(greedy[i]) for i in range(n) if not mdp.goal[i]},
        horizon=horizon,
        iterations=iterations,
        residual=residual,
    )


def value_iteration(scenario: Scenario, horizon: int | None = None) -> ValueSolution:
    """Optimal expected return over the exact world dynamics, discounted by the scenario's gamma.

    The horizon defaults to the scenario's max_steps; when it is large the
    backups converge first and the early-stop makes this the infinite-
    horizon fixed point.
    """
    horizon = scenario.game.max_steps if horizon is None else horizon
    return _solve_tabular(scenario.law, scenario.game.gamma, horizon)


def value_iteration_model(model, config, horizon: int | None = None) -> ValueSolution:
    """Value iteration on the empirical model itself (not the world).

    It plans over the table the sim steps through, unseen pairs' fallback
    entries included, so the planned MDP is exactly the MDP a self-transition
    sim executes.  A reject-action config raises ValueError: its sim ends a
    run on an unseen pair, which no plan over the table can price.
    """
    if config.fallback != FALLBACK_SELF:
        raise ValueError("model planning requires the self-transition fallback")
    horizon = config.game.max_steps if horizon is None else horizon
    return _solve_tabular(compile_model(model, config), config.game.gamma, horizon)


# --- persistence -------------------------------------------------------------

def save_policy(result_policy, path, *, fingerprint: str, obs_dim: int, train_config: TrainConfig) -> None:
    """Write a ``QTable`` or ``DqnNet`` and its provenance.  A ``train_config`` whose ``algorithm`` did not train it,
    or what ``load_policy`` would reject (a NaN or an infinity, a policy that does not fit ``obs_dim``), raises
    PolicyError and writes nothing."""
    from .dqn import DqnNet

    if isinstance(result_policy, QTable):
        algorithm, data = "q_learning", {
            "kind": "q_table",
            "q": {bytes(k).hex(): list(row) for k, row in sorted(result_policy.values.items())},
            "action_count": result_policy.action_count,
        }
    elif isinstance(result_policy, DqnNet):
        algorithm, data = "dqn", {
            "kind": "dqn",
            "hidden_sizes": list(result_policy.hidden_sizes),
            "layers": [
                {"w": w.tolist(), "b": b.tolist()} for w, b in result_policy.layers
            ],
        }
    else:
        raise PolicyError(f"cannot serialise policy of type {type(result_policy).__name__}")
    if train_config.algorithm != algorithm:
        raise PolicyError(f"a {data['kind']} policy cannot be saved with a train_config for {train_config.algorithm!r}")
    payload = {
        "fingerprint": fingerprint,
        "obs_dim": obs_dim,
        "action_count": result_policy.action_count,
        "train_config": asdict(train_config),
        "data": data,
    }
    _loaded_policy(payload)
    artifacts.write_artifact(path, POLICY_FORMAT, payload)


@dataclass
class LoadedPolicy:
    """A policy file's policy with its provenance; ``evaluate.check_compat`` checks it against an environment."""

    policy: object
    algorithm: str
    fingerprint: str
    obs_dim: int
    action_count: int
    train_config: dict


def _check_numbers(values) -> None:
    """Raise PolicyError unless every one of ``values`` is a JSON number, checked by type in one pass."""
    wrong = set(map(type, values)) - {int, float}
    if wrong:
        raise PolicyError(f"policy values of type {sorted(t.__name__ for t in wrong)} must be numbers")


def _check_finite(arrays) -> None:
    """Raise PolicyError if any of ``arrays`` holds NaN or an infinity (json reads them from ``NaN`` or ``1e400``)."""
    if not all(np.isfinite(values).all() for values in arrays):
        raise PolicyError("policy values must be finite, not NaN or Infinity")


def load_policy(path) -> LoadedPolicy:
    """The policy a file holds; a malformed or out-of-range payload raises PolicyError.

    ``envapi.read_network`` reads its network (the fingerprint is required:
    a policy says which environment it was trained in), and
    ``train_config`` must be an object whose ``algorithm`` trained ``data.kind``
    (``q_learning`` a ``q_table``, ``dqn`` a ``dqn``).  Q-table keys must be
    lower-case hex, as ``save_policy`` writes them, of ``obs_dim`` values
    and rows must hold ``action_count`` values; DQN layer shapes must chain
    from ``obs_dim`` to ``action_count``.  Every Q-value, weight and bias
    must be a JSON number: an int or a float, not a bool, string or null,
    and finite: not ``NaN`` or ``Infinity``, which json also reads.
    """
    return _loaded_policy(artifacts.read_artifact(path, POLICY_FORMAT))


def _loaded_policy(payload) -> LoadedPolicy:
    """The policy a payload holds, checked as ``load_policy`` documents."""
    from .dqn import DqnNet

    try:
        data = payload["data"]
        fingerprint, obs_dim, action_count = read_network(payload, PolicyError)
        train_config = payload["train_config"]
        if train_config.__class__ is not dict:
            raise PolicyError(f"train_config of type {type(train_config).__name__} must be an object")
        if data["kind"] == "q_table":
            if data["action_count"] != action_count:
                raise PolicyError(f"q-table action_count {data['action_count']!r}, policy {action_count}")
            policy = QTable(action_count)
            _check_numbers(chain.from_iterable(data["q"].values()))
            for obs_hex, row in data["q"].items():
                obs, values = bytes.fromhex(obs_hex), np.array(row, dtype=float)
                if obs.hex() != obs_hex:
                    raise PolicyError(f"q-table key {obs_hex!r} is not lower-case hex as save_policy writes it")
                if len(obs) != obs_dim or values.shape != (action_count,):
                    raise PolicyError(
                        f"q-table row {obs_hex!r} of shape {values.shape} out of range for "
                        f"obs_dim={obs_dim}, action_count={action_count}"
                    )
                policy.values[tuple(obs)] = values.tolist()
            _check_finite(policy.values.values())
        elif data["kind"] == "dqn":
            for layer in data["layers"]:
                _check_numbers(chain(chain.from_iterable(layer["w"]), layer["b"]))
            layers = [
                (np.array(layer["w"], dtype=float), np.array(layer["b"], dtype=float))
                for layer in data["layers"]
            ]
            sizes = [obs_dim, *(len(b) for _, b in layers[:-1]), action_count]
            if [(w.shape, b.shape) for w, b in layers] != [((m, n), (n,)) for m, n in zip(sizes, sizes[1:])]:
                raise PolicyError(f"dqn layers do not chain from obs_dim={obs_dim} to action_count={action_count}")
            _check_finite(chain.from_iterable(layers))
            policy = DqnNet.from_layers(layers)
        else:
            raise PolicyError(f"unknown policy kind {data['kind']!r}")
        if train_config.get("algorithm") != {"q_table": "q_learning", "dqn": "dqn"}[data["kind"]]:
            raise PolicyError(f"a {data['kind']} policy has a train_config for {train_config.get('algorithm')!r}")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:  # Overflow: an int no float holds
        raise PolicyError(f"malformed policy payload: {exc!r}") from None
    return LoadedPolicy(
        policy=policy,
        algorithm=data["kind"],
        fingerprint=fingerprint,
        obs_dim=obs_dim,
        action_count=action_count,
        train_config=train_config,
    )

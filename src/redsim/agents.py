"""RL agents and the exact planning oracle.

Tabular Q-learning is the first-class algorithm here: the generated sim is
a finite tabular MDP, so a Q-table can represent its optimal policy
exactly.  Value iteration over the world's exact transition distributions
provides the optimality yardstick that evaluation and transfer tests
compare against.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import artifacts
from .envapi import Env, Observation, compute_reward, derive_seed, rollout
from .world import Scenario, exact_transition, reachable_observations

POLICY_FORMAT = "redsim-policy-v1"

CURVE_COLUMNS = ("step", "episode_return", "episode_length", "epsilon")


class PolicyError(Exception):
    """Policy files or policy/environment combinations that cannot work."""


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
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.gamma is not None and not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_decay_steps < 1:
            raise ValueError("epsilon_decay_steps must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def epsilon_at(self, step: int) -> float:
        frac = min(1.0, step / self.epsilon_decay_steps)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


class QTable:
    """Action values keyed by observation; unseen observations read as zeros."""

    def __init__(self, action_count: int):
        self.action_count = int(action_count)
        self.values: dict[Observation, np.ndarray] = {}

    def lookup(self, obs: Observation) -> np.ndarray:
        row = self.values.get(obs)
        if row is None:
            return np.zeros(self.action_count)
        return row

    def row(self, obs: Observation) -> np.ndarray:
        row = self.values.get(obs)
        if row is None:
            row = self.values[obs] = np.zeros(self.action_count)
        return row

    def __len__(self) -> int:
        return len(self.values)


def greedy_action(policy, obs) -> int:
    """Argmax over action values; ties break to the lowest action index."""
    if isinstance(policy, QTable):
        values = policy.lookup(obs)
    else:
        values = policy.action_values(obs)
    return int(np.argmax(values))


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

    def curve_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CURVE_COLUMNS)
        for p in self.curve:
            writer.writerow([p.step, p.episode_return, p.episode_length, p.epsilon])
        return buf.getvalue()

    def save_curve(self, path) -> None:
        Path(path).write_text(self.curve_csv(), encoding="utf-8")


def _greedy_rollouts(env: Env, policy, episodes: int, seed: int) -> float:
    total = 0.0
    for *_, res in rollout(env, lambda obs: greedy_action(policy, obs), episodes, seed):
        total += res.reward
    return total / episodes


def train_q_learning(env: Env, config: TrainConfig, eval_env: Env | None = None) -> TrainResult:
    """One-step tabular Q-learning with epsilon-greedy behaviour.

    Bootstrapping is cut only on goal termination; horizon truncation keeps
    the bootstrap so the learned values approximate the stationary optimum
    rather than an artifact of the training horizon.
    """
    rng = np.random.default_rng(derive_seed(config.seed, "q-learning"))
    q = QTable(env.action_count)
    gamma = config.gamma if config.gamma is not None else env.game.gamma
    alpha = config.learning_rate
    result = TrainResult(policy=q)
    global_step = 0
    ep_return = 0.0

    def choose(obs) -> int:
        if rng.random() < config.epsilon_at(global_step):
            return int(rng.integers(env.action_count))
        return greedy_action(q, obs)

    for _, step, obs, action, res in rollout(env, choose, config.episodes, config.seed):
        bootstrap = 0.0 if res.info["goal"] else float(np.max(q.lookup(res.observation)))
        row = q.row(obs)
        row[action] += alpha * (res.reward + gamma * bootstrap - row[action])
        ep_return += res.reward
        global_step += 1
        if config.eval_interval and eval_env is not None and global_step % config.eval_interval == 0:
            result.evals.append(
                (global_step, _greedy_rollouts(eval_env, q, config.eval_episodes, derive_seed(config.seed, "eval")))
            )
        if res.done:
            result.curve.append(CurvePoint(global_step, ep_return, step + 1, config.epsilon_at(global_step)))
            ep_return = 0.0
            if config.max_env_steps is not None and global_step >= config.max_env_steps:
                break
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


def _solve_tabular(states, transitions, terminal, start, gamma, horizon, tol):
    """Backward induction over flattened (src, action, dst, prob, reward) arrays.

    Runs at most ``horizon`` backups and stops early once the backup residual
    drops below ``tol`` (the values have then reached the fixed point, so a
    longer horizon cannot change them by more than the residual).
    """
    n = len(states)
    if n == 0:
        raise ValueError("no states to plan over")
    action_count = 1 + max((a for (_, a, _, _, _) in transitions), default=0)
    src = np.fromiter((t[0] for t in transitions), dtype=np.int64, count=len(transitions))
    act = np.fromiter((t[1] for t in transitions), dtype=np.int64, count=len(transitions))
    dst = np.fromiter((t[2] for t in transitions), dtype=np.int64, count=len(transitions))
    prob = np.fromiter((t[3] for t in transitions), dtype=np.float64, count=len(transitions))
    rew = np.fromiter((t[4] for t in transitions), dtype=np.float64, count=len(transitions))
    terminal_mask = np.zeros(n, dtype=bool)
    for i in terminal:
        terminal_mask[i] = True

    values = np.zeros(n)
    iterations = 0
    residual = np.inf
    for _ in range(horizon):
        q = np.zeros((n, action_count))
        np.add.at(q, (src, act), prob * (rew + gamma * values[dst]))
        new_values = q.max(axis=1)
        new_values[terminal_mask] = 0.0
        iterations += 1
        residual = float(np.max(np.abs(new_values - values))) if n else 0.0
        values = new_values
        if residual < tol:
            break
    q = np.zeros((n, action_count))
    np.add.at(q, (src, act), prob * (rew + gamma * values[dst]))
    greedy = q.argmax(axis=1)
    value_map = {states[i]: float(values[i]) for i in range(n)}
    policy = {
        states[i]: int(greedy[i]) for i in range(n) if not terminal_mask[i]
    }
    return ValueSolution(
        values=value_map,
        optimal_return=float(values[start]),
        policy=policy,
        horizon=horizon,
        iterations=iterations,
        residual=residual,
    )


def value_iteration(
    scenario: Scenario,
    gamma: float | None = None,
    horizon: int | None = None,
    tol: float = 1e-9,
    max_obs: int = 100_000,
) -> ValueSolution:
    """Optimal expected return over the exact world dynamics.

    The horizon defaults to the scenario's max_steps; when it is large the
    backups converge first and the early-stop makes this the infinite-
    horizon fixed point.
    """
    gamma = scenario.game.gamma if gamma is None else gamma
    horizon = scenario.game.max_steps if horizon is None else horizon
    states = reachable_observations(scenario, max_obs=max_obs)
    index = {obs: i for i, obs in enumerate(states)}
    goal_flag = scenario.objective_flag
    worths = scenario.flag_worths()
    transitions = []
    terminal = []
    for i, obs in enumerate(states):
        if obs[goal_flag] == 1:
            terminal.append(i)
            continue
        for action in scenario.actions:
            for next_obs, p in exact_transition(scenario, obs, action):
                reward = compute_reward(worths, obs, next_obs, action.cost)
                transitions.append((i, action.id, index[next_obs], p, reward))
    start = index[scenario.initial_observation()]
    return _solve_tabular(states, transitions, terminal, start, gamma, horizon, tol)


def value_iteration_model(model, config, tol: float = 1e-9, horizon: int | None = None) -> ValueSolution:
    """Value iteration on the empirical model itself (not the world).

    Unseen (obs, action) pairs follow the sim's self-transition fallback, so
    the planned MDP is exactly the MDP the sim executes.
    """
    from .empirical import FALLBACK_SELF

    if config.fallback != FALLBACK_SELF:
        raise ValueError("model planning requires the self-transition fallback")
    states = sorted(model.observations())
    index = {obs: i for i, obs in enumerate(states)}
    game = config.game
    horizon = game.max_steps if horizon is None else horizon
    transitions = []
    terminal = []
    for i, obs in enumerate(states):
        if game.is_goal(obs):
            terminal.append(i)
            continue
        for action in range(model.action_count):
            if model.has_pair(obs, action):
                for next_obs, p in model.distribution(obs, action).items():
                    reward = compute_reward(
                        config.flag_worths, obs, next_obs, config.action_costs[action]
                    )
                    transitions.append((i, action, index[next_obs], p, reward))
            else:
                transitions.append((i, action, i, 1.0, -config.action_costs[action]))
    start = index[model.x0]
    return _solve_tabular(states, transitions, terminal, start, game.gamma, horizon, tol)


# --- persistence -------------------------------------------------------------

def save_policy(result_policy, path, *, fingerprint: str, obs_dim: int, train_config: TrainConfig) -> None:
    from .dqn import DqnNet

    if isinstance(result_policy, QTable):
        data = {
            "kind": "q_table",
            "q": {bytes(k).hex(): row.tolist() for k, row in sorted(result_policy.values.items())},
            "action_count": result_policy.action_count,
        }
        action_count = result_policy.action_count
    elif isinstance(result_policy, DqnNet):
        data = {
            "kind": "dqn",
            "hidden_sizes": list(result_policy.hidden_sizes),
            "layers": [
                {"w": w.tolist(), "b": b.tolist()} for w, b in result_policy.layers
            ],
        }
        action_count = result_policy.action_count
    else:
        raise PolicyError(f"cannot serialise policy of type {type(result_policy).__name__}")
    payload = {
        "fingerprint": fingerprint,
        "obs_dim": obs_dim,
        "action_count": action_count,
        "train_config": _config_dict(train_config),
        "data": data,
    }
    artifacts.write_artifact(path, POLICY_FORMAT, payload)


def _config_dict(config: TrainConfig) -> dict:
    doc = asdict(config)
    doc["hidden_sizes"] = list(config.hidden_sizes)
    return doc


@dataclass
class LoadedPolicy:
    policy: object
    algorithm: str
    fingerprint: str
    obs_dim: int
    action_count: int
    train_config: dict

    @property
    def meta(self) -> dict:
        """What ``evaluate.check_compat`` compares against an environment."""
        return {"obs_dim": self.obs_dim, "action_count": self.action_count, "fingerprint": self.fingerprint}


def load_policy(path) -> LoadedPolicy:
    """The policy a file holds; a malformed or out-of-range payload raises PolicyError.

    ``obs_dim`` and ``action_count`` must be positive ints.  Q-table keys
    must decode to ``obs_dim`` values and rows must hold ``action_count``
    values; DQN layer shapes must chain from ``obs_dim`` to ``action_count``.
    """
    from .dqn import DqnNet

    payload = artifacts.read_artifact(path, POLICY_FORMAT)
    try:
        data = payload["data"]
        obs_dim, action_count = payload["obs_dim"], payload["action_count"]
        if not all(n.__class__ is int and n >= 1 for n in (obs_dim, action_count)):
            raise PolicyError(f"obs_dim {obs_dim!r} and action_count {action_count!r} must be positive ints")
        if data["kind"] == "q_table":
            if data["action_count"] != action_count:
                raise PolicyError(f"q-table action_count {data['action_count']!r}, policy {action_count}")
            policy = QTable(action_count)
            for obs_hex, row in data["q"].items():
                obs, values = tuple(bytes.fromhex(obs_hex)), np.array(row, dtype=float)
                if len(obs) != obs_dim or values.shape != (action_count,):
                    raise PolicyError(
                        f"q-table row {obs_hex!r} of shape {values.shape} out of range for "
                        f"obs_dim={obs_dim}, action_count={action_count}"
                    )
                policy.values[obs] = values
        elif data["kind"] == "dqn":
            layers = [
                (np.array(layer["w"], dtype=float), np.array(layer["b"], dtype=float))
                for layer in data["layers"]
            ]
            sizes = [obs_dim, *(len(b) for _, b in layers[:-1]), action_count]
            if [(w.shape, b.shape) for w, b in layers] != [((m, n), (n,)) for m, n in zip(sizes, sizes[1:])]:
                raise PolicyError(f"dqn layers do not chain from obs_dim={obs_dim} to action_count={action_count}")
            policy = DqnNet.from_layers(layers)
        else:
            raise PolicyError(f"unknown policy kind {data['kind']!r}")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PolicyError(f"malformed policy payload: {exc!r}") from None
    return LoadedPolicy(
        policy=policy,
        algorithm=data["kind"],
        fingerprint=payload.get("fingerprint", ""),
        obs_dim=obs_dim,
        action_count=action_count,
        train_config=payload.get("train_config", {}),
    )

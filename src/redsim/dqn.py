"""Deep Q-network in plain numpy: replay buffer, target network, checked gradients.

The network is small enough that hand-written backprop is both faster to
audit and directly verifiable against finite differences, which the test
suite does layer by layer.  float64 throughout so the gradient check is
not fighting rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import TrainConfig, TrainResult, epsilon_greedy_steps
from .envapi import Env, derive_seed

# The benchmark's per-layer tracer (perfbench/layers.py) wraps this name here too.
from .agents import greedy_action  # noqa: F401, E402


class TrainingDivergedError(Exception):
    """Loss or weights became non-finite during training."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (training step {step})")
        self.step = step


class DqnNet:
    """Fully connected ReLU network mapping observations to action values."""

    def __init__(self, obs_dim: int, action_count: int, hidden_sizes=(100, 100), seed: int = 0):
        self.obs_dim = int(obs_dim)
        self.action_count = int(action_count)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        rng = np.random.default_rng(derive_seed(seed, "dqn-init"))
        sizes = (self.obs_dim, *self.hidden_sizes, self.action_count)
        self.layers: list[tuple[np.ndarray, np.ndarray]] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            b = np.zeros(fan_out)
            self.layers.append((w, b))

    @classmethod
    def from_layers(cls, layers) -> "DqnNet":
        net = cls.__new__(cls)
        net.layers = [(np.array(w, dtype=float), np.array(b, dtype=float)) for w, b in layers]
        net.obs_dim = net.layers[0][0].shape[0]
        net.action_count = net.layers[-1][0].shape[1]
        net.hidden_sizes = tuple(w.shape[1] for w, _ in net.layers[:-1])
        return net

    def copy(self) -> "DqnNet":
        return DqnNet.from_layers(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        for w, b in self.layers[:-1]:
            h = np.maximum(h @ w + b, 0.0)
        w, b = self.layers[-1]
        return h @ w + b

    def action_values(self, obs) -> np.ndarray:
        return self.forward(np.asarray(obs, dtype=float)[None, :])[0]

    def loss_and_grads(self, x: np.ndarray, actions: np.ndarray, targets: np.ndarray):
        """Mean squared TD error over the batch and its exact gradients."""
        batch = x.shape[0]
        pre: list[np.ndarray] = []
        post = [x]
        h = x
        for w, b in self.layers[:-1]:
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0)
            post.append(h)
        w, b = self.layers[-1]
        q = h @ w + b

        picked = q[np.arange(batch), actions]
        err = picked - targets
        loss = float(np.mean(err**2))

        dq = np.zeros_like(q)
        dq[np.arange(batch), actions] = 2.0 * err / batch
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        grads[-1] = (post[-1].T @ dq, dq.sum(axis=0))
        dh = dq @ self.layers[-1][0].T
        for i in range(len(self.layers) - 2, -1, -1):
            dz = dh * (pre[i] > 0.0)
            grads[i] = (post[i].T @ dz, dz.sum(axis=0))
            if i > 0:
                dh = dz @ self.layers[i][0].T
        return loss, grads


def numeric_gradients(net: DqnNet, x, actions, targets, delta: float = 1e-6):
    """Central finite differences of the batch loss, parameter by parameter.

    Independent of the analytic backward pass; used as the gradient oracle.
    """

    def loss_only() -> float:
        batch = x.shape[0]
        q = net.forward(x)
        err = q[np.arange(batch), actions] - targets
        return float(np.mean(err**2))

    grads = []
    for w, b in net.layers:
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, grad in ((w, gw), (b, gb)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + delta
                hi = loss_only()
                flat[i] = original - delta
                lo = loss_only()
                flat[i] = original
                gflat[i] = (hi - lo) / (2.0 * delta)
        grads.append((gw, gb))
    return grads


# Adam's moment decay rates and the term that keeps its step's denominator above zero.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, layers, lr: float):
        self.lr = lr
        self.t = 0
        self.m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        self.v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]

    def step(self, layers, grads) -> None:
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        for i, ((w, b), (gw, gb)) in enumerate(zip(layers, grads)):
            mw, mb = self.m[i]
            vw, vb = self.v[i]
            for param, grad, m, v in ((w, gw, mw, vw), (b, gb, mb, vb)):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * grad
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * grad**2
                param -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


@dataclass
class _Replay:
    capacity: int
    obs_dim: int

    def __post_init__(self):
        self.obs = np.zeros((self.capacity, self.obs_dim))
        self.actions = np.zeros(self.capacity, dtype=np.int64)
        self.rewards = np.zeros(self.capacity)
        self.next_obs = np.zeros((self.capacity, self.obs_dim))
        self.goal = np.zeros(self.capacity)
        self.size = 0
        self.cursor = 0

    def push(self, obs, action, reward, next_obs, goal) -> None:
        i = self.cursor
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.goal[i] = 1.0 if goal else 0.0
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng):
        idx = rng.integers(self.size, size=batch_size)
        return (
            self.obs[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_obs[idx],
            self.goal[idx],
        )


def train_dqn(env: Env, config: TrainConfig, eval_env: Env | None = None) -> TrainResult:
    """DQN with uniform replay, TD targets from a periodically synced frozen copy.

    Raises TrainingDivergedError on a non-finite loss instead of silently
    returning a broken policy.  numpy's overflow and invalid-value warnings
    are off, so that check alone reports a divergence.
    """
    rng = np.random.default_rng(derive_seed(config.seed, "dqn"))
    net = DqnNet(env.obs_dim, env.action_count, config.hidden_sizes, seed=config.seed)
    target = net.copy()
    optimizer = Adam(net.layers, lr=config.learning_rate)
    replay = _Replay(config.replay_capacity, env.obs_dim)
    gamma = config.gamma if config.gamma is not None else env.game.gamma
    result = TrainResult(policy=net)
    learn_steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for global_step, obs, action, res in epsilon_greedy_steps(env, config, rng, result, eval_env):
            replay.push(obs, action, res.reward, res.observation, res.info["goal"])
            if replay.size >= config.batch_size:
                b_obs, b_act, b_rew, b_next, b_goal = replay.sample(config.batch_size, rng)
                next_q = target.forward(b_next).max(axis=1)
                targets = b_rew + gamma * next_q * (1.0 - b_goal)
                loss, grads = net.loss_and_grads(b_obs, b_act, targets)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss {loss!r}", global_step)
                optimizer.step(net.layers, grads)
                learn_steps += 1
                if learn_steps % config.target_sync_interval == 0:
                    target = net.copy()
    return result

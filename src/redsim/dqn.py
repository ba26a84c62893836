"""Deep Q-network in plain numpy: replay buffer, target network, checked gradients.

The network is small enough that hand-written backprop is both faster to
audit and directly verifiable against finite differences, which the test
suite does layer by layer.  float64 throughout so the gradient check is
not fighting rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import TrainConfig, TrainingDivergedError, TrainResult, epsilon_greedy_steps
from .envapi import Env, derive_seed

# The benchmark's per-layer tracer (perfbench/layers.py) wraps this name here too.
from .agents import greedy_action  # noqa: F401, E402


def _layer_views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(w, b)`` views into ``flat``, laid out as w0, b0, w1, b1, ..."""
    parts = np.split(flat, np.cumsum([k for m, n in shapes for k in (m * n, n)])[:-1])
    return [(w.reshape(shape), b) for shape, w, b in zip(shapes, parts[::2], parts[1::2])]


class DqnNet:
    """Fully connected ReLU network mapping observations to action values.

    ``layers`` are ``(w, b)`` views into one flat buffer, ``params``; the
    gradients go to a second flat buffer, ``grad``, laid out the same way.
    """

    def __init__(self, obs_dim: int, action_count: int, hidden_sizes=(100, 100), seed: int = 0):
        rng = np.random.default_rng(derive_seed(seed, "dqn-init"))
        sizes = (int(obs_dim), *(int(h) for h in hidden_sizes), int(action_count))
        self._set_layers(
            [(rng.normal(0.0, np.sqrt(2.0 / m), size=(m, n)), np.zeros(n)) for m, n in zip(sizes[:-1], sizes[1:])]
        )

    @classmethod
    def from_layers(cls, layers) -> "DqnNet":
        net = cls.__new__(cls)
        net._set_layers(layers)
        return net

    def _set_layers(self, layers) -> None:
        shapes = [np.shape(w) for w, _ in layers]
        self.obs_dim, self.action_count = shapes[0][0], shapes[-1][1]
        self.hidden_sizes = tuple(n for _, n in shapes[:-1])
        self.params = np.concatenate([np.ravel(a) for layer in layers for a in layer], dtype=float)
        self.grad = np.zeros_like(self.params)
        self.layers = _layer_views(self.params, shapes)
        self._grad_layers = _layer_views(self.grad, shapes)

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
        """Mean squared TD error over the batch and its exact gradients.

        The gradients are written into ``grad``; the returned ``(gw, gb)`` views of it change on the next call.
        """
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

        rows = np.arange(batch)
        err = q[rows, actions] - targets
        loss = float(np.mean(err**2))

        # Walk back from the output layer; dz is the loss's gradient at layer i's pre-activation.
        dz = np.zeros_like(q)
        dz[rows, actions] = 2.0 * err / batch
        grads = self._grad_layers
        for i in range(len(self.layers) - 1, -1, -1):
            np.matmul(post[i].T, dz, out=grads[i][0])
            np.sum(dz, axis=0, out=grads[i][1])
            if i > 0:
                dz = (dz @ self.layers[i][0].T) * (pre[i - 1] > 0.0)
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

    flat = net.params
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + delta
        hi = loss_only()
        flat[i] = original - delta
        lo = loss_only()
        flat[i] = original
        grad[i] = (hi - lo) / (2.0 * delta)
    return _layer_views(grad, [w.shape for w, _ in net.layers])


# Adam's moment decay rates and the term that keeps its step's denominator above zero.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam on one flat parameter vector, updated in place by whole-vector operations."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._step = np.zeros_like(params)
        self._scale = np.zeros_like(params)

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        m, v, step, scale = self.m, self.v, self._step, self._scale
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(grad, grad, out=step)
        step *= 1.0 - ADAM_BETA2
        v += step
        # params -= lr * (m / correct1) / (sqrt(v / correct2) + eps), one operation at a time.
        np.divide(m, correct1, out=step)
        step *= self.lr
        np.divide(v, correct2, out=scale)
        np.sqrt(scale, out=scale)
        scale += ADAM_EPS
        step /= scale
        self.params -= step


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
    if config.algorithm != "dqn":
        raise ValueError(f"a dqn trainer was given a config for {config.algorithm!r}")
    rng = np.random.default_rng(derive_seed(config.seed, "dqn"))
    net = DqnNet(env.obs_dim, env.action_count, config.hidden_sizes, seed=config.seed)
    target = net.copy()
    optimizer = Adam(net.params, lr=config.learning_rate)
    replay = _Replay(config.replay_capacity, env.obs_dim)
    gamma = config.gamma if config.gamma is not None else env.game.gamma
    result = TrainResult(policy=net)
    learn_steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for global_step, obs, action, res in epsilon_greedy_steps(env, config, rng, result, eval_env):
            replay.push(obs, action, res.reward, res.observation, res.goal)
            if replay.size >= config.batch_size:
                b_obs, b_act, b_rew, b_next, b_goal = replay.sample(config.batch_size, rng)
                next_q = target.forward(b_next).max(axis=1)
                targets = b_rew + gamma * next_q * (1.0 - b_goal)
                loss, _ = net.loss_and_grads(b_obs, b_act, targets)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss {loss!r}", global_step)
                optimizer.step(net.grad)
                learn_steps += 1
                if learn_steps % config.target_sync_interval == 0:
                    np.copyto(target.params, net.params)
    return result

"""Numpy DQN: gradient correctness, determinism, divergence handling."""

import numpy as np
import pytest

from redsim.agents import TrainConfig, greedy_action
from redsim.collect import TransitionRecord
from redsim.dqn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    DqnNet,
    TrainingDivergedError,
    numeric_gradients,
    train_dqn,
)
from redsim.empirical import EmpiricalSim, SimConfig, build_model
from redsim.envapi import GameConfig


def _relative_error(analytic, numeric):
    worst = 0.0
    for (gw, gb), (nw, nb) in zip(analytic, numeric):
        for a, n in ((gw, nw), (gb, nb)):
            scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst


def test_gradients_match_central_finite_differences_every_layer():
    rng = np.random.default_rng(123)
    net = DqnNet(obs_dim=6, action_count=4, hidden_sizes=(10, 7), seed=3)
    for _ in range(5):
        x = rng.normal(size=(8, 6))
        actions = rng.integers(4, size=8)
        targets = rng.normal(size=8)
        _, grads = net.loss_and_grads(x, actions, targets)
        numeric = numeric_gradients(net, x, actions, targets)
        assert len(grads) == len(net.layers) == 3
        assert _relative_error(grads, numeric) <= 1e-4


def test_forward_is_deterministic():
    net = DqnNet(obs_dim=4, action_count=3, hidden_sizes=(8,), seed=9)
    x = np.ones((2, 4))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_copy_is_frozen_snapshot():
    net = DqnNet(obs_dim=4, action_count=3, hidden_sizes=(8,), seed=9)
    frozen = net.copy()
    net.layers[0][0][0, 0] += 1.0
    assert frozen.layers[0][0][0, 0] != net.layers[0][0][0, 0]
    # train_dqn syncs its target net by copying into the target's own buffer.
    np.copyto(frozen.params, net.params)
    synced = frozen.params.copy()
    net.params += 1.0
    assert not np.shares_memory(frozen.params, net.params)
    assert np.array_equal(frozen.params, synced)
    assert np.array_equal(frozen.params, _flatten(frozen.layers))


def test_adam_reduces_supervised_loss():
    rng = np.random.default_rng(5)
    net = DqnNet(obs_dim=4, action_count=3, hidden_sizes=(16,), seed=5)
    opt = Adam(net.params, lr=1e-2)
    x = rng.normal(size=(64, 4))
    actions = rng.integers(3, size=64)
    targets = rng.normal(size=64)
    first, grads = net.loss_and_grads(x, actions, targets)
    for _ in range(500):
        loss, grads = net.loss_and_grads(x, actions, targets)
        opt.step(net.grad)
    assert loss < first * 1e-2


def _reference_grads(layers, x, actions, targets):
    """The backward pass on separate per-layer arrays, one fresh array per gradient."""
    pre, post, h = [], [x], x
    for w, b in layers[:-1]:
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        post.append(h)
    w, b = layers[-1]
    q = h @ w + b
    err = q[np.arange(x.shape[0]), actions] - targets
    dq = np.zeros_like(q)
    dq[np.arange(x.shape[0]), actions] = 2.0 * err / x.shape[0]
    grads = [None] * len(layers)
    grads[-1] = (post[-1].T @ dq, dq.sum(axis=0))
    dh = dq @ layers[-1][0].T
    for i in range(len(layers) - 2, -1, -1):
        dz = dh * (pre[i] > 0.0)
        grads[i] = (post[i].T @ dz, dz.sum(axis=0))
        if i > 0:
            dh = dz @ layers[i][0].T
    return float(np.mean(err**2)), grads


class _ReferenceAdam:
    """Adam applied array by array, each with its own moments."""

    def __init__(self, layers, lr):
        self.lr, self.t = lr, 0
        self.m = [np.zeros_like(a) for layer in layers for a in layer]
        self.v = [np.zeros_like(a) for layer in layers for a in layer]

    def step(self, layers, grads):
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        params = [a for layer in layers for a in layer]
        for param, grad, m, v in zip(params, [g for pair in grads for g in pair], self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad**2
            param -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def _flatten(layers):
    return np.concatenate([a.ravel() for layer in layers for a in layer])


@pytest.mark.parametrize("hidden", [(), (16,), (100, 100)])
def test_flat_buffer_matches_per_array_reference_bit_for_bit(hidden):
    rng = np.random.default_rng(len(hidden))
    net = DqnNet(obs_dim=5, action_count=10, hidden_sizes=hidden, seed=4)
    ref_layers = [(w.copy(), b.copy()) for w, b in net.layers]
    opt, ref_opt = Adam(net.params, lr=1e-2), _ReferenceAdam(ref_layers, lr=1e-2)
    for _ in range(6):
        x = rng.integers(0, 2, size=(32, 5)).astype(float)
        actions = rng.integers(10, size=32)
        targets = rng.normal(size=32) * 10.0
        loss, grads = net.loss_and_grads(x, actions, targets)
        ref_loss, ref_grads = _reference_grads(ref_layers, x, actions, targets)
        assert loss == ref_loss
        assert np.array_equal(net.grad, _flatten(ref_grads))
        assert all(np.shares_memory(g, net.grad) for pair in grads for g in pair)
        opt.step(net.grad)
        ref_opt.step(ref_layers, ref_grads)
        assert np.array_equal(net.params, _flatten(ref_layers))


def test_layers_are_views_of_the_flat_buffer():
    net = DqnNet(obs_dim=6, action_count=4, hidden_sizes=(10, 7), seed=3)
    assert net.params.size == sum(w.size + b.size for w, b in net.layers)
    assert np.array_equal(net.params, _flatten(net.layers))
    net.params += 1.0
    assert np.array_equal(net.params, _flatten(net.layers))
    net.layers[1][0][2, 3] = 42.0
    assert 42.0 in net.params


@pytest.mark.parametrize("hidden", [(), (16,), (100, 100)])
def test_from_layers_round_trips(hidden):
    net = DqnNet(obs_dim=5, action_count=10, hidden_sizes=hidden, seed=2)
    for layers in (net.layers, [(w.tolist(), b.tolist()) for w, b in net.layers]):
        back = DqnNet.from_layers(layers)
        assert (back.obs_dim, back.action_count, back.hidden_sizes) == (5, 10, hidden)
        assert np.array_equal(back.params, net.params)
        assert not np.shares_memory(back.params, net.params)
        assert np.array_equal(back.forward(np.eye(5)), net.forward(np.eye(5)))


def _tiny_sim(seed=0):
    o0, goal = (0, 0), (0, 1)
    records = [
        TransitionRecord(e, 0, o0, 1, goal, 0.0, True, True) for e in range(3)
    ] + [TransitionRecord(3 + e, 0, o0, 0, (1, 0), 0.0, True, True) for e in range(3)]
    model = build_model(records, obs_dim=2, action_count=2)
    config = SimConfig(
        game=GameConfig(max_steps=4, gamma=0.99, goal_index=1),
        flag_worths=(0.0, 10.0),
        action_costs=(1.0, 1.0),
    )
    return EmpiricalSim(model, config, seed=seed)


def test_dqn_learns_tiny_task_and_is_deterministic():
    config = TrainConfig(
        algorithm="dqn",
        episodes=150,
        learning_rate=5e-3,
        gamma=0.99,
        epsilon_decay_steps=200,
        replay_capacity=2000,
        batch_size=16,
        target_sync_interval=50,
        hidden_sizes=(16,),
        seed=7,
    )
    first = train_dqn(_tiny_sim(seed=7), config)
    assert greedy_action(first.policy, (0, 0)) == 1
    second = train_dqn(_tiny_sim(seed=7), config)
    for (w1, b1), (w2, b2) in zip(first.policy.layers, second.policy.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert first.curve == second.curve


def test_divergence_raises_with_step_diagnostic():
    config = TrainConfig(
        algorithm="dqn",
        episodes=200,
        learning_rate=1e200,  # guaranteed blow-up
        gamma=1.0,
        epsilon_decay_steps=10,
        replay_capacity=512,
        batch_size=8,
        target_sync_interval=5,
        hidden_sizes=(16,),
        seed=1,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_dqn(_tiny_sim(seed=1), config)
    assert err.value.step > 0

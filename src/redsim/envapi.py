"""Environment contract shared by the ground-truth world and the generated simulator.

Both environments expose the same discrete action space and the same
fixed-length observation layout, so a policy trained against one runs
unmodified against the other.  Observations are tuples of small
non-negative integers (0..255), and those tuples are the keys of every
table in memory (count tables, sampling tables, Q-tables); only the model
and policy file codecs turn them into hex strings.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

Observation = tuple[int, ...]


class EnvError(Exception):
    """Base class for environment contract violations."""


class EpisodeFinishedError(EnvError):
    """step() was called on an episode that already ended."""


class InvalidActionError(EnvError):
    """Action index outside the declared action space."""


def derive_seed(*parts) -> int:
    """Stable 63-bit sub-seed derived from arbitrary labelled parts.

    Used to fan a single master seed out into independent per-episode and
    per-worker streams without any shared RNG state.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class StepResult:
    """One environment transition as seen by the agent."""

    observation: Observation
    reward: float
    done: bool
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GameConfig:
    """Episode-end criteria and discounting for a training game.

    The game ends when the goal feature is set or when ``max_steps``
    actions have been taken, whichever comes first.
    """

    max_steps: int
    gamma: float = 1.0
    goal_index: int = -1

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")

    def is_goal(self, obs) -> bool:
        return obs[self.goal_index] == 1


def compute_reward(flag_worths, obs, next_obs, cost: float) -> float:
    """Worth of newly gained information minus the action cost.

    Each observation feature has a configured worth, paid exactly once:
    when the feature first flips on.  A step that reveals nothing new
    therefore costs ``-cost``.
    """
    if not (len(flag_worths) == len(obs) == len(next_obs)):
        raise ValueError(
            f"dimension mismatch: worths={len(flag_worths)} obs={len(obs)} next={len(next_obs)}"
        )
    gained = 0.0
    for worth, before, after in zip(flag_worths, obs, next_obs):
        if after > before:
            gained += worth
    return gained - cost


class Env(ABC):
    """Reset/step contract implemented by the world and the generated sim.

    Seeding: ``reset(seed=s)`` pins the master seed and restarts the episode
    counter at zero; a bare ``reset()`` advances the counter and derives the
    next episode stream from ``(master seed, episode index)``.  The same
    master seed and action sequence therefore reproduce a run bit for bit,
    and parallel workers get independent streams from derived seeds.

    One instance is single-threaded; run one instance per worker.
    """

    obs_dim: int
    action_count: int
    fingerprint: str

    def __init__(self, game: GameConfig, seed: int = 0):
        self.game = game
        self._master_seed = seed
        self._episode = 0
        self._rng = np.random.default_rng(derive_seed(seed, 0))
        self._steps = 0
        self._done = True

    def reset(self, seed: int | None = None) -> Observation:
        if seed is not None:
            self._master_seed = int(seed)
            self._episode = 0
        else:
            self._episode += 1
        self._rng = np.random.default_rng(derive_seed(self._master_seed, self._episode))
        self._steps = 0
        self._done = False
        return self._reset_state()

    def step(self, action: int) -> StepResult:
        if self._done:
            raise EpisodeFinishedError("episode is over; call reset() first")
        action = int(action)
        if not 0 <= action < self.action_count:
            raise InvalidActionError(
                f"action {action} outside [0, {self.action_count})"
            )
        next_obs, reward, info = self._apply_action(action)
        self._steps += 1
        goal = self.game.is_goal(next_obs)
        truncated = not goal and self._steps >= self.game.max_steps
        self._done = goal or truncated
        info = dict(info)
        info["goal"] = goal
        info["truncated"] = truncated
        return StepResult(next_obs, float(reward), self._done, info)

    @abstractmethod
    def _reset_state(self) -> Observation:
        """Return the initial observation for a fresh episode."""

    @abstractmethod
    def _apply_action(self, action: int) -> tuple[Observation, float, dict]:
        """Advance the internal state; return (next_obs, reward, info).

        ``info`` must contain at least ``action_success``.
        """

    @abstractmethod
    def metadata(self) -> dict:
        """Provenance and default-game metadata recorded into manifests.

        Must contain ``fingerprint``, ``obs_dim``, ``action_count``,
        ``reward`` (``flag_worths``, ``action_costs``) and ``game``
        (``max_steps``, ``gamma``, ``goal_index``).
        """


def rollout(env: Env, choose, episodes: int, seed: int):
    """Play ``episodes`` episodes; yield ``(episode, step, obs, action, result)`` per step.

    The first episode starts with ``reset(seed=seed)`` and each later one
    with a bare ``reset()``, so a run replays from its seed alone.
    ``choose(obs)`` picks each action right before its step.  The generator
    resumes only when the consumer asks for the next step, so whatever the
    consumer does with a step (learning, logging) precedes the next choice
    and the next reset, and a consumer that stops early triggers no reset.
    """
    for episode in range(episodes):
        obs = env.reset(seed=seed) if episode == 0 else env.reset()
        step = 0
        while True:
            action = choose(obs)
            result = env.step(action)
            yield episode, step, obs, action, result
            if result.done:
                break
            obs = result.observation
            step += 1

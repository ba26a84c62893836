"""Environment contract shared by the ground-truth world and the generated simulator.

Both environments expose the same discrete action space and the same
fixed-length observation layout, so a policy trained against one runs
unmodified against the other.  Observations are tuples of small
non-negative integers (0..255), and those tuples key the count tables and
Q-tables in memory; only the model and policy file codecs turn them into
hex strings.  The transition law itself, of the world or of a count model,
compiles to one ``TabularMDP`` over integer state ids, which the planners,
the fidelity audit and the sim read.

Each episode's random stream, Q-learning's and the collection policy's are
``Draws``: ``Generator(PCG64(derive_seed(...)))``'s scalar ``random()`` and
``integers(n)``, replayed bit for bit at a fraction of numpy's per-call cost.

Every environment, scenario, log, model and policy names the network it
belongs to by three values: its fingerprint, ``obs_dim`` and action count.
``network`` reads them, ``read_network`` is the one check of them in a
file, and ``require_same_network`` is the one comparison.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import index

import numpy as np

Observation = tuple[int, ...]


class EnvError(Exception):
    """Base class for environment contract violations."""


class EpisodeFinishedError(EnvError):
    """step() was called on an episode that already ended."""


class InvalidActionError(EnvError):
    """No index into the action space: not an int or numpy int (a bool or a float is none), or out of range."""


def derive_seed(*parts) -> int:
    """Stable 63-bit sub-seed derived from arbitrary labelled parts.

    Used to fan a single master seed out into independent per-episode and
    per-worker streams without any shared RNG state.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Draws:
    """The scalar ``random()`` and ``integers(n)`` of ``np.random.Generator(np.random.PCG64(seed))``, bit for bit.

    numpy's rules on raw 64-bit outputs, read in chunks: ``random()`` is an output's top 53 bits over 2**53, and
    ``integers(n)`` draws nothing for ``n == 1``, else it is Lemire's bounded draw on 32-bit words up to
    ``n == 2**32`` (an output's low half, then its high half, which ``random()`` leaves pending), on outputs above."""

    __slots__ = ("_bits", "_raw", "_half")
    _CHUNK = 32  # raw outputs read at a time: an episode's stream is often short

    def __init__(self, seed: int):
        self._bits, self._raw, self._half = np.random.PCG64(seed), iter(()), None

    def _next64(self) -> int:
        raw = next(self._raw, None)
        if raw is None:
            self._raw = iter(self._bits.random_raw(self._CHUNK).tolist())
            raw = next(self._raw)
        return raw

    def _next32(self) -> int:
        if self._half is None:
            raw = self._next64()
            self._half = raw >> 32
            return raw & 0xFFFFFFFF
        half, self._half = self._half, None
        return half

    def random(self) -> float:
        raw = next(self._raw, None)  # read here, not by _next64: a call per draw costs more than the draw
        return ((self._next64() if raw is None else raw) >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        if n.__class__ is not int:
            n = index(n)  # a numpy int would overflow the products below
        if 1 < n <= 2**32:  # the common case, written out, _next32 too
            half = self._half
            if half is None:
                raw = self._next64()
                half, self._half = raw & 0xFFFFFFFF, raw >> 32
            else:
                self._half = None
            m = half * n
            if m & 0xFFFFFFFF < n:  # only then can the low word fall below the threshold 2**32 % n
                threshold = 2**32 % n
                while m & 0xFFFFFFFF < threshold:
                    m = self._next32() * n
            return m >> 32
        if n == 1:
            return 0
        if not 2**32 < n <= 2**63:  # numpy's int64 range
            raise ValueError(f"integers(n) needs 1 <= n <= 2**63, got {n}")
        m = self._next64() * n
        if m & 0xFFFFFFFFFFFFFFFF < n:
            threshold = 2**64 % n
            while m & 0xFFFFFFFFFFFFFFFF < threshold:
                m = self._next64() * n
        return m >> 64


@dataclass(slots=True)
class StepResult:
    """One environment transition as seen by the agent.  ``goal``, the one end that cuts a learner's bootstrap,
    marks the goal state; ``done and not goal`` is truncation at ``max_steps``.  ``action_success`` is the
    world's success draw, taken when the action's preconditions hold, or the sim's changed observation."""

    observation: Observation
    reward: float
    done: bool
    goal: bool
    action_success: bool


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
        game_number(self.max_steps, "max_steps", STEPS)
        game_number(self.gamma, "gamma", UNIT)
        game_number(self.goal_index, "goal_index", INDEX)

    def is_goal(self, obs) -> bool:
        return obs[self.goal_index] == 1


# The ranges of ``game_number``, each as (the number's type, the test it must pass, both in words).
NON_NEGATIVE = (float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
POSITIVE = (float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
UNIT = (float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
PROBABILITY = (float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
STEPS = (int, lambda v: v >= 1, "an int >= 1")
COUNT = (int, lambda v: v >= 0, "an int >= 0")
INDEX = (int, lambda v: True, "an int")


def game_number(value, name: str, rule: tuple):
    """``value`` as the rule's type if it is a number of that type that passes the rule's test, else ValueError.

    Every range of a file, flag, config or call is checked here.  A bool,
    string, null or numpy int is no number, an int or a float subclass
    (numpy's ``float64``) where a float belongs reads as the float it equals
    (so ``"worth": 2`` and ``"worth": 2.0`` give the same game), and NaN fails every range.
    """
    kind, ok, expected = rule
    try:
        number = kind(value) if value.__class__ is int or (kind is float and isinstance(value, float)) else None
    except OverflowError:  # an int too large for a float
        number = None
    if number is None or not ok(number):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return number


def network(source) -> tuple[str, int, int]:
    """The ``(fingerprint, obs_dim, action_count)`` naming the network of an env, scenario, model, policy, manifest."""
    if isinstance(source, dict):
        return source["fingerprint"], source["obs_dim"], source["action_count"]
    return source.fingerprint, source.obs_dim, source.action_count


def read_network(doc: dict, error) -> tuple[str, int, int]:
    """The network a file's ``doc`` names, or ``error(message)`` unless its fingerprint is a string and
    its ``obs_dim`` and ``action_count`` positive ints; a missing key reads as null and fails too."""
    fingerprint, obs_dim, action_count = (doc.get(key) for key in ("fingerprint", "obs_dim", "action_count"))
    kind, ok, _ = STEPS  # game_number's verdict on an int rule, without its message
    if fingerprint.__class__ is not str or not all(n.__class__ is kind and ok(n) for n in (obs_dim, action_count)):
        raise error(
            f"fingerprint of type {type(fingerprint).__name__} must be a string and "
            f"obs_dim {obs_dim!r} and action_count {action_count!r} positive ints"
        )
    return fingerprint, obs_dim, action_count


def require_same_network(source, target, error, what: str) -> None:
    """Raise ``error`` unless ``source`` names ``target``'s network; ``what`` leads the message, as in
    ``"policy was trained against"``.  Fingerprints are compared exactly, so an empty one matches only another."""
    mine, theirs = network(source), network(target)
    if mine != theirs:
        raise error(
            f"{what} a different environment (fingerprint {mine[0][:12]}, dims {mine[1:]} "
            f"vs fingerprint {theirs[0][:12]}, dims {theirs[1:]})"
        )


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


@dataclass(frozen=True, eq=False)
class TabularMDP:
    """A finite MDP over integer state ids, compiled from a scenario or a count model.

    ``states[s]`` is the observation of state id ``s``.  Row
    ``r = s * action_count + a`` holds what action ``a`` does in state ``s``:
    its entries ``row_start[r]:row_start[r + 1]`` name each next-state id in
    ``next_state``, its probability ``prob`` (float64; each row's sum is 1 up
    to rounding) and the ``reward`` of that transition, which is what
    ``compute_reward`` returns for it.  A model row of a pair the data never
    saw holds one entry back to its own state with probability 1 and reward
    ``-cost``.  ``goal`` marks the states where an episode ends and
    ``start`` is the id every episode starts from.
    """

    states: list[Observation]
    action_count: int
    row_start: np.ndarray
    next_state: np.ndarray
    prob: np.ndarray
    reward: np.ndarray
    goal: np.ndarray
    start: int


class Env(ABC):
    """Reset/step contract of the world and the generated sim: ``step(action)`` returns a ``StepResult``.

    A subclass extends the two hooks, ``_reset_state`` and ``_apply_action``;
    ``reset`` and ``step`` wrap them, and ``rollout`` drives them directly.

    Seeding: ``reset(seed=s)`` pins the master seed and restarts the episode
    counter at zero; a bare ``reset()`` advances the counter and derives the
    next episode stream, the ``Draws`` of ``derive_seed(master seed, episode
    index)``.  The same master seed and action sequence therefore reproduce a
    run bit for bit, and parallel workers get independent streams from
    derived seeds.

    One instance is single-threaded; run one instance per worker.
    """

    obs_dim: int
    action_count: int
    fingerprint: str
    flag_worths: tuple[float, ...]
    action_costs: tuple[float, ...]

    def __init__(self, game: GameConfig, seed: int = 0):
        self.game = game
        self._master_seed = seed
        self._episode = 0
        self._rng = Draws(derive_seed(seed, 0))
        self._steps = 0
        self._done = True

    def reset(self, seed: int | None = None) -> Observation:
        if seed is not None:
            self._master_seed = int(seed)
            self._episode = 0
        else:
            self._episode += 1
        self._rng = Draws(derive_seed(self._master_seed, self._episode))
        self._steps = 0
        self._done = False
        return self._reset_state()

    def step(self, action: int) -> StepResult:
        if self._done:
            raise EpisodeFinishedError("episode is over; call reset() first")
        next_obs, reward, action_success = self._apply_action(self._checked(action))
        self._steps += 1
        goal = self.game.is_goal(next_obs)
        self._done = goal or self._steps >= self.game.max_steps
        return StepResult(next_obs, float(reward), self._done, goal, action_success)

    def _checked(self, action) -> int:
        """``action`` as the int index it names, or InvalidActionError."""
        try:  # a numpy int passes; a bool is sent to the TypeError, since operator.index takes True as 1
            action = index(action if action.__class__ is not bool else None)
        except TypeError:
            raise InvalidActionError(f"action {action!r} of type {type(action).__name__} is not an int index") from None
        if not 0 <= action < self.action_count:
            raise InvalidActionError(f"action {action} outside [0, {self.action_count})")
        return action

    @abstractmethod
    def _reset_state(self) -> Observation:
        """Return the initial observation for a fresh episode."""

    @abstractmethod
    def _apply_action(self, action: int) -> tuple[Observation, float, bool]:
        """Advance the internal state; return (next_obs, reward, action_success)."""

    def metadata(self) -> dict:
        """Provenance and default-game metadata recorded into manifests.

        Read from the attributes each environment sets in its constructor.
        """
        return {
            "fingerprint": self.fingerprint,
            "obs_dim": self.obs_dim,
            "action_count": self.action_count,
            "reward": {"flag_worths": list(self.flag_worths), "action_costs": list(self.action_costs)},
            "game": {
                "max_steps": self.game.max_steps,
                "gamma": self.game.gamma,
                "goal_index": self.game.goal_index,
            },
        }


def rollout(env: Env, choose, episodes: int, seed: int):
    """Play ``episodes`` episodes; yield each step as the log's row, in ``RECORD_FIELDS`` order:
    ``(episode, step, obs, action, next_obs, reward, done, action_success)``.

    The one step loop of collection, training, evaluation and transfer.  The
    first episode starts with ``reset(seed=seed)`` and each later one with a
    bare ``reset()``, so a run replays from its seed alone.  ``choose(obs)``
    picks each action right before its step, which is ``Env.step``'s taken
    through its hooks (an override of ``step`` is not seen): the same action
    check, then ``_apply_action``, and the same ``done`` and float ``reward``.
    Once the generator stops (run out, closed or raising) the env's step count
    and done flag are what ``step`` would have left.  It resumes only when the
    consumer asks for the next step, so whatever the consumer does with a step
    precedes the next choice and the next reset, and a consumer that stops
    early triggers no reset.
    """
    apply, checked, count = env._apply_action, env._checked, env.action_count
    is_goal, max_steps = env.game.is_goal, env.game.max_steps
    taken = None  # None until a reset returns: the env holds what reset or its caller left
    try:
        for episode in range(episodes):
            taken = None
            obs = env.reset(seed=seed) if episode == 0 else env.reset()
            taken, done = 0, False
            for step in range(max_steps):
                action = choose(obs)
                if action.__class__ is not int or not 0 <= action < count:
                    action = checked(action)
                next_obs, reward, success = apply(action)
                taken = step + 1
                done = is_goal(next_obs) or taken >= max_steps
                yield episode, step, obs, action, next_obs, float(reward), done, success
                if done:
                    break
                obs = next_obs
    finally:
        if taken is not None:
            env._steps, env._done = taken, done

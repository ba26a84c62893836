"""redsim: attack-graph training gym with an auto-generated empirical simulator.

The pipeline: play episodes in the ground-truth world, log every
transition, estimate a count-based transition model from the log, train
agents in the fast generated sim, then transfer the policy back to the
world and measure the gap.
"""

from .agents import (
    QTable,
    TrainConfig,
    TrainResult,
    greedy_action,
    load_policy,
    save_policy,
    train_q_learning,
    value_iteration,
    value_iteration_model,
)
from .collect import (
    CollectionResult,
    TransitionRecord,
    epsilon_greedy_policy,
    merge_logs,
    read_log,
    read_manifest,
    run_collection,
    uniform_random_policy,
    validate_log,
)
from .dqn import DqnNet, train_dqn
from .empirical import (
    EmpiricalModel,
    EmpiricalSim,
    SimConfig,
    build_model,
    build_model_from_log,
    load_model,
    merge_models,
    model_stats,
    save_model,
)
from .envapi import (
    Env,
    GameConfig,
    StepResult,
    compute_reward,
    derive_seed,
)
from .evaluate import (
    EvalReport,
    FidelityReport,
    TransferReport,
    evaluate_policy,
    fidelity_report,
    max_steps_study,
    transfer_eval,
)
from .world import (
    AttackWorld,
    Scenario,
    exact_transition,
    load_scenario,
    parse_scenario,
    reachable_observations,
    scenario_from_json,
    shortest_success_path,
)

__version__ = "0.1.0"

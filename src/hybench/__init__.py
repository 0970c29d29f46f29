"""hybench: desk-scale benchmarks for RL that mixes imperfect simulators
with offline data.

The package splits into environments (``envs``), error-injection wrappers
(``wrappers``), offline dataset machinery (``data``), ensemble dynamics
models (``models``), reference agents (``agents``), exact ground truth
(``oracle``) and the benchmark harness (``bench``, ``cli``).
"""

from .agents import (
    AgentConfig,
    BehaviorModel,
    FunctionPolicy,
    Policy,
    QFunction,
    QPolicy,
    UniformPolicy,
    default_agent_config,
    evaluate_policy,
    train_hymopo,
    train_mopo_lite,
    train_offline_bcq,
    train_online_q,
)
# data before bench: the other order's heap layout raised pendulum peak RSS by 11%
from .data import (
    Dataset,
    DatasetMeta,
    DatasetRecipe,
    apply_specs,
    collect_dataset,
    collect_history_confounded,
    corrupt_hide_dims,
    corrupt_obs_noise,
    generate_dataset,
    read_dataset,
    train_tier_policy,
    write_dataset,
)
from .bench import (
    BenchAgent,
    BenchConfig,
    BenchEnv,
    DatasetFile,
    ReferencePair,
    RunResult,
    compute_reference_pair,
    emit_report,
    grid_configs,
    normalize_score,
    run_benchmark,
    run_benchmarks,
)
from .envs import (
    BanditEnv,
    BanditSpec,
    EnvError,
    Environment,
    PendulumEnv,
    PendulumParams,
    StepResult,
    WindyGridEnv,
    WindyGridParams,
    bandit_pull,
    make_env,
    pendulum_step,
    windygrid_step,
)
from .models import (
    CorrectionEnsemble,
    FeatureMap,
    GaussianRegressor,
    ModelConfig,
    fit_ensemble,
    load_ensemble,
    save_ensemble,
)
from .oracle import (
    BanditAnalysis,
    TabularMDP,
    analyze_bandit,
    bandit_confounded_estimates,
    bandit_empirical_check,
    bandit_true_values,
    confounding_behavior_policy,
    exact_policy_eval,
    finite_horizon_policy_value,
    value_iteration,
    windygrid_mdp,
)
from .wrappers import (
    clone_env,
    with_action_delay,
    with_action_noise,
    with_hidden_dims,
    with_obs_noise,
    with_transition_error,
)

__version__ = "0.1.0"

"""Offline reinforcement learning for continuous oxygen-flow dosing,
evaluated against logged care with a proportional-hazards survival model."""

from . import cli, cohort, ddpg, evaluation, figures, nn, survival
from .cohort import (
    CohortMatrix, CohortTable, FeatureSchema, GeneratorConfig, IndexedTransitions,
    PatientRecord, Trajectory, apply_feature_stats, build_transitions,
    compute_feature_stats, default_schema, generate_synthetic_cohort,
    impute_linear, load_cohort, resample_trajectory, split_by_hospital,
    stack_trajectories, write_cohort_csv,
)
from .ddpg import (
    ActorNet, CriticNet, ReplayMemory, TargetPair, TrainingConfig,
    consistency_metric, polyak_update, recommend, td_target, train, train_folds,
)
from .evaluation import EvalOptions, EvalReport, build_report, loho_cross_validate
from .survival import (
    CoxDesign, CoxModel, ElasticNetGrid, concordance_index,
    cosine_similarity, fit_cox, grid_search, paired_binary_test,
    predict_mortality7, predict_survival, prune_correlated,
)

__version__ = "0.1.0"

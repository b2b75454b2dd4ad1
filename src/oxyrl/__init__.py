"""Offline reinforcement learning for continuous oxygen-flow dosing,
evaluated against logged care with a proportional-hazards survival model."""

from . import cli, cohort, ddpg, evaluation, figures, nn, survival

__version__ = "0.1.0"

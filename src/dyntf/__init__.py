"""Temporal tensor factorization for dynamic communication networks.

Factorizes an N x N x K sparse nonnegative interaction tensor into
latent factors with biases and a learnable temporal-dependence weight
matrix. Training uses nonnegative multiplicative updates; the
regularization pair can be adapted on the fly by a small differential-
evolution swarm.
"""

from .errors import DataError, DivergenceError
from .metrics import convergence_rounds, h_score, mae, rmse
from .model import (FactorModel, HyperParams, TemporalWeights, band_indices,
                    compute_temporal, init_positive, load_model, model_from_dict,
                    model_to_dict, objective, predict, predict_entries, save_model)
from .tensor import (DatasetSplit, DatasetStats, ObservedEntry, SparseTensor,
                     compute_stats, generate_synthetic, load_coo, save_coo,
                     split)
from .trainer import (TrainConfig, TrainReport, analytic_gradient, nmu_epoch,
                      train, validation_metrics)
from .tuner import (DEAConfig, Individual, Swarm, adapt_train, crossover,
                    evaluate_individual, init_swarm, mutate_and_bound,
                    paper_fitness, update_best)

__version__ = "0.1.0"

__all__ = [
    "DataError", "DivergenceError",
    "convergence_rounds", "h_score", "mae", "rmse",
    "FactorModel", "HyperParams", "TemporalWeights",
    "band_indices", "compute_temporal", "init_positive", "load_model",
    "model_from_dict", "model_to_dict", "objective", "predict",
    "predict_entries", "save_model",
    "DatasetSplit", "DatasetStats", "ObservedEntry", "SparseTensor",
    "compute_stats", "generate_synthetic", "load_coo",
    "save_coo", "split",
    "TrainConfig", "TrainReport", "analytic_gradient", "nmu_epoch",
    "train", "validation_metrics",
    "DEAConfig", "Individual", "Swarm", "adapt_train", "crossover",
    "evaluate_individual", "init_swarm", "mutate_and_bound",
    "paper_fitness", "update_best",
    "__version__",
]

"""Meta-learned stochastic-gradient MCMC for Bayesian structural model
updating: a shear-building forward model, HMC/SGHMC baselines, a sampler
whose friction and preconditioning come from trainable networks, the
meta-training loop that fits them, and an experiment harness."""

from . import (adaptive, evaluation, harness, samplers, strategy, structural,
               target, training)

__version__ = "0.1.0"

__all__ = [
    "adaptive",
    "evaluation",
    "harness",
    "samplers",
    "strategy",
    "structural",
    "target",
    "training",
    "__version__",
]

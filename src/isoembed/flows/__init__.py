"""Invertible flow models, exact likelihoods, gradients, and training."""

from .coupling import CouplingNet
from .glow import CLAMP, AffineCoupling, ActNorm, GlowModel, GlowSpec, LuLinear
from .nice import NiceModel, NiceSpec
from .serialize import load_flow, save_flow
from .training import (
    Adam,
    FlowModel,
    FlowTrainConfig,
    TrainReport,
    apply_flow,
    build_model,
    dataset_nll,
    flow_forward,
    flow_inverse,
    model_checksum,
    nll,
    nll_gradient,
    train_flow,
)

__all__ = [
    "ActNorm",
    "Adam",
    "AffineCoupling",
    "CLAMP",
    "CouplingNet",
    "FlowModel",
    "FlowTrainConfig",
    "GlowModel",
    "GlowSpec",
    "LuLinear",
    "NiceModel",
    "NiceSpec",
    "TrainReport",
    "apply_flow",
    "build_model",
    "dataset_nll",
    "flow_forward",
    "flow_inverse",
    "load_flow",
    "model_checksum",
    "nll",
    "nll_gradient",
    "save_flow",
    "train_flow",
]

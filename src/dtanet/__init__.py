"""DTANet: treatment-adaptive representation learning for individual,
mediated, and direct treatment effect estimation."""

from .data import ObservationalDataset, SplitIndices, load_csv, write_csv, split
from .metrics import MetricsReport, pehe, policy_risk
from .model import DtanetModel, EffectEstimates, estimate_effects, init_model
from .ot import TransportPlan, cost_matrix, sinkhorn, transport_cost, wasserstein_1d
from .synth import GroundTruth, SynthConfig, generate
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ObservationalDataset", "SplitIndices", "load_csv", "write_csv", "split",
    "MetricsReport", "pehe", "policy_risk",
    "DtanetModel", "EffectEstimates", "estimate_effects", "init_model",
    "TransportPlan", "cost_matrix", "sinkhorn", "transport_cost", "wasserstein_1d",
    "GroundTruth", "SynthConfig", "generate",
    "TrainConfig", "train",
]

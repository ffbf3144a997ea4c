"""Salient object detection with relational reasoning and parallel
multi-scale attention, implemented from scratch on a numpy autodiff engine."""

from .tensor import Tensor, NumericalError, no_grad
from .optim import Adam, LinearSchedule
from .network import (
    NetworkConfig,
    SaliencyPrediction,
    balanced_bce_loss,
    bce_loss,
    init_network_params,
    predict,
)
from .training import TrainSettings, TrainResult, train_model
from .dataio import Sample, synth_dataset, save_checkpoint, load_checkpoint

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "NumericalError",
    "no_grad",
    "Adam",
    "LinearSchedule",
    "NetworkConfig",
    "SaliencyPrediction",
    "balanced_bce_loss",
    "bce_loss",
    "init_network_params",
    "predict",
    "TrainSettings",
    "TrainResult",
    "train_model",
    "Sample",
    "synth_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]

"""Neural-network layers built on :mod:`repro.autograd`."""

from . import init
from .layers import Dense, Embedding
from .losses import (
    binary_cross_entropy_with_logits,
    mse_loss,
    softmax_cross_entropy,
)
from .module import Module, ModuleList, Sequential
from .recurrent import LSTM, LSTMCell

__all__ = [
    "init",
    "Module",
    "ModuleList",
    "Sequential",
    "Dense",
    "Embedding",
    "LSTMCell",
    "LSTM",
    "softmax_cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
]

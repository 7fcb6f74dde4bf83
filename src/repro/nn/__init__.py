"""Neural-network layers built on :mod:`repro.autograd`."""

from .. import _lazy

_lazy.attach(globals(), {
    ".module": ("Module", "ModuleList", "Sequential"),
    ".layers": ("Dense", "Embedding"),
    ".recurrent": ("LSTMCell", "LSTM"),
    ".losses": (
        "softmax_cross_entropy",
        "binary_cross_entropy_with_logits",
        "mse_loss",
    ),
}, submodules=("init",))

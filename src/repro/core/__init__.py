"""Federated optimization algorithms — the paper's core contribution."""

from .. import _lazy

_lazy.attach(globals(), {
    ".server": ("FederatedTrainer",),
    "..comms.config": ("CommsConfig",),
    ".config": ("EvalConfig",),
    ".feddane": ("FedDaneTrainer",),
    ".adaptive_mu": ("AdaptiveMuController",),
    ".callbacks": ("Callback", "EarlyStopping"),
    ".client": ("ClientPool", "ClientUpdate"),
    ".sampling": (
        "SamplingScheme",
        "UniformSamplingWeightedAverage",
        "WeightedSamplingSimpleAverage",
    ),
    ".history": ("TrainingHistory", "RoundRecord"),
    ".dissimilarity": (
        "DissimilarityReport",
        "measure_dissimilarity",
        "bounded_variance_b_upper_bound",
    ),
})

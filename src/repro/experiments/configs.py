"""Experiment scales and per-dataset workload definitions.

The paper's evaluation runs five federated workloads (Synthetic + four
"real" datasets) for up to 200-800 rounds on a GPU machine.  This harness
is CPU-only, so every experiment is parameterized by an
:class:`ExperimentScale`:

* ``smoke`` — seconds-scale configurations the claims run at in CI;
  shapes are qualitative.
* ``default`` — minutes-scale configurations used to produce the numbers
  recorded in EXPERIMENTS.md.
* ``paper`` — the paper's full sizes (1000-device MNIST, 200 rounds, ...);
  hours-scale on one CPU.

Per-dataset hyperparameters (learning rates, K=10 selected devices, E=20
epochs, batch size 10) follow Appendix C.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional

from ..datasets import FederatedDataset
from ..models import FederatedModel
from ..spec import build


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs for one harness scale preset."""

    name: str
    rounds: int  # communication rounds for convex workloads
    lstm_rounds: int  # communication rounds for LSTM workloads
    clients_per_round: int  # K
    epochs: int  # E
    batch_size: int
    eval_every: int
    synthetic_devices: int
    synthetic_size_cap: int
    image_devices: int  # MNIST-like devices
    image_samples: int
    image_dim: int
    femnist_devices: int
    femnist_samples: int
    shakespeare_devices: int
    shakespeare_seq_len: int
    shakespeare_samples_mean: float
    charlstm_hidden: int
    sent140_devices: int
    sent140_seq_len: int
    sent140_vocab: int
    sentlstm_hidden: int
    dissimilarity_max_clients: Optional[int] = None


SMOKE = ExperimentScale(
    name="smoke",
    rounds=12,
    lstm_rounds=4,
    clients_per_round=5,
    epochs=10,
    batch_size=10,
    eval_every=1,
    synthetic_devices=12,
    synthetic_size_cap=200,
    image_devices=30,
    image_samples=900,
    image_dim=64,
    femnist_devices=20,
    femnist_samples=600,
    shakespeare_devices=8,
    shakespeare_seq_len=8,
    shakespeare_samples_mean=20.0,
    charlstm_hidden=12,
    sent140_devices=8,
    sent140_seq_len=8,
    sent140_vocab=120,
    sentlstm_hidden=12,
    dissimilarity_max_clients=20,
)

DEFAULT = ExperimentScale(
    name="default",
    rounds=100,
    lstm_rounds=12,
    clients_per_round=10,
    epochs=20,
    batch_size=10,
    eval_every=2,
    synthetic_devices=30,
    synthetic_size_cap=400,
    image_devices=100,
    image_samples=6000,
    image_dim=100,
    femnist_devices=50,
    femnist_samples=3000,
    shakespeare_devices=12,
    shakespeare_seq_len=10,
    shakespeare_samples_mean=30.0,
    charlstm_hidden=16,
    sent140_devices=12,
    sent140_seq_len=10,
    sent140_vocab=200,
    sentlstm_hidden=16,
    dissimilarity_max_clients=40,
)

PAPER = ExperimentScale(
    name="paper",
    rounds=200,
    lstm_rounds=200,
    clients_per_round=10,
    epochs=20,
    batch_size=10,
    eval_every=5,
    synthetic_devices=30,
    synthetic_size_cap=0,  # 0 means uncapped
    image_devices=1000,
    image_samples=69_035,
    image_dim=784,
    femnist_devices=200,
    femnist_samples=18_345,
    shakespeare_devices=143,
    shakespeare_seq_len=80,
    shakespeare_samples_mean=3616.0,
    charlstm_hidden=100,
    sent140_devices=772,
    sent140_seq_len=25,
    sent140_vocab=400,
    sentlstm_hidden=256,
    dissimilarity_max_clients=60,
)

SCALES: Dict[str, ExperimentScale] = {
    "smoke": SMOKE,
    "default": DEFAULT,
    "paper": PAPER,
}


def get_scale(scale: str) -> ExperimentScale:
    """Look up a scale preset by name."""
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")


@dataclass
class Workload:
    """A dataset recipe paired with its model recipe and tuned hyperparameters.

    The paper tunes the learning rate per dataset on FedAvg and reuses it
    everywhere (Appendix C.2): synthetic 0.01, MNIST 0.03, FEMNIST 0.003,
    Shakespeare 0.8, Sent140 0.3.

    A workload is described, not built: ``dataset_spec`` and ``model_spec``
    are :func:`repro.spec.describe` dicts, which is what a figure cell's
    recipe carries.  :attr:`dataset` builds the federation on first access
    and :meth:`model_factory` a fresh model per call.
    """

    name: str
    dataset_spec: Dict[str, Any]
    model_spec: Dict[str, Any]
    learning_rate: float
    rounds: int

    @cached_property
    def dataset(self) -> FederatedDataset:
        return build(self.dataset_spec, "dataset")

    def model_factory(self) -> FederatedModel:
        return build(self.model_spec, "model")


def _cap(value: int) -> Optional[int]:
    return None if value == 0 else value


def _logistic(dim: int) -> Dict[str, Any]:
    return {"type": "MultinomialLogisticRegression", "dim": dim, "num_classes": 10}


def make_synthetic_workload(
    scale: ExperimentScale, alpha: float, beta: float, seed: int = 0
) -> Workload:
    """``Synthetic(alpha, beta)`` with the paper's logistic model & lr."""
    dataset = {
        "builder": "make_synthetic",
        "alpha": alpha,
        "beta": beta,
        "num_devices": scale.synthetic_devices,
        "seed": seed,
        "size_cap": _cap(scale.synthetic_size_cap),
    }
    return Workload(
        f"Synthetic({alpha:g},{beta:g})", dataset, _logistic(60), 0.01, scale.rounds
    )


def make_synthetic_iid_workload(scale: ExperimentScale, seed: int = 0) -> Workload:
    """``Synthetic-IID`` with the paper's logistic model & lr."""
    dataset = {
        "builder": "make_synthetic_iid",
        "num_devices": scale.synthetic_devices,
        "seed": seed,
        "size_cap": _cap(scale.synthetic_size_cap),
    }
    return Workload("Synthetic-IID", dataset, _logistic(60), 0.01, scale.rounds)


def make_mnist_workload(scale: ExperimentScale, seed: int = 0) -> Workload:
    """MNIST-like: 2 classes/device, power-law sizes, logistic model."""
    dataset = {
        "builder": "make_mnist_like",
        "num_devices": scale.image_devices,
        "total_samples": scale.image_samples,
        "dim": scale.image_dim,
        "seed": seed,
    }
    return Workload(
        "MNIST-like", dataset, _logistic(scale.image_dim), 0.03, scale.rounds
    )


def make_femnist_workload(scale: ExperimentScale, seed: int = 0) -> Workload:
    """FEMNIST-like: 5 classes/device, power-law sizes, logistic model."""
    dataset = {
        "builder": "make_femnist_like",
        "num_devices": scale.femnist_devices,
        "total_samples": scale.femnist_samples,
        "dim": scale.image_dim,
        "seed": seed,
    }
    return Workload(
        "FEMNIST-like", dataset, _logistic(scale.image_dim), 0.003, scale.rounds
    )


def make_shakespeare_workload(scale: ExperimentScale, seed: int = 0) -> Workload:
    """Shakespeare-like next-character prediction with a 2-layer LSTM."""
    vocab = 80
    dataset = {
        "builder": "make_shakespeare_like",
        "num_devices": scale.shakespeare_devices,
        "vocab_size": vocab,
        "seq_len": scale.shakespeare_seq_len,
        "samples_per_device_mean": scale.shakespeare_samples_mean,
        "seed": seed,
    }
    model = {
        "type": "CharLSTM",
        "vocab_size": vocab,
        "embed_dim": 8,
        "hidden": scale.charlstm_hidden,
        "num_layers": 2,
    }
    return Workload("Shakespeare-like", dataset, model, 0.8, scale.lstm_rounds)


def make_sent140_workload(scale: ExperimentScale, seed: int = 0) -> Workload:
    """Sent140-like binary sentiment with a 2-layer LSTM."""
    dataset = {
        "builder": "make_sent140_like",
        "num_devices": scale.sent140_devices,
        "vocab_size": scale.sent140_vocab,
        "seq_len": scale.sent140_seq_len,
        "seed": seed,
    }
    model = {
        "type": "SentimentLSTM",
        "vocab_size": scale.sent140_vocab,
        "embed_dim": 16,
        "hidden": scale.sentlstm_hidden,
        "num_layers": 2,
    }
    return Workload("Sent140-like", dataset, model, 0.3, scale.lstm_rounds)


def figure1_workloads(scale: ExperimentScale, seed: int = 0) -> Dict[str, Workload]:
    """The five datasets of Figures 1/7/8/9/10 in paper order."""
    workloads = [
        make_synthetic_workload(scale, 1.0, 1.0, seed=seed),
        make_mnist_workload(scale, seed=seed),
        make_femnist_workload(scale, seed=seed),
        make_shakespeare_workload(scale, seed=seed),
        make_sent140_workload(scale, seed=seed),
    ]
    return {w.name: w for w in workloads}


def synthetic_suite_workloads(
    scale: ExperimentScale, seed: int = 0
) -> Dict[str, Workload]:
    """The four synthetic datasets of Figures 2/6/11/12 in paper order."""
    workloads = [
        make_synthetic_iid_workload(scale, seed=seed),
        make_synthetic_workload(scale, 0.0, 0.0, seed=seed + 1),
        make_synthetic_workload(scale, 0.5, 0.5, seed=seed + 2),
        make_synthetic_workload(scale, 1.0, 1.0, seed=seed + 3),
    ]
    return {w.name: w for w in workloads}


#: The paper's µ candidate set (Section 5.3.2).
MU_GRID = (0.001, 0.01, 0.1, 1.0)

#: Best µ per Figure 1 dataset as reported in Section 5.3.2.
FIGURE1_BEST_MU = {
    "Synthetic(1,1)": 1.0,
    "MNIST-like": 1.0,
    "FEMNIST-like": 1.0,
    "Shakespeare-like": 0.001,
    "Sent140-like": 0.01,
}

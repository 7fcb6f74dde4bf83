"""Persistence for training artifacts.

Long experiments should be resumable and auditable: these helpers save and
load model parameters (``.npz``), training histories (``.json``), and
whole figure results (a directory of both).  Formats are plain NumPy/JSON
so saved runs remain readable without this package.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..core.history import RoundRecord, TrainingHistory
from ..models.base import FederatedModel
from ..telemetry.ledger import canonical_record

PathLike = Union[str, Path]


def save_model_params(path: PathLike, model: FederatedModel) -> Path:
    """Save a model's flat parameter vector to an ``.npz`` file.

    A ``.npz`` suffix is appended when missing (NumPy's convention).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, w=model.get_params())
    return path


def load_model_params(path: PathLike, model: FederatedModel) -> None:
    """Load parameters saved by :func:`save_model_params` into ``model``.

    Raises
    ------
    ValueError
        If the stored vector does not match the model's parameter count.
    """
    with np.load(Path(path)) as data:
        w = data["w"]
    model.set_params(w)


def history_to_dict(history: TrainingHistory) -> dict:
    """JSON-serializable representation of a training history.

    Each record is the ledger's canonical round record
    (:func:`~repro.telemetry.ledger.canonical_record`): every
    :class:`RoundRecord` field as a plain Python value, so a history file
    and a ledger's ``round_record`` events hold the same dicts and a saved
    history round-trips losslessly.
    """
    return {
        "label": history.label,
        "records": [canonical_record(r) for r in history.records],
    }


def history_from_dict(payload: dict) -> TrainingHistory:
    """Inverse of :func:`history_to_dict`.

    Fields a file does not hold (histories saved before the
    sampled-evaluation and fault fields existed) default exactly as a
    fresh record would.  ``train_loss`` may be ``None`` on rounds whose
    training-loss evaluation was skipped (``eval_train_every`` > 1).
    """
    history = TrainingHistory(label=payload.get("label", ""))
    for r in payload["records"]:
        held = {k: v for k, v in canonical_record(r).items() if k in r}
        history.append(RoundRecord(**held))
    return history


def save_history(path: PathLike, history: TrainingHistory) -> Path:
    """Save a training history as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history_to_dict(history), indent=2))
    return path


def load_history(path: PathLike) -> TrainingHistory:
    """Load a history saved by :func:`save_history`."""
    return history_from_dict(json.loads(Path(path).read_text()))


def save_checkpoint(
    directory: PathLike, model: FederatedModel, history: TrainingHistory
) -> Path:
    """Save a resumable checkpoint: parameters + history in one directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(directory / "params.npz", w=model.get_params())
    save_history(directory / "history.json", history)
    return directory


def load_checkpoint(
    directory: PathLike, model: FederatedModel
) -> TrainingHistory:
    """Restore a checkpoint saved by :func:`save_checkpoint`.

    Loads the parameters into ``model`` and returns the saved history.
    """
    directory = Path(directory)
    load_model_params(directory / "params.npz", model)
    return load_history(directory / "history.json")

"""LEAF-format dataset interchange.

The paper's datasets come from LEAF (Caldas et al., 2018), whose JSON
format the reference FedProx implementation consumes::

    {
      "users": ["user0", "user1", ...],
      "num_samples": [n0, n1, ...],
      "user_data": {"user0": {"x": [[...], ...], "y": [...]}, ...}
    }

with separate train/test files.  These helpers let this package exchange
federations with real LEAF data: :func:`load_leaf` builds a
:class:`FederatedDataset` from a LEAF train/test JSON pair, and
:func:`save_leaf` exports any federation back to the format (so our
synthetic stand-ins can be fed to other LEAF-based systems).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .federated import FederatedDataset, PackedClientStore

PathLike = Union[str, Path]


def _validate_leaf_payload(payload: dict, path: Path) -> None:
    for key in ("users", "num_samples", "user_data"):
        if key not in payload:
            raise ValueError(f"{path}: missing LEAF key {key!r}")
    if len(payload["users"]) != len(payload["num_samples"]):
        raise ValueError(f"{path}: users/num_samples length mismatch")
    for user in payload["users"]:
        if user not in payload["user_data"]:
            raise ValueError(f"{path}: user {user!r} missing from user_data")
        entry = payload["user_data"][user]
        if "x" not in entry or "y" not in entry:
            raise ValueError(f"{path}: user {user!r} entry missing x/y")
        if len(entry["x"]) != len(entry["y"]):
            raise ValueError(f"{path}: user {user!r} has x/y length mismatch")


def load_leaf(
    train_path: PathLike,
    test_path: Optional[PathLike] = None,
    name: str = "leaf",
    x_dtype: type = np.float64,
) -> FederatedDataset:
    """Load a federation from LEAF train (and optional test) JSON files.

    Users present only in the train file get empty test sets.  Labels are
    coerced to integers; the class count is inferred from the maximum
    label across both splits.  The federation is packed
    (:class:`~repro.datasets.federated.PackedClientStore`): one copy of the
    samples, every client four views of it, which the stacked census reads
    in place.

    Parameters
    ----------
    train_path, test_path:
        LEAF JSON files.
    name:
        Dataset display name.
    x_dtype:
        dtype for feature arrays (use an integer dtype for token data).
    """
    train_path = Path(train_path)
    train_payload = json.loads(train_path.read_text())
    _validate_leaf_payload(train_payload, train_path)

    test_payload: dict = {"users": [], "user_data": {}}
    if test_path is not None:
        test_path = Path(test_path)
        test_payload = json.loads(test_path.read_text())
        _validate_leaf_payload(test_payload, test_path)

    # A packed store's layout: every user's train rows, then every user's
    # test rows, in user order; offsets say whose rows are whose.
    xs, ys, offsets = [], [], []
    for payload in (train_payload, test_payload):
        sizes = [0]
        for user in train_payload["users"]:
            entry = payload["user_data"].get(user, {"x": [], "y": []})
            xs.append(np.asarray(entry["x"], dtype=x_dtype))
            ys.append(np.asarray(entry["y"], dtype=np.int64))
            sizes.append(len(ys[-1]))
        offsets.append(np.cumsum(sizes))
    # A user without samples parses as shape (0,), whatever the rows are.
    row_shape = next((x.shape[1:] for x in xs if x.size), ())
    y = np.concatenate(ys)
    store = PackedClientStore(
        np.concatenate([x.reshape((-1,) + row_shape) for x in xs]), y, *offsets
    )
    return FederatedDataset(
        name=name,
        store=store,
        num_classes=int(y.max()) + 1 if y.size else 0,
        input_dim=row_shape[0] if row_shape else None,
    )


def save_leaf(
    dataset: FederatedDataset,
    train_path: PathLike,
    test_path: Optional[PathLike] = None,
) -> None:
    """Export a federation to LEAF train/test JSON files.

    Device ``k`` becomes user ``"f_{k:05d}"`` (LEAF's naming convention).
    """
    def payload(split: str) -> dict:
        users = []
        num_samples = []
        user_data = {}
        for client in dataset:
            user = f"f_{client.client_id:05d}"
            if split == "train":
                x, y = client.train_x, client.train_y
            else:
                x, y = client.test_x, client.test_y
            users.append(user)
            num_samples.append(int(len(y)))
            user_data[user] = {
                "x": np.asarray(x).tolist(),
                "y": np.asarray(y).tolist(),
            }
        return {"users": users, "num_samples": num_samples, "user_data": user_data}

    train_path = Path(train_path)
    train_path.parent.mkdir(parents=True, exist_ok=True)
    train_path.write_text(json.dumps(payload("train")))
    if test_path is not None:
        test_path = Path(test_path)
        test_path.parent.mkdir(parents=True, exist_ok=True)
        test_path.write_text(json.dumps(payload("test")))

"""Module base class with parameter registration and flat packing.

Federated algorithms in :mod:`repro.core` operate on flat parameter vectors
(the model ``w`` of the paper).  :class:`Module` therefore exposes
``get_flat`` / ``set_flat`` / ``flat_grad`` alongside the usual
parameter-registry behaviour familiar from mainstream frameworks.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor


class Module:
    """Base class for neural network components.

    Subclasses assign :class:`~repro.autograd.Tensor` attributes (parameters,
    ``requires_grad=True``) or other :class:`Module` attributes (children);
    both are discovered automatically, in deterministic attribute-assignment
    order, for iteration and flat packing.
    """

    #: Bumped by every registration on *any* module.  A module's cached
    #: parameter list is valid while this still reads what it read when the
    #: list was built, so a parameter added to a grandchild invalidates the
    #: root's list without the tree needing parent links.
    _registrations = 0
    _param_cache = None  # (``_registrations`` when built, parameter list)

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
            Module._registrations += 1
        elif isinstance(value, Module):
            self._children[name] = value
            Module._registrations += 1
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        # The counter the cache is stamped with means nothing in another
        # process: a pickled module rebuilds its list on first use.
        return {**self.__dict__, "_param_cache": None}

    # ------------------------------------------------------------------ #
    # Parameter iteration
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Tensor]:
        """All trainable tensors of this module and its children.

        The tree is walked once per registration, not once per call (a
        training step asks four times); callers must not mutate the list.
        """
        cache = self._param_cache
        if cache is None or cache[0] != Module._registrations:
            cache = (Module._registrations, [p for _, p in self.named_parameters()])
            object.__setattr__(self, "_param_cache", cache)
        return cache[1]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(dotted_name, tensor)`` pairs in registration order."""
        for name, param in self._params.items():
            yield (f"{prefix}{name}", param)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Flat-vector interface (the federated ``w``)
    # ------------------------------------------------------------------ #
    def get_flat(self) -> np.ndarray:
        """Concatenate all parameters into one flat ``float64`` vector."""
        parts = [p.data.reshape(-1) for p in self.parameters()]
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(parts).astype(np.float64, copy=True)

    def set_flat(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of :meth:`get_flat`).

        A parameter whose ``data`` is a float64 array owning its memory is
        overwritten in place — the training loop calls this once per step —
        and any other (a view, another dtype) is replaced by a fresh copy.

        Raises
        ------
        ValueError
            If the vector length does not match :meth:`num_parameters`.
        """
        flat = np.asarray(flat, dtype=np.float64)
        expected = self.num_parameters()
        if flat.size != expected:
            raise ValueError(
                f"flat vector has {flat.size} entries, model needs {expected}"
            )
        offset = 0
        for p in self.parameters():
            block = flat[offset : offset + p.size].reshape(p.shape)
            data = p.data
            if data.flags.owndata and data.dtype == flat.dtype:
                np.copyto(data, block)
            else:
                p.data = block.copy()
            offset += p.size

    def flat_grad(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Concatenate parameter gradients into a flat vector.

        Parameters never touched by the last backward pass contribute zeros.
        Written into ``out`` (``(num_parameters(),)`` float64) when given.
        """
        if out is None:
            out = np.empty(self.num_parameters(), dtype=np.float64)
        offset = 0
        for p in self.parameters():
            segment = out[offset : offset + p.size]
            if p.grad is None:
                segment.fill(0.0)
            else:
                segment[:] = p.grad.reshape(-1)
            offset += p.size
        if out.shape != (offset,):
            raise ValueError(
                f"out has shape {out.shape}, the flat gradient needs ({offset},)"
            )
        return out

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        """Compute the module output; must be overridden."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Hold an ordered list of sub-modules, registering each child."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: List[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        """Add a module to the end of the list."""
        index = len(self._items)
        self._items.append(module)
        self._children[str(index)] = module
        Module._registrations += 1

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):
        raise NotImplementedError("ModuleList is a container, not callable")


class Sequential(Module):
    """Chain modules, feeding each output into the next."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = ModuleList(modules)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

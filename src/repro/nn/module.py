"""Module system: parameter containers with PyTorch-like ergonomics.

A :class:`Module` automatically registers :class:`Parameter` and child
``Module`` attributes, exposes recursive iteration (``parameters``,
``named_modules`` ...), train/eval mode switching, and ``state_dict``
serialization (plain numpy arrays, so checkpoints are ``np.savez``-able).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor

# Process-wide monotonic ids for Parameter identity in deployment caches.
# Never recycled (unlike ``id()``), so a (uid, version) pair uniquely names
# one state of one parameter for the lifetime of the process.
_PARAM_UIDS = itertools.count(1)


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable leaf of a :class:`Module`.

    Every parameter carries a *version counter* (``_version``) bumped by
    :meth:`mark_updated` whenever its values change — optimizer steps,
    ``load_state_dict``, initializers.  Deployment-time consumers (the
    quantization cache of :class:`repro.quant.layers.QuantizedComputeLayer`)
    key derived state on ``(uid, version)``: unchanged weights serve cached
    codes, a training step transparently invalidates them.
    """

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self._uid = next(_PARAM_UIDS)
        self._version = 0

    def mark_updated(self) -> None:
        """Record that the parameter's values changed (invalidates caches)."""
        self._version += 1

    @property
    def version_key(self) -> Tuple[int, int]:
        """Hashable fingerprint of this parameter's current state."""
        return (self._uid, self._version)


class Module:
    """Base class for all neural-network layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self.__dict__.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self.__dict__.pop(name, None)
        else:
            # Reassigning a registered name with a non-param/module clears it.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # Only called when normal lookup fails.
        for store in ("_parameters", "_modules", "_buffers"):
            registry = self.__dict__.get(store)
            if registry is not None and name in registry:
                return registry[name]
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. running statistics)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        """Apply ``fn`` to self and every submodule (depth-first)."""
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------------
    # Mode and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters and buffers as a flat dict of copies."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict` (strict shapes)."""
        params = dict(self.named_parameters())
        loaded = set()
        for name, value in state.items():
            if name.startswith("buffer:"):
                continue
            if name not in params:
                raise KeyError(f"unexpected parameter {name!r} in state dict")
            if params[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{params[name].shape} vs {value.shape}"
                )
            params[name].data[...] = value
            params[name].mark_updated()
            loaded.add(name)
        missing = set(params) - loaded
        if missing:
            raise KeyError(f"missing parameters in state dict: {sorted(missing)}")
        self._load_buffers(state)

    def _load_buffers(self, state: Dict[str, np.ndarray]) -> None:
        buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                buffer_owners[full] = (module, buf_name)
        for name, value in state.items():
            if not name.startswith("buffer:"):
                continue
            key = name[len("buffer:") :]
            if key in buffer_owners:
                module, buf_name = buffer_owners[key]
                module._buffers[buf_name] = value.copy()

    def save(self, path: str) -> None:
        """Persist the state dict with ``np.savez``, atomically.

        Trained float64 weights barely compress, so the archive is stored
        uncompressed (:meth:`load` reads compressed checkpoints as well).
        The arrays go to a uniquely named temp file beside ``path`` that
        is renamed over it, so a writer killed mid-save leaves the old
        file or none, never a truncated one.  Like ``np.savez``, a path
        without the ``.npz`` suffix gets it appended.
        """
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        directory, name = os.path.split(path)
        tmp = os.path.join(
            directory, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **self.state_dict())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def load(self, path: str) -> None:
        """Load a checkpoint written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({k: archive[k] for k in archive.files})

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {repr(mod)}".replace("\n", "\n  ")
            for name, mod in self._modules.items()
        ]
        header = self.extra_repr()
        if not child_lines:
            return f"{type(self).__name__}({header})"
        body = "\n".join(child_lines)
        return f"{type(self).__name__}({header}\n{body}\n)"

    def extra_repr(self) -> str:
        return ""


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, module in enumerate(modules):
            self.register_module(str(i), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def append(self, module: Module) -> "Sequential":
        self.register_module(str(len(self._modules)), module)
        return self

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """List container whose elements are registered as submodules."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.register_module(str(len(self._modules)), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")


class Identity(Module):
    """No-op module (placeholder for optional layers)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Lambda(Module):
    """Wrap an arbitrary tensor function as a module."""

    def __init__(self, fn: Callable[[Tensor], Tensor], name: str = "fn"):
        super().__init__()
        self._fn = fn
        self._name = name

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)

    def extra_repr(self) -> str:
        return self._name

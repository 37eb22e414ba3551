"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class — the computational substrate
for the whole library.  It intentionally mirrors a small, explicit subset of
the PyTorch tensor API (``+``, ``@``, ``sum``, ``reshape``, ``backward`` ...)
so that the layer and model code in :mod:`repro.nn` reads like mainstream
deep-learning code.

Implementation notes
--------------------
* Graphs are recorded eagerly: every differentiable operation creates a new
  ``Tensor`` holding a closure (``_backward``) that, given the output
  gradient, accumulates gradients into its parents.
* ``backward`` performs an iterative topological sort (no recursion, so deep
  LSTM graphs do not hit the interpreter recursion limit) and walks it in
  one pass.  Gradients of interior nodes never touch ``.grad``: while a
  closure runs, ``_accumulate`` stages them in a per-thread dict, and
  ``backward`` merges that into its running sums when the closure
  returns.  Only leaves (parameters, inputs) get a ``.grad``.
* ``backward`` frees the graph as it consumes it: before a node's closure
  runs, the node drops its parents and the closure, so saved arrays (im2col
  columns, masks, temporaries) die during the pass.  A second ``backward``
  that reaches a freed node raises ``RuntimeError``; build a new graph
  instead.
* Broadcasting is supported everywhere numpy broadcasts; gradients of
  broadcast operands are reduced back to the operand shape by
  :func:`unbroadcast`.
* Default dtype is ``float64`` — the models here are small, and double
  precision makes finite-difference gradient checks tight.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .grad_mode import _MODE

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

DEFAULT_DTYPE = np.float64
_FLOAT64 = np.dtype(DEFAULT_DTYPE)


class _Staging(threading.local):
    """Per-thread staging dict of the running :meth:`Tensor.backward`.

    ``grads`` maps ``id(node)`` to the gradient the current closure has
    sent to that interior node, and is ``None`` outside ``backward``.
    Per thread, because forwards and backwards run on several threads.
    """

    grads: Optional[dict] = None


_STAGING = _Staging()


def _freed_backward(grad: np.ndarray) -> None:
    """Stands in for a closure that :meth:`Tensor.backward` has run."""
    raise RuntimeError("graph already freed by backward()")


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Inverse of numpy broadcasting: sums over axes that were added or
    stretched when an operand of ``shape`` was broadcast to ``grad.shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that broadcasting prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Copied only if conversion requires.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    # Make numpy defer to Tensor.__radd__ etc. instead of elementwise-looping.
    __array_priority__ = 100.0

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Create an output tensor, recording history if grad mode is on.

        Every recorded op ends here, so it skips ``__init__``: a float64
        ndarray is kept as is, anything else goes through ``np.asarray``
        exactly as ``__init__`` would.
        """
        out = object.__new__(Tensor)
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=DEFAULT_DTYPE)
        out.data = data
        out.grad = None
        if _MODE.enabled:
            for parent in parents:
                if parent.requires_grad:
                    out.requires_grad = True
                    out._backward = backward
                    out._parents = tuple(parents)
                    out._op = op
                    return out
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        out._op = ""
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use).

        Inside :meth:`backward` an interior node's gradient goes to the
        running closure's staging dict instead, with the same first-use
        copy and ``+=``; :meth:`backward` merges it once the closure
        returns.
        """
        if not self.requires_grad:
            return
        staged = _STAGING.grads
        if staged is not None and self._backward is not None:
            # Interior node inside backward(): stage in the running pass.
            key = id(self)
            if key in staged:
                staged[key] += grad
            else:
                staged[key] = np.add(grad, 0.0, out=np.empty_like(self.data))
        elif self.grad is None:
            # One allocation instead of a zero fill plus ``+=``: adding
            # ``0.0`` gives the same bits (``-0.0`` becomes ``+0.0``), and
            # ``out=`` broadcasts and casts to ``self.data`` like ``+=``.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_note})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, no copy)."""
        return self.data

    def tolist(self):
        return self.data.tolist()

    # ------------------------------------------------------------------
    # Graph management
    # ------------------------------------------------------------------
    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        out = Tensor(self.data)
        return out

    def clone(self) -> "Tensor":
        """Return a differentiable copy."""

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)

        return Tensor._make(self.data.copy(), [self], backward, "clone")

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            ``1.0`` which requires this tensor to be a scalar.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise RuntimeError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        # Iterative topological order over the graph reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Seed and propagate in reverse topological order.  Each closure's
        # contributions to interior parents are staged (see _accumulate)
        # and merged into ``grads`` once it returns: summing a closure's
        # own contributions first keeps the engine's summation order.
        grads: dict[int, np.ndarray] = {id(self): grad}
        staged: dict[int, np.ndarray] = {}
        _STAGING.grads = staged
        try:
            while order:
                node = order.pop()
                closure = node._backward
                if closure is not None:
                    # Free as we go: once run, the closure and the arrays it
                    # saved die here, not when the next forward replaces
                    # the graph.
                    node._parents = ()
                    node._backward = _freed_backward
                node_grad = grads.pop(id(node), None)
                if node_grad is None:
                    continue
                if closure is None:
                    # Leaf tensor: accumulate into .grad.
                    node._accumulate(node_grad)
                    continue
                closure(node_grad)
                for key, g in staged.items():
                    grads[key] = g if key not in grads else grads[key] + g
                staged.clear()
        finally:
            _STAGING.grads = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other_t._accumulate(unbroadcast(grad, other_t.shape))

        return Tensor._make(data, [self, other_t], backward, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other_t._accumulate(unbroadcast(-grad, other_t.shape))

        return Tensor._make(data, [self, other_t], backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other_t.data, self.shape))
            other_t._accumulate(unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(data, [self, other_t], backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other_t.data, self.shape))
            other_t._accumulate(
                unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape)
            )

        return Tensor._make(data, [self, other_t], backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, [self], backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, [self], backward, f"pow{exponent}")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(
                        unbroadcast(np.multiply.outer(grad, other_t.data), self.shape)
                        if self.data.ndim > 1
                        else grad * other_t.data
                    )
                else:
                    g = grad @ np.swapaxes(other_t.data, -1, -2)
                    self._accumulate(unbroadcast(g, self.shape))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(
                        unbroadcast(np.multiply.outer(self.data, grad), other_t.shape)
                    )
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other_t._accumulate(unbroadcast(g, other_t.shape))

        return Tensor._make(data, [self, other_t], backward, "matmul")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(data, [self], backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased (population) variance, matching normalization-layer usage."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                d = np.expand_dims(d, axis=axis)
            mask = self.data == d
            # Split gradient between ties, like numpy/pytorch max backward.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(data, [self], backward, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, [self], backward, "reshape")

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes_t = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = tuple(axes)
        data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort(axes_t))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, [self], backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(data, [self], backward, "expand_dims")

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, [self], backward, "squeeze")

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, [self], backward, "getitem")

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """A zero-filled tensor of the given shape."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """A one-filled tensor of the given shape."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def stack_tensors(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack`` over a sequence of tensors."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tensors, backward, "stack")


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tensors, backward, "concatenate")

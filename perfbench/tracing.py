"""Span tracer for the artifact benchmark.

The benchmark measures the program without changing it, so tracing is
installed from here: :func:`install` replaces each traced function with
a wrapper wherever the program looks the name up (every ``repro`` module
that bound the function object, and the class that defines a method).

One span is recorded per call: ``(name, start, end, self_seconds,
thread_id, value)``.  Each thread keeps its own stack of open spans, so
the daemon's worker threads never mix.  A span's self time is its
duration minus the time covered by its child spans.  A call made while
the innermost open span belongs to the same layer opens no span, so
nested calls of one layer are counted once (``conv1d`` calls ``conv2d``;
``conv2d`` calls itself to fold a chip axis).  ``value`` carries the
count a span contributes to a per-layer counter (GEMM flops, bytes on
the wire, a store hit).

Spans are kept in memory and written once, at process exit
(:meth:`Tracer.dump`).  The clock is ``time.monotonic``, which is the
same system-wide clock in every process, so ``run.py`` can place a
child's spans inside the windows it timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """Thread-aware in-memory span recorder."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.records: List[tuple] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: Optional[str] = None,
        value: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``value(args, kwargs, result, state)`` computes the span's counter
        contribution after the call, where ``state`` is what
        ``before(args, kwargs)`` returned just before it.
        """
        layer = layer or name
        clock = self.clock
        records = self.records

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                amount = (value(args, kwargs, result, state)
                          if value is not None and returned else None)
                records.append((name, start, end, end - start - frame[1],
                                threading.get_ident(), amount))

        return functools.wraps(fn)(traced)

    def dump(self, path: str, **extra) -> None:
        """Write every recorded span (and ``extra`` fields) as JSON."""
        with open(path, "w") as fh:
            json.dump({"records": self.records, **extra}, fh)


# ----------------------------------------------------------------------
# Counter contributions
# ----------------------------------------------------------------------
def _conv2d_flops(args, kwargs, out, state):
    """Multiply-add flops of one conv2d call, from its shapes.

    Every output element is a dot product of length ``c_in * kh * kw``
    (the weight's last three axes), for shared and per-chip kernels
    alike.
    """
    weight = kwargs.get("weight", args[1] if len(args) > 1 else None)
    taps = 1
    for dim in weight.shape[-3:]:
        taps *= int(dim)
    return 2.0 * out.data.size * taps


def _cell_count(args, kwargs, result, state):
    return len(kwargs.get("cells", args[0] if args else ()))


def _store_hit(args, kwargs, values, state):
    return 1 if values is not None else 0


def _store_put_bytes(args, kwargs, newly, state):
    values = kwargs.get("values", args[2] if len(args) > 2 else None)
    return int(getattr(values, "nbytes", 0)) if newly else 0


def _frame_bytes(message) -> int:
    # 12-byte header (length + CRC-32) + the pickled payload, as framed
    # by repro.serve.protocol.
    return 12 + len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def _sent_bytes(args, kwargs, result, state):
    return _frame_bytes(kwargs.get("message", args[1] if len(args) > 1 else None))


def _received_bytes(args, kwargs, message, state):
    return _frame_bytes(message)


def _program_counts(args, kwargs):
    from repro.faults.campaign import program_stats

    stats = program_stats(args[0].model)
    return stats, stats.attached, stats.skipped


def _program_outcome(args, kwargs, result, state):
    """Registry outcome: [hits, misses] (0/0 for a fault-free detach)."""
    stats, attached, skipped = state
    return [stats.skipped - skipped, stats.attached - attached]


#: (module, attribute, span name, layer, value, before).  ``attribute``
#: may be ``Class.method``.  Layers group names whose nested calls count
#: once; a missing layer means the name is its own layer.
TARGETS: Sequence[Tuple] = (
    ("repro.eval.tasks", "build_task", "data.build_task", None, None, None),
    ("repro.eval.cache", "trained_model", "eval.cache.model", None, None, None),
    ("repro.train.trainer", "Trainer.fit", "train.fit", None, None, None),
    ("repro.train.optim", "SGD.step", "train.opt_step", None, None, None),
    ("repro.train.optim", "Adam.step", "train.opt_step", None, None, None),
    ("repro.tensor.tensor", "Tensor.backward", "tensor.backward", None, None,
     None),
    ("repro.faults.executor", "run_cells", "faults.run_cells", None,
     _cell_count, None),
    ("repro.tensor.plan", "call_planned", "tensor.plan.call", None, None,
     None),
    ("repro.tensor.plan", "Plan.__init__", "tensor.plan.compile", None, None,
     None),
    ("repro.tensor.plan", "Plan.replay", "tensor.plan.replay", None, None,
     None),
    ("repro.tensor.conv", "conv2d", "tensor.conv.conv2d", "tensor.conv",
     _conv2d_flops, None),
    ("repro.tensor.conv", "conv1d", "tensor.conv.conv1d", "tensor.conv",
     None, None),
    ("repro.tensor.conv", "conv_transpose2d", "tensor.conv.conv_transpose2d",
     "tensor.conv", None, None),
    ("repro.tensor.conv", "max_pool2d", "tensor.conv.pool", "tensor.conv",
     None, None),
    ("repro.tensor.conv", "avg_pool2d", "tensor.conv.pool", "tensor.conv",
     None, None),
    ("repro.tensor.conv", "max_pool1d", "tensor.conv.pool", "tensor.conv",
     None, None),
    ("repro.tensor.conv", "avg_pool1d", "tensor.conv.pool", "tensor.conv",
     None, None),
    ("repro.quant.layers", "QuantLSTMCell.forward", "quant.lstm_cell", None,
     None, None),
    ("repro.quant.layers", "QuantLinear.forward", "quant.linear", None, None,
     None),
    ("repro.core.inverted_norm", "InvertedNorm.forward", "core.inverted_norm",
     None, None, None),
    ("repro.eval.cache", "ResultStore.get", "eval.store.get", None,
     _store_hit, None),
    ("repro.eval.cache", "ResultStore.put", "eval.store.put", None,
     _store_put_bytes, None),
    ("repro.serve.protocol", "send_message", "serve.wire", None, _sent_bytes,
     None),
    ("repro.serve.protocol", "recv_message", "serve.wire", None,
     _received_bytes, None),
    ("repro.serve.client", "ServiceClient.sweep", "serve.sweep", None, None,
     None),
) + tuple(
    ("repro.faults.campaign", f"FaultInjector.{method}", "faults.attach",
     None, None, None)
    for method in ("attach", "attach_batched", "attach_scenario_batched")
) + tuple(
    ("repro.faults.campaign", f"FaultInjector.{method}", "faults.attach",
     None, _program_outcome, _program_counts)
    for method in ("program", "program_batched", "program_scenario_batched")
)


def _rebind(original, replacement) -> int:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, bound in list(vars(module).items()):
            if bound is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def install(tracer: Tracer) -> Dict[str, int]:
    """Wrap every :data:`TARGETS` entry; returns bindings per span name.

    Imports the target modules first, so names bound by ``from x import
    y`` anywhere in ``repro`` are found and replaced.  A target the
    program no longer has is skipped and reports zero bindings.  The
    evaluator factory is wrapped so every callable it returns records an
    ``eval.metric`` span.
    """
    bindings: Dict[str, int] = {}
    for module_name, attr, name, layer, value, before in TARGETS:
        bindings.setdefault(name, 0)
        owner_name, _, method = attr.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[method]
        except (ImportError, AttributeError, KeyError):
            continue  # gone from the program: the layer reads zero
        wrapped = tracer.wrap(original, name, layer, value, before)
        if owner_name:
            setattr(owner, method, wrapped)
            bindings[name] += 1
        else:
            bindings[name] += _rebind(original, wrapped)

    # A frame's first read blocks until the peer sends it: on the client
    # that is waiting for the daemon to compute, not wire time.
    protocol = importlib.import_module("repro.serve.protocol")
    recv_exact = protocol._recv_exact
    traced_wait = tracer.wrap(recv_exact, "serve.frame_wait")

    def recv_exact_split(sock, n, at_boundary=False):
        if at_boundary:
            return traced_wait(sock, n, at_boundary=True)
        return recv_exact(sock, n)

    protocol._recv_exact = recv_exact_split
    bindings["serve.frame_wait"] = 1

    evaluators = importlib.import_module("repro.eval.evaluators")
    make_evaluator = evaluators.make_evaluator

    def traced_make_evaluator(*args, **kwargs):
        return tracer.wrap(make_evaluator(*args, **kwargs), "eval.metric")

    traced_make_evaluator.__wrapped__ = make_evaluator
    bindings["eval.metric"] = _rebind(make_evaluator, traced_make_evaluator)
    return bindings

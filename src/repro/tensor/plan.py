"""Trace-compiled forward plans: capture one forward, replay as flat kernels.

Monte Carlo fault campaigns evaluate the same frozen model many times per
second — every evaluation batch, Monte Carlo sample, and repeated sweep
re-executes an *identical* sequence of numpy kernel calls, yet the
interpreted engine pays full Python dispatch each time: ``nn.Module``
``__call__`` chains, :class:`~repro.tensor.tensor.Tensor` wrapper
construction, autograd-closure allocation, quantization-cache lookups.
This module removes that overhead with trace-once / replay-many execution:

* **Tracing** — :func:`call_planned` (installed at the root of every
  ``Module.__call__`` while :func:`plan_execution` routing is active) runs
  the first gradient-free forward through the normal interpreted path with
  an active :class:`_Trace`.  Every tensor operation records a *kernel
  step* — ``(replay kernel, input slots, output slot)`` — via
  ``Tensor._make(..., kernel=...)``; every stochastic site (dropout masks,
  affine-dropout coin flips, activation-fault hooks) records a *source
  step* whose thunk re-runs the live drawing code on each replay, so RNG
  draws and fault-hook outputs are per-replay **inputs** and the seed-
  stream contract of the campaign engine is untouched.
* **Optimization** — before first replay the traced step list runs once
  through the IR passes of :mod:`repro.tensor.plan_passes` (constant
  folding, dead-step elimination, kernel fusion; source steps are
  barriers), shrinking the steady-state step count while staying
  bit-identical.  ``plan_execution(optimize=False)`` (CLI
  ``--no-plan-opt``, env ``REPRO_PLAN_OPT=0``) replays the raw trace.
* **Replay** — subsequent forwards with the same :func:`plan_key` skip the
  module tree and the ``Tensor`` graph entirely and execute the flat step
  list over a preallocated slot table.  Kernels whose numpy primitive
  supports ``out=`` write into per-plan buffers reused across replays.
* **Keying / invalidation** — plans are cached per root module, keyed by
  input shape, the active instance-axis layout
  (:func:`~repro.tensor.chipbatch.instance_layout`), every parameter's
  ``(uid, version)`` counter (so optimizer steps and ``load_state_dict``
  force a re-trace) and the ``plan_signature()`` of every attached fault
  hook (a stateful serial hook signs with its unique ``fault_token``, so a
  newly attached hook forces a re-trace; seed-frozen batched hooks sign
  with their spec + seeds, so an *identical* re-attach replays).
* **Fallback** — anything the tracer cannot prove replayable poisons the
  trace and the key falls back to the interpreted path transparently:
  gradient-recording or train-mode forwards, multi-argument calls, ops
  without a replay kernel, ad-hoc hooks without a ``plan_signature``,
  data-dependent ``where``/tensor indices, frozen masks drawn before the
  trace began.  ``plan_execution(False)`` (CLI ``--no-plan``) disables
  routing outright.

Replayed results are bit-identical to the interpreted path: source steps
run the very code the interpreter would run, and kernel steps run the
same numpy calls in the same order on the same dtypes.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import plan_passes
from .chipbatch import instance_layout
from .grad_mode import is_grad_enabled

__all__ = [
    "CONSTANT",
    "PlanCache",
    "call_planned",
    "clear_plans",
    "ensure_known",
    "fusable",
    "outable",
    "plan_execution",
    "plan_key",
    "plan_routing_active",
    "plan_stats",
    "profiled",
    "stage",
    "traced_hook",
    "traced_source",
]

#: Sentinel kernel: the op's output is constant for the lifetime of the
#: plan key (deployment-frozen quantized weights — the key covers the
#: parameter versions and fault-hook signatures that determine the value),
#: so the tracer captures it by reference and records no step.
CONSTANT = object()

#: Sentinel cache entry: this key was traced and found un-replayable.
_POISON = object()

#: Plans kept per root module (LRU).  Keys rotate with fault tokens and
#: parameter versions, so the cache is bounded to keep replay buffers from
#: accumulating across long serial campaigns.
MAX_PLANS_PER_MODULE = 8

#: Process-wide default for the optimizer pipeline (see
#: :mod:`repro.tensor.plan_passes`).  CI's second batched-identity run
#: sets ``REPRO_PLAN_OPT=0`` to exercise every plan unoptimized.
_OPTIMIZE_DEFAULT = os.environ.get("REPRO_PLAN_OPT", "1") != "0"


class _PlanState(threading.local):
    def __init__(self) -> None:
        self.routing = False
        self.trace: Optional[_Trace] = None
        self.replaying = False
        self.profile: Optional[Dict[str, float]] = None
        self.optimize = _OPTIMIZE_DEFAULT


_STATE = _PlanState()


def outable(fn: Callable) -> Callable:
    """Mark a replay kernel as accepting an ``out=`` buffer.

    The plan assigns marked steps preallocated buffers from a liveness-
    pooled set (see :class:`Plan`) and passes them on every replay, so
    intermediate results reuse memory instead of allocating per pass.
    """
    fn.supports_out = True
    return fn


def viewing(fn: Callable) -> Callable:
    """Mark a replay kernel as possibly returning a *view* of its input.

    Structural kernels (reshape, transpose, basic indexing) alias their
    input's memory; the buffer pool must keep the underlying buffer alive
    until every aliasing slot is dead, so these steps propagate liveness
    to their input's alias group instead of ending it.
    """
    fn.may_alias = True
    return fn


def fusable(fn: Callable) -> Callable:
    """Mark an ``out=``-aware replay kernel as safe to fuse.

    Fusable kernels are pure ufunc-style array computations (elementwise
    chains, matmul/bias preactivations): the optimizer's fusion pass
    (:mod:`repro.tensor.plan_passes`) may sink a single-consumer fusable
    step into its fusable consumer, merging whole chains into one
    composite kernel call per replay.
    """
    fn.fusable = True
    return fn


# ----------------------------------------------------------------------
# Routing state
# ----------------------------------------------------------------------
@contextlib.contextmanager
def plan_execution(
    enabled: bool = True, optimize: Optional[bool] = None
) -> Iterator[bool]:
    """Route gradient-free root ``Module`` calls through plans.

    Entered by the campaign engine around cell evaluation; ``enabled=False``
    (the ``--no-plan`` switch) forces the interpreted path.  ``optimize``
    toggles the trace-time optimizer passes
    (:mod:`repro.tensor.plan_passes`) for plans traced inside the block:
    ``None`` (default) inherits the ambient setting — process default on,
    overridable with ``REPRO_PLAN_OPT=0`` — while ``False`` (the
    ``--no-plan-opt`` switch) replays the raw traced step list.  Nestable
    and exception-safe; thread-local like the rest of the evaluation
    state.
    """
    previous = _STATE.routing
    previous_optimize = _STATE.optimize
    _STATE.routing = bool(enabled)
    if optimize is not None:
        _STATE.optimize = bool(optimize)
    try:
        yield bool(enabled)
    finally:
        _STATE.routing = previous
        _STATE.optimize = previous_optimize


def plan_routing_active() -> bool:
    """True when a root module call should consult the plan cache."""
    return _STATE.routing and _STATE.trace is None and not _STATE.replaying


def active_trace() -> Optional["_Trace"]:
    """The trace recording this thread's forward, or ``None``."""
    return _STATE.trace


# ----------------------------------------------------------------------
# Profiling hooks (the CLI's --profile breakdown)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def profiled() -> Iterator[Dict[str, float]]:
    """Collect per-stage wall time (attach / trace / replay / metric).

    Yields the accumulating ``{stage: seconds}`` dict; :func:`stage`
    blocks anywhere below (the executor's attach and evaluator calls, the
    tracer, the replayer) add to it.  Rendering lives in
    :func:`repro.eval.reporting.format_profile`.
    """
    previous = _STATE.profile
    stages: Dict[str, float] = {}
    _STATE.profile = stages
    try:
        yield stages
    finally:
        _STATE.profile = previous


@contextlib.contextmanager
def stage(label: str) -> Iterator[None]:
    """Accumulate this block's wall time under ``label`` when profiling.

    No-op (and allocation-free) unless a :func:`profiled` block is active
    on this thread.  Nested stages each record their full span; the
    reporting layer subtracts nested trace/replay time from the enclosing
    metric stage.
    """
    stages = _STATE.profile
    if stages is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[label] = stages.get(label, 0.0) + time.perf_counter() - start


# ----------------------------------------------------------------------
# Trace recording
# ----------------------------------------------------------------------
class _Trace:
    """Recorder for one forward: slot table + flat step list.

    Slots are arrays indexed by position.  Slot 0 is the entry input
    (rebound per replay); arrays first seen as *inputs* of a step are
    captured as constants (weights, buffers, baked scalars — valid because
    :func:`plan_key` covers everything that can change them); arrays
    produced by a step are variables recomputed on every replay.
    """

    def __init__(self, entry: np.ndarray):
        self.slot_of: Dict[int, int] = {id(entry): 0}
        self.arrays = [entry]  # keepalive: id() stays unique while traced
        self.constant = [False]
        self.entry = 0
        # steps: ("k", kernel, in_ids, out_id) or
        #        ("s", thunk, in_ids, out_ids, multi)
        self.steps: list = []
        self.failed: Optional[str] = None

    def fail(self, reason: str) -> None:
        """Poison the trace; the key will fall back to interpretation."""
        if self.failed is None:
            self.failed = reason

    def knows(self, value) -> bool:
        """True when every array in ``value`` is already slot-registered."""
        parts = value if isinstance(value, tuple) else (value,)
        return all(
            id(part) in self.slot_of
            for part in parts
            if isinstance(part, np.ndarray)
        )

    def _slot(self, arr: np.ndarray, constant: bool) -> int:
        sid = self.slot_of.get(id(arr))
        if sid is None:
            sid = len(self.arrays)
            self.slot_of[id(arr)] = sid
            self.arrays.append(arr)
            self.constant.append(constant)
        return sid

    def record_op(
        self,
        kernel,
        inputs: Sequence[np.ndarray],
        out: np.ndarray,
        op: str,
    ) -> None:
        """Record one tensor operation (called from ``Tensor._make``)."""
        if self.failed is not None:
            return
        if kernel is None:
            self.fail(f"op {op!r} has no replay kernel")
            return
        if kernel is CONSTANT:
            self._slot(out, True)
            return
        in_ids = tuple(self._slot(arr, True) for arr in inputs)
        if id(out) in self.slot_of:
            self.fail(f"op {op!r} returned an aliased array")
            return
        out_id = self._slot(out, False)
        self.steps.append(("k", kernel, in_ids, out_id))

    def record_source(
        self,
        thunk: Callable,
        value,
        in_arrays: Sequence[np.ndarray] = (),
    ) -> None:
        """Record a stochastic/hook source whose thunk re-runs per replay."""
        if self.failed is not None:
            return
        in_ids = tuple(self._slot(arr, True) for arr in in_arrays)
        multi = isinstance(value, tuple)
        outs = value if multi else (value,)
        for arr in outs:
            if not isinstance(arr, np.ndarray):
                self.fail("source produced a non-array value")
                return
            if id(arr) in self.slot_of:
                self.fail("source returned an already-registered array")
                return
        out_ids = tuple(self._slot(arr, False) for arr in outs)
        self.steps.append(("s", thunk, in_ids, out_ids, multi))


def traced_source(fn: Callable[[], Any]):
    """Run a zero-argument sampling thunk, recording it when tracing.

    ``fn`` draws from the active scoped generator (dropout masks, affine
    coin flips, Gaussian noise); on replay the recorded thunk re-runs
    against whatever generator the engine has scoped, reproducing the
    interpreted draw order exactly.  Returns ``fn()``'s value (an array or
    a tuple of arrays) unchanged.
    """
    value = fn()
    trace = _STATE.trace
    if trace is not None:
        trace.record_source(fn, value)
    return value


def traced_hook(obj, attr: str, arr: np.ndarray) -> np.ndarray:
    """Invoke the live hook ``getattr(obj, attr)`` on ``arr``, traced.

    The recorded thunk re-fetches the hook from its *site* at replay time,
    so a re-attached hook of the same structural signature (same plan key)
    is the one that runs — its internal RNG state advances exactly as in
    the interpreted path.
    """
    out = getattr(obj, attr)(arr)
    trace = _STATE.trace
    if trace is not None:

        def thunk(values: np.ndarray) -> np.ndarray:
            return getattr(obj, attr)(values)

        trace.record_source(thunk, out, in_arrays=(arr,))
    return out


def ensure_known(value) -> None:
    """Poison the active trace unless ``value``'s arrays are slot-known.

    Guards cached state that predates the trace (e.g. a frozen dropout
    mask drawn by an earlier interpreted forward): baking it as a constant
    would freeze randomness the interpreted path re-samples, so the trace
    falls back instead.
    """
    trace = _STATE.trace
    if trace is not None and not trace.knows(value):
        trace.fail("cached stochastic state predates the trace")


# ----------------------------------------------------------------------
# Compiled plans
# ----------------------------------------------------------------------
class Plan:
    """A finalized trace: constant-bound slot table + compiled step list.

    Optimization
    ------------
    With ``optimize`` (the default; CLI ``--no-plan-opt`` disables) the
    traced step list first runs through the IR passes of
    :mod:`repro.tensor.plan_passes` — constant folding, dead-step
    elimination, kernel fusion — and ``opt_stats`` records the per-pass
    counters (steps folded/fused/eliminated, steps before/after) that the
    ``--profile`` breakdown aggregates.

    Buffer reuse
    ------------
    ``out=``-capable steps (:func:`outable` kernels) draw their output
    buffers from a pool assigned by a linear register-allocation scan over
    slot liveness: a buffer returns to the pool once its slot — and every
    slot that may *alias* it through view-producing steps
    (:func:`viewing` kernels) — has been read for the last time, and later
    steps of the same shape/dtype reuse it.  The replay working set
    therefore stays at the interpreted path's peak-live size (cache-hot)
    instead of one buffer per step, while still allocating nothing per
    replay.
    """

    __slots__ = (
        "_slots", "_steps", "_tail", "_entry", "_output", "n_buffers",
        "opt_stats", "_prefix_len", "_prefix_entry", "prefix_hits",
        "prefix_misses",
    )

    def __init__(self, trace: _Trace, output_id: int, optimize: bool = True):
        if optimize:
            steps, self.opt_stats = plan_passes.optimize_trace(
                trace, output_id
            )
        else:
            steps = trace.steps
            self.opt_stats = plan_passes.null_stats(len(steps))
        n = len(trace.arrays)
        self._slots: list = [None] * n
        for sid in range(n):
            if trace.constant[sid]:
                self._slots[sid] = trace.arrays[sid]
        self._entry = trace.entry
        self._output = output_id
        self._prefix_len = self.opt_stats["prefixed"]
        self._prefix_entry: Optional[np.ndarray] = None
        self.prefix_hits = 0
        self.prefix_misses = 0
        self._steps = self._compile(trace, steps, output_id)
        self._tail = self._steps[self._prefix_len:]

    def _compile(self, trace: _Trace, trace_steps: list, output_id: int) -> list:
        n = len(trace.arrays)
        n_steps = len(trace_steps)
        # Last step index reading each slot (the output lives forever).
        last_use = [-1] * n
        for idx, step in enumerate(trace_steps):
            for sid in step[2]:
                last_use[sid] = idx
        last_use[output_id] = n_steps
        # Alias groups: a viewing step's output shares its input's memory.
        parent = list(range(n))

        def find(sid: int) -> int:
            while parent[sid] != sid:
                parent[sid] = parent[parent[sid]]
                sid = parent[sid]
            return sid

        for step in trace_steps:
            if step[0] == "k" and getattr(step[1], "may_alias", False):
                if step[2]:
                    parent[find(step[3])] = find(step[2][0])
        group_last: Dict[int, int] = {}
        for sid in range(n):
            group = find(sid)
            group_last[group] = max(group_last.get(group, -1), last_use[sid])
        # Linear scan: acquire each outable step's buffer before releasing
        # anything at that step, so a buffer never aliases a live input.
        free: Dict[Tuple, list] = {}
        release_at: Dict[int, list] = {}
        steps = []
        self.n_buffers = 0
        for idx, step in enumerate(trace_steps):
            if step[0] == "k":
                _, kernel, in_ids, out_id = step
                buf = None
                if getattr(kernel, "supports_out", False):
                    arr = trace.arrays[out_id]
                    key = (arr.shape, arr.dtype)
                    stack = free.get(key)
                    if stack:
                        buf = stack.pop()
                    else:
                        buf = np.empty_like(arr)
                        self.n_buffers += 1
                    end = group_last[find(out_id)]
                    # A foldable-prefix output read by the tail must keep
                    # its values across replays (a prefix hit skips the
                    # steps that would refill it), so its buffer is pinned:
                    # only slots dying inside the prefix recycle there.
                    limit = n_steps if idx >= self._prefix_len else self._prefix_len
                    if end < limit:
                        release_at.setdefault(end, []).append((key, buf))
                steps.append(("k", kernel, in_ids, out_id, buf))
            else:
                _, thunk, in_ids, out_ids, multi = step
                steps.append(("s", thunk, in_ids, out_ids, multi))
            for key, buf in release_at.pop(idx, ()):
                free.setdefault(key, []).append(buf)
        return steps

    def replay(self, entry: np.ndarray) -> np.ndarray:
        """Execute the flat step list for a fresh input; returns a copy.

        The returned array is copied out of the plan's reusable buffers so
        callers may hold it across later replays.  The loop special-cases
        the dominant one- and two-input kernel arities to avoid per-step
        argument-tuple construction.

        When the optimizer marked a source-free prefix and this entry's
        *content* equals the last fully-replayed one (Monte Carlo
        campaigns re-forward the same evaluation batch for every chip and
        run), the prefix is skipped outright: its outputs persist in
        pinned slots/buffers from the previous replay, so only the tail —
        everything at or after the first RNG draw — executes.  The guard
        compares values, never object identity, so a changed (or NaN)
        entry always takes the full path; results are bit-identical
        either way.
        """
        slots = self._slots
        slots[self._entry] = entry
        steps = self._steps
        if self._prefix_len:
            cached = self._prefix_entry
            if (
                cached is not None
                and cached.shape == entry.shape
                and cached.dtype == entry.dtype
                and np.array_equal(cached, entry)
            ):
                self.prefix_hits += 1
                steps = self._tail
            else:
                self.prefix_misses += 1
                self._prefix_entry = entry.copy()
        for step in steps:
            if step[0] == "k":
                _, kernel, in_ids, out_id, buf = step
                arity = len(in_ids)
                if buf is None:
                    if arity == 1:
                        slots[out_id] = kernel(slots[in_ids[0]])
                    elif arity == 2:
                        slots[out_id] = kernel(slots[in_ids[0]], slots[in_ids[1]])
                    else:
                        slots[out_id] = kernel(*[slots[i] for i in in_ids])
                elif arity == 2:
                    slots[out_id] = kernel(
                        slots[in_ids[0]], slots[in_ids[1]], out=buf
                    )
                elif arity == 1:
                    slots[out_id] = kernel(slots[in_ids[0]], out=buf)
                else:
                    slots[out_id] = kernel(*[slots[i] for i in in_ids], out=buf)
            else:
                _, thunk, in_ids, out_ids, multi = step
                value = thunk(*[slots[i] for i in in_ids])
                if multi:
                    for out_id, arr in zip(out_ids, value):
                        slots[out_id] = arr
                else:
                    slots[out_ids[0]] = value
        return slots[self._output].copy()


class PlanCache:
    """Per-root-module plan store with trace/replay/fallback counters.

    ``opt_counters`` accumulates the optimizer's per-pass totals (steps
    deduped/folded/fused/eliminated/densified) over every plan traced for the
    module, so identity tests can assert the passes actually fired.
    """

    def __init__(self, max_plans: int = MAX_PLANS_PER_MODULE):
        self.plans: "OrderedDict[tuple, Any]" = OrderedDict()
        self.max_plans = max_plans
        self.traces = 0
        self.replays = 0
        self.fallbacks = 0
        self.opt_counters: Dict[str, int] = {
            "deduped": 0, "folded": 0, "fused": 0,
            "eliminated": 0, "densified": 0, "prefixed": 0,
        }

    def store(self, key: tuple, entry) -> None:
        self.plans[key] = entry
        while len(self.plans) > self.max_plans:
            self.plans.popitem(last=False)


_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def plan_stats(module) -> PlanCache:
    """The module's plan cache (counters + stored plans), created lazily."""
    cache = _CACHES.get(module)
    if cache is None:
        cache = PlanCache()
        _CACHES[module] = cache
    return cache


def clear_plans(module=None) -> None:
    """Drop cached plans for ``module`` (or every module when ``None``)."""
    if module is not None:
        _CACHES.pop(module, None)
    else:
        _CACHES.clear()


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------
def plan_key(module, x) -> Optional[tuple]:
    """Cache key for one root forward, or ``None`` when unplannable.

    Covers everything that may change the traced kernel sequence or the
    values captured as plan constants:

    * the input shape, dtype, and the active instance-axis layout;
    * each submodule's sampling state (``stochastic_inference``,
      ``mask_scope``) — they decide which source steps exist;
    * each attached fault hook's ``plan_signature()`` — stateful serial
      hooks sign with their unique ``fault_token`` (new hook ⇒ new key ⇒
      re-trace), seed-frozen batched hooks with spec + seeds (identical
      re-attach ⇒ replay);
    * every parameter's ``(uid, version)`` counter — optimizer steps and
      ``load_state_dict`` bump versions, invalidating captured weights and
      quantized codes.

    An attached hook without a ``plan_signature`` (ad-hoc callable) makes
    the forward unplannable — the interpreted path keeps its legacy
    applied-every-forward semantics.

    The ambient optimizer toggle is part of the key: flipping
    ``--no-plan-opt`` (or ``REPRO_PLAN_OPT``) re-traces rather than
    serving a plan compiled under the other setting.
    """
    parts: list = [
        x.data.shape, x.data.dtype.str, instance_layout(), _STATE.optimize
    ]
    for m in module.modules():
        for attr in ("weight_fault", "weight_fault_hh", "pre_fault"):
            hook = getattr(m, attr, None)
            if hook is None:
                continue
            signature = getattr(hook, "plan_signature", None)
            if signature is None:
                return None
            parts.append((attr, signature()))
        sampling = getattr(m, "stochastic_inference", None)
        if sampling is not None:
            parts.append((bool(sampling), getattr(m, "mask_scope", None)))
        for param in m._parameters.values():
            if param is not None:
                parts.append(param.version_key)
    return tuple(parts)


# ----------------------------------------------------------------------
# Root-call dispatch
# ----------------------------------------------------------------------
def call_planned(module, args: tuple, kwargs: dict):
    """Route one root ``Module`` call through the plan cache.

    Falls through to the interpreted ``module.forward`` whenever the call
    is not a single-tensor gradient-free eval-mode forward, the model is
    unkeyable, or the key was previously poisoned.  Otherwise replays the
    cached plan, or traces the interpreted forward to build one.
    """
    if (
        kwargs
        or len(args) != 1
        or is_grad_enabled()
        or getattr(module, "training", False)
    ):
        return module.forward(*args, **kwargs)
    x = args[0]
    if not isinstance(getattr(x, "data", None), np.ndarray):
        return module.forward(x)
    key = plan_key(module, x)
    if key is None:
        return module.forward(x)
    cache = plan_stats(module)
    entry = cache.plans.get(key)
    if entry is _POISON:
        cache.fallbacks += 1
        return module.forward(x)
    if entry is not None:
        cache.plans.move_to_end(key)
        cache.replays += 1
        _STATE.replaying = True
        try:
            with stage("replay"):
                out_data = entry.replay(x.data)
        finally:
            _STATE.replaying = False
        from .tensor import Tensor  # local import: plan is below tensor

        return Tensor(out_data)
    # Trace: run the interpreted forward once with the recorder active.
    trace = _Trace(x.data)
    _STATE.trace = trace
    try:
        with stage("trace"):
            out = module.forward(x)
    finally:
        _STATE.trace = None
    out_data = getattr(out, "data", None)
    output_id = (
        trace.slot_of.get(id(out_data))
        if isinstance(out_data, np.ndarray)
        else None
    )
    if trace.failed is not None or output_id is None:
        cache.store(key, _POISON)
        cache.fallbacks += 1
        return out
    plan = Plan(trace, output_id, optimize=_STATE.optimize)
    cache.store(key, plan)
    cache.traces += 1
    for name in ("deduped", "folded", "fused", "eliminated", "densified",
                 "prefixed"):
        cache.opt_counters[name] += plan.opt_stats[name]
    stages = _STATE.profile
    if stages is not None and _STATE.optimize:
        for name, count in plan.opt_stats.items():
            label = "opt." + name
            stages[label] = stages.get(label, 0.0) + count
    return out

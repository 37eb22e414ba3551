"""Result caches shared by tests, examples, benchmarks, the CLI, and the
campaign service.

Two caches live here, both persisted under ``REPRO_CACHE_DIR`` (default
``<repo>/.repro_cache``):

* the **trained-model cache** — ``.npz`` state dicts keyed by
  (task, network, preset, seed), because training a model for every
  (task, method) pair in every benchmark would dominate runtime.  The
  network is :func:`~repro.eval.tasks.network_method`'s, so two methods
  that build one network share one checkpoint.
  :func:`trained_model` is its only trainer; :func:`train_models` runs
  it for the missing models of a command on :func:`fork_map`'s pool of
  forked workers, which also computes a command's missing campaign
  cells (:func:`repro.eval.campaigns.compute_pending`);
* the **content-addressed result store** (:class:`ResultStore`) —
  per-scenario Monte Carlo value arrays addressed by the SHA-256 of their
  hermetic cell key (:func:`campaign_key`, which embeds the engine's
  RNG-contract version), so results computed by any worker, process, or
  session merge into one shared store and every overlapping sweep skips
  already-computed cells.  Writes are temp-file-then-rename atomic,
  corrupted or torn entries recover to a miss, and hit/miss/merge
  counters make redundant-work accounting auditable per request.

Delete the directory to force retraining / re-simulation.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import threading
import zipfile
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..faults import FaultSpec
from ..models import MethodConfig
from ..models.methods import FACTORY_EPOCHS_MULTIPLIER
from ..nn.module import Module
from .tasks import Task, network_method

_MEMORY: Dict[Tuple, Module] = {}


def cache_dir() -> pathlib.Path:
    """The result-cache root (``REPRO_CACHE_DIR``), created on demand."""
    path = pathlib.Path(
        os.environ.get(
            "REPRO_CACHE_DIR",
            pathlib.Path(__file__).resolve().parents[3] / ".repro_cache",
        )
    )
    path.mkdir(parents=True, exist_ok=True)
    return path


def _method_key(method: MethodConfig) -> str:
    parts = [method.name, f"p{method.p}"]
    if method.uses_inverted_norm:
        parts += [
            f"sg{method.sigma_gamma}",
            f"sb{method.sigma_beta}",
            method.granularity,
            method.init,
        ]
    else:
        parts.append(method.conventional_norm)
    # Only where it is not the factory's, so the factories' keys stay put.
    if method.epochs_multiplier != FACTORY_EPOCHS_MULTIPLIER.get(method.name, 1.0):
        parts.append(f"e{method.epochs_multiplier}")
    return "-".join(parts)


def _model_key(task: Task, method: MethodConfig, preset: str, seed: int) -> Tuple:
    """Cache key of the network ``method`` builds on ``task``."""
    network = network_method(task, method)
    return (task.name, task.cache_tag, _method_key(network), preset, seed)


def _checkpoint_path(key: Tuple) -> pathlib.Path:
    return cache_dir() / ("_".join(str(k) for k in key) + ".npz")


def trained_model(
    task: Task,
    method: MethodConfig,
    preset: str,
    seed: int = 0,
    verbose: bool = False,
) -> Module:
    """Return a trained model, training and caching on first request.

    The model is that of ``method``'s network
    (:func:`~repro.eval.tasks.network_method`), one object and one
    checkpoint for every method that builds it.  A checkpoint that no
    longer loads (an older layout, or a truncated archive) is deleted
    and the model retrained.
    """
    key = _model_key(task, method, preset, seed)
    if key in _MEMORY:
        return _MEMORY[key]
    path = _checkpoint_path(key)
    method = network_method(task, method)
    model = task.build_model(method, seed=seed)
    if path.exists():
        try:
            model.load(str(path))
            _MEMORY[key] = model
            return model
        except (KeyError, ValueError, EOFError, zipfile.BadZipFile):
            path.unlink()  # stale layout or damaged archive
    model = task.train_model(method, seed=seed, verbose=verbose)
    model.save(str(path))
    _MEMORY[key] = model
    return model


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: OpenBLAS thread-count setters, newest naming first: numpy's bundled
#: ``scipy_openblas`` builds suffix their symbols, older wheels do not.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Pool initializer: run numpy's bundled OpenBLAS on one thread.

    One worker per CPU already fills the CPUs, and OpenBLAS's default of
    one thread per CPU in every worker oversubscribes them on the small
    matrices these models multiply.  The library is the one numpy ships
    in ``numpy.libs`` (``numpy/.dylibs`` on macOS); loading it again by
    path returns the handle numpy already holds.  A numpy built against
    another BLAS has no such library or setter, and its threads are left
    alone.
    """
    import ctypes

    root = pathlib.Path(np.__file__).resolve().parent
    for path in sorted([*(root.parent / "numpy.libs").glob("*openblas*"),
                        *(root / ".dylibs").glob("*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                return


def fork_workers(n_jobs: int) -> int:
    """Worker processes :func:`fork_map` starts for ``n_jobs`` jobs.

    One per usable CPU, at most one per job; ``0`` (the jobs run in
    this process) for fewer than two jobs, one usable CPU, or a
    platform without ``fork``.
    """
    workers = min(n_jobs, _usable_cpus())
    if workers < 2:
        return 0
    import multiprocessing  # here: a warm command pays neither time nor memory

    return workers if "fork" in multiprocessing.get_all_start_methods() else 0


#: ``(fn, jobs)`` of the running :func:`fork_map`, inherited by its workers.
_FORKED: Optional[Tuple[Callable, Sequence]] = None


def _forked_job(index: int):
    fn, jobs = _FORKED
    return index, fn(jobs[index])


def fork_map(
    fn: Callable, jobs: Sequence, on_result: Callable[[int, object], None]
) -> None:
    """Run ``fn(job)`` for every job on :func:`fork_workers` processes.

    ``on_result(index, result)`` runs in this process as each job
    finishes, in completion order; in job order when no process is
    started and the jobs run here.  Workers are forked, so ``fn`` and
    ``jobs`` reach them by inheritance and only job indices and results
    cross a pipe; each worker runs numpy's OpenBLAS on one thread
    (:func:`_one_blas_thread`; another BLAS keeps its threads).  Jobs
    are handed out in ``jobs`` order.  A worker's exception is raised
    here once the jobs already handed to workers have ended, the rest
    never start, and every worker has exited on return.  Fork, because ``python -m repro.eval`` runs its CLI at
    import: a spawned child would run the command again.  Forking is
    only safe while the caller runs one thread, as the CLI does.
    """
    workers = fork_workers(len(jobs))
    if not workers:
        for index, job in enumerate(jobs):
            on_result(index, fn(job))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    global _FORKED
    _FORKED = (fn, jobs)
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_one_blas_thread,
    )
    try:
        for done in as_completed(
            [pool.submit(_forked_job, index) for index in range(len(jobs))]
        ):
            on_result(*done.result())
    finally:
        # After a failure, drop the jobs not yet started and let the
        # running ones end: killing a worker mid-write can leave a
        # queue lock held, and then the pool never shuts down.
        pool.shutdown(cancel_futures=True)
        _FORKED = None


def train_models(
    jobs: Sequence[Tuple[Task, MethodConfig]], preset: str, seed: int = 0
) -> None:
    """Train the missing checkpoints of ``jobs`` on every usable CPU.

    A cache warmer for commands that need several models: the (task,
    method) pairs with no model in memory or on disk are trained through
    :func:`fork_map`, each job calling :func:`trained_model`, which
    writes the checkpoint that a later :func:`trained_model` call in
    this process loads.  A model's weights depend only on (task, method,
    preset, seed), so they do not depend on which worker trained it.
    When :func:`fork_map` starts no process the models are trained here
    and stay in memory.  A worker forgets each model once its checkpoint
    is written: the compute pool forks again from this process, so
    nothing would read it.
    """
    missing = {}
    for task, method in jobs:
        key = _model_key(task, method, preset, seed)
        if key not in _MEMORY and not _checkpoint_path(key).exists():
            missing[key] = (task, method)
    parent = os.getpid()

    def train(job: Tuple[Tuple, Tuple[Task, MethodConfig]]) -> None:
        key, (task, method) = job
        trained_model(task, method, preset, seed=seed)
        if os.getpid() != parent:
            del _MEMORY[key]

    fork_map(train, list(missing.items()), lambda index, result: None)


def clear_memory_cache() -> None:
    """Drop in-process cached models and campaign results (disk untouched)."""
    _MEMORY.clear()
    _DEFAULT_STORE.clear_memory()


# ----------------------------------------------------------------------
# Content-addressed result store
# ----------------------------------------------------------------------
#: Version tag of the engine's seed→stream derivation.  ``mc2`` = per-cell
#: hermetic SeedSequence streams with per-MC-sample spawned children (the
#: MC-batched engine); the unversioned keys before it used sequential
#: per-cell draws across samples.  Scenario batching (PR 4) deliberately
#: did NOT bump this: stacking severity levels re-derives exactly the same
#: per-cell streams and consumes each in the serial draw order, so values
#: computed under ``mc2`` stay valid.  The next change to the draw order
#: itself must bump to ``mc3`` (see docs/architecture.md).
RNG_CONTRACT = "mc2"


def level_text(level: float) -> str:
    """``level`` as ``:g`` when that round-trips, else its full ``repr``.

    ``:g`` keeps six significant digits, so two close levels would share
    a key; the fallback keeps every key that round-trips unchanged.  The
    store key and the printed sweep table both spell a level this way.
    """
    text = f"{level:g}"
    return text if float(text) == level else repr(float(level))


def campaign_key(
    task: Task,
    method: MethodConfig,
    spec: FaultSpec,
    n_runs: int,
    samples: int,
    seed: int,
    max_eval_samples: Optional[int] = None,
) -> str:
    """Hermetic cell key for one (task, method, scenario) campaign.

    Every knob that changes the simulated values is part of the key: the
    task geometry (``cache_tag``), the method hyper-parameters, the fault
    spec, the Monte Carlo settings, the seed, and the evaluation-set cap —
    so changing any of them is a cache miss, never a stale hit.  The key
    also carries the engine's RNG-contract version (:data:`RNG_CONTRACT`):
    when a PR redefines how streams are derived from the seeds (e.g. the
    per-MC-sample ``SeedSequence`` children introduced with MC batching),
    bumping the version retires every cached value computed under the old
    contract instead of silently mixing the two.

    The key is what the :class:`ResultStore` content-addresses: its
    SHA-256 is the entry's address, and the full key is stored inside the
    entry so a load verifies it is serving exactly the requested cell.
    """
    parts = [
        RNG_CONTRACT,
        task.name,
        task.cache_tag,
        f"ds{task.seed}",
        _method_key(method),
        spec.kind,
        f"l{level_text(spec.level)}",
        spec.stuck_to,
        f"r{n_runs}",
        f"s{samples}",
        f"seed{seed}",
        f"cap{max_eval_samples}",
    ]
    return "_".join(str(p) for p in parts)


def content_hash(key: str) -> str:
    """SHA-256 content address of one hermetic cell key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class ResultStore:
    """Content-addressed, crash-safe store of campaign value arrays.

    Entries are ``.npz`` files at ``<root>/<hh>/<hash>.npz`` where
    ``hash`` is :func:`content_hash` of the hermetic cell key and ``hh``
    its first two hex digits (a fan-out shard so directories stay small).
    Each entry records the full ``key``, its RNG-contract version, and
    the float64 ``values`` array, so a load can verify it serves exactly
    the requested cell (a hash collision, a tampered file, or an entry
    written under a stale contract recovers to a miss instead of a wrong
    hit).

    Concurrency and crash safety
    ----------------------------
    Writes serialize to a uniquely named sibling temp file and land via
    ``os.replace``, so concurrent workers — threads, processes, or whole
    sessions sharing one directory — never tear an entry: a reader sees
    either nothing or a complete entry, and two writers racing on the
    same key both land byte-equivalent files (the key derivation is
    hermetic, so their values are bit-identical; a mismatch raises,
    surfacing engine nondeterminism instead of hiding it).  Counters are
    lock-protected and monotonic; services snapshot them around a
    request to prove zero-redundant-cell accounting.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self._root = pathlib.Path(root) if root is not None else None
        self._memory: Dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.merges = 0
        self.recovered = 0
        self.retired = 0
        self.evicted = 0

    # -- layout --------------------------------------------------------
    @property
    def root(self) -> pathlib.Path:
        """Store root; the default store tracks ``REPRO_CACHE_DIR`` live."""
        return self._root if self._root is not None else cache_dir() / "store"

    def address(self, key: str) -> pathlib.Path:
        """Filesystem address of ``key``'s entry (may not exist yet)."""
        digest = content_hash(key)
        return self.root / digest[:2] / f"{digest}.npz"

    # -- accounting ----------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Monotonic counter snapshot; subtract two to audit one request."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "merges": self.merges,
                "recovered": self.recovered,
                "retired": self.retired,
                "evicted": self.evicted,
            }

    def _count(self, counter: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def clear_memory(self) -> None:
        """Drop the in-process memo layer (disk entries untouched)."""
        with self._lock:
            self._memory.clear()

    # -- read path -----------------------------------------------------
    def get(self, key: str) -> Optional[np.ndarray]:
        """Values for ``key``, or ``None`` on a miss.

        Serving order: in-process memory, then the content-addressed
        entry (verified against the full key and the current RNG
        contract).  Corrupt, colliding, or stale-contract entries are
        unlinked and counted (``recovered`` / ``retired``) so the store
        self-heals.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self.hits += 1
                return cached.copy()
        values = self._read_entry(key)
        if values is None:
            self._count("misses")
            return None
        with self._lock:
            self._memory[key] = values
            self.hits += 1
        return values.copy()

    def _read_entry(self, key: str) -> Optional[np.ndarray]:
        path = self.address(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as entry:
                stored_key = str(entry["key"])
                contract = str(entry["contract"])
                values = np.asarray(entry["values"], dtype=np.float64)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            self._unlink(path)
            self._count("recovered")
            return None
        if stored_key != key:
            # Hash collision or tampering: the entry is not this cell.
            self._unlink(path)
            self._count("recovered")
            return None
        if contract != RNG_CONTRACT:
            self._unlink(path)
            self._count("retired")
            return None
        self._touch(path)
        return values

    # -- write path ----------------------------------------------------
    def put(self, key: str, values: np.ndarray) -> bool:
        """Persist one scenario's values; returns ``True`` when newly stored.

        An existing equal entry is a cross-worker/session merge (counted,
        not rewritten); an existing entry with *different* values means
        two engines disagreed on a hermetic key and raises — the store
        never silently picks a winner.  The write itself is atomic: a
        uniquely named temp file in the target directory is renamed over
        the final address, so a crash mid-write leaves no torn entry.
        """
        values = np.asarray(values, dtype=np.float64)
        path = self.address(key)
        existing = self._read_entry(key) if path.exists() else None
        if existing is not None:
            if existing.shape != values.shape or not np.array_equal(
                existing, values, equal_nan=True
            ):
                raise RuntimeError(
                    f"result store conflict for key {key!r}: stored values "
                    "differ from freshly computed ones (hermetic keys must "
                    "be bit-reproducible; check the RNG contract version)"
                )
            with self._lock:
                self._memory[key] = values
                self.merges += 1
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    key=np.asarray(key),
                    contract=np.asarray(RNG_CONTRACT),
                    values=values,
                )
            os.replace(tmp, path)
        except BaseException:
            self._unlink(tmp)
            raise
        with self._lock:
            self._memory[key] = values
            self.puts += 1
        return True

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> list:
        if not self.root.exists():
            return []
        return sorted(self.root.glob("??/*.npz"))

    def __len__(self) -> int:
        return len(self._entries())

    def evict(self, max_entries: int) -> int:
        """Drop least-recently-served entries down to ``max_entries``.

        Recency is entry mtime — refreshed on every verified read — so
        hot cells of overlapping sweeps survive while one-off grids age
        out.  Returns the number of entries removed.
        """
        entries = self._entries()
        if len(entries) <= max_entries:
            return 0
        def mtime(path):
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0
        entries.sort(key=lambda p: (mtime(p), str(p)))
        removed = 0
        for path in entries[: len(entries) - max_entries]:
            self._unlink(path)
            removed += 1
        if removed:
            self._count("evicted", removed)
            with self._lock:
                self._memory.clear()  # memory may now shadow evicted keys
        return removed

    def retire_stale(self) -> int:
        """Delete entries written under a different RNG contract.

        A contract bump changes every key (the version is a key field),
        so stale entries are unreachable anyway — this reclaims the disk
        and counts what was retired.  Unreadable entries are recovered
        (removed) as a side effect.
        """
        removed = 0
        for path in self._entries():
            try:
                with np.load(path, allow_pickle=False) as entry:
                    contract = str(entry["contract"])
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                self._unlink(path)
                self._count("recovered")
                continue
            if contract != RNG_CONTRACT:
                self._unlink(path)
                removed += 1
        if removed:
            self._count("retired", removed)
        return removed

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass  # recency refresh is best-effort

    @staticmethod
    def _unlink(path: pathlib.Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass  # already gone (concurrent recovery) or read-only


_DEFAULT_STORE = ResultStore()


def result_store() -> ResultStore:
    """The process-wide default store (rooted under ``REPRO_CACHE_DIR``)."""
    return _DEFAULT_STORE


def load_campaign_values(key: str) -> Optional[np.ndarray]:
    """Stored per-chip metric values for ``key``, or ``None`` on a miss.

    ``result_store().get(key)``; ``perfbench/build.py`` imports it from
    here.
    """
    return _DEFAULT_STORE.get(key)

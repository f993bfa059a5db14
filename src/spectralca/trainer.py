"""Supervised training with adaptive-moment gradient descent, evaluation
into EvalReports, and a warmup/median timing harness."""

from __future__ import annotations

import ctypes
import platform
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median

import numpy as np

from .block import CFG32, BaselineViTBlock, SpectralCABlock, SpectralCAConfig
from .classifier import PatchClassifier
from .data import PatchSet
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    average_accuracy,
    kappa,
    objective_j,
    overall_accuracy,
    per_class_accuracy,
)
from . import nn
from .nn import cross_entropy
from .tensor import NonFiniteError, Parameter, Tape, Tensor

# patches per eval forward in predict_set, evaluate and pseudo-labelling
EVAL_BATCH = 64
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates, denominator offset


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    eval_cadence: int = 0          # epochs between test evaluations, 0 = never
    target_oa: float | None = None  # stop once a cadence eval reaches this

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.eval_cadence < 0:
            raise ValueError(f"eval cadence must be >= 0, got {self.eval_cadence}")
        if self.target_oa is not None:
            if not 0.0 < self.target_oa <= 1.0:
                raise ValueError(f"target OA {self.target_oa} outside (0, 1]")
            if self.eval_cadence == 0:
                raise ValueError("target OA needs an eval cadence >= 1 to be checked")


class Adam:
    """Adaptive moments with bias correction. A step whose update leaves a
    parameter non-finite raises NonFiniteError naming it, before that
    parameter changes (the parameters before it have stepped)."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            # an overflow shows as a non-finite value, reported below
            with np.errstate(over="ignore", invalid="ignore"):
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                new = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if not np.isfinite(new).all():
                raise NonFiniteError(f"Adam step {self.t} makes {p.name or 'a parameter'} "
                                     "non-finite")
            p.data[...] = new


def train(model: PatchClassifier, train_set: PatchSet, cfg: TrainConfig,
          test_set: PatchSet | None = None) -> list[dict]:
    """Minimize cross-entropy over the labeled training entries.

    Returns per-epoch history records {epoch, loss, acc[, test_oa]};
    deterministic for a fixed seed and single-worker data order.
    """
    labels = train_set.labels
    if len(train_set) == 0 or (labels <= 0).any():
        raise ValueError("training set must be non-empty and fully labeled")
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    opt = Adam(model.parameters(), cfg.learning_rate)
    n = len(train_set)
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        loss_sum = 0.0
        correct = 0
        batches = train_set.batches(shuffle_rng.permutation(n), cfg.batch_size)
        for step, (idx, patches) in enumerate(batches, start=1):
            x = Tensor(patches)
            y = labels[idx] - 1
            model.zero_grad()
            try:
                with Tape() as tape:
                    logits = model(x, training=True, rng=dropout_rng)
                    loss = cross_entropy(logits, y)
                tape.backward(loss)
                opt.step()
            except NonFiniteError as exc:
                raise NonFiniteError(f"{exc} at epoch {epoch}, step {step}") from exc
            loss_sum += float(loss.data) * len(idx)
            correct += int((logits.data.argmax(axis=1) == y).sum())
        record = {"epoch": epoch, "loss": loss_sum / n, "acc": correct / n}
        if test_set is not None and cfg.eval_cadence and epoch % cfg.eval_cadence == 0:
            record["test_oa"] = evaluate(model, test_set).oa
        history.append(record)
        if cfg.target_oa is not None and record.get("test_oa", 0.0) >= cfg.target_oa:
            break
    return history


def predict_set(model: PatchClassifier, patchset: PatchSet, indices=None) -> np.ndarray:
    """Eval-mode 0-based predictions over (a subset of) a patch set, one
    forward per EVAL_BATCH patches."""
    if indices is None:
        indices = np.arange(len(patchset))
    preds = [model.predict(patches) for _, patches in patchset.batches(indices, EVAL_BATCH)]
    return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)


def evaluate(model: PatchClassifier, test_set: PatchSet) -> EvalReport:
    """OA, AA, kappa and per-class accuracy on the labeled test entries,
    and objective J with T the measured wall time of predicting them
    (patch gathering included)."""
    labeled = test_set.labeled_indices
    if len(labeled) == 0:
        raise ValueError("test set has no labeled entries")
    start = time.perf_counter()
    preds = predict_set(model, test_set, labeled)
    infer_time_s = time.perf_counter() - start
    y_true = test_set.labels[labeled] - 1
    cm = ConfusionMatrix.from_predictions(y_true, preds, test_set.num_classes)
    oa = overall_accuracy(cm)
    params_millions = model.param_count() / 1e6
    return EvalReport(
        oa=oa,
        aa=average_accuracy(cm),
        kappa=kappa(cm),
        per_class=per_class_accuracy(cm),
        infer_time_s=infer_time_s,
        test_samples=len(labeled),
        params_millions=params_millions,
        objective_j=objective_j(1.0 - oa, infer_time_s, params_millions),
    )


# ---------------------------------------------------------------------------
# timing


@dataclass
class BenchReport:
    warmup_runs: int
    measured_runs: int
    times_s: list[float]
    batch_size: int
    device: str
    param_count: int
    peak_mem_mb: float  # tracemalloc peak of one untimed call after the timed ones
    blas_threads: int | None  # read back from the loaded OpenBLAS; None if unreadable
    numpy_version: str
    workers: int  # threads that share a conv's and BatchNorm's batch chunks

    @property
    def median_s(self) -> float:
        return median(self.times_s)

    @property
    def p25_s(self) -> float:
        return float(np.percentile(self.times_s, 25))

    @property
    def p75_s(self) -> float:
        return float(np.percentile(self.times_s, 75))

    def as_dict(self) -> dict:
        return {**asdict(self), "median_s": self.median_s, "p25_s": self.p25_s,
                "p75_s": self.p75_s}


def _device_note() -> str:
    return f"cpu ({platform.machine()}, {platform.system()})"


# Symbols OpenBLAS builds export to read and to set the thread count.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_BLAS_SET_THREADS_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_function(symbols):
    """The first of `symbols` that the OpenBLAS numpy ships exports, or None.
    Opening the library returns the copy already loaded, so the function
    acts on the library numpy calls."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    """Thread count the OpenBLAS that numpy ships reports, or None if it
    cannot be read: the count in force, not the one an environment variable
    asked for."""
    fn = _openblas_function(_BLAS_THREAD_SYMBOLS)
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = []
    return int(fn())


def set_blas_threads(n: int) -> None:
    """Set the thread count of the OpenBLAS that numpy ships, if it exports
    a setter; otherwise do nothing."""
    fn = _openblas_function(_BLAS_SET_THREADS_SYMBOLS)
    if fn is not None:
        fn.restype = None
        fn.argtypes = [ctypes.c_int]
        fn(n)


# mallopt's parameter numbers in glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse rather than hand it
    back to the OS; elsewhere do nothing.

    By default a block of 128 KB or more is mapped on its own and unmapped
    when freed, and the heap is trimmed once its free top passes twice that
    (adaptive) threshold, so each conv call's scratch came as fresh pages
    faulted in one by one. A batch-1 predict of the perfbench model took
    1385-1749 page faults, 2-4 ms of a ~14 ms call, and how many varied
    from one process to the next with where long-lived arrays sat in the
    heap. Blocks up to 32 MB, glibc's ceiling, now come from the heap, and
    up to 512 MB free at its top is kept: no fault in that predict call,
    and tens in place of ~3000 per batch-32 training step, at a peak RSS
    1-2 MB higher (122 -> 124 MB).
    """
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    if hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt"):
        libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 512 << 20)


def benchmark_callables(fns, warmup: int, runs: int, batch_size: int,
                        param_counts: list[int]) -> list[BenchReport]:
    """One BenchReport per callable: monotonic-clock wall times of `runs`
    calls, after `warmup` discarded calls, and the tracemalloc peak of one
    more, untimed call (what it allocates; memory held before it is not
    counted). The callables take turns call by call, in warm-up and timed
    runs alike, so a drift of the machine's speed reaches each of them."""
    if runs < 1 or warmup < 0:
        raise ValueError(f"runs must be >= 1 and warmup >= 0, got {runs} and {warmup}")
    for _ in range(warmup):
        for fn in fns:
            fn()
    times = [[] for _ in fns]
    for _ in range(runs):
        for fn, fn_times in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            fn_times.append(time.perf_counter() - t0)
    reports = []
    for fn, fn_times, count in zip(fns, times, param_counts):
        tracemalloc.start()
        try:
            fn()
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        reports.append(BenchReport(warmup, runs, fn_times, batch_size, _device_note(),
                                   count, peak_mb, blas_threads(), np.__version__,
                                   nn._WORKERS))
    return reports


# Published full-scale comparison figures, kept as context constants for
# comparative reports; desk-scale ratios are expected to differ.
REFERENCE_FULLSCALE = {
    "speed_ratio": 2.0,
    "param_difference_millions": 1.1,
    "note": "published full-scale comparison for context; ratios at desk scale differ",
}


def comparative_benchmark(config: SpectralCAConfig = CFG32, batch: int = 2,
                          height: int = 9, width: int = 9, bands: int = 32,
                          warmup: int = 3, runs: int = 10, seed: int = 0) -> dict:
    """Matched-config block-vs-baseline report: parameter counts, median
    inference times with their quartiles, and the observed speed ratio
    (reported, not asserted). The two blocks' eval forwards on one random
    input alternate run by run."""
    shape = (batch, config.channels, height, width, bands)
    if min(shape) < 1:
        raise ValueError(f"input shape {shape} needs every extent >= 1")
    rng = np.random.default_rng(seed)
    block = SpectralCABlock(config, rng)
    baseline = BaselineViTBlock(config, rng)
    x = Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))
    ours, other = benchmark_callables(
        [lambda: block(x, training=False), lambda: baseline(x, training=False)],
        warmup, runs, batch_size=batch,
        param_counts=[block.param_count(), baseline.param_count()],
    )
    return {
        "config": {"channels": config.channels, "dim": config.dim, "heads": config.heads},
        "input_shape": list(shape),
        "spectralca": ours.as_dict(),
        "baseline": other.as_dict(),
        "speed_ratio_baseline_over_spectralca": other.median_s / ours.median_s,
        "reference_fullscale": REFERENCE_FULLSCALE,
    }

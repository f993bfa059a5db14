"""The benchmark's workloads: set-up, the timed closed loop, the memory pass
and the output checks, plus the assembly of one run's result.

Every workload has one caller in a closed loop: the next unit of work starts
when the previous one has returned. A unit is one training step, one
``predict_set`` batch or one single-patch request. All workloads use 9x9x32
patches from ``generate_synthetic`` and a depth-1 ``PatchClassifier`` with
CFG32; every input is drawn from the run's seed.
"""

from __future__ import annotations

import copy
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spectralca import (
    ModelConfig,
    PatchClassifier,
    PatchSet,
    Tensor,
    TrainConfig,
    extract_patches,
    generate_synthetic,
    load_checkpoint,
    merge_patchsets,
    save_checkpoint,
    split,
    train,
)
from spectralca.nn import cross_entropy
from spectralca.trainer import predict_set

from .tracer import BACKWARD_PATHS, CONV_PATHS, FORWARD_PATHS, MODULE_PATHS, Tracer

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("peak_mem_mb", "MB"),
    ("final_loss", "nats"),
)
PER_LAYER = (
    [(f"fwd_ms.{p}", "ms") for p in FORWARD_PATHS]
    + [(f"bwd_ms.{p}", "ms") for p in BACKWARD_PATHS]
    + [(f"out_mb.{p}", "MB") for p in MODULE_PATHS]
    + [(f"flops.{p}", "count") for p in CONV_PATHS]
    + [(f"cols_mb.{p}", "MB") for p in CONV_PATHS]
    + [
        ("tape_nodes", "count"),
        ("backward_ms", "ms"),
        ("adam_ms", "ms"),
        ("zero_grad_ms", "ms"),
        ("patch_batch_ms", "ms"),
        ("checkpoint_save_ms", "ms"),
        ("checkpoint_load_ms", "ms"),
        ("checkpoint_mb", "MB"),
        ("trace_overhead_frac", "frac"),
    ]
)

# setup_s is the median over this many set-ups, each from its own seed
# derived from the run's: scene generation resamples until its classes fit,
# so one scene's set-up time depends on the seed.
SETUP_REPEATS = 9
# train_b32 times seconds // STEP_SECONDS steps; one takes ~4 s on 2 cores.
STEP_SECONDS = 4.0
# final_loss, the memory pass and the warm-up use a state built from this
# seed, so final_loss is the same on every run unless the arithmetic changes.
REFERENCE_SEED = 0
NOISE_SIGMA = 0.05
TRAIN_FRACTION = 0.5
# A fresh model's head is zero and predicts class 0 everywhere, which would
# make the prediction checks vacuous; served models get a small random head.
HEAD_SIGMA = 0.01
PROBE = 8
# float32 logits may differ from a float64 copy by this many float32 epsilons
# times the logits' scale.
TOLERANCE_EPS = 1024


@dataclass(frozen=True)
class Spec:
    """Scene size, batch size and model of a workload."""

    height: int
    width: int
    batch: int
    model: ModelConfig = ModelConfig(num_classes=8)


@dataclass
class State:
    spec: Spec
    seed: int
    train: PatchSet
    scene: PatchSet  # every pixel, normalized with the train statistics
    model: PatchClassifier
    io_ms: tuple[float, float] | None = None  # checkpoint save, load
    checkpoint_mb: float = 0.0


@dataclass
class Phase:
    """Outcome of one timed loop."""

    times: list[float] = field(default_factory=list)  # seconds per good unit
    samples: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def samples_per_s(self) -> float:
        return self.samples / sum(self.times)


def build(spec: Spec, seed: int) -> State:
    """Scene generation, patch extraction, split and model build."""
    cfg = spec.model
    cube, raster = generate_synthetic(seed, spec.height, spec.width, cfg.bands,
                                      cfg.num_classes, NOISE_SIGMA)
    patches = extract_patches(cube, raster, cfg.patch_size)
    train_set, test_set, _ = split(patches, TRAIN_FRACTION, seed)
    model = PatchClassifier(cfg, np.random.default_rng(seed))
    return State(spec, seed, train_set, merge_patchsets(train_set, test_set), model)


def _draw_head(model: PatchClassifier, seed: int) -> None:
    w = model.head.weight
    w.data[:] = np.random.default_rng(seed).normal(0.0, HEAD_SIGMA, w.shape)


def _valid_predictions(preds, n: int, num_classes: int) -> bool:
    preds = np.asarray(preds)
    return (preds.shape == (n,) and np.issubdtype(preds.dtype, np.integer)
            and bool(((preds >= 0) & (preds < num_classes)).all()))


def _logits(model, patches: np.ndarray, training: bool = False, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed) if training else None
    return model(Tensor(patches), training=training, rng=rng).data


def _loss(model, patches, labels, training: bool = False, seed: int = 0) -> float:
    logits = Tensor(_logits(model, patches, training, seed))
    return float(cross_entropy(logits, labels).data)


def _matches_float64(model: PatchClassifier, patches: np.ndarray) -> bool:
    """Eval logits agree with a float64 copy of the same weights."""
    got = _logits(model, patches)
    ref = _logits(copy.deepcopy(model).astype(np.float64), patches.astype(np.float64))
    if got.shape != ref.shape or not np.isfinite(got).all():
        return False
    tol = TOLERANCE_EPS * np.finfo(np.float32).eps * (1.0 + np.abs(ref).max())
    return float(np.abs(got - ref).max()) <= tol


def _report_exception(where: str) -> None:
    print(f"perfbench: {where} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """A named workload; subclasses define set-up, units and checks."""

    name = ""
    why = ""
    spec: Spec

    def setup(self, spec: Spec, seed: int, workdir: Path) -> State:
        return build(spec, seed)

    def memory_unit(self, state: State) -> None:
        """One unit of work, run untimed under tracemalloc."""
        raise NotImplementedError

    def run(self, state: State, seconds: float, tracer: Tracer | None) -> Phase:
        raise NotImplementedError

    def probe(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        """Fixed probe patches and their 0-based labels."""
        idx = np.arange(min(PROBE, len(state.scene)))
        return state.scene.batch(idx), state.scene.labels[idx] - 1

    def loss(self, state: State) -> float:
        """Eval cross-entropy of the served model on the probe batch."""
        return _loss(state.model, *self.probe(state))

    def checks(self, state: State, before: float, after: float) -> list[tuple[str, bool]]:
        """Run-level checks; `before`/`after` are the reference state's loss
        before and after its memory-pass unit."""
        patches = self.probe(state)[0]
        return [("float32 logits match float64", _matches_float64(state.model, patches))]


class TrainB32(Workload):
    name = "train_b32"
    why = ("the only workload that records the tape, runs backward with im2col "
           "columns kept, and steps Adam; it sets the memory peak")
    spec = Spec(height=32, width=32, batch=32)

    def first_batch(self, state: State) -> PatchSet:
        return state.train.subset(np.arange(state.spec.batch))

    def _config(self, state: State) -> TrainConfig:
        return TrainConfig(epochs=1, batch_size=state.spec.batch, seed=state.seed)

    def memory_unit(self, state: State) -> None:
        train(state.model, self.first_batch(state), self._config(state))

    def run(self, state: State, seconds: float, tracer: Tracer | None) -> Phase:
        batch = state.spec.batch
        steps = max(2, min(int(seconds // STEP_SECONDS), len(state.train) // batch))
        rng = np.random.default_rng(state.seed)
        subset = state.train.subset(np.sort(rng.choice(len(state.train), steps * batch,
                                                       replace=False)))
        stamps: list[float] = []
        fetch = subset.batch

        def marked_batch(indices):
            # each step starts by fetching its batch: the step boundary
            stamps.append(time.perf_counter())
            if tracer is None:
                return fetch(indices)
            tracer.new_unit()
            with tracer.timed("patch_batch_ms"):
                return fetch(indices)

        subset.batch = marked_batch
        phase = Phase(attempted=steps)
        try:
            history = train(state.model, subset, self._config(state))
        except Exception:
            _report_exception("training")
            phase.failed = steps
            return phase
        end = time.perf_counter()
        ok = (len(history) == 1 and np.isfinite(history[0]["loss"])
              and all(np.isfinite(p.data).all() for p in state.model.parameters()))
        if not ok:
            phase.failed = steps
            return phase
        phase.times = list(np.diff(stamps + [end]))
        phase.samples = steps * batch
        return phase

    def probe(self, state: State) -> tuple[np.ndarray, np.ndarray]:
        first = self.first_batch(state)
        return first.batch(np.arange(len(first))), first.labels - 1

    def loss(self, state: State) -> float:
        """Training-mode loss on the first batch, with a fixed dropout seed."""
        return _loss(state.model, *self.probe(state), training=True, seed=state.seed)

    def checks(self, state: State, before: float, after: float) -> list[tuple[str, bool]]:
        patches = self.probe(state)[0][:PROBE]
        return [
            ("first-batch loss decreased", after < before),
            ("float32 logits match float64", _matches_float64(state.model, patches)),
        ]


class ScenePredictB64(Workload):
    name = "scene_predict_b64"
    why = ("forward-only prediction of every pixel at predict_set's batch of 64 "
           "from a reloaded checkpoint; the spectral conv's columns exceed the "
           "chunk budget, so im2col chunking shows here")
    spec = Spec(height=16, width=16, batch=64)

    def setup(self, spec: Spec, seed: int, workdir: Path) -> State:
        state = build(spec, seed)
        _draw_head(state.model, seed)
        path = workdir / "model.sck"
        t0 = time.perf_counter()
        save_checkpoint(state.model, path, seed=seed)
        t1 = time.perf_counter()
        state.model = load_checkpoint(path)
        t2 = time.perf_counter()
        state.io_ms = ((t1 - t0) * 1e3, (t2 - t1) * 1e3)
        state.checkpoint_mb = path.stat().st_size / 1e6
        return state

    def _slices(self, state: State) -> list[np.ndarray]:
        n, b = len(state.scene), state.spec.batch
        return [np.arange(i, min(i + b, n)) for i in range(0, n, b)]

    def memory_unit(self, state: State) -> None:
        predict_set(state.model, state.scene, self._slices(state)[0])

    def run(self, state: State, seconds: float, tracer: Tracer | None) -> Phase:
        slices = self._slices(state)
        classes = state.spec.model.num_classes
        first_pass: dict[int, np.ndarray] = {}
        phase = Phase()
        if tracer is not None:
            fetch = state.scene.batch

            def traced_batch(indices):
                with tracer.timed("patch_batch_ms"):
                    return fetch(indices)

            state.scene.batch = traced_batch
        try:
            start = time.perf_counter()
            k = 0
            while k == 0 or time.perf_counter() - start < seconds:
                i = k % len(slices)
                k += 1
                phase.attempted += 1
                if tracer is not None:
                    tracer.new_unit()
                t0 = time.perf_counter()
                try:
                    preds = predict_set(state.model, state.scene, slices[i])
                except Exception:
                    _report_exception("predict_set")
                    phase.failed += 1
                    continue
                dt = time.perf_counter() - t0
                # every pass over the scene must repeat the first pass exactly
                expected = first_pass.setdefault(i, preds)
                if not (_valid_predictions(preds, len(slices[i]), classes)
                        and np.array_equal(preds, expected)):
                    phase.failed += 1
                    continue
                phase.times.append(dt)
                phase.samples += len(slices[i])
        finally:
            if tracer is not None:
                del state.scene.batch
        return phase


class PatchLatencyB1(Workload):
    name = "patch_latency_b1"
    why = ("single-patch requests through PatchClassifier.predict: no chunking "
           "and small GEMMs, so per-op fixed costs show and chunking changes "
           "should leave it unmoved")
    spec = Spec(height=16, width=16, batch=1)

    def setup(self, spec: Spec, seed: int, workdir: Path) -> State:
        state = build(spec, seed)
        _draw_head(state.model, seed)
        return state

    def memory_unit(self, state: State) -> None:
        state.model.predict(state.scene.batch([0]))

    def run(self, state: State, seconds: float, tracer: Tracer | None) -> Phase:
        order = np.random.default_rng(state.seed).permutation(len(state.scene))
        classes = state.spec.model.num_classes
        phase = Phase()
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            i = order[k % len(order)]
            k += 1
            phase.attempted += 1
            if tracer is None:
                payload = state.scene.batch([i])
            else:
                tracer.new_unit()
                with tracer.timed("patch_batch_ms"):
                    payload = state.scene.batch([i])
            t0 = time.perf_counter()
            try:
                preds = state.model.predict(payload)
            except Exception:
                _report_exception("predict")
                phase.failed += 1
                continue
            dt = time.perf_counter() - t0
            if not _valid_predictions(preds, 1, classes):
                phase.failed += 1
                continue
            phase.times.append(dt)
            phase.samples += 1
        return phase


WORKLOADS = {w.name: w for w in (TrainB32(), ScenePredictB64(), PatchLatencyB1())}


def _peak_mb(workload: Workload, state: State) -> float:
    tracemalloc.start()
    try:
        workload.memory_unit(state)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spec: Spec | None = None) -> tuple[dict, int]:
    """One benchmark run: the result object printed as the last line, and
    the number of units the untraced loop timed.

    With `trace` the timed loop runs twice, untraced then traced, and the
    metrics are the per-layer ones; otherwise they are the end-to-end ones.
    """
    workload = WORKLOADS[name]
    spec = spec or workload.spec
    setup_s, io_ms = [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(spec, seed * SETUP_REPEATS + k, workdir)
        setup_s.append(time.perf_counter() - t0)
        if state.io_ms is not None:
            io_ms.append(state.io_ms)

    reference = workload.setup(spec, REFERENCE_SEED, workdir)
    before = workload.loss(reference)
    # the untimed memory pass doubles as the warm-up unit; on train_b32 it is
    # the reference's one training step
    peak_mb = _peak_mb(workload, reference)
    after = workload.loss(reference)
    phase = workload.run(state, seconds, None)
    if trace:
        tracer = Tracer()
        with tracer.attach(state.model):
            traced = workload.run(state, seconds, tracer)
    checks = workload.checks(state, before, after)
    for label, ok in checks:
        if not ok:
            print(f"perfbench: check failed: {label}", file=sys.stderr)

    phases = [phase] + ([traced] if trace else [])
    attempted = sum(p.attempted for p in phases) + len(checks)
    failed = sum(p.failed for p in phases) + sum(not ok for _, ok in checks)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if any(not p.times for p in phases):
        result["correct"] = False
        return result, 0

    if trace:
        values = dict.fromkeys((n for n, _ in PER_LAYER), 0)
        values.update((k, v) for k, v in tracer.summary().items() if k in values)
        if io_ms:
            values["checkpoint_save_ms"] = float(np.median([s for s, _ in io_ms]))
            values["checkpoint_load_ms"] = float(np.median([ld for _, ld in io_ms]))
            values["checkpoint_mb"] = state.checkpoint_mb
        values["trace_overhead_frac"] = (
            (traced.samples_per_s - phase.samples_per_s) / phase.samples_per_s
        )
        units = dict(PER_LAYER)
    else:
        times = np.asarray(phase.times)
        values = {
            "setup_s": float(np.median(setup_s)),
            "samples_per_s": phase.samples_per_s,
            "step_p50_ms": float(np.percentile(times, 50)) * 1e3,
            "step_p90_ms": float(np.percentile(times, 90)) * 1e3,
            "peak_mem_mb": peak_mb,
            "final_loss": after,
        }
        units = dict(END_TO_END)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result, len(phase.times)

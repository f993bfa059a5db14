import itertools
import json
import statistics
import time
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from spectralca.block import BaselineViTBlock, SpectralCABlock, SpectralCAConfig
from spectralca.classifier import ModelConfig, PatchClassifier
from spectralca.data import PatchSet, extract_patches, generate_synthetic, split
from spectralca.metrics import objective_j
from spectralca.selftrain import pseudo_label_select
from spectralca import nn, trainer
from spectralca.tensor import NonFiniteError, Parameter
from spectralca.trainer import (
    EVAL_BATCH,
    Adam,
    BenchReport,
    TrainConfig,
    benchmark_callables,
    comparative_benchmark,
    evaluate,
    predict_set,
    train,
)

TINY_BLOCK = SpectralCAConfig(channels=4, dim=8, heads=2, dropout_rate=0.0)


def tiny_config(num_classes=2, patch_size=5, bands=6):
    return ModelConfig(num_classes=num_classes, patch_size=patch_size, bands=bands,
                       depth=1, stem_channels=4, block1=TINY_BLOCK)


def tiny_scene(seed=21, num_classes=2, noise=0.02, size=14, bands=6, patch=5):
    cube, labels = generate_synthetic(seed, size, size, bands, num_classes, noise)
    ps = extract_patches(cube, labels, patch)
    return split(ps, 0.3, seed=seed)


def balanced_patchset(num_classes=4, per_class=25, patch=3, bands=4, seed=0):
    rng = np.random.default_rng(seed)
    n = num_classes * per_class
    side = int(np.ceil(np.sqrt(n)))
    padded = rng.standard_normal((side + 2, side + 2, bands)).astype(np.float32)
    coords = np.array([(i // side, i % side) for i in range(n)])
    labels = np.repeat(np.arange(1, num_classes + 1), per_class)
    return PatchSet(padded, coords, labels, patch, num_classes)


class TestAdam:
    def test_zero_learning_rate_is_identity(self):
        p = Parameter(np.array([1.0, -2.0], dtype=np.float32), name="p")
        opt = Adam([p], lr=0.0)
        for _ in range(20):
            p.grad[:] = [0.5, -0.3]
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_contracts_quadratic_after_warmup(self):
        p = Parameter(np.array([3.0, -4.0], dtype=np.float64), name="p")
        opt = Adam([p], lr=1e-2)
        norms = []
        for _ in range(200):
            p.grad[:] = p.data  # gradient of 0.5 * ||p||^2
            opt.step()
            norms.append(float(np.linalg.norm(p.data)))
        for a, b in zip(norms[10:], norms[11:]):
            assert b <= a + 1e-12
        assert norms[-1] < norms[10]


    def test_overflowing_update_raises_naming_the_parameter_it_would_break(self):
        # a step of ~1e38 keeps p finite but takes q past float32's largest
        # value: the error names q, without a numpy warning, and q keeps
        # its value
        p = Parameter(np.array([1.0, -2.0], dtype=np.float32), name="stem.weight")
        q = Parameter(np.array([3e38], dtype=np.float32), name="head.bias")
        opt = Adam([p, q], lr=1e38)
        p.grad[:] = [0.5, -0.3]
        q.grad[:] = [-1.0]
        with pytest.raises(NonFiniteError, match="Adam step 1 makes head.bias non-finite"):
            opt.step()
        assert np.isfinite(p.data).all() and p.data[0] < -1e37
        np.testing.assert_array_equal(q.data, np.float32([3e38]))


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        train_set, _, _ = tiny_scene()
        model = PatchClassifier(tiny_config(), np.random.default_rng(0))
        cfg = TrainConfig(epochs=50, batch_size=16, seed=0)
        history = train(model, train_set, cfg)
        assert any(h["acc"] == 1.0 for h in history[:50])

    def test_first_batch_loss_near_log_num_classes(self):
        train_set, _, _ = tiny_scene(num_classes=2)
        model = PatchClassifier(tiny_config(num_classes=2), np.random.default_rng(1))
        cfg = TrainConfig(epochs=1, batch_size=len(train_set), seed=0)
        history = train(model, train_set, cfg)
        expected = np.log(2.0)
        assert abs(history[0]["loss"] - expected) <= 0.2 * expected

    def test_deterministic_histories(self):
        cfg = TrainConfig(epochs=3, batch_size=16, seed=5)
        runs = []
        for _ in range(2):
            train_set, _, _ = tiny_scene()
            model = PatchClassifier(tiny_config(), np.random.default_rng(5))
            runs.append(train(model, train_set, cfg))
        assert runs[0] == runs[1]

    def test_eval_cadence_and_early_stop(self):
        train_set, test_set, _ = tiny_scene()
        model = PatchClassifier(tiny_config(), np.random.default_rng(0))
        cfg = TrainConfig(epochs=50, batch_size=16, seed=0, eval_cadence=1,
                          target_oa=0.6)
        history = train(model, train_set, cfg, test_set=test_set)
        assert "test_oa" in history[-1]
        assert history[-1]["test_oa"] >= 0.6 or len(history) == 50

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_diagnostic(self):
        train_set, _, _ = tiny_scene()
        model = PatchClassifier(tiny_config(), np.random.default_rng(0))
        model.stem.weight.data[:] = 1e38  # overflows float32 inside the stem conv
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
        with pytest.raises(NonFiniteError, match="conv3d"):
            train(model, train_set, cfg)

    def test_nonfinite_error_names_epoch_and_step(self, monkeypatch):
        # 100 patches at batch 16 are 7 steps an epoch: a weight broken by
        # the 9th update breaks the 10th forward, step 3 of epoch 2
        ps = balanced_patchset()
        model = PatchClassifier(tiny_config(num_classes=4, patch_size=3, bands=4),
                                np.random.default_rng(0))
        step = Adam.step

        def breaking_step(opt):
            step(opt)
            if opt.t == 9:
                model.stem.weight.data[0, 0, 1, 1, 1] = np.nan

        monkeypatch.setattr(Adam, "step", breaking_step)
        with pytest.raises(NonFiniteError) as exc:
            train(model, ps, TrainConfig(epochs=3, batch_size=16, seed=0))
        assert str(exc.value) == ("non-finite values produced by conv3d in stem "
                                  "at epoch 2, step 3")

    def test_unlabeled_entries_rejected(self):
        ps = balanced_patchset()
        ps.labels[0] = 0
        model = PatchClassifier(tiny_config(num_classes=4, patch_size=3, bands=4),
                                np.random.default_rng(0))
        with pytest.raises(ValueError):
            train(model, ps, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("fields, message", [
        ({"eval_cadence": -1}, "eval cadence"),
        ({"eval_cadence": 1, "target_oa": 7}, "outside"),
        ({"eval_cadence": 1, "target_oa": 0.0}, "outside"),
        ({"eval_cadence": 1, "target_oa": float("nan")}, "outside"),
        ({"target_oa": 0.9}, "eval cadence"),
    ])
    def test_config_rejects_settings_training_would_ignore(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**fields)


class _ConstantModel:
    """Predicts class 0 for everything; quacks like PatchClassifier."""

    def __init__(self, num_classes):
        self.num_classes = num_classes

    def predict(self, patches):
        return np.zeros(len(patches), dtype=np.int64)

    def param_count(self):
        return 1000


class TestEvaluate:
    def test_constant_predictor_on_balanced_classes(self):
        ps = balanced_patchset(num_classes=4, per_class=25)
        report = evaluate(_ConstantModel(4), ps)
        assert report.oa == 0.25
        assert report.aa == 0.25
        assert report.kappa == pytest.approx(0.0, abs=1e-12)

    def test_perfect_predictions_score_one(self):
        ps = balanced_patchset(num_classes=3, per_class=10)
        model = _ConstantModel(3)
        cursor = 0

        def perfect_predict(patches):
            # follows evaluate's chunking order over the labeled indices
            nonlocal cursor
            out = ps.labels[ps.labeled_indices[cursor:cursor + len(patches)]] - 1
            cursor += len(patches)
            return out

        model.predict = perfect_predict
        report = evaluate(model, ps)
        assert report.oa == report.aa == report.kappa == 1.0

    def test_report_round_trips(self):
        ps = balanced_patchset()
        report = evaluate(_ConstantModel(4), ps)
        assert json.loads(report.to_json()) == asdict(report)

    def test_empty_test_set_rejected(self):
        ps = balanced_patchset()
        ps.labels[:] = 0
        with pytest.raises(ValueError):
            evaluate(_ConstantModel(4), ps)

    def test_time_is_the_measured_predict_set_call(self, monkeypatch):
        # trainer's own name for the module, not the global one pytest reads
        clock = itertools.count(0.0, 2.5)
        monkeypatch.setattr(trainer, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        ps = balanced_patchset()
        report = evaluate(_ConstantModel(4), ps)
        assert report.infer_time_s == 2.5
        assert report.test_samples == len(ps.labeled_indices)
        assert report.objective_j == objective_j(1 - report.oa, 2.5, 1000 / 1e6)


class _CountingModel(_ConstantModel):
    """Records the number of patches in every predict or predict_proba call."""

    def __init__(self, num_classes):
        super().__init__(num_classes)
        self.calls = []

    def predict(self, patches):
        self.calls.append(len(patches))
        return super().predict(patches)

    def predict_proba(self, patches):
        self.calls.append(len(patches))
        return np.full((len(patches), self.num_classes), 1 / self.num_classes, np.float32)


@pytest.mark.parametrize("run", [predict_set, evaluate,
                                 lambda model, ps: pseudo_label_select(model, ps, 0.9)],
                         ids=["predict_set", "evaluate", "pseudo_label_select"])
def test_one_model_call_per_eval_batch(run):
    model = _CountingModel(2)
    run(model, balanced_patchset(num_classes=2, per_class=65))
    assert EVAL_BATCH == 64
    assert model.calls == [64, 64, 2]


def test_predict_set_on_no_indices_is_empty_int64():
    model = _CountingModel(2)
    preds = predict_set(model, balanced_patchset(num_classes=2, per_class=5), np.arange(0))
    assert preds.shape == (0,) and preds.dtype == np.int64
    assert model.calls == []


class TestBenchmark:
    def test_exact_run_count(self):
        report = benchmark_callables([lambda: None], 3, 5, 1, [0])[0]
        assert report.measured_runs == 5
        assert len(report.times_s) == 5

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            benchmark_callables([lambda: None], 3, 0, 1, [0])

    def test_runs_the_warmups_asked_for(self):
        calls = {"n": 0}

        def count():
            calls["n"] += 1

        report = benchmark_callables([count], 1, 4, 1, [0])[0]
        assert calls["n"] == 1 + 4 + 1  # and the untimed memory pass
        assert report.warmup_runs == 1

    def test_reports_the_peak_memory_of_one_untimed_call(self):
        calls = {"n": 0}

        def allocate():
            calls["n"] += 1
            if calls["n"] == 3 + 2 + 1:  # only the call after the timed runs
                np.ones(1_000_000)  # 8 MB

        report = benchmark_callables([allocate], 3, 2, 1, [0])[0]
        assert report.measured_runs == 2 and len(report.times_s) == 2
        assert 8.0 <= report.peak_mem_mb < 8.1
        assert report.as_dict()["peak_mem_mb"] == report.peak_mem_mb

    def test_reports_blas_threads_and_numpy_version(self, monkeypatch):
        payload = benchmark_callables([lambda: None], 0, 1, 1, [0])[0].as_dict()
        threads = payload["blas_threads"]
        assert threads is None or (type(threads) is int and threads >= 1), threads
        assert payload["numpy_version"] == np.__version__
        json.dumps(payload)
        # a library that exports none of the known symbols reads as null
        monkeypatch.setattr(trainer, "_BLAS_THREAD_SYMBOLS", ())
        report = benchmark_callables([lambda: None], 0, 1, 1, [0])[0]
        assert report.as_dict()["blas_threads"] is None

    def test_reports_workers_and_one_blas_thread_beside_a_pool(self, workers):
        workers(2)
        # the first map that runs on the pool pins OpenBLAS to one thread,
        # so two workers do not each run a two-thread GEMM
        assert list(nn._map(abs, [-1, 2, -3])) == [1, 2, 3]
        assert trainer.blas_threads() in (1, None)
        payload = benchmark_callables([lambda: None], 0, 1, 1, [0])[0].as_dict()
        assert payload["workers"] == 2

    def test_callables_take_turns_run_by_run(self):
        log = []
        reports = benchmark_callables([lambda: log.append("a"), lambda: log.append("b")],
                                      warmup=2, runs=3, batch_size=1, param_counts=[5, 7])
        # warm-ups and timed runs alternate; then one memory pass each
        assert log == ["a", "b"] * (2 + 3) + ["a", "b"]
        assert [len(r.times_s) for r in reports] == [3, 3]
        assert [r.param_count for r in reports] == [5, 7]

    def test_reports_quartiles(self):
        report = BenchReport(0, 5, [0.5, 0.1, 0.3, 0.2, 0.4], 1, "cpu", 0, 0.0, None, "x", 1)
        payload = report.as_dict()
        assert (payload["p25_s"], payload["median_s"], payload["p75_s"]) == (0.2, 0.3, 0.4)

    def test_median_robust_to_injected_outlier(self):
        calls = {"n": 0}

        def sometimes_slow():
            calls["n"] += 1
            if calls["n"] == 6:  # one measured run sleeps (after 3 warmups)
                time.sleep(0.05)

        report = benchmark_callables([sometimes_slow], 3, 7, 1, [0])[0]
        assert report.median_s < 0.01
        assert report.median_s <= statistics.mean(report.times_s)

    def test_block_benchmark_smoke(self):
        payload = comparative_benchmark(TINY_BLOCK, batch=1, height=5, width=5,
                                        bands=6, warmup=3, runs=2)
        assert payload["input_shape"] == [1, 4, 5, 5, 6]
        blocks = {"spectralca": SpectralCABlock(TINY_BLOCK, np.random.default_rng(0)),
                  "baseline": BaselineViTBlock(TINY_BLOCK, np.random.default_rng(0))}
        for side, block in blocks.items():
            report = payload[side]
            assert report["measured_runs"] == 2
            assert report["param_count"] == block.param_count()
            assert report["batch_size"] == 1

    def test_comparative_report_shape(self):
        payload = comparative_benchmark(TINY_BLOCK, batch=1, height=4, width=4,
                                        bands=4, warmup=3, runs=2)
        assert payload["speed_ratio_baseline_over_spectralca"] > 0
        assert "reference_fullscale" in payload
        assert payload["spectralca"]["measured_runs"] == 2
        for side in ("spectralca", "baseline"):
            report = payload[side]
            assert report["p25_s"] <= report["median_s"] <= report["p75_s"]

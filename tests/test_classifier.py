import ast
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from contextlib import nullcontext
from dataclasses import asdict
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralca import classifier, nn
from spectralca import tensor as T
from spectralca.block import SpectralCABlock, SpectralCAConfig, StreamProjector
from spectralca.classifier import (
    CheckpointError,
    ModelConfig,
    PatchClassifier,
    load_checkpoint,
    decode_config,
    read_checkpoint,
    save_checkpoint,
)
from spectralca.nn import cross_entropy
from spectralca.tensor import NonFiniteError, ShapeError, Tape, Tensor
from spectralca.trainer import Adam
from conftest import CHUNKINGS
from test_data import mutated_bytes

TINY_BLOCK = SpectralCAConfig(channels=4, dim=8, heads=2, dropout_rate=0.0)
TINY_MODEL = ModelConfig(num_classes=3, patch_size=5, bands=8, depth=1,
                         stem_channels=4, block1=TINY_BLOCK)


def rewrite_manifest(path, mutate, whole=False):
    """Apply mutate(entries by name, blob_bytes) to a saved checkpoint's
    manifest, or with `whole` replace the manifest by mutate(manifest), and
    write the file back with the blob unchanged."""
    blob = path.read_bytes()
    length = int.from_bytes(blob[4:12], "little")
    manifest = json.loads(blob[12:12 + length])
    if whole:
        manifest = mutate(manifest)
    else:
        mutate({e["name"]: e for e in manifest["entries"]}, manifest["blob_bytes"])
    payload = json.dumps(manifest).encode("utf-8")
    path.write_bytes(blob[:4] + len(payload).to_bytes(8, "little") + payload
                     + blob[12 + length:])


def set_entry(path, name, index, value):
    """Write float32 `value` at `index` of entry `name` in the blob of a
    saved checkpoint, the manifest unchanged."""
    blob = bytearray(path.read_bytes())
    start = 12 + int.from_bytes(blob[4:12], "little")
    entry = next(e for e in json.loads(blob[12:start])["entries"] if e["name"] == name)
    at = start + entry["offset"] + 4 * int(np.ravel_multi_index(index, entry["shape"]))
    blob[at:at + 4] = np.array(value, "<f4").tobytes()
    path.write_bytes(bytes(blob))


def with_model(block1=(), drop=(), **fields):
    """A whole-manifest edit that updates the model config and its block1,
    then removes the block1 keys in `drop`."""
    def edit(manifest):
        manifest["model"].update(fields)
        manifest["model"]["block1"].update(block1)
        for key in drop:
            del manifest["model"]["block1"][key]
        return manifest
    return edit


def tiny_model(seed=0):
    return PatchClassifier(TINY_MODEL, np.random.default_rng(seed))


def rand_patches(n, config=TINY_MODEL, seed=1):
    rng = np.random.default_rng(seed)
    shape = (n, 1, config.patch_size, config.patch_size, config.bands)
    return rng.standard_normal(shape).astype(np.float32)


class TestModelForward:
    def test_logits_shape_published_dims(self):
        config = ModelConfig(num_classes=4, patch_size=9, bands=32, depth=1)
        model = PatchClassifier(config, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 9, 9, 32)).astype(np.float32))
        assert model(x).shape == (2, 4)

    def test_zero_head_gives_uniform_probabilities(self):
        model = tiny_model()
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = 0.0
        patches = rand_patches(4)
        logits = model(Tensor(patches))
        assert (logits.data == 0.0).all()
        probs = model.predict_proba(patches)
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-7)

    def test_wrong_patch_extents_rejected(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((2, 1, 7, 7, 8), dtype=np.float32)))


# (parameter, entry, value set there, what the error names)
NON_FINITE_CASES = [
    ("block1.spectral_conv.weight", (0, 0, 1, 1, 1), np.nan, "conv3d in block1.spectral_conv"),
    ("stem.weight", (0, 0, 1, 1, 1), np.nan, "conv3d in stem"),
    ("stem_bn.gamma", (0,), np.nan, "batchnorm in stem_bn"),
    ("block1.spatial_conv.weight", (0, 0, 1, 1), np.nan, "conv2d in block1.spatial_conv"),
    ("block1.spectral_bn.gamma", (0,), np.nan, "batchnorm in block1.spectral_bn"),
    # finite activations whose sum over H and W overflows float32
    ("block1.spectral_bn.beta", (0,), 3e38, "batchnorm in block1.spectral_bn"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_error_names_the_layer():
    # a fresh model, its parameters never walked before the forward; the
    # eval forward streams each conv into its BatchNorm, and its checks
    # name the layer as the recorded ops under a tape do
    for path, index, value, produced in NON_FINITE_CASES:
        model = tiny_model()
        reduce(getattr, path.split("."), model).data[index] = value
        for tape in (nullcontext(), Tape()):
            with tape, pytest.raises(NonFiniteError) as exc:
                model(Tensor(rand_patches(2)))
            assert str(exc.value) == f"non-finite values produced by {produced}", path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_error_in_a_chunk_job_names_the_layer(chunking, workers):
    # one sample per chunk on two workers: the eval forward runs each of
    # the three samples as a job, and a job's error reaches the caller as
    # the whole batch's does
    workers(2)
    for path, index, value, produced in NON_FINITE_CASES:
        model = tiny_model()
        reduce(getattr, path.split("."), model).data[index] = value
        with pytest.raises(NonFiniteError) as exc:
            model(Tensor(rand_patches(3)))
        assert str(exc.value) == f"non-finite values produced by {produced}", path


def _with_running_statistics(model, seed=3):
    """Random BatchNorm statistics and affine, and a random head, so that
    every eval-mode term is non-trivial."""
    rng = np.random.default_rng(seed)
    for _, m in model.named_modules():
        if isinstance(m, nn.BatchNorm):
            m.running_mean[:] = 0.5 * rng.standard_normal(m.channels)
            m.running_var[:] = 0.5 + rng.random(m.channels)
            m.gamma.data[:] = 1.0 + 0.3 * rng.standard_normal(m.channels)
            m.beta.data[:] = 0.2 * rng.standard_normal(m.channels)
    model.head.weight.data[:] = rng.normal(0.0, 0.5, model.head.weight.shape)
    return model


TINY_DEPTH2 = ModelConfig(num_classes=3, patch_size=5, bands=8, depth=2, stem_channels=4,
                          block1=TINY_BLOCK, mid_channels=6,
                          block2=SpectralCAConfig(channels=6, dim=8, heads=2, dropout_rate=0.0))


def _one_model_chunk(monkeypatch):
    """The model's eval forward runs its whole batch as one chunk, with no
    chunk job, whatever nn._CHUNK_BYTES: under one sample per chunk every
    conv->BatchNorm pair then streams several chunks of the conv's output
    through BatchNorm's own pool jobs."""
    monkeypatch.setattr(classifier, "_chunks", lambda n, item_bytes: [slice(0, n)])


@pytest.fixture
def one_model_chunk(monkeypatch):
    _one_model_chunk(monkeypatch)


class TestEvalStream:
    @pytest.mark.parametrize("chunking", CHUNKINGS, ids=["budget", "one_sample_per_chunk"],
                             indirect=True)
    @pytest.mark.parametrize("config", [TINY_MODEL, TINY_DEPTH2], ids=["depth1", "depth2"])
    def test_bit_identical_to_the_recorded_ops(self, config, chunking, monkeypatch):
        # the recorded eval path, taken under a tape, is the oracle of the
        # stream over the whole batch as one model chunk and of the model's
        # own chunking (one sample per chunk job under one_sample_per_chunk)
        model = _with_running_statistics(PatchClassifier(config, np.random.default_rng(0)))
        patches = rand_patches(5, config)
        with Tape() as tape:
            recorded = (model(Tensor(patches), training=False).data,
                        model.predict_proba(patches), model.predict(patches))
        assert {"conv3d", "batchnorm", "mean_axis"} <= {n.op for n in tape.nodes}
        chunked = (model(Tensor(patches)).data, model.predict_proba(patches),
                   model.predict(patches))
        with monkeypatch.context() as m:
            _one_model_chunk(m)
            whole = (model(Tensor(patches)).data, model.predict_proba(patches),
                     model.predict(patches))
        for streamed in (whole, chunked):
            for a, b in zip(streamed, recorded):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("config", [TINY_MODEL, TINY_DEPTH2], ids=["depth1", "depth2"])
    def test_no_samples_give_no_logits(self, config):
        model = PatchClassifier(config, np.random.default_rng(0))
        patches = rand_patches(0, config)
        with Tape():
            recorded = model(Tensor(patches), training=False)
        assert model(Tensor(patches)).shape == recorded.shape == (0, config.num_classes)
        assert model.predict_proba(patches).shape == (0, config.num_classes)
        assert model.predict(patches).shape == (0,)

    def test_eval_forward_never_builds_the_full_spectral_output(self):
        # CFG32 at batch 16: the recorded ops hold the stem's output beside
        # the spectral conv's and then its BatchNorm's (10.6 + 2 x 15.9 MB);
        # the stream holds at most the stem's output and the block's
        model = PatchClassifier(ModelConfig(num_classes=4), np.random.default_rng(0))
        patches = rand_patches(16, model.config)
        stem_bytes = 16 * 64 * 9 * 9 * 32 * 4
        spectral_bytes = 16 * 96 * 9 * 9 * 32 * 4
        tracemalloc.start()
        try:
            model(Tensor(patches))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stem_bytes + spectral_bytes, peak / 1e6


    def test_eval_forward_never_builds_the_projector_output(self, workers):
        # CFG32 at batch 16: the full projector held its [16,64,9,9,32]
        # output beside its input, the stem's output (10.6 MB each, 23.1 MB
        # peak); the pooled one never builds it, and the peak is the
        # spectral stream's: the stem's output plus two of the spectral
        # BatchNorm's jobs, one per worker, each holding one one-sample
        # conv chunk and its temporaries, beside the conv weights lowered
        # once for both (21.56 MB; 17.11 MB at one worker, where one job
        # runs at a time)
        workers(2)
        model = PatchClassifier(ModelConfig(num_classes=4), np.random.default_rng(0))
        patches = rand_patches(16, model.config)
        stem_bytes = 16 * 64 * 9 * 9 * 32 * 4
        tracemalloc.start()
        try:
            model(Tensor(patches))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stem_bytes + 1e6, peak / 1e6

    def test_depth2_eval_forward_memory_is_bounded(self, workers, one_model_chunk):
        # CFG64 block2 at batch 16 peaked at 41.92 MB when one regenerating job
        # ran at a time. Each further worker's job adds at most one more
        # sample of block2's spectral conv output and of its BatchNorm's
        # two temporaries (the pooled activation and the sigmoid), 1.24 MB
        # each, so 45.65 MB at two workers; 43.44-44.06 MB was measured.
        # How the two jobs overlap depends on timing, so this bounds the
        # peak rather than pinning it.
        workers(2)
        model = PatchClassifier(ModelConfig(num_classes=4, depth=2), np.random.default_rng(0))
        patches = rand_patches(16, model.config)
        sample_bytes = 120 * 9 * 9 * 32 * 4
        tracemalloc.start()
        try:
            model(Tensor(patches))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 41.92e6 + (2 - 1) * 3 * sample_bytes, peak / 1e6

    @pytest.mark.parametrize("config, pairs", [(TINY_MODEL, 3), (TINY_DEPTH2, 6)],
                             ids=["depth1", "depth2"])
    def test_each_conv_chunk_goes_through_batchnorm(self, config, pairs, chunking, workers,
                                                    one_model_chunk, monkeypatch):
        # one sample per chunk in one model chunk: every conv->BatchNorm
        # pair calls BatchNorm's eval op once, which reads the conv's output
        # through its regenerator one chunk per read at any worker count, and
        # nothing is recorded
        calls, reads, nodes = [], [], []
        bn_call = nn.BatchNorm.__call__

        def spy(bn, x, training, pool=None):
            calls.append(training)
            regenerate = x.regenerate

            def counted(part):
                reads.append(part.stop - part.start)
                return regenerate(part)

            x.regenerate = counted
            return bn_call(bn, x, training, pool)

        monkeypatch.setattr(nn.BatchNorm, "__call__", spy)
        monkeypatch.setattr(T, "TapeNode", lambda *args: nodes.append(args))
        model = PatchClassifier(config, np.random.default_rng(0))
        for count in (1, 2):
            workers(count)
            calls.clear()
            reads.clear()
            model(Tensor(rand_patches(5, config)))
            assert calls == [False] * pairs and reads == [1] * 5 * pairs and not nodes, count

    @pytest.mark.parametrize("config, streamed", [
        (ModelConfig(num_classes=4), ["stem_bn", "block1.spatial_bn", "block1.spectral_bn"]),
        (ModelConfig(num_classes=4, depth=2), ["stem_bn", "block1.spatial_bn",
                                                "block1.spectral_bn", "mid_bn",
                                                "block2.spatial_bn", "block2.spectral_bn"]),
    ], ids=["depth1", "depth2"])
    def test_eval_conv_tiles_run_on_the_workers(self, config, streamed, chunking, workers,
                                                one_model_chunk, monkeypatch):
        # one sample per chunk at the published widths, in one model chunk,
        # so no chunk job runs the forward: at two workers every regenerated
        # read of every conv->BatchNorm pair, the conv chunk with its BatchNorm,
        # runs off the caller in BatchNorm's own jobs, and at one worker
        # every read runs on the caller
        model = _with_running_statistics(PatchClassifier(config, np.random.default_rng(0)))
        names = {id(m): path.rstrip(".") for path, m in model.named_modules()}
        patches = rand_patches(4, config)
        reads = []  # per regenerated read: (BatchNorm path, thread)
        bn_call = nn.BatchNorm.__call__

        def bn_spy(bn, x, training, pool=None):
            regenerate = x.regenerate

            def read(part):
                reads.append((names[id(bn)], threading.get_ident()))
                return regenerate(part)

            x.regenerate = read
            return bn_call(bn, x, training, pool)

        monkeypatch.setattr(nn.BatchNorm, "__call__", bn_spy)
        caller = threading.get_ident()
        logits = {}
        for count in (1, 2):
            workers(count)
            reads.clear()
            logits[count] = model(Tensor(patches)).data
            assert sorted({path for path, _ in reads}) == sorted(streamed), reads
            assert len(reads) == 4 * len(streamed), reads
            assert all((thread != caller) == (count == 2) for _, thread in reads), (count, reads)
        assert np.array_equal(logits[1], logits[2])


# the published configs on 9x9x32 patches, and the samples per chunk of
# their eval forwards: those whose last block's FFN hidden [81, 2 dim]
# fits nn._CHUNK_BYTES
EVAL_CHUNKS = pytest.mark.parametrize("config, size", [
    (ModelConfig(num_classes=4), 16), (ModelConfig(num_classes=4, depth=2), 12),
], ids=["depth1", "depth2"])


class TestEvalChunks:
    """An eval forward with no active tape over more than one chunk runs
    each chunk through the whole model as one pool job; three samples more
    than a chunk make two jobs."""

    @EVAL_CHUNKS
    def test_chunk_jobs_are_bit_identical_at_one_and_two_workers(self, config, size, workers,
                                                                monkeypatch):
        # at two workers every chunk's job runs off the caller, at one
        # worker on it, and the logits do not move
        model = _with_running_statistics(PatchClassifier(config, np.random.default_rng(0)))
        patches = rand_patches(size + 3, config)
        jobs = []  # per chunk job: (its samples, thread)
        call = classifier._map

        def spy(fn, parts):
            def job(part):
                jobs.append((part, threading.get_ident()))
                return fn(part)

            return call(job, parts)

        monkeypatch.setattr(classifier, "_map", spy)
        caller = threading.get_ident()
        logits = {}
        for count in (1, 2):
            workers(count)
            jobs.clear()
            logits[count] = model(Tensor(patches)).data
            assert [part for part, _ in jobs] == [slice(0, size), slice(size, size + 3)], jobs
            assert all((thread != caller) == (count == 2) for _, thread in jobs), (count, jobs)
        assert np.array_equal(logits[1], logits[2])

    @EVAL_CHUNKS
    def test_logits_are_the_chunks_forwards_concatenated(self, config, size):
        # each chunk's forward on its own runs one chunk, with no job
        model = _with_running_statistics(PatchClassifier(config, np.random.default_rng(0)))
        patches = rand_patches(size + 3, config)
        chunks = [model(Tensor(patches[:size])).data, model(Tensor(patches[size:])).data]
        assert np.array_equal(model(Tensor(patches)).data, np.concatenate(chunks))

    @EVAL_CHUNKS
    def test_training_and_taped_forwards_run_the_whole_batch(self, config, size, workers,
                                                             monkeypatch):
        # no chunk job, and every BatchNorm is called once, over the whole
        # batch: in training, the running statistics move once, by the
        # whole batch's statistics
        workers(2)
        model = PatchClassifier(config, np.random.default_rng(0))
        patches = Tensor(rand_patches(size + 3, config))
        calls = []  # per BatchNorm call: (training, its input's batch)
        bn_call = nn.BatchNorm.__call__

        def spy(bn, x, training, pool=None):
            calls.append((training, x.shape[0]))
            return bn_call(bn, x, training, pool)

        def no_jobs(fn, parts):
            raise AssertionError(f"chunk jobs {parts}")

        monkeypatch.setattr(nn.BatchNorm, "__call__", spy)
        monkeypatch.setattr(classifier, "_map", no_jobs)
        norms = 1 + 2 * config.depth + (config.depth == 2)
        stem = nn._conv_forward(patches.data, model.stem.weight.data, model.stem.bias.data)
        model(patches, training=True, rng=np.random.default_rng(2))
        assert calls == [(True, size + 3)] * norms, calls
        m = nn.BN_MOMENTUM
        np.testing.assert_allclose(model.stem_bn.running_mean,
                                   m * stem.mean(axis=(0, 2, 3, 4)), rtol=1e-6, atol=0)
        np.testing.assert_allclose(model.stem_bn.running_var,
                                   (1 - m) + m * stem.var(axis=(0, 2, 3, 4)), rtol=1e-6, atol=0)
        calls.clear()
        with Tape():
            model(patches, training=False)
        assert calls == [(False, size + 3)] * norms, calls

    def test_batch64_eval_peak_memory(self, workers):
        # CFG32 at batch 64, four chunks of 16: each running job holds its
        # chunk's stem output (10.6 MB) and the spectral stream of one
        # one-sample conv chunk with its scratch, about 6 MB (16.61 MB
        # measured at one worker). At two workers two jobs run at once
        # (33.18 MB measured); the whole batch as one forward peaked at
        # 58.07 MB at either count
        model = PatchClassifier(ModelConfig(num_classes=4), np.random.default_rng(0))
        patches = rand_patches(64, model.config)
        chunk_stem_bytes = 16 * 64 * 9 * 9 * 32 * 4
        for count in (1, 2):
            workers(count)
            tracemalloc.start()
            try:
                model(Tensor(patches))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < count * (chunk_stem_bytes + 7e6), (count, peak / 1e6)

def test_first_eval_forward_runs_every_batchnorm_on_one_blas_thread():
    # a fresh process with two workers forced and OpenBLAS at its default
    # thread count: the first conv module pins OpenBLAS to one thread, so
    # every BatchNorm call of the first CFG32 forward reads one, the stem's
    # included (pinned only when the pool was built, the stem, spatial and
    # spectral calls read the default, one thread per core)
    script = textwrap.dedent("""
        import numpy as np
        from spectralca import ModelConfig, PatchClassifier, Tensor, nn, trainer
        nn._WORKERS = 2
        reads, call = [], nn.BatchNorm.__call__
        def spy(bn, *args, **kwargs):
            reads.append(trainer.blas_threads())
            return call(bn, *args, **kwargs)
        nn.BatchNorm.__call__ = spy
        model = PatchClassifier(ModelConfig(num_classes=4), np.random.default_rng(0))
        model(Tensor(np.random.default_rng(1).standard_normal((8, 1, 9, 9, 32))
                     .astype(np.float32)))
        print(reads)
    """)
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(classifier.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reads = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    if None in reads:
        pytest.skip("the OpenBLAS numpy loads reports no thread count")
    assert len(reads) == 3 and set(reads) == {1}, reads


def full_projector_logits(model, patches, training):
    """The classifier composed with every block's full projector and an
    explicit mean over H, W and D before the head."""
    x = model.stem(patches, model.stem_bn, training)
    x = model.block1(x, training)
    if model.config.depth == 2:
        x = model.mid(x, model.mid_bn, training)
        x = model.block2(x, training)
    return model.head(T.mean_axis(x, (2, 3, 4)))


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
@pytest.mark.parametrize("config", [TINY_MODEL, TINY_DEPTH2], ids=["depth1", "depth2"])
def test_logits_match_the_full_projector_composition(config, training):
    model = _with_running_statistics(PatchClassifier(config, np.random.default_rng(0)))
    model.astype(np.float64)
    patches = Tensor(rand_patches(5, config).astype(np.float64))
    np.testing.assert_allclose(model(patches, training).data,
                               full_projector_logits(model, patches, training).data,
                               rtol=1e-12, atol=1e-14)


class TestPrecision:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_step_keeps_the_model_dtype(self, dtype):
        model = tiny_model().astype(dtype)
        opt = Adam(model.parameters())
        with Tape() as tape:
            logits = model(Tensor(rand_patches(4).astype(dtype)), training=True,
                           rng=np.random.default_rng(2))
            loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        wrong = sorted({n.op for n in tape.nodes if n.output.dtype != dtype})
        assert not wrong, f"ops leaving {np.dtype(dtype).name}: {wrong}"
        tape.backward(loss)
        opt.step()
        assert logits.dtype == dtype
        assert all(p.data.dtype == dtype and p.grad.dtype == dtype
                   for p in model.parameters())


def _replayed_nodes(model, batch, replay, monkeypatch):
    """One training step of `model` on `batch` random patches, its nodes
    replayed by `replay`: (op, first input's shape, tracemalloc peak above
    the bytes live before the node) for every node in replay order."""
    seen = []

    def traced(node):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        replay(node)
        seen.append((node.op, node.inputs[0].shape if node.inputs[0] else None,
                     tracemalloc.get_traced_memory()[1] - before))

    monkeypatch.setattr(T, "_replay", traced)
    patches = Tensor(rand_patches(batch, model.config))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = cross_entropy(model(patches, training=True, rng=np.random.default_rng(2)),
                                 np.arange(batch) % model.config.num_classes)
        tape.backward(loss)
    finally:
        tracemalloc.stop()
    return seen


def test_training_step_backward_holds_one_full_size_gradient(chunking, monkeypatch,
                                                            workers):
    # CFG32 on 9x9x32 patches, one sample per chunk, so every chunked
    # loop's temporaries are one sample's: a node's backward may not grow
    # with the batch by a [B,C,H,W,D] array, which would add two samples'
    # block input from batch 2 to 4. The gradient of the block input is the
    # spectral conv's, written over its output gradient, which the spectral
    # BN wrote over the conv's output; the pooled projector and the means
    # of x allocate none of their own. Two workers hold two chunks'
    # temporaries at either batch
    workers(2)
    model = PatchClassifier(ModelConfig(num_classes=4), np.random.default_rng(0))
    replay = T._replay
    small, large = (_replayed_nodes(model, batch, replay, monkeypatch) for batch in (2, 4))
    sample_bytes = 64 * 9 * 9 * 32 * 4
    assert [op for op, _, _ in small] == [op for op, _, _ in large]
    grown = {f"{i}:{op}": peak - peak_small
             for i, ((op, _, peak_small), (_, _, peak)) in enumerate(zip(small, large))
             if peak - peak_small >= sample_bytes}
    assert not grown, grown
    # the spectral BN pools its own output: the only recorded means are the
    # block input's band-mean and, for the residual, that band-mean's mean
    # over H and W (replayed newest first)
    means = [shape for op, shape, _ in large if op == "mean_axis"]
    assert means == [(4, 64, 9, 9), (4, 64, 9, 9, 32)], means


def test_training_step_skips_the_patches_gradient(monkeypatch):
    # the stem's input is the raw patches: its gradient is never read, so
    # the conv backward must not compute it
    inner = nn._conv_backward
    input_grads = []

    def spy(g, xd, *args):
        grads = inner(g, xd, *args)
        input_grads.append((xd.shape[1], grads[0]))
        return grads

    monkeypatch.setattr(nn, "_conv_backward", spy)
    model = tiny_model()
    patches = Tensor(rand_patches(4))
    with Tape() as tape:
        loss = cross_entropy(model(patches, training=True, rng=np.random.default_rng(2)),
                             np.array([0, 1, 2, 0]))
    tape.backward(loss)
    assert patches.grad is None
    stem = [gx for channels, gx in input_grads if channels == 1]
    assert len(stem) == 1 and stem[0] is None
    assert all(gx is not None for channels, gx in input_grads if channels != 1)


def test_training_forward_holds_no_stem_conv_output():
    # CFG32 on 9x9x32 patches: after a training forward the tape holds, per
    # sample, the spectral conv's output (kept by its BN) and under 1 MB of
    # smaller arrays. The stem BN regenerates the stem conv's output in
    # backward, so its 0.66 MB per sample is not held: batch 2 to 4 grew the
    # live bytes by 6.05 MB with it held and by 4.52 MB without. The block
    # input (the stem BN's output, 0.66 MB per sample) is released after
    # the band-mean and read back through its regenerator: 3.18 MB with it
    # released
    model = PatchClassifier(ModelConfig(num_classes=4), np.random.default_rng(0))
    spectral_output = 96 * 9 * 9 * 32 * 4
    live = {}
    for batch in (2, 4):
        patches = Tensor(rand_patches(batch, model.config))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                model(patches, training=True, rng=np.random.default_rng(2))
            live[batch] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del tape
    grown = live[4] - live[2]
    assert grown < 2 * (spectral_output + 1e6), grown / 1e6


@pytest.mark.parametrize("config", [TINY_MODEL, TINY_DEPTH2], ids=["depth1", "depth2"])
def test_training_forward_releases_the_block_input(config, monkeypatch):
    # block1's input, the stem BN's training output, is released after the
    # last forward read of its whole array (the band-mean at depth 1, the
    # full projector at depth 2): its data is a read-only zero-stride
    # stand-in of its shape, and its regenerator gives back the array bit
    # for bit. At depth 1 the spectral conv's forward comes after the
    # release and reads it through the regenerator; at depth 2 that forward
    # and the projector read the array. Block2's input, the mid BN's
    # output, has none and keeps its data; so does an eval forward's block
    # input
    model = _with_running_statistics(PatchClassifier(config, np.random.default_rng(0)))
    patches = Tensor(rand_patches(5, config))
    inputs = []  # per block call: its input and the array it held then
    spectral = []  # per forward of block1's spectral conv: its xd and read
    projected = []  # per full projector call: the data of its x
    call, conv, project = (SpectralCABlock.__call__, nn._conv_forward,
                           StreamProjector.__call__)

    def spy(block, x, *args, **kwargs):
        inputs.append((x, x.data))
        return call(block, x, *args, **kwargs)

    def conv_spy(xd, wd, *args, **kwargs):
        if wd is model.block1.spectral_conv.weight.data:
            spectral.append((xd, kwargs.get("read")))
        return conv(xd, wd, *args, **kwargs)

    def project_spy(projector, x, *args):
        projected.append(x.data)
        return project(projector, x, *args)

    monkeypatch.setattr(SpectralCABlock, "__call__", spy)
    monkeypatch.setattr(nn, "_conv_forward", conv_spy)
    monkeypatch.setattr(StreamProjector, "__call__", project_spy)
    with Tape() as tape:
        loss = cross_entropy(model(patches, training=True, rng=np.random.default_rng(2)),
                             np.arange(5) % config.num_classes)
    assert len(inputs) == config.depth
    (x, data), *rest = inputs
    assert x.data is not data and x.data.shape == data.shape and x.data.dtype == data.dtype
    assert not x.data.flags.writeable and not any(x.data.strides) and x.released
    assert np.array_equal(x.regenerate(slice(0, 5)), data)
    [(xd, read)] = spectral
    if config.depth == 1:
        assert read is x.regenerate and not any(xd.strides) and not projected
    else:
        assert read is None and xd is data and projected[0] is data
    for x, data in rest:
        assert x.regenerate is None and x.data is data and not x.released
    tape.backward(loss)
    inputs.clear()
    model(patches)
    assert len(inputs) == config.depth
    assert all(x.regenerate is None and x.data is data for x, data in inputs)


def _training_step_peak(model, patches):
    """The tracemalloc peak of one training step of `model` on `patches`,
    forward and backward, above the bytes live before it."""
    labels = np.arange(len(patches.data)) % model.config.num_classes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = cross_entropy(model(patches, training=True, rng=np.random.default_rng(2)),
                                 labels)
        tape.backward(loss)
        del tape, loss
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_training_step_peak_falls_by_the_released_block_input(monkeypatch):
    # CFG32 depth 1 at batch 32 on 9x9x32: the block input, the stem BN's
    # 21.2 MB output, is held by the model's forward until block1 returns,
    # and the peak was set at the end of block1's forward (76.9 MB, beside
    # the spectral conv's output and the token activations). Released
    # after the band-mean, with the spectral conv's forward reading it
    # through its regenerator, the whole input is never alive beside that
    # conv's output: the peak falls to the end of the token path and the
    # start of its backward, the spectral conv's retained output plus the
    # token activations (54.4 MB, 22.5 MB lower). The released step runs
    # first, so one-time allocations count against it
    model = PatchClassifier(ModelConfig(num_classes=8), np.random.default_rng(0))
    patches = Tensor(rand_patches(32, model.config))
    block_input = 32 * 64 * 9 * 9 * 32 * 4
    released = _training_step_peak(model, patches)
    with monkeypatch.context() as m:
        m.setattr(Tensor, "release", lambda self: None)
        kept = _training_step_peak(model, patches)
    assert kept - released > 0.9 * block_input, (kept / 1e6, released / 1e6)


def _training_step_state(config, patches):
    """Every parameter gradient and running statistic of a `config` model
    with a random head, so that every gradient is non-zero, after one
    training step on `patches`."""
    model = _with_running_statistics(PatchClassifier(config, np.random.default_rng(0)))
    with Tape() as tape:
        loss = cross_entropy(model(patches, training=True, rng=np.random.default_rng(2)),
                             np.arange(patches.shape[0]) % config.num_classes)
    tape.backward(loss)
    return [p.grad for p in model.parameters()] + [b for _, b in model.named_buffers()]


@pytest.mark.parametrize("config", [TINY_MODEL, TINY_DEPTH2], ids=["depth1", "depth2"])
def test_training_step_is_bit_identical_at_any_worker_count(config, chunking, workers):
    # one sample per chunk and every conv chunk a job: the conv loops' jobs
    # and every BatchNorm pass, the stem BN's regenerating backward passes
    # included, run at 1, 2 and 4 workers
    patches = Tensor(rand_patches(5, config))
    states = {}
    for count in (1, 2, 4):
        workers(count)
        states[count] = _training_step_state(config, patches)
    for count in (2, 4):
        assert len(states[count]) == len(states[1])
        assert all(np.array_equal(a, b) for a, b in zip(states[1], states[count])), count


@pytest.mark.parametrize("chunking", CHUNKINGS, indirect=True)
@pytest.mark.parametrize("config", [TINY_MODEL, TINY_DEPTH2], ids=["depth1", "depth2"])
def test_regenerated_stem_output_gives_the_retained_gradients(config, chunking):
    # patches that take no gradient: the stem BN's backward regenerates the
    # stem conv's output; patches that take one: the BN keeps that output
    patches = rand_patches(5, config)
    regenerated = _training_step_state(config, Tensor(patches))
    retained = _training_step_state(config, Tensor(patches, requires_grad=True))
    assert len(regenerated) == len(retained)
    for a, b in zip(regenerated, retained):
        assert a.any() and np.array_equal(a, b)


class TestParameterCounts:
    def test_stem_counts(self):
        config = ModelConfig(num_classes=4, patch_size=9, bands=32, depth=1)
        model = PatchClassifier(config, np.random.default_rng(0))
        assert model.stem.param_count() == 1_792
        assert model.stem_bn.param_count() == 128

    def test_mid_counts_depth_two(self):
        config = ModelConfig(num_classes=4, patch_size=9, bands=32, depth=2)
        model = PatchClassifier(config, np.random.default_rng(0))
        assert model.mid.param_count() == 221_312
        assert model.mid_bn.param_count() == 256

    def test_depth_one_documented_total(self):
        config = ModelConfig(num_classes=4, patch_size=9, bands=32, depth=1)
        model = PatchClassifier(config, np.random.default_rng(0))
        head = 64 * 4 + 4
        assert model.param_count() == 1_792 + 128 + 383_680 + head
        stages = (model.stem, model.stem_bn, model.block1, model.head)
        assert sum(stage.param_count() for stage in stages) == model.param_count()


class TestPredictProba:
    def test_rows_in_simplex(self):
        model = tiny_model()
        probs = model.predict_proba(rand_patches(10))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_argmax_matches_logits(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        model.head.weight.data[:] = rng.standard_normal(model.head.weight.shape)
        patches = rand_patches(1000, seed=5)
        probs = model.predict_proba(patches)
        preds = model.predict(patches)
        logits = model(Tensor(patches)).data
        np.testing.assert_array_equal(probs.argmax(axis=1), logits.argmax(axis=1))
        np.testing.assert_array_equal(preds, logits.argmax(axis=1))


# sha256 of the SCK1 file of a fresh PatchClassifier(ModelConfig(num_classes=8,
# depth=depth), default_rng(0)), saved with no seed or recipe: pins the
# initial values and the order of the entries
FRESH_CHECKPOINT_SHA256 = {
    1: "901f429a5c87817d29bf02a509e312dd17c7ad0b6eaa3ae47f20d1743d7fa418",
    2: "ae6e690e7ad5be9853af9fdb91c7ec4ac8679b47f1a1391c36a58b6cfa67fd5a",
}


NON_FINITE_ENTRIES = pytest.mark.parametrize("entry, index, value", [
    ("stem_bn.running_var", (0,), np.inf),  # loaded, it predicts uniform probabilities
    ("stem.weight", (0, 0, 1, 1, 1), np.nan),  # loaded, it fails at the first forward
], ids=["inf_running_var", "nan_weight"])


class TestCheckpoint:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_fresh_model_bytes_pinned(self, tmp_path, depth):
        model = PatchClassifier(ModelConfig(num_classes=8, depth=depth),
                                np.random.default_rng(0))
        save_checkpoint(model, tmp_path / "m.bin")
        digest = hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest()
        assert digest == FRESH_CHECKPOINT_SHA256[depth]

    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=7)
        # move BN running stats off their defaults
        model(Tensor(rand_patches(6, seed=2)), training=True)
        path = tmp_path / "m.bin"
        save_checkpoint(model, path, seed=7, data_recipe={"patch_size": 5})
        back = load_checkpoint(path)
        for (na, pa), (nb, pb) in zip(model.named_parameters(), back.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
        for (na, ba), (nb, bb) in zip(model.named_buffers(), back.named_buffers()):
            assert na == nb
            assert np.array_equal(ba, bb)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = tiny_model(seed=8)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, a, seed=8)
        save_checkpoint(load_checkpoint(a), b, seed=8)
        assert a.read_bytes() == b.read_bytes()

    def test_eval_outputs_bit_equal_after_reload(self, tmp_path):
        model = tiny_model(seed=9)
        patches = rand_patches(5, seed=3)
        before = model.predict_proba(patches)
        save_checkpoint(model, tmp_path / "m.bin")
        after = load_checkpoint(tmp_path / "m.bin").predict_proba(patches)
        assert np.array_equal(before, after)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.bin"
        saved = tiny_model(seed=10)
        save_checkpoint(saved, path, seed=10)

        class FailsMidWrite:
            """A file whose third write raises, after the header is out."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("injected: no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(classifier, "open", lambda *a, **k: FailsMidWrite(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(tiny_model(seed=11), path, seed=11)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin"]
        back = load_checkpoint(path)
        for (na, pa), (nb, pb) in zip(saved.named_parameters(), back.named_parameters()):
            assert na == nb and np.array_equal(pa.data, pb.data)

    def test_corrupted_blob_length_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="length mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        # stem_bn.gamma aliases stem.bias, a same-sized entry
        lambda entries, blob_bytes: entries["stem_bn.gamma"].update(
            offset=entries["stem.bias"]["offset"]),
        lambda entries, blob_bytes: entries["stem.bias"].update(offset=-4),
        lambda entries, blob_bytes: entries["head.bias"].update(offset=blob_bytes),
    ], ids=["aliased", "negative", "out_of_range"])
    def test_entries_must_tile_the_blob(self, tmp_path, mutate):
        path = tmp_path / "m.bin"
        save_checkpoint(tiny_model(), path)
        rewrite_manifest(path, mutate)
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("offset", "0"), ("offset", 1.0), ("shape", "4"), ("shape", [4.0]),
        ("shape", [-4]), ("name", None),
    ])
    def test_malformed_entry_rejected(self, tmp_path, field, value):
        path = tmp_path / "m.bin"
        save_checkpoint(tiny_model(), path)
        rewrite_manifest(path, lambda entries, _: entries["stem.bias"].update(
            {field: value}))
        with pytest.raises(CheckpointError, match="manifest entries"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda manifest: {k: v for k, v in manifest.items() if k != "model"},
        with_model(block1={"bogus": 1}),
        with_model(num_classes="3"),
        lambda manifest: [manifest],
        with_model(block1={"heads": 3}),
        with_model(block1={"heads": 0}),
        with_model(block1={"dim": 0}),
        with_model(depth=True),
        with_model(patch_size=3.0),
        with_model(bands=4.0),
        with_model(block1={"heads": True}),
        with_model(bogus=1),
        with_model(drop=["dropout_rate"]),
    ], ids=["no_model", "unknown_block_key", "string_num_classes", "list",
            "heads_not_dividing_dim", "zero_heads", "zero_dim", "bool_depth",
            "float_patch_size", "float_bands", "bool_heads", "unknown_model_key",
            "missing_dropout_rate"])
    def test_bad_manifest_rejected(self, tmp_path, edit):
        path = tmp_path / "m.bin"
        save_checkpoint(tiny_model(), path)
        rewrite_manifest(path, edit, whole=True)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @NON_FINITE_ENTRIES
    def test_non_finite_entry_rejected(self, tmp_path, entry, index, value):
        save_checkpoint(tiny_model(), tmp_path / "m.bin")
        set_entry(tmp_path / "m.bin", entry, index, value)
        with pytest.raises(CheckpointError, match=f"entry '{entry}' holds non-finite values"):
            load_checkpoint(tmp_path / "m.bin")

    @NON_FINITE_ENTRIES
    def test_non_finite_entry_not_saved(self, tmp_path, entry, index, value):
        # refused before the file is opened, so the checkpoint there is kept
        model = tiny_model()
        save_checkpoint(model, tmp_path / "m.bin")
        saved = (tmp_path / "m.bin").read_bytes()
        arrays = {name: p.data for name, p in model.named_parameters()}
        arrays.update(model.named_buffers())
        arrays[entry][index] = value
        with pytest.raises(NonFiniteError, match=f"entry '{entry}' holds non-finite values"):
            save_checkpoint(model, tmp_path / "m.bin")
        assert (tmp_path / "m.bin").read_bytes() == saved
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin"]

    @pytest.mark.parametrize("value", [-1.0, -5e-6], ids=["minus_one", "minus_5e-6"])
    def test_negative_running_variance_rejected(self, tmp_path, value):
        # loaded, -1 failed at the first forward as non-finite, and -5e-6
        # predicted silently with that channel's scale amplified ~450 times
        model = tiny_model()
        model.stem_bn.running_var[0] = value
        save_checkpoint(model, tmp_path / "m.bin")
        with pytest.raises(CheckpointError,
                           match="entry 'stem_bn.running_var' holds a negative variance"):
            load_checkpoint(tmp_path / "m.bin")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.bin").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "m.bin")

    def test_manifest_carries_recipe_and_seed(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.bin"
        recipe = {"patch_size": 5, "train_fraction": 0.2, "split_seed": 4}
        save_checkpoint(model, path, seed=11, data_recipe=recipe)
        manifest = read_checkpoint(path)[1]
        assert manifest["seed"] == 11
        assert manifest["data_recipe"] == recipe
        assert manifest["model"]["num_classes"] == 3


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkpoint")
    save_checkpoint(tiny_model(), root / "m.bin", seed=0,
                    data_recipe={"patch_size": 5, "train_fraction": 0.5, "split_seed": 0})
    return root


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(checkpoint_dir, data):
    payload = (checkpoint_dir / "m.bin").read_bytes()
    manifest_end = 12 + int.from_bytes(payload[4:12], "little")
    mutated = data.draw(mutated_bytes(payload, hot=manifest_end))
    (checkpoint_dir / "mutated.bin").write_bytes(mutated)
    try:
        model = load_checkpoint(checkpoint_dir / "mutated.bin")
    except CheckpointError:
        return
    assert isinstance(model, PatchClassifier)


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(num_classes=1)
        with pytest.raises(ValueError):
            ModelConfig(num_classes=3, patch_size=4)
        with pytest.raises(ValueError):
            ModelConfig(num_classes=3, bands=2)
        with pytest.raises(ValueError):
            ModelConfig(num_classes=3, depth=3)
        with pytest.raises(ValueError):
            ModelConfig(num_classes=3, stem_channels=32)  # must match block1

    def test_dict_round_trip(self):
        config = ModelConfig(num_classes=5, patch_size=7, bands=16, depth=2)
        assert decode_config(ModelConfig, asdict(config), "model", ValueError) == config

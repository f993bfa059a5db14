import numpy as np
import pytest

from spectralca.block import SpectralCAConfig
from spectralca.classifier import (
    CheckpointError,
    ModelConfig,
    PatchClassifier,
    load_checkpoint,
    model_audit,
    read_manifest,
    save_checkpoint,
)
from spectralca.nn import cross_entropy
from spectralca.tensor import ShapeError, Tape, Tensor
from spectralca.trainer import Adam

TINY_BLOCK = SpectralCAConfig(channels=4, dim=8, heads=2, dropout_rate=0.0)
TINY_MODEL = ModelConfig(num_classes=3, patch_size=5, bands=8, depth=1,
                         stem_channels=4, block1=TINY_BLOCK)


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


class TestPrecision:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_step_keeps_the_model_dtype(self, dtype):
        model = tiny_model().astype(dtype)
        opt = Adam(model.parameters())
        with Tape() as tape:
            logits = model(Tensor(rand_patches(4).astype(dtype)), training=True,
                           rng=np.random.default_rng(2))
            loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        tape.backward(loss)
        opt.step()
        assert logits.dtype == dtype
        wrong = sorted({n.op for n in tape.nodes if n.output.dtype != dtype})
        assert not wrong, f"ops leaving {np.dtype(dtype).name}: {wrong}"
        assert all(p.data.dtype == dtype and p.grad.dtype == dtype
                   for p in model.parameters())


class TestParameterCounts:
    def test_stem_counts(self):
        config = ModelConfig(num_classes=4, patch_size=9, bands=32, depth=1)
        model = PatchClassifier(config, np.random.default_rng(0))
        rows = dict(model_audit(model))
        assert rows["stem_conv"] == 1_792
        assert rows["stem_bn"] == 128

    def test_mid_counts_depth_two(self):
        config = ModelConfig(num_classes=4, patch_size=9, bands=32, depth=2)
        model = PatchClassifier(config, np.random.default_rng(0))
        rows = dict(model_audit(model))
        assert rows["mid_conv"] == 221_312
        assert rows["mid_bn"] == 256

    def test_depth_one_documented_total(self):
        config = ModelConfig(num_classes=4, patch_size=9, bands=32, depth=1)
        model = PatchClassifier(config, np.random.default_rng(0))
        head = 64 * 4 + 4
        assert model.param_count() == 1_792 + 128 + 383_680 + head
        assert sum(count for _, count in model_audit(model)) == model.param_count()


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


class TestCheckpoint:
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

    def test_corrupted_blob_length_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="length mismatch"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.bin").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "m.bin")

    def test_manifest_carries_recipe_and_seed(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.bin"
        recipe = {"patch_size": 5, "train_fraction": 0.2, "split_seed": 4}
        save_checkpoint(model, path, seed=11, data_recipe=recipe)
        manifest = read_manifest(path)
        assert manifest["seed"] == 11
        assert manifest["data_recipe"] == recipe
        assert manifest["model"]["num_classes"] == 3


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
        assert ModelConfig.from_dict(config.to_dict()) == config

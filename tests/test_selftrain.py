import numpy as np
import pytest

from spectralca.block import SpectralCAConfig
from spectralca.classifier import ModelConfig, PatchClassifier
from spectralca.data import PatchSet, extract_patches, generate_synthetic, split
from spectralca.selftrain import (
    PseudoLabelSet,
    SslConfig,
    pseudo_label_select,
    run_self_training,
    self_training_round,
)
from spectralca.trainer import TrainConfig

TINY_BLOCK = SpectralCAConfig(channels=4, dim=8, heads=2, dropout_rate=0.0)
TINY_MODEL = ModelConfig(num_classes=2, patch_size=3, bands=6, depth=1,
                         stem_channels=4, block1=TINY_BLOCK)


class _FixedProbaModel:
    """Returns scripted probability rows; quacks like PatchClassifier."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float32)
        self._cursor = 0

    def predict_proba(self, patches):
        out = self.rows[self._cursor:self._cursor + len(patches)]
        self._cursor += len(patches)
        return out

    def reset(self):
        self._cursor = 0


def make_pool(n, num_classes=2, bands=6, patch=3, seed=0):
    rng = np.random.default_rng(seed)
    padded = rng.standard_normal((8 + patch - 1, 8 + patch - 1, bands)).astype(np.float32)
    coords = np.array([(i // 8, i % 8) for i in range(n)])
    return PatchSet(padded, coords, np.zeros(n, dtype=np.int64), patch, num_classes)


class TestPseudoLabelSelect:
    def test_threshold_filtering(self):
        model = _FixedProbaModel([[0.95, 0.05], [0.85, 0.15], [0.09, 0.91]])
        pool = make_pool(3)
        chosen = pseudo_label_select(model, pool, 0.9)
        np.testing.assert_array_equal(chosen.indices, [0, 2])
        np.testing.assert_array_equal(chosen.labels, [1, 2])
        np.testing.assert_allclose(chosen.confidences, [0.95, 0.91], atol=1e-6)

    def test_threshold_one_selects_nothing(self):
        model = _FixedProbaModel([[1.0, 0.0], [0.6, 0.4]])
        pool = make_pool(2)
        assert len(pseudo_label_select(model, pool, 1.0)) == 0

    def test_uniform_model_selects_nothing(self):
        rows = np.full((5, 4), 0.25)
        model = _FixedProbaModel(rows)
        pool = make_pool(5, num_classes=4)
        assert len(pseudo_label_select(model, pool, 0.9)) == 0

    def test_empty_pool_is_not_an_error(self):
        model = _FixedProbaModel(np.zeros((0, 2)))
        pool = make_pool(0)
        assert len(pseudo_label_select(model, pool, 0.9)) == 0

    def test_cap_keeps_highest_confidence(self):
        rows = [[0.92, 0.08], [0.99, 0.01], [0.95, 0.05], [0.50, 0.50]]
        model = _FixedProbaModel(rows)
        pool = make_pool(4)
        chosen = pseudo_label_select(model, pool, 0.9, cap=2)
        np.testing.assert_array_equal(np.sort(chosen.indices), [1, 2])

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        raw = rng.dirichlet(np.ones(3) * 0.5, size=40).astype(np.float32)
        pool = make_pool(40, num_classes=3)
        counts = []
        for tau in (0.8, 0.9, 0.95):
            model = _FixedProbaModel(raw)
            counts.append(len(pseudo_label_select(model, pool, tau)))
        assert counts[0] >= counts[1] >= counts[2]

    def test_strictness_at_threshold(self):
        model = _FixedProbaModel([[0.9, 0.1]])
        pool = make_pool(1)
        assert len(pseudo_label_select(model, pool, 0.9)) == 0

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            PseudoLabelSet(np.array([0]), np.zeros((1, 2), dtype=int),
                           np.array([1]), np.array([0.5]), threshold=0.9,
                           round_index=0)


def ssl_scene(seed=31):
    cube, labels = generate_synthetic(seed, 16, 16, 6, 2, 0.05)
    ps = extract_patches(cube, labels, 3)
    return split(ps, 0.1, seed=seed, test_fraction=0.2)


class TestSelfTrainingRound:
    def test_empty_selection_is_a_bitexact_noop(self):
        train_set, _, pool = ssl_scene()
        model = PatchClassifier(TINY_MODEL, np.random.default_rng(0))
        before = [p.data.copy() for p in model.parameters()]
        ssl_cfg = SslConfig(threshold=1.0, rounds=1, epochs_per_round=3)
        new_train, new_pool, pseudo, stats = self_training_round(
            model, train_set, pool, ssl_cfg, TrainConfig(seed=0))
        assert len(pseudo) == 0
        assert stats["epochs"] == 0
        assert new_train is train_set and new_pool is pool
        for p, old in zip(model.parameters(), before):
            assert np.array_equal(p.data, old)

    def test_conservation_over_rounds(self):
        train_set, test_set, pool = ssl_scene()
        model = PatchClassifier(TINY_MODEL, np.random.default_rng(0))
        original_pool = len(pool)
        original_train_coords = {tuple(c) for c in train_set.coords}
        ssl_cfg = SslConfig(threshold=0.6, rounds=3, per_round_cap=10,
                            epochs_per_round=1)
        final_train, final_pool, rounds = run_self_training(
            model, train_set, pool, ssl_cfg, TrainConfig(seed=1, batch_size=16),
            test_set=test_set)
        added = sum(r["selected"] for r in rounds)
        assert len(final_pool) + added == original_pool
        assert len(final_train) == len(train_set) + added
        # originals keep their labels; pseudo entries never duplicate
        coords_seen = [tuple(c) for c in final_train.coords]
        assert len(coords_seen) == len(set(coords_seen))
        for c, l in zip(train_set.coords, train_set.labels):
            assert (tuple(c), l) in set(
                (tuple(c2), l2) for c2, l2 in zip(final_train.coords, final_train.labels)
            )
        assert original_train_coords <= set(coords_seen)

    def test_round_stats_logged(self, tmp_path):
        train_set, test_set, pool = ssl_scene()
        model = PatchClassifier(TINY_MODEL, np.random.default_rng(0))
        log = tmp_path / "rounds.jsonl"
        ssl_cfg = SslConfig(threshold=0.6, rounds=2, per_round_cap=5, epochs_per_round=1)
        _, _, rounds = run_self_training(model, train_set, pool, ssl_cfg,
                                         TrainConfig(seed=2, batch_size=16),
                                         test_set=test_set, log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all("test_oa" in line for line in lines)
        assert [r["round"] for r in rounds] == [0, 1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SslConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SslConfig(threshold=1.2)
        with pytest.raises(ValueError):
            SslConfig(per_round_cap=-1)

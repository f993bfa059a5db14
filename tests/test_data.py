import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralca.data import (
    DataFormatError,
    Hypercube,
    LabelRaster,
    SplitError,
    extract_patches,
    generate_synthetic,
    load_cube,
    load_labels,
    merge_patchsets,
    save_cube,
    save_labels,
    split,
)


class TestGenerateSynthetic:
    def test_deterministic(self):
        a_cube, a_labels = generate_synthetic(7, 20, 22, 12, 3, 0.1)
        b_cube, b_labels = generate_synthetic(7, 20, 22, 12, 3, 0.1)
        assert np.array_equal(a_cube.values, b_cube.values)
        assert np.array_equal(a_labels.labels, b_labels.labels)

    def test_noiseless_spectra_identical_within_class(self):
        cube, labels = generate_synthetic(3, 16, 16, 8, 3, 0.0)
        for cls in range(1, 4):
            mask = labels.labels == cls
            spectra = cube.values[mask]
            assert np.ptp(spectra, axis=0).max() == 0.0

    def test_noiseless_nearest_centroid_is_perfect(self):
        cube, labels = generate_synthetic(11, 24, 24, 16, 4, 0.0)
        flat = cube.values.reshape(-1, 16)
        y = labels.labels.ravel().astype(int)
        centroids = np.stack([flat[y == c].mean(axis=0) for c in range(1, 5)])
        d2 = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        pred = d2.argmin(axis=1) + 1
        assert (pred == y).mean() == 1.0

    def test_every_class_holds_two_percent(self):
        _, labels = generate_synthetic(5, 32, 32, 8, 5, 0.05)
        shares = np.bincount(labels.labels.ravel(), minlength=6)[1:]
        assert shares.min() >= 0.02 * 32 * 32

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 2, 2, 4, 5, 0.0)


class TestCubeIO:
    def test_round_trip_bit_exact(self, tmp_path):
        values = np.random.default_rng(0).standard_normal((2, 2, 3)).astype(np.float32)
        cube = Hypercube(values)
        save_cube(cube, tmp_path / "c.hdr", tmp_path / "c.raw")
        back = load_cube(tmp_path / "c.hdr", tmp_path / "c.raw")
        assert np.array_equal(back.values, values)

    def test_truncated_data_rejected(self, tmp_path):
        cube = Hypercube(np.zeros((2, 2, 3), dtype=np.float32))
        save_cube(cube, tmp_path / "c.hdr", tmp_path / "c.raw")
        raw = (tmp_path / "c.raw").read_bytes()
        (tmp_path / "c.raw").write_bytes(raw[:-4])
        with pytest.raises(DataFormatError, match="length mismatch.*48.*44"):
            load_cube(tmp_path / "c.hdr", tmp_path / "c.raw")

    def test_zero_bands_rejected(self, tmp_path):
        (tmp_path / "c.hdr").write_text(
            "height = 2\nwidth = 2\nbands = 0\ndtype = f32le\ninterleave = bsq\n"
        )
        (tmp_path / "c.raw").write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_cube(tmp_path / "c.hdr", tmp_path / "c.raw")

    def test_missing_key_rejected(self, tmp_path):
        (tmp_path / "c.hdr").write_text("height = 2\nwidth = 2\n")
        (tmp_path / "c.raw").write_bytes(b"\0" * 16)
        with pytest.raises(DataFormatError, match="missing"):
            load_cube(tmp_path / "c.hdr", tmp_path / "c.raw")

    def test_unsupported_dtype_rejected(self, tmp_path):
        (tmp_path / "c.hdr").write_text(
            "height = 1\nwidth = 1\nbands = 1\ndtype = f64le\ninterleave = bsq\n"
        )
        (tmp_path / "c.raw").write_bytes(b"\0" * 8)
        with pytest.raises(DataFormatError, match="dtype"):
            load_cube(tmp_path / "c.hdr", tmp_path / "c.raw")

    def test_label_round_trip(self, tmp_path):
        raster = LabelRaster(np.array([[0, 1], [2, 3]], dtype=np.uint16), 3)
        save_labels(raster, tmp_path / "l.raw")
        back = load_labels(tmp_path / "l.raw", 2, 2)
        assert np.array_equal(back.labels, raster.labels)
        assert back.num_classes == 3

    def test_non_utf8_header_rejected(self, tmp_path):
        save_cube(Hypercube(np.zeros((1, 1, 1))), tmp_path / "c.hdr", tmp_path / "c.raw")
        (tmp_path / "c.hdr").write_bytes(b"\xff" + (tmp_path / "c.hdr").read_bytes())
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_cube(tmp_path / "c.hdr", tmp_path / "c.raw")

    def test_label_length_mismatch(self, tmp_path):
        (tmp_path / "l.raw").write_bytes(b"\0" * 6)
        with pytest.raises(DataFormatError, match="length mismatch"):
            load_labels(tmp_path / "l.raw", 2, 2)


@st.composite
def mutated_bytes(draw, payload: bytes, hot: int | None = None) -> bytes:
    """`payload` with one byte overwritten, truncated, or extended. Given
    `hot`, half the overwrites land in payload[:hot] (a header); half of all
    overwrites write a byte that means something in JSON or a header."""
    kind = draw(st.sampled_from(["overwrite", "truncate", "extend"]))
    if kind == "truncate":
        return payload[:draw(st.integers(0, len(payload) - 1))]
    if kind == "extend":
        return payload + draw(st.binary(min_size=1, max_size=16))
    positions = st.integers(0, len(payload) - 1)
    if hot is not None:
        positions = st.one_of(st.integers(0, hot - 1), positions)
    i = draw(positions)
    byte = draw(st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.e ="{}[],:#\n')))
    return payload[:i] + bytes([byte]) + payload[i + 1:]


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    """A saved 3x4x2 cube and its label raster, and a scratch directory."""
    cube, raster = generate_synthetic(5, 3, 4, 2, 2, 0.1)
    root = tmp_path_factory.mktemp("scene")
    save_cube(cube, root / "c.hdr", root / "c.raw")
    save_labels(raster, root / "l.raw")
    return root, tmp_path_factory.mktemp("mutated")


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["c.hdr", "c.raw"]), st.data())
def test_mutated_cube_loads_or_raises_data_format_error(scene_files, name, data):
    root, out = scene_files
    for other in ("c.hdr", "c.raw"):
        payload = (root / other).read_bytes()
        if other == name:
            payload = data.draw(mutated_bytes(payload))
        (out / other).write_bytes(payload)
    try:
        cube = load_cube(out / "c.hdr", out / "c.raw")
    except DataFormatError:
        return
    assert np.isfinite(cube.values).all()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mutated_labels_load_or_raise_data_format_error(scene_files, data):
    root, out = scene_files
    (out / "l.raw").write_bytes(data.draw(mutated_bytes((root / "l.raw").read_bytes())))
    try:
        raster = load_labels(out / "l.raw", 3, 4)
    except DataFormatError:
        return
    assert raster.labels.shape == (3, 4)
    assert raster.num_classes == int(raster.labels.max())


class TestExtractPatches:
    def test_constant_cube_constant_patch(self):
        cube = Hypercube(np.full((6, 6, 4), 2.5, dtype=np.float32))
        raster = LabelRaster(np.ones((6, 6), dtype=np.uint16), 1)
        ps = extract_patches(cube, raster, 3)
        assert (ps.batch([len(ps) // 2])[0] == 2.5).all()

    def test_corner_mirroring_hand_case(self):
        values = np.arange(9, dtype=np.float32).reshape(3, 3)[..., None]
        cube = Hypercube(values)
        raster = LabelRaster(np.ones((3, 3), dtype=np.uint16), 1)
        ps = extract_patches(cube, raster, 3)
        corner = ps.batch([0])[0][0, :, :, 0]  # pixel (0,0)
        # reflection about the edge sample: index -1 mirrors to +1
        expected = np.array([[4.0, 3.0, 4.0], [1.0, 0.0, 1.0], [4.0, 3.0, 4.0]])
        np.testing.assert_array_equal(corner, expected)

    def test_patch_centered_on_coordinate(self):
        rng = np.random.default_rng(1)
        cube = Hypercube(rng.standard_normal((7, 8, 5)).astype(np.float32))
        raster = LabelRaster(np.ones((7, 8), dtype=np.uint16), 1)
        ps = extract_patches(cube, raster, 5)
        for i in [0, 13, len(ps) - 1]:
            r, c = ps.coords[i]
            np.testing.assert_array_equal(ps.batch([i])[0][0, 2, 2, :], cube.values[r, c, :])

    def test_labeled_count_matches_raster(self):
        labels = np.zeros((5, 5), dtype=np.uint16)
        labels[1, 1] = 1
        labels[2, 3] = 2
        cube = Hypercube(np.zeros((5, 5, 3), dtype=np.float32))
        ps = extract_patches(cube, LabelRaster(labels, 2), 3)
        assert len(ps.labeled_indices) == 2
        assert len(ps) == 25

    def test_even_patch_rejected(self):
        cube = Hypercube(np.zeros((4, 4, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            extract_patches(cube, LabelRaster(np.ones((4, 4), dtype=np.uint16), 1), 4)

    def test_mirror_is_reflection_involution(self):
        rng = np.random.default_rng(2)
        cube = Hypercube(rng.standard_normal((6, 6, 2)).astype(np.float32))
        raster = LabelRaster(np.ones((6, 6), dtype=np.uint16), 1)
        ps = extract_patches(cube, raster, 5)
        padded = ps.padded
        for k in (1, 2):
            np.testing.assert_array_equal(padded[2 - k], padded[2 + k])
            np.testing.assert_array_equal(padded[:, 2 - k], padded[:, 2 + k])


def small_scene(seed=9, noise=0.1):
    cube, raster = generate_synthetic(seed, 12, 12, 6, 2, noise)
    return extract_patches(cube, raster, 3)


class TestSplit:
    def test_full_fraction_rejected(self):
        with pytest.raises(SplitError):
            split(small_scene(), 1.0, seed=0)

    def test_half_split_counts(self):
        labels = np.zeros((4, 5), dtype=np.uint16)
        labels.ravel()[:10] = 1
        labels.ravel()[10:20] = 2
        cube = Hypercube(np.random.default_rng(0).standard_normal((4, 5, 3)).astype(np.float32))
        ps = extract_patches(cube, LabelRaster(labels, 2), 3)
        train, test, pool = split(ps, 0.5, seed=1)
        for cls in (1, 2):
            assert (train.labels == cls).sum() == 5
            assert (test.labels == cls).sum() == 5
        assert len(pool) == 0

    def test_disjoint_by_coordinate(self):
        train, test, _ = split(small_scene(), 0.4, seed=2)
        train_set = {tuple(c) for c in train.coords}
        test_set = {tuple(c) for c in test.coords}
        assert train_set.isdisjoint(test_set)

    def test_deterministic(self):
        a = split(small_scene(), 0.3, seed=3)
        b = split(small_scene(), 0.3, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.coords, y.coords)
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.padded, y.padded)

    def test_three_way_partition_hides_pool_labels(self):
        ps = small_scene()
        train, test, pool = split(ps, 0.1, seed=4, test_fraction=0.2)
        assert len(pool) > 0
        assert (pool.labels == 0).all()
        assert len(train) + len(test) + len(pool) == len(ps)
        all_coords = {tuple(c) for s in (train, test, pool) for c in s.coords}
        assert len(all_coords) == len(ps)

    def test_normalization_from_train_pixels_only(self):
        ps = small_scene(noise=0.3)
        train, test, _ = split(ps, 0.4, seed=5)
        radius = ps.patch_size // 2
        # normalized train pixels standardize to zero mean, unit variance
        norm_core = train.padded[radius:-radius, radius:-radius, :]
        norm_train = norm_core[train.coords[:, 0], train.coords[:, 1], :]
        np.testing.assert_allclose(norm_train.mean(axis=0), 0.0, atol=1e-5)
        np.testing.assert_allclose(norm_train.std(axis=0), 1.0, atol=1e-4)
        # and the statistics are the train pixels' only, not all pixels'
        all_pixels = norm_core.reshape(-1, norm_core.shape[2])
        assert not np.allclose(all_pixels.mean(axis=0), 0.0, atol=1e-5)

    def test_subsets_share_cube_and_stats(self):
        train, test, pool = split(small_scene(), 0.5, seed=6)
        assert train.padded is test.padded is pool.padded

    def test_batch_matches_individual_patches(self):
        train, _, _ = split(small_scene(), 0.5, seed=7)
        idx = [0, 2, 3]
        batch = train.batch(idx)
        for k, i in enumerate(idx):
            np.testing.assert_array_equal(batch[k], train.batch([i])[0])

    def test_merge_patchsets(self):
        train, test, _ = split(small_scene(), 0.5, seed=8)
        merged = merge_patchsets(train, test)
        assert len(merged) == len(train) + len(test)
        ps_other = small_scene(seed=10)
        with pytest.raises(ValueError):
            merge_patchsets(train, ps_other)

"""Hypercube data model: synthetic scene generation, raw cube I/O, patch
extraction with mirror padding, and stratified labeled/unlabeled splits.
Patches are always standardized per band, with the mean and standard
deviation of the training pixels alone, when the scene is split.

File formats (byte-exact):
  cube header  - UTF-8 text, one "key = value" per line; required keys
                 height, width, bands, dtype (f32le), interleave (bsq)
  cube data    - raw little-endian float32, band-sequential: band 0's
                 full H*W grid (row-major), then band 1, ...
  label raster - raw little-endian uint16, H*W row-major; 0 = unlabeled
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """Malformed header or inconsistent raw payload."""


# the largest standardized value `split` accepts: its square is float32's
# largest finite value
_STANDARDIZED_BOUND = float(np.sqrt(np.finfo(np.float32).max))


@dataclass
class Hypercube:
    """H x W x D reflectance cube, band axis last, float32."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise DataFormatError(f"cube must be H x W x D, got {self.values.shape}")
        if self.values.shape[2] < 1:
            raise DataFormatError("cube needs at least one band")
        if not np.isfinite(self.values).all():
            raise DataFormatError("cube contains non-finite values")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]


@dataclass
class LabelRaster:
    """Per-pixel class ids, 0 = unlabeled, 1..num_classes labeled."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint16)
        if self.labels.ndim != 2:
            raise DataFormatError(f"label raster must be H x W, got {self.labels.shape}")
        if int(self.labels.max(initial=0)) > self.num_classes:
            raise DataFormatError(
                f"label id {int(self.labels.max())} exceeds num_classes {self.num_classes}"
            )


# ---------------------------------------------------------------------------
# synthetic scenes


def _voronoi_labels(rng: np.random.Generator, height: int, width: int,
                    num_classes: int) -> np.ndarray:
    """Nearest-site regions, resampled until every class holds >= 2% of pixels."""
    rows, cols = np.mgrid[0:height, 0:width]
    for _ in range(200):
        flat = rng.choice(height * width, size=num_classes, replace=False)
        sites = np.stack([flat // width, flat % width], axis=1)
        d2 = (rows[None] - sites[:, 0, None, None]) ** 2 + (
            cols[None] - sites[:, 1, None, None]
        ) ** 2
        labels = d2.argmin(axis=0).astype(np.uint16) + 1
        shares = np.bincount(labels.ravel(), minlength=num_classes + 1)[1:]
        if shares.min() >= 0.02 * height * width:
            return labels
    raise RuntimeError("could not place regions with >= 2% share per class")


def _class_signatures(rng: np.random.Generator, num_classes: int, bands: int) -> np.ndarray:
    """Smooth per-class spectra: 2-3 Gaussian bumps over the band index,
    resampled until pairwise rms separation is comfortable."""
    grid = np.arange(bands, dtype=np.float64)
    for _ in range(200):
        sigs = np.zeros((num_classes, bands))
        for c in range(num_classes):
            n_bumps = int(rng.integers(2, 4))
            centers = rng.uniform(0, bands - 1, size=n_bumps)
            widths = rng.uniform(bands / 16.0, bands / 4.0, size=n_bumps)
            amps = rng.uniform(0.5, 1.5, size=n_bumps)
            sigs[c] = sum(
                a * np.exp(-0.5 * ((grid - mu) / w) ** 2)
                for a, mu, w in zip(amps, centers, widths)
            )
        diffs = sigs[:, None, :] - sigs[None, :, :]
        rms = np.sqrt((diffs ** 2).mean(axis=2))
        rms[np.diag_indices(num_classes)] = np.inf
        if rms.min() >= 0.2:
            return sigs.astype(np.float32)
    raise RuntimeError("could not draw sufficiently distinct signatures")


def generate_synthetic(seed: int, height: int, width: int, bands: int,
                       num_classes: int, noise_sigma: float) -> tuple[Hypercube, LabelRaster]:
    """Deterministic scene: one smooth spectral signature per contiguous
    region, plus optional per-voxel white noise."""
    if min(height, width, bands) < 1 or not 0 <= noise_sigma < np.inf:
        raise ValueError(f"scene {height}x{width}x{bands} needs extents >= 1 and "
                         f"a finite noise sigma {noise_sigma} >= 0")
    if num_classes > height * width:
        raise ValueError(f"{num_classes} classes cannot fit {height}x{width} pixels")
    if num_classes < 1:
        raise ValueError("need at least one class")
    rng = np.random.default_rng(seed)
    labels = _voronoi_labels(rng, height, width, num_classes)
    sigs = _class_signatures(rng, num_classes, bands)
    cube = sigs[labels.astype(np.int64) - 1]  # [H,W,D]
    if noise_sigma > 0:
        cube = cube + noise_sigma * rng.standard_normal(cube.shape)
    return (
        Hypercube(cube.astype(np.float32)),
        LabelRaster(labels, num_classes),
    )


# ---------------------------------------------------------------------------
# raw cube and label I/O

_REQUIRED_KEYS = ("height", "width", "bands", "dtype", "interleave")


def save_cube(cube: Hypercube, header_path, data_path) -> None:
    header = (
        f"height = {cube.height}\n"
        f"width = {cube.width}\n"
        f"bands = {cube.bands}\n"
        "dtype = f32le\n"
        "interleave = bsq\n"
    )
    Path(header_path).write_text(header, encoding="utf-8")
    bsq = np.ascontiguousarray(cube.values.transpose(2, 0, 1).astype("<f4"))
    Path(data_path).write_bytes(bsq.tobytes())


def load_cube(header_path, data_path) -> Hypercube:
    try:
        header = Path(header_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"header is not UTF-8 text: {exc}") from exc
    fields = {}
    for lineno, line in enumerate(header.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"malformed header line {lineno}: {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    missing = [k for k in _REQUIRED_KEYS if k not in fields]
    if missing:
        raise DataFormatError(f"header missing keys: {', '.join(missing)}")
    try:
        height, width, bands = (int(fields[k]) for k in ("height", "width", "bands"))
    except ValueError as exc:
        raise DataFormatError(f"non-integer dimension in header: {exc}") from exc
    if height < 1 or width < 1 or bands < 1:
        raise DataFormatError(f"dimensions must be positive, got {height}x{width}x{bands}")
    if fields["dtype"] != "f32le":
        raise DataFormatError(f"unsupported dtype {fields['dtype']!r} (only f32le)")
    if fields["interleave"] != "bsq":
        raise DataFormatError(f"unsupported interleave {fields['interleave']!r} (only bsq)")
    raw = Path(data_path).read_bytes()
    expected = height * width * bands * 4
    if len(raw) != expected:
        raise DataFormatError(
            f"length mismatch: expected {expected} bytes, got {len(raw)}"
        )
    bsq = np.frombuffer(raw, dtype="<f4").reshape(bands, height, width)
    return Hypercube(bsq.transpose(1, 2, 0).copy())


def save_labels(raster: LabelRaster, path) -> None:
    Path(path).write_bytes(np.ascontiguousarray(raster.labels.astype("<u2")).tobytes())


def load_labels(path, height: int, width: int) -> LabelRaster:
    """The class count is the largest label id in the raster."""
    raw = Path(path).read_bytes()
    expected = height * width * 2
    if len(raw) != expected:
        raise DataFormatError(
            f"length mismatch: expected {expected} bytes, got {len(raw)}"
        )
    labels = np.frombuffer(raw, dtype="<u2").reshape(height, width).copy()
    return LabelRaster(labels, int(labels.max(initial=0)))


# ---------------------------------------------------------------------------
# patches and splits


class PatchSet:
    """Pixel-centered patches over a padded cube, standardized once split.

    Entries are (coordinate, patch tensor [1,p,p,D], label) with label 0
    marking unlabeled pixels; patch tensors are materialized on access
    from the shared padded cube, in raster-scan coordinate order.
    """

    def __init__(self, padded: np.ndarray, coords: np.ndarray, labels: np.ndarray,
                 patch_size: int, num_classes: int):
        self.padded = padded
        self.coords = np.asarray(coords, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.patch_size = patch_size
        self.num_classes = num_classes
        if len(self.coords) != len(self.labels):
            raise ValueError("coords/labels length mismatch")

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def bands(self) -> int:
        return self.padded.shape[2]

    @property
    def labeled_indices(self) -> np.ndarray:
        return np.nonzero(self.labels > 0)[0]

    @property
    def unlabeled_indices(self) -> np.ndarray:
        return np.nonzero(self.labels == 0)[0]

    def batch(self, indices) -> np.ndarray:
        p = self.patch_size
        out = np.empty((len(indices), 1, p, p, self.bands), dtype=self.padded.dtype)
        for k, i in enumerate(indices):
            r, c = self.coords[i]
            out[k, 0] = self.padded[r:r + p, c:c + p, :]
        return out

    def batches(self, indices, size: int):
        """(idx, self.batch(idx)) for each consecutive run of `size` of
        `indices`; each batch is fetched when the generator advances."""
        for start in range(0, len(indices), size):
            idx = indices[start:start + size]
            yield idx, self.batch(idx)

    def subset(self, indices, labels: np.ndarray | None = None) -> "PatchSet":
        indices = np.asarray(indices, dtype=np.int64)
        new_labels = self.labels[indices] if labels is None else np.asarray(labels, dtype=np.int64)
        return PatchSet(self.padded, self.coords[indices], new_labels,
                        self.patch_size, self.num_classes)


def merge_patchsets(a: PatchSet, b: PatchSet) -> PatchSet:
    """Concatenate two subsets that share the same underlying cube."""
    if a.padded is not b.padded:
        raise ValueError("patch sets come from different cubes")
    return PatchSet(a.padded, np.concatenate([a.coords, b.coords]),
                    np.concatenate([a.labels, b.labels]), a.patch_size,
                    a.num_classes)


def _mirror_pad(values: np.ndarray, radius: int) -> np.ndarray:
    if radius == 0:
        return values.copy()
    if values.shape[0] <= radius or values.shape[1] <= radius:
        raise ValueError(
            f"scene {values.shape[:2]} too small to mirror-pad by {radius}"
        )
    return np.pad(values, ((radius, radius), (radius, radius), (0, 0)), mode="reflect")


def extract_patches(cube: Hypercube, raster: LabelRaster, patch_size: int) -> PatchSet:
    """One entry per pixel in raster-scan order; borders are mirrored
    (reflection about the edge sample, an involution on indices). The
    patches hold raw cube values: `split` standardizes them per band with
    statistics from the training pixels alone."""
    if patch_size % 2 != 1 or patch_size < 1:
        raise ValueError(f"patch size must be odd and positive, got {patch_size}")
    if raster.labels.shape != (cube.height, cube.width):
        raise ValueError("label raster extents do not match the cube")
    radius = patch_size // 2
    padded = _mirror_pad(cube.values, radius)
    rows, cols = np.mgrid[0:cube.height, 0:cube.width]
    coords = np.stack([rows.ravel(), cols.ravel()], axis=1)
    labels = raster.labels.ravel().astype(np.int64)
    return PatchSet(padded, coords, labels, patch_size, raster.num_classes)


class SplitError(ValueError):
    """A class cannot satisfy the per-split minimum sample requirement."""


def split(patchset: PatchSet, train_fraction: float, seed: int,
          test_fraction: float | None = None) -> tuple[PatchSet, PatchSet, PatchSet]:
    """Stratified (train, test, unlabeled_pool) split of the labeled entries.

    Default: labeled entries split into train/test by `train_fraction`,
    and the pool is the label-0 entries. With `test_fraction` given, the
    labeled entries partition into train/test/pool and the pool entries'
    labels are hidden (useful for self-training experiments on fully
    labeled scenes). All three outputs are standardized per band with the
    mean and standard deviation of the train pixels alone. A band whose
    statistics overflow float32, or that holds a standardized value beyond
    ±sqrt(float32 max), about ±1.84e19, raises DataFormatError naming it:
    the square of such a value, which the model's variances take,
    overflows float32.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train fraction {train_fraction} outside (0, 1]")
    rng = np.random.default_rng(seed)
    labeled = patchset.labeled_indices
    if len(labeled) == 0:
        raise SplitError("no labeled entries to split")

    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    pool_idx: list[np.ndarray] = [patchset.unlabeled_indices]
    for cls in sorted(np.unique(patchset.labels[labeled]).tolist()):
        members = labeled[patchset.labels[labeled] == cls]
        members = members[rng.permutation(len(members))]
        n = len(members)
        n_train = int(np.floor(train_fraction * n + 0.5))
        if test_fraction is None:
            n_test = n - n_train
        else:
            n_test = int(np.floor(test_fraction * n + 0.5))
        if n_train < 1 or n_test < 1 or n_train + n_test > n:
            raise SplitError(
                f"class {cls}: cannot draw {n_train} train and {n_test} test from {n} samples"
            )
        train_idx.append(members[:n_train])
        test_idx.append(members[n_train:n_train + n_test])
        if test_fraction is not None:
            pool_idx.append(members[n_train + n_test:])

    train_sel = np.concatenate(train_idx)
    test_sel = np.concatenate(test_idx)
    pool_sel = np.concatenate(pool_idx)

    radius = patchset.patch_size // 2
    # raw (un-normalized) cube values live in the padded array's core
    h = patchset.padded.shape[0] - 2 * radius
    w = patchset.padded.shape[1] - 2 * radius
    core = patchset.padded[radius:radius + h, radius:radius + w, :]
    train_pixels = core[patchset.coords[train_sel, 0], patchset.coords[train_sel, 1], :]
    # a finite cube can still overflow float32 here (a value of 3e38 squared
    # in the std, or divided by a small std); an overflow leaves an inf or
    # NaN in a band's statistics or values, so each band is checked, its
    # values against the bound, which an inf or a NaN fails too
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train_pixels.mean(axis=0)
        std = np.maximum(train_pixels.std(axis=0), 1e-8)
        padded_norm = ((patchset.padded - mean) / std).astype(patchset.padded.dtype,
                                                               copy=False)
        bounded = (np.abs(padded_norm) <= _STANDARDIZED_BOUND).all(axis=(0, 1))
    valid = np.isfinite(mean) & np.isfinite(std) & bounded
    if not valid.all():
        raise DataFormatError(f"band {np.flatnonzero(~valid)[0]} overflows float32 or exceeds "
                              f"±{_STANDARDIZED_BOUND:.3g} when standardized with the train "
                              "pixels' mean and std")

    def build(sel: np.ndarray, hide_labels: bool = False) -> PatchSet:
        order = sel[np.argsort(sel)]  # raster-scan order
        labels = np.zeros(len(order), dtype=np.int64) if hide_labels else patchset.labels[order]
        return PatchSet(padded_norm, patchset.coords[order], labels,
                        patchset.patch_size, patchset.num_classes)

    hide = test_fraction is not None
    return build(train_sel), build(test_sel), build(pool_sel, hide_labels=hide)

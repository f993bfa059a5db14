"""Compact patch classifier around the cross-attention block: 3D stem,
one or two blocks (with a widening mid convolution in between), global
average pooling, and a linear head.

Checkpoint format (byte-exact):
  magic "SCK1" | u64 LE manifest byte length | manifest JSON (UTF-8,
  sorted keys) | blob of little-endian float32 values.
The manifest carries format_version, the model config, an optional seed
record and data recipe, and the ordered entry registry
(name/shape/offset/kind) covering both trainable parameters and running
statistics; the blob holds exactly sum(prod(shape)) * 4 bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .block import CFG32, CFG64, SpectralCABlock, SpectralCAConfig
from .nn import BatchNorm, Conv3D, Linear, Module, relu, softmax
from .tensor import Tensor


class CheckpointError(ValueError):
    """Unreadable, truncated, or mismatched checkpoint payload."""


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    patch_size: int = 9
    bands: int = 32
    depth: int = 1
    stem_channels: int = 64
    block1: SpectralCAConfig = field(default=CFG32)
    mid_channels: int = 128
    block2: SpectralCAConfig = field(default=CFG64)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.patch_size % 2 != 1:
            raise ValueError(f"patch size must be odd, got {self.patch_size}")
        if self.bands < 3:
            raise ValueError(f"bands must be >= 3, got {self.bands}")
        if self.depth not in (1, 2):
            raise ValueError(f"depth must be 1 or 2, got {self.depth}")
        if self.stem_channels != self.block1.channels:
            raise ValueError("stem output channels must match the first block's input")
        if self.depth == 2 and self.mid_channels != self.block2.channels:
            raise ValueError("mid conv output channels must match the second block's input")

    @property
    def feature_channels(self) -> int:
        return self.block1.channels if self.depth == 1 else self.block2.channels

    def to_dict(self) -> dict:
        def block(cfg: SpectralCAConfig) -> dict:
            return {"channels": cfg.channels, "dim": cfg.dim, "heads": cfg.heads,
                    "dropout_rate": cfg.dropout_rate}

        return {
            "num_classes": self.num_classes,
            "patch_size": self.patch_size,
            "bands": self.bands,
            "depth": self.depth,
            "stem_channels": self.stem_channels,
            "block1": block(self.block1),
            "mid_channels": self.mid_channels,
            "block2": block(self.block2),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(
            num_classes=payload["num_classes"],
            patch_size=payload["patch_size"],
            bands=payload["bands"],
            depth=payload["depth"],
            stem_channels=payload["stem_channels"],
            block1=SpectralCAConfig(**payload["block1"]),
            mid_channels=payload["mid_channels"],
            block2=SpectralCAConfig(**payload["block2"]),
        )


class PatchClassifier(Module):
    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.config = config
        self.stem = Conv3D(1, config.stem_channels, 3, rng, dtype)
        self.stem_bn = BatchNorm(config.stem_channels, dtype=dtype)
        self.block1 = SpectralCABlock(config.block1, rng, dtype)
        if config.depth == 2:
            self.mid = Conv3D(config.block1.channels, config.mid_channels, 3, rng, dtype)
            self.mid_bn = BatchNorm(config.mid_channels, dtype=dtype)
            self.block2 = SpectralCABlock(config.block2, rng, dtype)
        self.head = Linear(config.feature_channels, config.num_classes, rng, dtype)
        # zero head: a fresh model emits uniform class probabilities
        self.head.weight.data[:] = 0.0

    def __call__(self, patches: Tensor, training: bool = False, rng=None) -> Tensor:
        cfg = self.config
        expected = (1, cfg.patch_size, cfg.patch_size, cfg.bands)
        if patches.ndim != 5 or patches.shape[1:] != expected:
            raise T.ShapeError(
                f"expected patches [B,1,{cfg.patch_size},{cfg.patch_size},{cfg.bands}], "
                f"got {patches.shape}"
            )
        x = relu(self.stem_bn(self.stem(patches), training))
        x = self.block1(x, training, rng)
        if cfg.depth == 2:
            x = relu(self.mid_bn(self.mid(x), training))
            x = self.block2(x, training, rng)
        pooled = T.mean_axis(T.mean_axis(T.mean_axis(x, 2), 2), 2)  # [B, C]
        return self.head(pooled)

    def predict_proba(self, patches: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Eval-mode class probabilities, [N, num_classes], rows sum to 1."""
        patches = np.asarray(patches)
        out = np.empty((len(patches), self.config.num_classes), dtype=np.float32)
        for start in range(0, len(patches), batch_size):
            chunk = Tensor(patches[start:start + batch_size])
            logits = self(chunk, training=False)
            out[start:start + len(chunk.data)] = softmax(logits, axis=1).data
        return out

    def predict(self, patches: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Eval-mode argmax class indices (0-based)."""
        patches = np.asarray(patches)
        out = np.empty(len(patches), dtype=np.int64)
        for start in range(0, len(patches), batch_size):
            chunk = Tensor(patches[start:start + batch_size])
            logits = self(chunk, training=False)
            out[start:start + len(chunk.data)] = logits.data.argmax(axis=1)
        return out


def model_audit(model: PatchClassifier) -> list[tuple[str, int]]:
    """Stage-by-stage trainable parameter counts from enumeration."""
    rows = [
        ("stem_conv", model.stem.param_count()),
        ("stem_bn", model.stem_bn.param_count()),
        ("block1", model.block1.param_count()),
    ]
    if model.config.depth == 2:
        rows += [
            ("mid_conv", model.mid.param_count()),
            ("mid_bn", model.mid_bn.param_count()),
            ("block2", model.block2.param_count()),
        ]
    rows.append(("head", model.head.param_count()))
    return rows


# ---------------------------------------------------------------------------
# checkpoint I/O

CHECKPOINT_MAGIC = b"SCK1"
CHECKPOINT_VERSION = 1


def _entry_arrays(model: PatchClassifier):
    for name, p in model.named_parameters():
        yield name, "param", p.data
    for name, b in model.named_buffers():
        yield name, "buffer", b


def save_checkpoint(model: PatchClassifier, path, seed: int | None = None,
                    data_recipe: dict | None = None) -> None:
    entries = []
    chunks = []
    offset = 0
    for name, kind, arr in _entry_arrays(model):
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "kind": kind, "shape": list(arr.shape),
                        "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model": model.config.to_dict(),
        "seed": seed,
        "data_recipe": data_recipe,
        "entries": entries,
        "blob_bytes": offset,
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)
        for raw in chunks:
            fh.write(raw)


def read_manifest(path) -> dict:
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, not a checkpoint")
    length = int.from_bytes(blob[4:12], "little")
    try:
        manifest = json.loads(blob[12:12 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt manifest: {exc}") from exc
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {manifest.get('format_version')}"
        )
    manifest["_blob"] = blob[12 + length:]
    return manifest


def _well_formed(entry) -> bool:
    """A str name, an int offset and a list of non-negative int extents."""
    if not isinstance(entry, dict):
        return False
    shape = entry.get("shape")
    return (isinstance(entry.get("name"), str) and type(entry.get("offset")) is int
            and isinstance(shape, list)
            and all(type(e) is int and e >= 0 for e in shape))


def load_checkpoint(path) -> PatchClassifier:
    manifest = read_manifest(path)
    blob = manifest.pop("_blob")
    entries = manifest.get("entries")
    if not isinstance(entries, list) or not all(map(_well_formed, entries)):
        raise CheckpointError("manifest entries need a name, an integer offset "
                              "and a list of non-negative integer extents")
    # the entries must tile the blob: sorted by offset, each starts where
    # the previous one ends, so no two share bytes and none leaves the blob
    expected = 0
    for entry in sorted(entries, key=lambda e: e["offset"]):
        if entry["offset"] != expected:
            raise CheckpointError(
                f"entry {entry['name']!r} at offset {entry['offset']}, expected {expected}"
            )
        expected += int(np.prod(entry["shape"])) * 4
    if len(blob) != expected or manifest.get("blob_bytes") != expected:
        raise CheckpointError(
            f"blob length mismatch: expected {expected} bytes, got {len(blob)}"
        )
    config = ModelConfig.from_dict(manifest["model"])
    model = PatchClassifier(config, rng=np.random.default_rng(manifest.get("seed") or 0))
    available = {name: (kind, arr) for name, kind, arr in _entry_arrays(model)}
    for entry in entries:
        name = entry["name"]
        if name not in available:
            raise CheckpointError(f"unknown entry {name!r}")
        _, arr = available.pop(name)
        shape = tuple(entry["shape"])
        if arr.shape != shape:
            raise CheckpointError(
                f"entry {name!r}: shape {shape} does not match model {arr.shape}"
            )
        start = entry["offset"]
        values = np.frombuffer(blob, dtype="<f4", count=arr.size, offset=start)
        arr[...] = values.reshape(shape)
    if available:
        raise CheckpointError(f"checkpoint missing entries: {sorted(available)}")
    return model

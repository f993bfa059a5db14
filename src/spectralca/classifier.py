"""Compact patch classifier around the cross-attention block: 3D stem,
one or two blocks (with a widening mid convolution in between), global
average pooling, and a linear head; and `decode_config`, which builds a
frozen config dataclass from JSON for the train config and the manifest.

The pooling is the last block's: it is asked for the mean of its output
over H, W and D (`pool=True`), which its projector computes from pooled
inputs without building the [B,C,H,W,D] output, in training and in eval
alike. A first block that feeds the mid convolution returns its full
output.

An eval forward with no active tape cuts a batch into chunks of the
samples whose widest token activation, the last block's FFN hidden
[H*W, 2*dim], fits nn's chunk budget (16 samples of CFG32 on 9x9 patches,
12 of CFG64), and runs each chunk through the whole model as one job of
nn's pool; inside a job every chunked loop runs in turn on its worker. The
chunk size reads only the config and the batch, and no row of any product
depends on the rows beside it (Linear and the pooled projector multiply
each sample alone), so the logits are bit-identical at any worker count
and to a whole-batch forward. Training and taped forwards run the whole
batch at once: BatchNorm's batch statistics, dropout's draws and the tape
never reach a worker.

Checkpoint format (byte-exact):
  magic "SCK1" | u64 LE manifest byte length | manifest JSON (UTF-8,
  sorted keys) | blob of little-endian float32 values.
Saving writes <path>.tmp in the same directory and renames it over <path>.
The manifest carries format_version, the model config (`asdict` of the
ModelConfig; loading decodes it and rejects an unknown, missing or wrongly
typed key), an optional seed record and data recipe, and the ordered entry
registry (name/shape/offset/kind) covering both trainable parameters and
running statistics; the blob holds exactly sum(prod(shape)) * 4 bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import tensor as T
from .block import CFG32, CFG64, SpectralCABlock, SpectralCAConfig
from .nn import BatchNorm, Conv3D, Linear, Module, _chunks, _map, softmax_inplace
from .tensor import Tensor, active_tape


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


def _accepts(hint, value) -> bool:
    """isinstance against a field's type hint, where an int passes as a
    float and a bool passes as neither."""
    types = get_args(hint) or (hint,)
    if float in types:
        types += (int,)
    return isinstance(value, types) and not isinstance(value, bool)


def decode_config(cls, payload, name: str, error: type[Exception]):
    """The frozen config dataclass `cls` built from the JSON object
    `payload`, with fields that are config dataclasses decoded the same way.
    A non-object, an unknown key, a wrongly typed value or a missing
    required key raises `error`; the class's own checks raise ValueError."""
    if not isinstance(payload, dict):
        raise error(f"{name} must be a JSON object, got {type(payload).__name__}")
    hints = get_type_hints(cls)
    values = {}
    for key, value in payload.items():
        if key not in hints:
            raise error(f"unknown key {key!r} in {name}")
        if is_dataclass(hints[key]):
            value = decode_config(hints[key], value, f"{name}.{key}", error)
        elif not _accepts(hints[key], value):
            raise error(f"{name}.{key} has the wrong type: {value!r}")
        values[key] = value
    missing = [f.name for f in fields(cls) if f.name not in values and f.default is MISSING]
    if missing:
        raise error(f"{name} lacks the keys {missing}")
    return cls(**values)


class PatchClassifier(Module):
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.stem = Conv3D(1, config.stem_channels, 3, rng)
        self.stem_bn = BatchNorm(config.stem_channels, "relu")
        self.block1 = SpectralCABlock(config.block1, rng)
        if config.depth == 2:
            self.mid = Conv3D(config.block1.channels, config.mid_channels, 3, rng)
            self.mid_bn = BatchNorm(config.mid_channels, "relu")
            self.block2 = SpectralCABlock(config.block2, rng)
        self.head = Linear(config.feature_channels, config.num_classes, rng)
        # zero head: a fresh model emits uniform class probabilities
        self.head.weight.data[:] = 0.0
        # the walk stamps each Parameter's dotted name, which NonFiniteError
        # reports, before any forward
        for _ in self.named_parameters():
            pass

    def __call__(self, patches: Tensor, training: bool = False, rng=None) -> Tensor:
        """Logits [B, num_classes] for patches [B,1,H,W,D]. An eval forward
        with no active tape over more than one chunk (see the module
        docstring) runs each chunk through the whole model as one pool job
        and concatenates the chunks' logits in order; training and taped
        forwards run the whole batch at once."""
        cfg = self.config
        expected = (1, cfg.patch_size, cfg.patch_size, cfg.bands)
        if patches.ndim != 5 or patches.shape[1:] != expected:
            raise T.ShapeError(
                f"expected patches [B,1,{cfg.patch_size},{cfg.patch_size},{cfg.bands}], "
                f"got {patches.shape}"
            )
        if not training and active_tape() is None:
            last = cfg.block1 if cfg.depth == 1 else cfg.block2
            data = patches.data
            parts = _chunks(len(data), cfg.patch_size ** 2 * 2 * last.dim * data.itemsize)
            if len(parts) > 1:
                logits = _map(lambda part: self._forward(Tensor(data[part]), False, None).data,
                              parts)
                return Tensor(np.concatenate(list(logits)))
            del parts  # not held through the forward
        return self._forward(patches, training, rng)

    def _forward(self, patches: Tensor, training: bool, rng) -> Tensor:
        cfg = self.config
        x = self.stem(patches, self.stem_bn, training)
        # the last block returns its output's mean over H, W and D, [B, C]
        x = self.block1(x, training, rng, pool=cfg.depth == 1)
        if cfg.depth == 2:
            x = self.mid(x, self.mid_bn, training)
            x = self.block2(x, training, rng, pool=True)
        return self.head(x)

    def predict_proba(self, patches: np.ndarray) -> np.ndarray:
        """Eval-mode class probabilities, [N, num_classes], rows sum to 1,
        from one eval forward over the batch given, which runs its chunks
        on the pool; scene-sized input is cut into batches by the caller,
        as `pseudo_label_select` does."""
        return softmax_inplace(self(Tensor(np.asarray(patches)), training=False).data)

    def predict(self, patches: np.ndarray) -> np.ndarray:
        """Eval-mode argmax class indices (0-based), from one eval forward
        over the batch given, which runs its chunks on the pool; send
        scene-sized input through `trainer.predict_set`, which batches it."""
        return self(Tensor(np.asarray(patches)), training=False).data.argmax(axis=1)


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
        values = np.ascontiguousarray(arr, dtype="<f4")
        # refused before the file is opened: load_checkpoint would reject it
        if not np.isfinite(values).all():
            raise T.NonFiniteError(f"entry {name!r} holds non-finite values; "
                                   "no checkpoint written")
        raw = values.tobytes()
        entries.append({"name": name, "kind": kind, "shape": list(arr.shape),
                        "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model": asdict(model.config),
        "seed": seed,
        "data_recipe": data_recipe,
        "entries": entries,
        "blob_bytes": offset,
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # a failed write leaves whatever checkpoint was at `path` intact; the
    # directory is made only once every entry has passed its check
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(payload).to_bytes(8, "little"))
            fh.write(payload)
            for raw in chunks:
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_file(path) -> tuple[dict, bytes]:
    """The manifest and the blob of the checkpoint at `path`."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, not a checkpoint")
    length = int.from_bytes(blob[4:12], "little")
    try:
        manifest = json.loads(blob[12:12 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {manifest.get('format_version')}"
        )
    return manifest, blob[12 + length:]


def _well_formed(entry) -> bool:
    """A str name, an int offset and a list of non-negative int extents."""
    if not isinstance(entry, dict):
        return False
    shape = entry.get("shape")
    return (isinstance(entry.get("name"), str) and type(entry.get("offset")) is int
            and isinstance(shape, list)
            and all(type(e) is int and e >= 0 for e in shape))


def load_checkpoint(path) -> PatchClassifier:
    return read_checkpoint(path)[0]


def read_checkpoint(path) -> tuple[PatchClassifier, dict]:
    """The model and the manifest from one read of `path`."""
    manifest, blob = _read_file(path)
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
    try:
        config = decode_config(ModelConfig, manifest.get("model"), "model", CheckpointError)
        if asdict(config) != manifest["model"]:
            raise CheckpointError(f"{manifest['model']} leaves a key to its default")
        # every array is overwritten from the blob below, so the seed is moot
        model = PatchClassifier(config, rng=np.random.default_rng(0))
    except ValueError as exc:
        raise CheckpointError(f"bad model config in manifest: {exc}") from exc
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
        if not np.isfinite(values).all():
            raise CheckpointError(f"entry {name!r} holds non-finite values")
        if name.endswith("running_var") and (values < 0).any():
            raise CheckpointError(f"entry {name!r} holds a negative variance")
        arr[...] = values.reshape(shape)
    if available:
        raise CheckpointError(f"checkpoint missing entries: {sorted(available)}")
    return model, manifest

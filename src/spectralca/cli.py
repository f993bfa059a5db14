"""Command-line surface: scene generation, training, evaluation,
self-training, the parameter audit, gradient verification, and the
block-against-baseline benchmark. Every failure exits nonzero with a single
machine-parsable "ERR:<code>: <text>" line on stderr."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .block import PRESETS, AuditMismatchError, param_audit
from .classifier import (
    CheckpointError,
    ModelConfig,
    PatchClassifier,
    decode_config,
    read_checkpoint,
    save_checkpoint,
)
from .data import (
    DataFormatError,
    SplitError,
    extract_patches,
    generate_synthetic,
    load_cube,
    load_labels,
    save_cube,
    save_labels,
    split,
)
from .selftrain import SslConfig, run_self_training
from .tensor import NonFiniteError, ShapeError
from .trainer import TrainConfig, comparative_benchmark, evaluate, train
from .verify import GRADCHECK_TOLERANCE, gradcheck_suite


class ConfigError(ValueError):
    """A train config that is not JSON objects of known keys and value types."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one ERR: line, not usage text and exit 2
        raise ValueError(f"{self.prog}: {message}")


_ERROR_CODES: list[tuple[type, str]] = [
    (AuditMismatchError, "audit-mismatch"),
    (CheckpointError, "checkpoint"),
    (DataFormatError, "data-format"),
    (SplitError, "split"),
    (NonFiniteError, "non-finite"),
    (ShapeError, "shape"),
    (FileNotFoundError, "not-found"),
    (json.JSONDecodeError, "config-parse"),
    (ConfigError, "config-parse"),
    (ValueError, "invalid-argument"),
    (RuntimeError, "runtime"),
]


def _fail(code: str, message: str) -> int:
    print(f"ERR:{code}: {message}", file=sys.stderr)
    return 1


def _load_scene(data_dir: Path):
    cube = load_cube(data_dir / "cube.hdr", data_dir / "cube.raw")
    labels = load_labels(data_dir / "labels.raw", cube.height, cube.width)
    return cube, labels


@dataclass(frozen=True)
class DataRecipe:
    """How a scene is cut into patches and split: the top level of a train
    config, recorded in the checkpoint so that eval and ssl re-split alike."""

    patch_size: int = 9
    train_fraction: float = 0.1
    test_fraction: float | None = None
    split_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError(f"train_fraction {self.train_fraction} outside (0, 1]")
        if self.test_fraction is not None and not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction {self.test_fraction} outside (0, 1)")


def _split(cube, labels, recipe: DataRecipe):
    patches = extract_patches(cube, labels, recipe.patch_size)
    return split(patches, recipe.train_fraction, recipe.split_seed,
                 test_fraction=recipe.test_fraction)


def _checkpoint_and_split(args):
    """The model and data recipe of the checkpoint at --model, read once,
    and the (train, test, pool) split of the scene at --data by that recipe,
    which must set every recipe key and the model's patch size (the default
    recipe at the model's patch size when the checkpoint carries none)."""
    model, manifest = read_checkpoint(args.model)
    patch_size = model.config.patch_size
    raw = manifest.get("data_recipe")
    recipe = DataRecipe(patch_size=patch_size)
    if raw is not None:
        try:
            recipe = decode_config(DataRecipe, raw, "data_recipe", CheckpointError)
        except CheckpointError:
            raise
        except ValueError as exc:  # the recipe's own range checks
            raise CheckpointError(f"data_recipe: {exc}") from exc
        if asdict(recipe) != raw or recipe.patch_size != patch_size:
            raise CheckpointError(f"data_recipe {raw} must set every DataRecipe key "
                                  f"and the model's patch_size {patch_size}")
    cube, labels = _load_scene(Path(args.data))
    if labels.num_classes != model.config.num_classes:
        raise CheckpointError(f"scene has {labels.num_classes} classes, checkpoint "
                              f"{model.config.num_classes}")
    if cube.bands != model.config.bands:
        raise CheckpointError(f"scene has {cube.bands} bands, checkpoint "
                              f"{model.config.bands}")
    return model, recipe, _split(cube, labels, recipe)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    cube, labels = generate_synthetic(args.seed, args.height, args.width,
                                      args.bands, args.classes, args.noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_cube(cube, out / "cube.hdr", out / "cube.raw")
    save_labels(labels, out / "labels.raw")
    scene = {"seed": args.seed, "height": args.height, "width": args.width,
             "bands": args.bands, "classes": args.classes, "noise": args.noise}
    (out / "scene.json").write_text(json.dumps(scene, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"wrote scene to {out} ({args.height}x{args.width}x{args.bands}, "
          f"{args.classes} classes)")
    return 0


def _read_train_config(path) -> tuple[DataRecipe, TrainConfig, dict]:
    """The recipe and train sections of the train config at `path`, and its
    model section, which is decoded once the scene is known."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8")) if path else {}
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    train_cfg = decode_config(TrainConfig, raw.pop("train", {}), "train", ConfigError)
    model = raw.pop("model", {})
    return decode_config(DataRecipe, raw, "config", ConfigError), train_cfg, model


def _cmd_train(args) -> int:
    recipe, train_cfg, model_fields = _read_train_config(args.config)
    cube, labels = _load_scene(Path(args.data))
    # the scene fixes the class count, band count and (via the recipe) patch size
    scene = {"num_classes": labels.num_classes, "patch_size": recipe.patch_size,
             "bands": cube.bands}
    if not isinstance(model_fields, dict) or model_fields.keys() & scene.keys():
        raise ConfigError(f"model must be a JSON object that leaves {sorted(scene)} "
                          f"to the scene, got {model_fields!r}")
    config = decode_config(ModelConfig, {**model_fields, **scene}, "model", ConfigError)
    train_set, test_set, _ = _split(cube, labels, recipe)
    model = PatchClassifier(config, rng=np.random.default_rng(train_cfg.seed))

    history = train(model, train_set, train_cfg,
                    test_set=test_set if train_cfg.eval_cadence else None)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint.bin", seed=train_cfg.seed,
                    data_recipe=asdict(recipe))
    with open(out / "history.jsonl", "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    summary = f"trained {len(history)} epochs"
    if history:
        final = history[-1]
        summary += f"; final loss {final['loss']:.4f} acc {final['acc']:.4f}"
    print(f"{summary}; checkpoint at {out / 'checkpoint.bin'}")
    return 0


def _cmd_eval(args) -> int:
    model, _, (_, test_set, _) = _checkpoint_and_split(args)
    report = evaluate(model, test_set)
    text = report.to_json()
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_ssl(args) -> int:
    model, recipe, (train_set, test_set, pool) = _checkpoint_and_split(args)
    if len(pool) == 0:
        return _fail("invalid-argument",
                     "no unlabeled pool (generate with test_fraction or unlabeled pixels)")
    ssl_cfg = SslConfig(threshold=args.tau, rounds=args.rounds,
                        per_round_cap=args.cap, epochs_per_round=args.epochs_per_round)
    train_cfg = TrainConfig(seed=args.train_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "ssl_rounds.jsonl"
    log_path.write_text("", encoding="utf-8")
    _, _, rounds = run_self_training(model, train_set, pool, ssl_cfg, train_cfg,
                                     test_set=test_set, log_path=log_path)
    save_checkpoint(model, out / "checkpoint.bin", seed=args.train_seed,
                    data_recipe=asdict(recipe))
    added = sum(r["selected"] for r in rounds)
    last_oa = rounds[-1].get("test_oa") if rounds else None
    print(f"{len(rounds)} rounds, {added} pseudo-labels added; "
          f"final test OA {last_oa}; outputs in {out}")
    return 0


def _cmd_audit(args) -> int:
    table = param_audit(PRESETS[args.preset])
    print(table)
    if args.expect_total is not None and table.total != args.expect_total:
        return _fail("expect-mismatch",
                     f"total {table.total} != expected {args.expect_total}")
    return 0


def _cmd_gradcheck(args) -> int:
    suite = gradcheck_suite(seed=args.seed,
                            samples_per_parameter=args.samples,
                            include_full_size_spot=not args.no_full_size_spot)
    failed = []
    for name, report in suite.items():
        status = "ok" if report.ok else "FAIL"
        print(f"{name}: max_rel_err={report.max_rel_err:.6e} "
              f"tol={report.tolerance:.0e} {status}")
        if not report.ok:
            failed.append(name)
    if failed:
        return _fail("gradcheck-failed",
                     f"modules over {GRADCHECK_TOLERANCE:g}: {', '.join(failed)}")
    return 0


def _cmd_bench(args) -> int:
    payload = comparative_benchmark(PRESETS[args.preset], batch=args.batch,
                                    height=args.height, width=args.width,
                                    bands=args.bands, warmup=args.warmup,
                                    runs=args.runs, seed=args.seed)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectralca",
        description="Hyperspectral cross-attention block: training, audits, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled scene")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--bands", type=int, default=32)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a patch classifier on a scene directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON config file (see README)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its held-out split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ssl", help="confidence-thresholded self-training rounds")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--cap", type=int, default=5000)
    p.add_argument("--epochs-per-round", type=int, default=5)
    p.add_argument("--train-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ssl)

    p = sub.add_parser("audit", help="exact per-component parameter table")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--expect-total", type=int, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--no-full-size-spot", action="store_true")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bench", help="inference timing of the block against the baseline")
    p.add_argument("--preset", choices=sorted(PRESETS), default="cfg32")
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--height", type=int, default=9)
    p.add_argument("--width", type=int, default=9)
    p.add_argument("--bands", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone: send what is still buffered to
        # devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("broken-pipe", "stdout was closed before the output was written")
    except Exception as exc:  # mapped to stable error codes
        for etype, code in _ERROR_CODES:
            if isinstance(exc, etype):
                return _fail(code, str(exc))
        raise


if __name__ == "__main__":
    sys.exit(main())

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralca import cli, nn
from spectralca.classifier import ModelConfig, PatchClassifier, read_checkpoint, save_checkpoint
from spectralca.cli import DataRecipe, build_parser, main
from spectralca.data import load_labels, save_labels
from spectralca.trainer import TrainConfig
from test_classifier import TINY_MODEL, rewrite_manifest, set_entry, with_model

TINY_RECIPE = {
    "patch_size": 3,
    "train_fraction": 0.5,
    "model": {"stem_channels": 4,
              "block1": {"channels": 4, "dim": 8, "heads": 2}},
}


@pytest.fixture
def scene(tmp_path):
    data = tmp_path / "scene"
    assert main(["gen", "--seed", "3", "--height", "8", "--width", "8",
                 "--bands", "4", "--classes", "2", "--out", str(data)]) == 0
    return data


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_prints_one_summary_line(scene, tmp_path, capsys, epochs):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RECIPE, "train": {"epochs": epochs}}))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(scene), "--config", str(config),
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"trained {epochs} epochs")
    assert ("final loss" in lines[0]) == (epochs > 0)
    assert (out / "checkpoint.bin").is_file()
    assert len((out / "history.jsonl").read_text().splitlines()) == epochs


def test_overflowing_learning_rate_is_one_stderr_line_and_no_out_dir(scene, tmp_path):
    # the first Adam step overflows float32: the process prints the ERR:
    # line alone, no numpy warning before it, and makes no --out directory
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RECIPE, "train": {"epochs": 1,
                                                           "learning_rate": 1e39}}))
    out = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "spectralca.cli", "train", "--data",
                           str(scene), "--config", str(config), "--out", str(out)],
                          capture_output=True, env=env, timeout=120)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 1 and proc.stdout == b""
    assert len(lines) == 1 and lines[0].startswith("ERR:non-finite: "), lines
    assert not out.exists()


def test_cube_value_overflowing_the_band_statistics_is_one_data_format_line(tmp_path):
    # one finite float32 value of 3e38 overflows the band's float32 std; the
    # process prints one ERR:data-format: line naming the band, and neither
    # numpy's overflow warning nor a non-finite error from the stem conv
    data = tmp_path / "scene"
    assert main(["gen", "--seed", "1", "--height", "24", "--width", "24",
                 "--out", str(data)]) == 0
    raw = np.fromfile(data / "cube.raw", dtype="<f4")
    raw[0] = 3e38  # band 0 of pixel (0, 0)
    raw.tofile(data / "cube.raw")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RECIPE, "train": {"epochs": 1}}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "spectralca.cli", "train", "--data",
                           str(data), "--config", str(config), "--out", str(tmp_path / "run")],
                          capture_output=True, env=env, timeout=120)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 1 and proc.stdout == b""
    assert len(lines) == 1 and lines[0].startswith("ERR:data-format: band 0 "), lines


def test_negative_epochs_is_one_err_line(scene, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RECIPE, "train": {"epochs": -1}}))
    capsys.readouterr()
    assert main(["train", "--data", str(scene), "--config", str(config),
                 "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERR:invalid-argument: ")


@pytest.mark.parametrize("offset", ["aliased", -4])
def test_eval_on_bad_offsets_is_one_checkpoint_err_line(scene, tmp_path, capsys, offset):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RECIPE, "train": {"epochs": 0}}))
    run = tmp_path / "run"
    assert main(["train", "--data", str(scene), "--config", str(config),
                 "--out", str(run)]) == 0
    checkpoint = run / "checkpoint.bin"

    def mutate(entries, blob_bytes):
        alias = entries["stem.bias"]["offset"] if offset == "aliased" else offset
        entries["stem_bn.gamma"]["offset"] = alias

    rewrite_manifest(checkpoint, mutate)
    capsys.readouterr()
    assert main(["eval", "--model", str(checkpoint), "--data", str(scene),
                 "--out", str(tmp_path / "report.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERR:checkpoint: ")


def test_eval_without_recipe_splits_at_the_model_patch_size(scene, tmp_path):
    # the default recipe's patch size of 9 gives way to the model's 3
    model = PatchClassifier(replace(TINY_MODEL, num_classes=2, patch_size=3, bands=4),
                            np.random.default_rng(0))
    save_checkpoint(model, tmp_path / "m.bin")
    assert main(["eval", "--model", str(tmp_path / "m.bin"), "--data", str(scene),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert 0.0 <= json.loads((tmp_path / "r.json").read_text())["oa"] <= 1.0


def test_ssl_without_recipe_saves_the_default_at_the_model_patch_size(scene, tmp_path):
    # unlabel the first row, so the default recipe leaves a pool to self-train on
    labels = load_labels(scene / "labels.raw", 8, 8)
    labels.labels[0] = 0
    save_labels(labels, scene / "labels.raw")
    model = PatchClassifier(replace(TINY_MODEL, num_classes=2, patch_size=3, bands=4),
                            np.random.default_rng(0))
    save_checkpoint(model, tmp_path / "m.bin")
    assert main(["ssl", "--model", str(tmp_path / "m.bin"), "--data", str(scene),
                 "--rounds", "1", "--epochs-per-round", "1", "--out", str(tmp_path / "s")]) == 0
    _, manifest = read_checkpoint(tmp_path / "s" / "checkpoint.bin")
    assert manifest["data_recipe"] == {"patch_size": 3, "train_fraction": 0.1,
                                       "test_fraction": None, "split_seed": 0}


def readme_tables(heading):
    """{key: default} of each table in README's `heading` section, with the
    defaults parsed as JSON."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    tables = []
    for block in section.split("\n\n"):
        if block.startswith("| key | default |"):
            cells = [row.strip("|").split("|") for row in block.splitlines()[2:]]
            tables.append({key.strip(" `"): json.loads(default.strip(" `"))
                           for key, default, _ in cells})
    return tables


def test_readme_lists_every_train_config_key_and_default():
    def defaults(cls, scene_fixed=()):
        return {f.name: asdict(f.default) if is_dataclass(f.default) else f.default
                for f in fields(cls) if f.name not in scene_fixed}

    assert readme_tables("Train config") == [
        defaults(DataRecipe), defaults(TrainConfig),
        defaults(ModelConfig, ("num_classes", "patch_size", "bands"))]


# train config files that are not UTF-8 JSON objects of known keys and
# value types, or hold an invalid value, and the error code each maps to
BAD_CONFIGS = {
    "list": (b"[]", "config-parse"),
    "train-list": (b'{"train": []}', "config-parse"),
    "train-unknown-key": (b'{"train": {"bogus": 1}}', "config-parse"),
    "string-patch-size": (b'{"patch_size": "9"}', "config-parse"),
    "string-channels": (b'{"model": {"block1": {"channels": "x", "dim": 8}}}', "config-parse"),
    "missing-channels": (b'{"model": {"block1": {"dim": 8}}}', "config-parse"),
    "model-num-classes": (b'{"model": {"num_classes": 3}}', "config-parse"),
    "non-utf8": (b'{"patch_size": 9}\xff', "config-parse"),
    "zero-heads": (b'{"model": {"block1": {"channels": 64, "dim": 96, "heads": 0}}}',
                   "invalid-argument"),
    "train-fraction-2": (b'{"train_fraction": 2.0}', "invalid-argument"),
    "negative-test-fraction": (b'{"test_fraction": -0.5}', "invalid-argument"),
    "negative-eval-cadence": (b'{"train": {"eval_cadence": -1}}', "invalid-argument"),
    "target-oa-7": (b'{"train": {"eval_cadence": 1, "target_oa": 7}}', "invalid-argument"),
    "target-oa-no-cadence": (b'{"train": {"target_oa": 0.9}}', "invalid-argument"),
    # JSON's 1e400 loads as inf, and Python's json reads NaN
    "infinite-learning-rate": (b'{"train": {"learning_rate": 1e400}}', "invalid-argument"),
    "nan-learning-rate": (b'{"train": {"learning_rate": NaN}}', "invalid-argument"),
    # finite, but the first Adam step overflows float32: the weights are not saved
    "overflowing-learning-rate": (json.dumps({**TINY_RECIPE, "train": {
        "epochs": 1, "learning_rate": 1e39}}).encode(), "non-finite"),
}

# checkpoint data recipes that lack a key, hold a wrongly typed value, are
# not an object (an empty one too), differ from the model's patch size of 3
# or hold a fraction out of range
GOOD_RECIPE = {"patch_size": 3, "train_fraction": 0.5, "test_fraction": None, "split_seed": 0}
BAD_RECIPES = {
    "missing-key": {k: v for k, v in GOOD_RECIPE.items() if k != "patch_size"},
    "string-patch-size": {**GOOD_RECIPE, "patch_size": "3"},
    "list": [3, 0.5, None, 0],
    "empty-list": [],
    "other-patch-size": {**GOOD_RECIPE, "patch_size": 5},
    "train-fraction-2": {**GOOD_RECIPE, "train_fraction": 2.0},
    "negative-test-fraction": {**GOOD_RECIPE, "test_fraction": -0.5},
}

# malformed inputs, at least one per subcommand, and the error code each
# must map to
MALFORMED = {
    "gen": (["gen", "--seed", "1", "--bands", "0", "--out", "{tmp}/g"], "invalid-argument"),
    **{f"gen-{noise}-noise": (["gen", "--seed", "1", "--noise", noise, "--out", "{tmp}/g"],
                              "invalid-argument") for noise in ("nan", "inf")},
    "train": (["train", "--data", "{scene}", "--config", "{bad_json}", "--out", "{tmp}/t"],
              "config-parse"),
    **{f"train-{name}": (["train", "--data", "{scene}", "--config", f"{{tmp}}/{name}.json",
                          "--out", "{tmp}/t"], code)
       for name, (_, code) in BAD_CONFIGS.items()},
    "eval": (["eval", "--model", "{bad_bin}", "--data", "{scene}", "--out", "{tmp}/r.json"],
             "checkpoint"),
    # a manifest whose block heads do not divide its dim
    "eval-manifest": (["eval", "--model", "{bad_heads_bin}", "--data", "{scene}",
                       "--out", "{tmp}/r.json"], "checkpoint"),
    # a manifest whose patch size is a float
    "eval-float-patch-size": (["eval", "--model", "{float_patch_bin}", "--data", "{scene}",
                               "--out", "{tmp}/r.json"], "checkpoint"),
    # a checkpoint whose stem_bn.running_var holds inf
    "eval-non-finite": (["eval", "--model", "{non_finite_bin}", "--data", "{scene}",
                         "--out", "{tmp}/r.json"], "checkpoint"),
    # a checkpoint whose stem_bn.running_var holds -5e-6
    "eval-negative-variance": (["eval", "--model", "{negative_var_bin}", "--data", "{scene}",
                                "--out", "{tmp}/r.json"], "checkpoint"),
    # eval measures T itself
    "eval-infer-time-flag": (["eval", "--model", "{four_bands_bin}", "--data", "{scene}",
                              "--out", "{tmp}/r.json", "--infer-time-s", "0.5"],
                             "invalid-argument"),
    "ssl": (["ssl", "--model", "{bad_bin}", "--data", "{scene}", "--out", "{tmp}/s"],
            "checkpoint"),
    # a 3-class checkpoint on the 2-class scene
    "eval-classes": (["eval", "--model", "{three_classes_bin}", "--data", "{scene}",
                      "--out", "{tmp}/r.json"], "checkpoint"),
    "ssl-classes": (["ssl", "--model", "{three_classes_bin}", "--data", "{scene}",
                     "--out", "{tmp}/s"], "checkpoint"),
    # a 4-band checkpoint on a 6-band scene
    "eval-bands": (["eval", "--model", "{four_bands_bin}", "--data", "{six_band_scene}",
                    "--out", "{tmp}/r.json"], "checkpoint"),
    "ssl-bands": (["ssl", "--model", "{four_bands_bin}", "--data", "{six_band_scene}",
                   "--out", "{tmp}/s"], "checkpoint"),
    **{f"{command}-recipe-{name}": ([command, "--model", f"{{tmp}}/recipe-{name}.bin",
                                     "--data", "{scene}", "--out", "{tmp}/o"], "checkpoint")
       for command in ("eval", "ssl") for name in BAD_RECIPES},
    "audit": (["audit", "--preset", "cfg99"], "invalid-argument"),
    "gradcheck": (["gradcheck", "--samples", "0", "--no-full-size-spot"], "invalid-argument"),
    "bench": (["bench", "--height", "0", "--runs", "1"], "invalid-argument"),
    "bench-warmup": (["bench", "--warmup", "-1", "--runs", "1"], "invalid-argument"),
}


def test_malformed_input_covers_every_subcommand():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert sorted({argv[0] for argv, _ in MALFORMED.values()}) == sorted(subcommands)


@pytest.mark.parametrize("command", list(MALFORMED))
def test_malformed_input_is_one_err_line(command, scene, tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"train": ')
    for name, (payload, _) in BAD_CONFIGS.items():
        (tmp_path / f"{name}.json").write_bytes(payload)
    (tmp_path / "bad.bin").write_bytes(b"not a checkpoint")
    save_checkpoint(PatchClassifier(TINY_MODEL, np.random.default_rng(0)),
                    tmp_path / "bad_heads.bin")
    rewrite_manifest(tmp_path / "bad_heads.bin", with_model(block1={"heads": 3}), whole=True)
    # fits the scene's bands and the recipe's patch size in all but its class count
    three_classes = PatchClassifier(replace(TINY_MODEL, patch_size=3, bands=4),
                                    np.random.default_rng(0))
    save_checkpoint(three_classes, tmp_path / "three_classes.bin", data_recipe=GOOD_RECIPE)
    # fits the 6-band scene in all but its band count, and the 4-band scene
    four_bands = PatchClassifier(replace(TINY_MODEL, num_classes=2, patch_size=3, bands=4),
                                 np.random.default_rng(0))
    save_checkpoint(four_bands, tmp_path / "four_bands.bin", data_recipe=GOOD_RECIPE)
    for name, recipe in BAD_RECIPES.items():
        save_checkpoint(four_bands, tmp_path / f"recipe-{name}.bin", data_recipe=recipe)
    save_checkpoint(four_bands, tmp_path / "float_patch.bin", data_recipe=GOOD_RECIPE)
    rewrite_manifest(tmp_path / "float_patch.bin", with_model(patch_size=3.0), whole=True)
    save_checkpoint(four_bands, tmp_path / "non_finite.bin", data_recipe=GOOD_RECIPE)
    set_entry(tmp_path / "non_finite.bin", "stem_bn.running_var", (0,), np.inf)
    four_bands.stem_bn.running_var[0] = -5e-6
    save_checkpoint(four_bands, tmp_path / "negative_var.bin", data_recipe=GOOD_RECIPE)
    assert main(["gen", "--seed", "3", "--height", "8", "--width", "8", "--bands", "6",
                 "--classes", "2", "--out", str(tmp_path / "scene6")]) == 0
    paths = {"tmp": tmp_path, "scene": scene, "bad_json": tmp_path / "bad.json",
             "bad_bin": tmp_path / "bad.bin", "bad_heads_bin": tmp_path / "bad_heads.bin",
             "three_classes_bin": tmp_path / "three_classes.bin",
             "four_bands_bin": tmp_path / "four_bands.bin",
             "float_patch_bin": tmp_path / "float_patch.bin",
             "non_finite_bin": tmp_path / "non_finite.bin",
             "negative_var_bin": tmp_path / "negative_var.bin",
             "six_band_scene": tmp_path / "scene6"}
    argv, code = MALFORMED[command]
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERR:{code}: "), captured.err


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", "3", "--height", "8", "--width", "8", "--out", "{file}"],
    ["gen", "--seed", "3", "--height", "8", "--width", "8", "--out", "{file}/sub"],
    ["train", "--data", "{scene}", "--config", "{config}", "--out", "{file}"],
    ["eval", "--model", "{model}", "--data", "{scene}", "--out", "{tmp}"],
    ["eval", "--model", "{tmp}", "--data", "{scene}", "--out", "{tmp}/r.json"],
], ids=["gen-out-file", "gen-out-under-file", "train-out-file", "eval-out-dir",
        "eval-model-dir"])
def test_os_error_is_one_io_err_line(argv, scene, tmp_path, capsys):
    # a path that exists as the wrong kind (a file where a directory goes,
    # or a directory where a file goes) fails its read or write with an
    # OSError, which is one ERR:io: line and no traceback
    (tmp_path / "file").write_text("")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_RECIPE, "train": {"epochs": 1}}))
    model = PatchClassifier(replace(TINY_MODEL, num_classes=2, patch_size=3, bands=4),
                            np.random.default_rng(0))
    save_checkpoint(model, tmp_path / "model.bin", data_recipe=GOOD_RECIPE)
    paths = {"tmp": tmp_path, "file": tmp_path / "file", "scene": scene, "config": config,
             "model": tmp_path / "model.bin"}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERR:io: "), captured.err
    assert "Traceback" not in captured.err


def test_eval_reports_objective_j_at_the_fixed_references(scene, tmp_path, capsys):
    model = PatchClassifier(replace(TINY_MODEL, num_classes=2, patch_size=3, bands=4),
                            np.random.default_rng(0))
    save_checkpoint(model, tmp_path / "m.bin", data_recipe=GOOD_RECIPE)
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "m.bin"), "--data", str(scene),
                 "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads((tmp_path / "r.json").read_text())
    _, test_set, _ = cli._split(*cli._load_scene(scene), DataRecipe(**GOOD_RECIPE))
    assert report["infer_time_s"] > 0
    assert report["test_samples"] == len(test_set.labeled_indices) > 0
    assert report["params_millions"] == model.param_count() / 1e6
    expected = ((1 - report["oa"]) + report["infer_time_s"] / 50
                + report["params_millions"] / 6.628) / 3
    assert report["objective_j"] == pytest.approx(expected, rel=1e-12)


def test_bench_always_compares_the_block_with_the_baseline(capsys):
    capsys.readouterr()
    assert main(["bench", "--batch", "1", "--runs", "1", "--warmup", "0",
                 "--height", "3", "--width", "3", "--bands", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"config", "input_shape", "spectralca", "baseline",
                            "speed_ratio_baseline_over_spectralca", "reference_fullscale"}
    assert payload["input_shape"] == [1, 64, 3, 3, 4]
    for side in ("spectralca", "baseline"):
        report = payload[side]
        assert not {"mean_s", "params_millions"} & set(report)
        assert report["measured_runs"] == 1 and len(report["times_s"]) == 1
        assert report["workers"] == nn._WORKERS
    assert payload["spectralca"]["param_count"] == 383_680


def test_closed_stdout_pipe_is_one_err_line():
    # `spectralca audit ... | head -c 10` once head has exited: the pipe's
    # read end is closed before the table is written, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "spectralca.cli", "audit",
                               "--preset", "cfg32"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("ERR:broken-pipe: "), lines


def test_gradcheck_passes_every_module(capsys):
    assert main(["gradcheck", "--no-full-size-spot", "--samples", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "tensor_ops", "nn_ops", "attention", "block_tiny", "classifier_tiny",
        "classifier_tiny_d2"]
    assert all(line.endswith(" ok") for line in lines)


# the scene the property test corrupts: `gen --seed 3`, 8x8x4, two classes
SCENE = {"height": 8, "width": 8, "bands": 4}


@pytest.fixture(scope="module")
def corruptible(tmp_path_factory):
    """A generated scene, a one-epoch TINY_RECIPE config and the checkpoint
    it trains, in one directory that the property test also works in."""
    root = tmp_path_factory.mktemp("corruptible")
    assert main(["gen", "--seed", "3", *(f"--{k}={v}" for k, v in SCENE.items()),
                 "--classes", "2", "--out", str(root / "scene")]) == 0
    (root / "config.json").write_text(json.dumps({**TINY_RECIPE, "train": {"epochs": 1}}))
    assert main(["train", "--data", str(root / "scene"), "--config",
                 str(root / "config.json"), "--out", str(root / "run")]) == 0
    return root


@st.composite
def scene_corruptions(draw):
    """(file, its bytes -> the corrupted bytes): one change to the scene."""
    values = SCENE["height"] * SCENE["width"] * SCENE["bands"]
    kind = draw(st.sampled_from(["extreme", "non-finite", "truncated", "header", "label"]))
    if kind == "truncated":
        size = draw(st.integers(0, 4 * values - 1))
        return "cube.raw", lambda raw: raw[:size]
    if kind == "header":
        key = draw(st.sampled_from(sorted(SCENE)))
        value = draw(st.integers(-2 ** 63, 2 ** 63).filter(lambda v: v != SCENE[key]))
        line = f"{key} = {SCENE[key]}\n".encode()
        return "cube.hdr", lambda text: text.replace(line, f"{key} = {value}\n".encode())
    if kind == "label":
        i = draw(st.integers(0, SCENE["height"] * SCENE["width"] - 1))
        label = draw(st.integers(3, 2 ** 16 - 1)).to_bytes(2, "little")
        return "labels.raw", lambda raw: raw[:2 * i] + label + raw[2 * i + 2:]
    i = draw(st.integers(0, values - 1))
    if kind == "extreme":
        value = draw(st.floats(2.0 ** 50, float(np.finfo(np.float32).max), width=32))
        value *= draw(st.sampled_from([1, -1]))
    else:
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    entry = np.array(value, "<f4").tobytes()
    return "cube.raw", lambda raw: raw[:4 * i] + entry + raw[4 * i + 4:]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_huge_standardized_test_pixel_is_one_data_format_line(corruptible, tmp_path, command):
    # a finite cube value of 5.5e19 in a test pixel (entry 85: band 1 of
    # pixel 21) standardizes beyond the bound whose square overflows
    # float32: split names the band in one ERR:data-format: line, where the
    # model would fail with a non-finite error naming neither band nor pixel
    scene = tmp_path / "scene"
    shutil.copytree(corruptible / "scene", scene)
    raw = np.fromfile(scene / "cube.raw", dtype="<f4")
    raw[85] = 5.5e19
    raw.tofile(scene / "cube.raw")
    argv = {"train": ["train", "--config", str(corruptible / "config.json")],
            "eval": ["eval", "--model", str(corruptible / "run" / "checkpoint.bin")]}[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = main(argv + ["--data", str(scene), "--out", str(tmp_path / "out")])
    lines = stderr.getvalue().splitlines()
    assert status == 1 and stdout.getvalue() == ""
    assert len(lines) == 1 and lines[0].startswith("ERR:data-format: band 1 "), lines


@settings(max_examples=300, deadline=None)
@given(corruption=scene_corruptions(), command=st.sampled_from(["train", "eval"]))
def test_corrupted_scene_runs_or_is_one_err_line(corruptible, corruption, command):
    # one extreme or non-finite cube value, a truncated cube, an
    # out-of-range header dimension or a label past the scene's two
    # classes: train and eval either succeed with finite metrics or print
    # one ERR: line and nothing else
    name, corrupt = corruption
    scene, outs = corruptible / "corrupted", corruptible / "out"
    for path in (scene, outs):
        shutil.rmtree(path, ignore_errors=True)
    out = outs / {"train": "run", "eval": "report.json"}[command]
    outs.mkdir()
    shutil.copytree(corruptible / "scene", scene)
    (scene / name).write_bytes(corrupt((scene / name).read_bytes()))
    argv = {"train": ["train", "--config", str(corruptible / "config.json")],
            "eval": ["eval", "--model", str(corruptible / "run" / "checkpoint.bin")]}[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = main(argv + ["--data", str(scene), "--out", str(out)])
    lines = stderr.getvalue().splitlines()
    if status != 0:
        assert status == 1 and stdout.getvalue() == "", status
        assert len(lines) == 1 and lines[0].startswith("ERR:"), lines
        return
    assert lines == []
    metrics = ([json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
               if command == "train" else [json.loads(out.read_text())])
    assert metrics and all(np.isfinite(v).all() for m in metrics for v in m.values()), metrics

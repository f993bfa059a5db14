import json

import pytest

from spectralca.cli import main
from test_classifier import rewrite_manifest

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

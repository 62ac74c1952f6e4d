"""The command line, run in-process: bad input exits with a documented
code and a one-line message, never a traceback."""

import csv
import json

import numpy as np
import pytest

from litnet import cli
from litnet.model import build, toy_config


def run(capsys, *argv: str) -> tuple[int, str]:
    """Return code and stderr of ``litnet argv``; an uncaught exception fails the test."""
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


def assert_config_error(code: int, err: str, fragment: str) -> None:
    assert code == cli.EXIT_CONFIG
    assert len(err.strip().splitlines()) == 1, err
    assert fragment in err


def write_config(path, edit) -> str:
    data = toy_config().to_dict()
    edit(data)
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("edit,fragment", [
    (lambda d: d["stages"].__setitem__(1, 5), "stage must be an object"),
    (lambda d: d.__setitem__("num_classes", "ten"), "'num_classes' must be int"),
    (lambda d: d["stages"][1].__setitem__("channels", "48"), "'channels' must be int"),
    (lambda d: d["stages"].pop(), "expected 4 stages, got 3"),
    (lambda d: d["stages"][0].__setitem__("patch_size", 0), "patch size must be 4"),
], ids=["stage_not_object", "num_classes_string", "channels_string", "three_stages",
        "patch_size_zero"])
def test_audit_rejects_malformed_config_json(tmp_path, capsys, edit, fragment):
    config = write_config(tmp_path / "bad.json", edit)
    code, err = run(capsys, "audit", "--config", config, "--out", str(tmp_path / "out"))
    assert_config_error(code, err, fragment)


def test_a_missing_input_file_is_a_config_error(tmp_path, capsys):
    code, err = run(capsys, "audit", "--config", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "missing.json")


@pytest.mark.parametrize("stage", ["0", "5"])
def test_inspect_attn_rejects_a_stage_outside_1_to_4(tmp_path, capsys, stage):
    code, err = run(capsys, "inspect", "--mode", "attn", "--stage", stage,
                    "--num-images", "1", "--out", str(tmp_path))
    assert_config_error(code, err, "--stage must be 1-4")


def test_train_resume_from_a_model_only_checkpoint_names_the_missing_records(tmp_path, capsys):
    ckpt = tmp_path / "model.litckpt"
    build(toy_config(), seed=0).save(ckpt)
    code, err = run(capsys, "train", "--resume", str(ckpt), "--num-images", "4",
                    "--epochs", "1", "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "opt.patch_embed.w.m")


def test_inspect_offsets_rejects_a_token_outside_the_final_grid(tmp_path, capsys):
    code, err = run(capsys, "inspect", "--mode", "offsets", "--token", "2,0",
                    "--num-images", "1", "--out", str(tmp_path))
    assert_config_error(code, err, "outside the 2x2 final-stage grid")


def test_inspect_offsets_on_uniform_merges_says_there_is_no_predictor(tmp_path, capsys):
    config = tmp_path / "uniform.json"
    toy_config(merge_kind="uniform_conv").save_json(config)
    code, err = run(capsys, "inspect", "--mode", "offsets", "--config", str(config),
                    "--num-images", "1", "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "no offset predictor")


def test_inspect_offsets_writes_64_leaves(tmp_path, capsys):
    code, _ = run(capsys, "inspect", "--mode", "offsets", "--token", "1,1",
                  "--num-images", "2", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    with open(tmp_path / "offsets_token1_1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    assert {int(r["leaf_index"]) for r in rows} == set(range(64))


@pytest.mark.parametrize("flag,value,fragment", [
    ("--batch-size", "0", "batch_size must be at least 1, got 0"),
    ("--epochs", "0", "epochs must be at least 1, got 0"),
    ("--checkpoint-every", "-1", "checkpoint_every must be at least 0, got -1"),
    ("--log-every", "0", "--log-every must be at least 1, got 0"),
    ("--lr", "nan", "lr must be finite and at least 0, got nan"),
    ("--offset-lr", "-0.001", "offset_lr must be finite and at least 0, got -0.001"),
    ("--weight-decay", "inf", "weight_decay must be finite and at least 0, got inf"),
    ("--warmup-frac", "1.5", "warmup_frac must lie in [0, 1], got 1.5"),
    ("--num-images", "0", "--num-images must be at least 1, got 0"),
])
def test_train_rejects_out_of_range_settings(tmp_path, capsys, flag, value, fragment):
    # the flag comes last, so it overrides the small defaults set before it
    code, err = run(capsys, "train", "--num-images", "4", "--epochs", "1", flag, value,
                    "--out", str(tmp_path))
    assert_config_error(code, err, fragment)


@pytest.mark.parametrize("command", [["train"], ["inspect", "--mode", "attn"], ["verify"]])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, command):
    code, err = run(capsys, *command, "--seed", "-1", "--out", str(tmp_path))
    assert_config_error(code, err, "--seed must be at least 0, got -1")


def test_inspect_attn_rejects_an_empty_batch(tmp_path, capsys):
    code, err = run(capsys, "inspect", "--mode", "attn", "--num-images", "0",
                    "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "--num-images must be at least 1, got 0")
    assert not (tmp_path / "out" / "attention.csv").exists()


@pytest.mark.parametrize("command", [["train", "--epochs", "1"], ["inspect", "--mode", "attn"]])
def test_a_data_directory_without_images_is_a_config_error(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    np.save(data / "images.npy", np.zeros((0, 64, 64, 3), dtype=np.float32))
    np.save(data / "labels.npy", np.zeros(0, dtype=np.int64))
    code, err = run(capsys, *command, "--data", str(data), "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "holds no images")


def test_inspect_refuses_a_checkpoint_of_another_merge_kind(tmp_path, capsys):
    ckpt = tmp_path / "dtm.litckpt"
    build(toy_config(), seed=0).save(ckpt)
    config = tmp_path / "uniform.json"
    toy_config(merge_kind="uniform_conv").save_json(config)
    code, err = run(capsys, "inspect", "--mode", "attn", "--config", str(config),
                    "--checkpoint", str(ckpt), "--num-images", "1",
                    "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "does not own")

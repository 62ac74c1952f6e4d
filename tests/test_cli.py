"""The command line, run in-process: each command exits 0 and writes its
files, and bad input exits with a documented code and a one-line
message, never a traceback."""

import csv
import json

import numpy as np
import pytest

from litnet import cli
from litnet.analyzer import cost_report
from litnet.checkpoint import load_tensors, save_tensors
from litnet.data import synthetic_dataset
from litnet.model import ModelConfig, build, preset, toy_config


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
    ("--offset-lr", "-1e-5", "offset_lr must be finite and at least 0, got -1e-05"),
    ("--lr", "-2E-3", "lr must be finite and at least 0, got -0.002"),
    ("--weight-decay", "-inf", "weight_decay must be finite and at least 0, got -inf"),
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


def read_column(path, column: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row[column]) for row in csv.DictReader(fh)])


def write_images(path, images: np.ndarray) -> str:
    """A --data directory holding ``images``."""
    path.mkdir()
    np.save(path / "images.npy", images)
    np.save(path / "labels.npy", np.zeros(len(images), dtype=np.int64))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Output directory of a one-epoch toy training run; its offset
    learning rate is large enough to move the DTM offsets off zero."""
    out = tmp_path_factory.mktemp("train")
    code = cli.main(["train", "--epochs", "1", "--num-images", "8", "--batch-size", "4",
                     "--offset-lr", "0.01", "--out", str(out)])
    assert code == cli.EXIT_OK
    return out


def test_train_writes_its_log_config_and_final_checkpoint(trained):
    assert read_column(trained / "train_log.csv", "step").tolist() == [2.0]
    assert ModelConfig.load_json(trained / "config.json") == toy_config()
    state = load_tensors(trained / "ckpt_final.litckpt")
    assert state["meta.epoch"][0] == 1
    assert (trained / "manifest.json").is_file()


def test_train_refuses_to_checkpoint_an_epoch_float32_cannot_hold(trained, tmp_path, capsys):
    state = load_tensors(trained / "ckpt_final.litckpt")
    state["meta.epoch"] = np.array([2 ** 24 - 1], dtype=np.float32)
    save_tensors(tmp_path / "late.litckpt", state)
    out = tmp_path / "out"
    code, err = run(capsys, "train", "--resume", str(tmp_path / "late.litckpt"),
                    "--epochs", str(2 ** 24), "--num-images", "8", "--batch-size", "4",
                    "--checkpoint-every", "0", "--out", str(out))
    assert_config_error(code, err, "cannot checkpoint epoch 16777216")
    assert not (out / "ckpt_final.litckpt").exists()


def test_train_names_the_layer_and_step_of_a_non_finite_value(trained, tmp_path, capsys):
    state = load_tensors(trained / "ckpt_final.litckpt")
    state["stage3.block1.attn.qkv.w"][0, 0] = np.nan
    save_tensors(tmp_path / "nan.litckpt", state)
    code, err = run(capsys, "train", "--resume", str(tmp_path / "nan.litckpt"),
                    "--epochs", "2", "--num-images", "8", "--batch-size", "4",
                    "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_NUMERIC
    assert len(err.strip().splitlines()) == 1, err
    assert "epoch 1 step 2: stage3.block1: non-finite values produced by matmul" in err


def test_audit_of_a_preset_passes_and_writes_its_reports(tmp_path, capsys):
    code, _ = run(capsys, "audit", "--preset", "lit-ti", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    with open(tmp_path / "cost_lit-ti.csv", newline="") as fh:
        rows = {row["layer"]: row for row in csv.DictReader(fh)}
    assert int(rows["total"]["params"]) == cost_report(preset("lit-ti")).total_params
    assert "group totals" in (tmp_path / "cost_lit-ti.txt").read_text()
    assert "overall: PASS" in (tmp_path / "audit.txt").read_text()


def test_verify_passes_and_writes_its_results(tmp_path, capsys):
    code, _ = run(capsys, "verify", "--kernel", "1", "--seeds", "1", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    results = json.loads((tmp_path / "verify.json").read_text())
    assert results["fc_vs_1x1"] < 1e-12
    assert [r["kernel"] for r in results["msa_vs_conv"]] == [1]
    assert all(r["ok"] for r in results["msa_vs_conv"] + results["receptive_field"])


def test_inspect_attn_writes_maps_and_values_of_each_query(tmp_path, capsys):
    code, _ = run(capsys, "inspect", "--mode", "attn", "--query", "0,1",
                  "--num-images", "2", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    heads = toy_config().stages[2].heads
    for head in range(heads):
        assert (tmp_path / f"attn_head{head}_query0_1.pgm").read_text().startswith("P2\n4 4\n")
    probs = read_column(tmp_path / "attention.csv", "prob").reshape(heads, 16)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_inspect_exports_each_image_independently_of_the_batch(tmp_path, capsys, monkeypatch,
                                                               trained):
    # an export of one image equals that image's part of a two-image export,
    # and the loaded running statistics stay as they are
    checkpoint = trained / "ckpt_final.litckpt"
    models = []

    def recording_build(*args, **kwargs):
        models.append(build(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(cli, "build", recording_build)
    images, _ = synthetic_dataset(2, seed=1)
    attn, leaves = {}, {}
    for name, batch in (("first", images[:1]), ("second", images[1:]), ("pair", images)):
        data = write_images(tmp_path / name, batch)
        out = tmp_path / f"{name}_attn"
        code, _ = run(capsys, "inspect", "--mode", "attn", "--query", "all",
                      "--checkpoint", str(checkpoint), "--data", data, "--out", str(out))
        assert code == cli.EXIT_OK
        attn[name] = read_column(out / "attention.csv", "prob")
        out = tmp_path / f"{name}_offsets"
        code, _ = run(capsys, "inspect", "--mode", "offsets", "--token", "1,0",
                      "--checkpoint", str(checkpoint), "--data", data, "--out", str(out))
        assert code == cli.EXIT_OK
        leaves[name] = read_column(out / "offsets_token1_0.csv", "image_y")
    assert np.allclose(attn["pair"], (attn["first"] + attn["second"]) / 2, rtol=0, atol=1e-6)
    # the offset trace follows the first image of the batch
    assert np.allclose(leaves["pair"], leaves["first"], rtol=0, atol=1e-4)
    assert not np.allclose(leaves["first"], leaves["second"], rtol=0, atol=1e-2)
    loaded = load_tensors(checkpoint)
    stats = [k for k in loaded if ".bn.running_" in k]
    assert len(models) == 6 and stats
    for model in models:
        state = model.named_state()
        assert all(np.array_equal(state[k], loaded[k]) for k in stats)

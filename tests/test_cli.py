"""The command line, run in-process: each command exits 0 and writes its
files, and bad input exits with a documented code and a one-line
message, never a traceback."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import litnet
from litnet import blocks, cli
from litnet.analyzer import cost_report
from litnet.checkpoint import load_tensors, save_tensors
from litnet.data import synthetic_dataset
from litnet.model import PRESET_NAMES, ModelConfig, build, preset, toy_config
from litnet.tensor import attention


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


@pytest.mark.parametrize("preset_name", ["all", "lit-s"])
def test_audit_refuses_a_preset_beside_a_config(tmp_path, capsys, preset_name):
    config = write_config(tmp_path / "toy.json", lambda d: None)
    code, err = run(capsys, "audit", "--preset", preset_name, "--config", config,
                    "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "give either --preset or --config, not both")


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
    save_tensors(ckpt, build(toy_config(), seed=0).named_state())
    code, err = run(capsys, "train", "--resume", str(ckpt), "--num-images", "4",
                    "--epochs", "1", "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "opt.patch_embed.w.m")
    assert not list((tmp_path / "out").iterdir())


def test_inspect_offsets_rejects_a_token_outside_the_final_grid(tmp_path, capsys):
    code, err = run(capsys, "inspect", "--mode", "offsets", "--token", "2,0",
                    "--num-images", "1", "--out", str(tmp_path))
    assert_config_error(code, err, "outside the 2x2 final-stage grid")


def uniform_config(tmp_path) -> str:
    config = tmp_path / "uniform.json"
    toy_config(merge_kind="uniform_conv").save_json(config)
    return str(config)


def test_inspect_offsets_on_uniform_merges_says_there_is_no_predictor(tmp_path, capsys):
    code, err = run(capsys, "inspect", "--mode", "offsets", "--config", uniform_config(tmp_path),
                    "--num-images", "1", "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "no offset predictor")


@pytest.mark.parametrize("argv,message", [
    (["attn", "--stage", "5"], "--stage must be 1-4, got 5"),
    (["attn", "--stage", "1"], "stage 1 has MLP blocks, which have no self-attention layers"),
    (["attn", "--block", "7"], "stage 3 has blocks 0-1, got block 7"),
    (["attn", "--query", "9,9"], "query (9, 9) outside the 4x4 stage-3 grid"),
    (["offsets", "--token", "2,0"], "token (2, 0) outside the 2x2 final-stage grid"),
    (["offsets", "--config", uniform_config], "uniform_conv merges have no offset predictor"),
], ids=["stage_5", "stage_1", "block_7", "query_9_9", "token_2_0", "uniform_merges"])
def test_inspect_refuses_a_flag_before_it_builds_the_model_or_reads_data(tmp_path, capsys,
                                                                          monkeypatch, argv,
                                                                          message):
    def never(*args, **kwargs):
        raise AssertionError("inspect went past its flag checks")

    monkeypatch.setattr(cli, "build", never)
    monkeypatch.setattr(cli, "_dataset", never)
    argv = [arg(tmp_path) if callable(arg) else arg for arg in argv]
    code, err = run(capsys, "inspect", "--mode", *argv, "--out", str(tmp_path / "out"))
    assert_config_error(code, err, message)


def test_inspect_offsets_writes_64_leaves(tmp_path, capsys):
    code, _ = run(capsys, "inspect", "--mode", "offsets", "--token", "1,1",
                  "--num-images", "2", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    with open(tmp_path / "offsets_token1_1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 64
    assert {int(r["leaf_index"]) for r in rows} == set(range(64))


@pytest.mark.parametrize("token,traced", [
    (["--token", "all"], ["0_0", "0_1", "1_0", "1_1"]),
    ([], ["1_1"]),
], ids=["all", "centre"])
def test_inspect_offsets_traces_every_token_or_the_centre(tmp_path, capsys, token, traced):
    code, _ = run(capsys, "inspect", "--mode", "offsets", *token, "--num-images", "1",
                  "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("offsets_token*.csv")) == \
        [f"offsets_token{t}.csv" for t in traced]


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


def test_inspect_checks_the_data_before_it_builds_the_model_or_reads_a_checkpoint(
        tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("inspect built the model before checking --num-images")

    monkeypatch.setattr(cli, "build", never)
    code, err = run(capsys, "inspect", "--mode", "attn", "--num-images", "0",
                    "--checkpoint", str(tmp_path / "missing.litckpt"),
                    "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "--num-images must be at least 1, got 0")


@pytest.mark.parametrize("command", [["train", "--epochs", "1"], ["inspect", "--mode", "attn"]])
def test_a_data_directory_without_images_is_a_config_error(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    np.save(data / "images.npy", np.zeros((0, 64, 64, 3), dtype=np.float32))
    np.save(data / "labels.npy", np.zeros(0, dtype=np.int64))
    code, err = run(capsys, *command, "--data", str(data), "--out", str(tmp_path / "out"))
    assert_config_error(code, err, "holds no images")


MALFORMED_DATA = {  # case: (file, how it is written, fragment of the error)
    "garbage_bytes": ("images.npy", lambda p: p.write_bytes(b"not an array"),
                      "images.npy is not a .npy array"),
    "object_array": ("images.npy", lambda p: np.save(p, np.array([1, "a"], dtype=object)),
                     "images.npy is not a .npy array"),
    "strings": ("images.npy", lambda p: np.save(p, np.full((2, 64, 64, 3), "a")),
                "images.npy does not hold an array of real numbers"),
    "fractional_labels": ("labels.npy", lambda p: np.save(p, np.array([0.5, 1.7])),
                          "labels.npy holds labels that are not whole numbers"),
}


@pytest.mark.parametrize("case", MALFORMED_DATA)
@pytest.mark.parametrize("command", [["train", "--epochs", "1"], ["inspect", "--mode", "attn"]])
def test_a_malformed_data_file_is_a_config_error(tmp_path, capsys, command, case):
    data = tmp_path / "data"
    data.mkdir()
    np.save(data / "images.npy", np.zeros((2, 64, 64, 3), dtype=np.float32))
    np.save(data / "labels.npy", np.array([0, 1]))
    name, write, fragment = MALFORMED_DATA[case]
    write(data / name)
    code, err = run(capsys, *command, "--data", str(data), "--out", str(tmp_path / "out"))
    assert_config_error(code, err, fragment)
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
@pytest.mark.parametrize("command", [["train", "--epochs", "1"], ["inspect", "--mode", "attn"]])
def test_a_non_finite_pixel_is_a_config_error(tmp_path, capsys, command, value):
    images = np.zeros((2, 64, 64, 3), dtype=np.float32)
    images[1, 5, 7, 2] = value
    out = tmp_path / "out"
    code, err = run(capsys, *command, "--data", write_images(tmp_path / "data", images),
                    "--out", str(out))
    assert_config_error(code, err, "images.npy holds non-finite pixels")
    assert "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("mode,maps", [("attn", 1), ("offsets", 0)])
def test_inspect_builds_only_the_attention_map_it_writes(tmp_path, capsys, monkeypatch, mode, maps):
    asked = []

    def counted(*args, with_probs=False):
        asked.append(with_probs)
        return attention(*args, with_probs=with_probs)

    monkeypatch.setattr(blocks, "attention", counted)
    code, err = run(capsys, "inspect", "--mode", mode, "--num-images", "1", "--out", str(tmp_path))
    assert code == cli.EXIT_OK, err
    assert len(asked) == 3  # the toy layout's transformer blocks
    assert sum(asked) == maps


def test_inspect_runs_a_preset_on_synthetic_data(tmp_path, capsys):
    # the presets' 1000-class heads take the synthetic data's 10 classes
    code, err = run(capsys, "inspect", "--mode", "attn", "--preset", "lit-ti",
                    "--num-images", "1", "--out", str(tmp_path))
    assert code == cli.EXIT_OK, err
    assert (tmp_path / "attention.csv").is_file()


def test_inspect_refuses_a_checkpoint_of_another_merge_kind(tmp_path, capsys):
    ckpt = tmp_path / "dtm.litckpt"
    save_tensors(ckpt, build(toy_config(), seed=0).named_state())
    code, err = run(capsys, "inspect", "--mode", "attn", "--config", uniform_config(tmp_path),
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


def test_the_manifest_records_the_version_of_the_code_that_ran(trained):
    manifest = json.loads((trained / "manifest.json").read_text())
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^\[project\][^[]*?^version = "([^"]+)"', pyproject, re.M | re.S)
    assert manifest["version"] == litnet.__version__ == declared.group(1)


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


def test_train_refuses_a_checkpoint_saved_past_its_epoch_budget(trained, tmp_path, capsys):
    state = load_tensors(trained / "ckpt_final.litckpt")
    state["meta.epoch"] = np.array([3], dtype=np.float32)
    save_tensors(tmp_path / "ahead.litckpt", state)
    out = tmp_path / "out"
    code, err = run(capsys, "train", "--resume", str(tmp_path / "ahead.litckpt"),
                    "--epochs", "1", "--num-images", "8", "--batch-size", "4",
                    "--out", str(out))
    assert_config_error(code, err, "saved at epoch 3, outside the 0-1 epochs of this run")
    assert not list(out.iterdir())


def test_train_resumes_a_checkpoint_saved_at_its_last_epoch(trained, tmp_path, capsys):
    out = tmp_path / "out"
    code, _ = run(capsys, "train", "--resume", str(trained / "ckpt_final.litckpt"),
                  "--epochs", "1", "--num-images", "8", "--batch-size", "4",
                  "--out", str(out))
    assert code == cli.EXIT_OK
    state = load_tensors(out / "ckpt_final.litckpt")
    assert state["meta.epoch"][0] == 1 and state["opt.step"][0] == 2
    assert (out / "config.json").is_file() and (out / "manifest.json").is_file()


def test_train_names_the_layer_and_step_of_a_non_finite_value(trained, tmp_path, capsys):
    state = load_tensors(trained / "ckpt_final.litckpt")
    state["stage3.block1.attn.qkv.w"][0, 0] = np.nan
    save_tensors(tmp_path / "nan.litckpt", state)
    code, err = run(capsys, "train", "--resume", str(tmp_path / "nan.litckpt"),
                    "--epochs", "2", "--num-images", "8", "--batch-size", "4",
                    "--out", str(tmp_path / "out"))
    assert code == cli.EXIT_NUMERIC
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("numeric error: epoch 1 step 2: stage3.block1: "
                          "non-finite values produced by matmul"), err


def u64(*values: int) -> bytes:
    return b"".join(v.to_bytes(8, "little") for v in values)


def setitem(name: str, value):
    return lambda state: state.__setitem__(name, np.asarray(value, dtype=np.float32))


def pop(*names: str):
    return lambda state: [state.pop(name) for name in names]


# each edit turns the trained checkpoint into a malformed one: bytes are
# appended to the file as one more record, a function edits the loaded state
MALFORMED_CHECKPOINTS = {
    "name_not_utf8": (u64(2) + b"\xff\xfe" + u64(1, 1) + bytes(4), "is not valid UTF-8"),
    "extent_2_63": (u64(1) + b"x" + u64(1, 2 ** 63), "truncated data for tensor 'x'"),
    "step_twice": (u64(8) + b"opt.step" + u64(1, 1) + bytes(4), "duplicate tensor name 'opt.step'"),
    "step_0d": (setitem("opt.step", 2.0), "opt.step must hold one value, got shape ()"),
    "epoch_0d": (setitem("meta.epoch", 1.0), "meta.epoch must hold one value, got shape ()"),
    "epoch_nan": (setitem("meta.epoch", [np.nan]), "meta.epoch must be an integer in 0-16777215, got nan"),
    "epoch_half": (setitem("meta.epoch", [0.5]), "meta.epoch must be an integer in 0-16777215, got 0.5"),
    "step_negative": (setitem("opt.step", [-3.0]), "opt.step must be an integer in 0-16777215, got -3.0"),
    "moment_wrong_size": (setitem("opt.head.w.m", np.zeros(3)),
                          "opt.head.w.m: checkpoint shape (3,) does not match model shape (64, 10)"),
    "stray_moment": (setitem("opt.bogus.m", np.zeros((7, 3))), "does not own: ['opt.bogus.m']"),
    "stray_meta": (setitem("meta.anything", [1.0]), "does not own: ['meta.anything']"),
    "flat_rel_bias": (setitem("stage3.block0.attn.rel_bias", np.zeros((3, 49))),
                      "stage3.block0.attn.rel_bias: checkpoint shape (3, 49) does not match "
                      "model shape (3, 7, 7)"),
    "mean_without_var": (pop("stage2.merge.bn.running_var"),
                         "holds stage2.merge.bn.running_mean without stage2.merge.bn.running_var"),
    "var_without_mean": (pop("stage3.merge.bn.running_mean"),
                         "holds stage3.merge.bn.running_var without stage3.merge.bn.running_mean"),
    "mean_of_3": (setitem("stage2.merge.bn.running_mean", np.zeros(3)),
                  "stage2.merge.bn.running_mean: checkpoint shape (3,) does not match model shape (32,)"),
    "stage3_stats_missing": (pop("stage3.merge.bn.running_mean", "stage3.merge.bn.running_var"),
                             "checkpoint holds running statistics for the stage-2 merge "
                             "but not the stage-3 one"),
}


@pytest.mark.parametrize("argv", [
    ("train", "--epochs", "2", "--num-images", "8", "--batch-size", "4", "--resume"),
    ("inspect", "--mode", "attn", "--num-images", "1", "--checkpoint"),
], ids=["train", "inspect"])
@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_a_malformed_checkpoint_is_a_one_line_config_error(trained, tmp_path, capsys, argv, case):
    edit, fragment = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "bad.litckpt"
    if isinstance(edit, bytes):
        path.write_bytes((trained / "ckpt_final.litckpt").read_bytes() + edit)
    else:
        state = load_tensors(trained / "ckpt_final.litckpt")
        edit(state)
        save_tensors(path, state)
    code, err = run(capsys, *argv, str(path), "--out", str(tmp_path / "out"))
    assert_config_error(code, err, fragment)
    assert "Traceback" not in err


def test_audit_of_a_preset_passes_and_writes_its_reports(tmp_path, capsys):
    code, _ = run(capsys, "audit", "--preset", "lit-ti", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    with open(tmp_path / "cost_lit-ti.csv", newline="") as fh:
        rows = {row["layer"]: row for row in csv.DictReader(fh)}
    assert int(rows["total"]["params"]) == cost_report(preset("lit-ti")).total_params
    assert "group totals" in (tmp_path / "cost_lit-ti.txt").read_text()
    assert "overall: PASS" in (tmp_path / "audit.txt").read_text()


def test_audit_of_all_presets_writes_a_report_of_each(tmp_path, capsys):
    code = cli.main(["audit", "--preset", "all", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    for name in PRESET_NAMES:
        assert (tmp_path / f"cost_{name}.csv").is_file() and (tmp_path / f"cost_{name}.txt").is_file()
    text = (tmp_path / "audit.txt").read_text()
    assert capsys.readouterr().out == text
    assert all(f"\n{name} " in text for name in PRESET_NAMES) and text.endswith("overall: PASS\n")


def test_audit_away_from_224_px_prints_one_summary_line_per_preset(tmp_path, capsys):
    code = cli.main(["audit", "--preset", "all", "--resolution", "256", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(PRESET_NAMES)
    for name, line in zip(PRESET_NAMES, lines):
        flops = cost_report(preset(name), 256).backbone_flops
        assert line.endswith(f"flops {flops / 1e9:.4f} G at 256px")
    assert not (tmp_path / "audit.txt").exists()


def test_verify_passes_and_writes_its_results(tmp_path, capsys):
    code, _ = run(capsys, "verify", "--kernel", "1", "--seeds", "1", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    results = json.loads((tmp_path / "verify.json").read_text())
    assert results["fc_vs_1x1"] < 1e-12
    assert [r["kernel"] for r in results["msa_vs_conv"]] == [1]
    assert all(r["ok"] for r in results["msa_vs_conv"] + results["receptive_field"])


@pytest.mark.parametrize("argv,fragment", [
    (["--kernel", "-1"], "--kernel must lie in 1-4"),
    (["--kernel", "0"], "--kernel must lie in 1-4"),
    (["--kernel", "1", "5"], "--kernel must lie in 1-4 (a larger kernel has no interior "
                             "pixel on the 4x4 grid), got 5"),
    (["--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["--seeds", "-2"], "--seeds must be at least 1, got -2"),
], ids=["kernel_negative", "kernel_zero", "kernel_past_the_grid", "seeds_zero",
        "seeds_negative"])
def test_verify_rejects_kernels_and_seed_counts_out_of_range(tmp_path, capsys, argv, fragment):
    code, err = run(capsys, "verify", *argv, "--out", str(tmp_path))
    assert_config_error(code, err, fragment)
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("query", ["100,100", "0,5", "-1,0"])
def test_inspect_attn_rejects_a_query_outside_the_stage_grid(tmp_path, capsys, query):
    code, err = run(capsys, "inspect", "--mode", "attn", f"--query={query}",
                    "--num-images", "1", "--out", str(tmp_path))
    y, x = query.split(",")
    assert_config_error(code, err, f"query ({y}, {x}) outside the 4x4 stage-3 grid")
    assert not (tmp_path / "attention.csv").exists()


@pytest.mark.parametrize("block", ["7", "-1"])
def test_inspect_attn_names_the_block_range_of_the_stage(tmp_path, capsys, block):
    code, err = run(capsys, "inspect", "--mode", "attn", "--block", block,
                    "--num-images", "1", "--out", str(tmp_path))
    assert_config_error(code, err, f"stage 3 has blocks 0-1, got block {block}")
    assert not (tmp_path / "attention.csv").exists()


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


def nan_checkpoint(tmp_path, trained) -> str:
    state = load_tensors(trained / "ckpt_final.litckpt")
    state["stage3.block0.attn.qkv.w"][0, 0] = np.nan
    save_tensors(tmp_path / "nan.litckpt", state)
    return str(tmp_path / "nan.litckpt")


def over_budget_config(tmp_path, trained) -> str:
    data = preset("lit-s").to_dict()
    data["stages"][0]["channels"] *= 2
    path = tmp_path / "lit-s.json"  # the file name picks the budget it is audited against
    path.write_text(json.dumps(data))
    return str(path)


def nan_data(tmp_path, trained) -> str:
    images = np.zeros((1, 64, 64, 3), dtype=np.float32)
    images[0, 9, 9, 0] = np.nan
    return write_images(tmp_path / "data", images)


def float32_overflow_data(tmp_path, trained) -> str:
    # finite as float64, but inf once cast to float32
    images = np.zeros((1, 64, 64, 3))
    images[0, 9, 9, 0] = 1e39
    return write_images(tmp_path / "data", images)


def toy_config_with(stage: int | None, **changes):
    """A function of (tmp_path, trained) that writes the toy config with
    ``changes`` to stage ``stage``, or to the config itself for None, and
    returns the file's path."""
    def write(tmp_path, trained) -> str:
        data = toy_config().to_dict()
        (data if stage is None else data["stages"][stage - 1]).update(changes)
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(data))
        return str(path)
    return write


def small_image_data(tmp_path, trained) -> str:
    return write_images(tmp_path / "data", np.zeros((2, 32, 32, 3), dtype=np.float32))


def zero_pixel_data(tmp_path, trained) -> str:
    return write_images(tmp_path / "data", np.zeros((2, 0, 0, 3), dtype=np.float32))


def label_99_data(tmp_path, trained) -> str:
    path = write_images(tmp_path / "data", np.zeros((2, 64, 64, 3), dtype=np.float32))
    np.save(tmp_path / "data" / "labels.npy", np.array([0, 99]))
    return path


# case: (argv, in which a function of (tmp_path, trained) stands for the path
# it writes; exit code; message)
BAD_INPUT = {
    "audit_resolution": (["audit", "--resolution", "100"], cli.EXIT_CONFIG,
                         "config error: resolution 100 is not divisible by the total "
                         "downsampling factor 32"),
    "audit_resolution_zero": (["audit", "--resolution", "0"], cli.EXIT_CONFIG,
                              "config error: resolution 0 must be at least the total "
                              "downsampling factor 32"),
    "audit_resolution_negative": (["audit", "--resolution", "-32"], cli.EXIT_CONFIG,
                                  "config error: resolution -32 must be at least the total "
                                  "downsampling factor 32"),
    "audit_resolution_48": (["audit", "--resolution", "48"], cli.EXIT_CONFIG,
                            "config error: resolution 48 is not divisible by the total "
                            "downsampling factor 32"),
    "audit_over_budget": (["audit", "--config", over_budget_config], cli.EXIT_TOLERANCE,
                          "overall: FAIL"),
    "audit_stage1_channels_zero": (["audit", "--config", toy_config_with(1, channels=0)],
                                   cli.EXIT_CONFIG, "stage 1: channels must be >= 1, got 0"),
    "audit_stage3_heads_negative": (["audit", "--config", toy_config_with(3, heads=-3)],
                                    cli.EXIT_CONFIG,
                                    "stage 3: transformer blocks need heads >= 1, got -3"),
    "verify_kernel": (["verify", "--kernel", "9"], cli.EXIT_CONFIG,
                      "config error: --kernel must lie in 1-4"),
    "train_missing_resume": (["train", "--epochs", "1", "--num-images", "4", "--resume",
                              lambda tmp_path, trained: str(tmp_path / "missing.litckpt")],
                             cli.EXIT_CONFIG, "error: [Errno 2] No such file or directory"),
    "train_small_images": (["train", "--epochs", "1", "--data", small_image_data],
                           cli.EXIT_CONFIG,
                           "config error: model was built for 64x64 input, got 32x32"),
    "train_label_out_of_range": (["train", "--epochs", "1", "--data", label_99_data],
                                 cli.EXIT_CONFIG,
                                 "config error: labels must lie in [0, 10), got 0 to 99"),
    "train_stage1_channels_negative": (["train", "--epochs", "1", "--num-images", "1",
                                        "--config", toy_config_with(1, channels=-16)],
                                       cli.EXIT_CONFIG, "stage 1: channels must be >= 1, got -16"),
    "train_zero_pixel_images": (["train", "--epochs", "1", "--data", zero_pixel_data],
                                cli.EXIT_CONFIG, "config error: images.npy must have H and W "
                                "of at least 1, got (2, 0, 0, 3)"),
    "train_float32_overflow_pixel": (["train", "--epochs", "1", "--data", float32_overflow_data],
                                     cli.EXIT_CONFIG, "images.npy holds non-finite pixels"),
    # 2**24 epochs of one step each: refused before the first step, not at the last one
    "train_epochs_past_the_checkpoint_counters": (["train", "--epochs", str(2 ** 24),
                                                   "--num-images", "1"], cli.EXIT_CONFIG,
                                                  "config error: cannot checkpoint epoch 16777216"),
    # numpy refuses each allocation at once, without touching memory: 44.7 TiB
    # of images, a 46.6 TiB classifier head and a 96 TiB relative-bias table
    "train_images_past_memory": (["train", "--epochs", "1", "--num-images", "1000000000"],
                                 cli.EXIT_CONFIG, "error: Unable to allocate 44.7 TiB"),
    "inspect_classes_past_memory": (["inspect", "--mode", "attn", "--config",
                                     toy_config_with(None, num_classes=10 ** 11)],
                                    cli.EXIT_CONFIG, "error: Unable to allocate 46.6 TiB"),
    "inspect_resolution_past_memory": (["inspect", "--mode", "attn", "--config",
                                        toy_config_with(None, resolution=2 ** 24)],
                                       cli.EXIT_CONFIG, "error: Unable to allocate 4.00 PiB"),
    "inspect_query_not_a_point": (["inspect", "--mode", "attn", "--query", "1;2"],
                                  cli.EXIT_CONFIG, "config error: --query must be 'y,x', got '1;2'"),
    "inspect_token_not_a_point": (["inspect", "--mode", "offsets", "--token", "a,b"],
                                  cli.EXIT_CONFIG, "config error: --token must be 'y,x', got 'a,b'"),
    "inspect_nan_pixel": (["inspect", "--mode", "offsets", "--data", nan_data], cli.EXIT_CONFIG,
                          "images.npy holds non-finite pixels"),
    "inspect_float32_overflow_pixel": (["inspect", "--mode", "attn", "--data",
                                        float32_overflow_data], cli.EXIT_CONFIG,
                                       "images.npy holds non-finite pixels"),
    "inspect_zero_pixel_images": (["inspect", "--mode", "attn", "--data", zero_pixel_data],
                                  cli.EXIT_CONFIG, "config error: images.npy must have H and W "
                                  "of at least 1, got (2, 0, 0, 3)"),
    "inspect_stage1_has_no_attention": (["inspect", "--mode", "attn", "--stage", "1"],
                                        cli.EXIT_CONFIG, "config error: stage 1 has MLP blocks, "
                                        "which have no self-attention layers"),
    "inspect_stage1_channels_zero": (["inspect", "--mode", "attn", "--num-images", "1",
                                      "--config", toy_config_with(1, channels=0)],
                                     cli.EXIT_CONFIG, "stage 1: channels must be >= 1, got 0"),
    "inspect_nan_weight": (["inspect", "--mode", "attn", "--num-images", "1", "--checkpoint",
                            nan_checkpoint], cli.EXIT_NUMERIC,
                           "numeric error: stage3.block0: non-finite values produced by matmul"),
    # the token is refused before the forward pass would meet the NaN weight
    "inspect_token_off_the_grid": (["inspect", "--mode", "offsets", "--num-images", "1",
                                    "--token", "2,0", "--checkpoint", nan_checkpoint],
                                   cli.EXIT_CONFIG,
                                   "config error: token (2, 0) outside the 2x2 final-stage grid"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_to_any_command_exits_with_a_documented_code(trained, tmp_path, capsys, case):
    argv, expected, message = BAD_INPUT[case]
    argv = [arg(tmp_path, trained) if callable(arg) else arg for arg in argv]
    out = tmp_path / "out"
    code = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == expected
    assert "Traceback" not in captured.err
    if code == cli.EXIT_TOLERANCE:  # a failed audit is a result, reported on stdout
        assert captured.err == "" and message in captured.out
    else:
        assert len(captured.err.strip().splitlines()) == 1, captured.err
        assert message in captured.err
        assert not list(out.iterdir())

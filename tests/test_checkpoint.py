"""The named-tensor container: format details and bit-exact round-trips."""

import numpy as np
import pytest

from helpers import micro_config
from litnet.checkpoint import MAGIC, load_tensors, save_tensors
from litnet.errors import ConfigError, ValidationError
from litnet.model import build, toy_config


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "b/with/slashes": rng.normal(size=(2, 2, 2)).astype(np.float32),
        "scalar": np.array(1.5, dtype=np.float32),
        "empty_axis": np.zeros((0, 4), dtype=np.float32),
    }
    path = tmp_path / "t.litckpt"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "t.litckpt"
    save_tensors(path, {"x": np.array([1.0, 2.0], dtype=np.float32)})
    blob = path.read_bytes()
    assert blob[:8] == MAGIC == b"LITCKPT1"
    assert int.from_bytes(blob[8:16], "little") == 1       # name length
    assert blob[16:17] == b"x"
    assert int.from_bytes(blob[17:25], "little") == 1      # rank
    assert int.from_bytes(blob[25:33], "little") == 2      # extent
    assert np.frombuffer(blob[33:], dtype="<f4").tolist() == [1.0, 2.0]


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.litckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValidationError):
        load_tensors(path)


def test_rejects_truncated_file(tmp_path):
    path = tmp_path / "t.litckpt"
    save_tensors(path, {"x": np.ones((4, 4), dtype=np.float32)})
    (tmp_path / "cut.litckpt").write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        load_tensors(tmp_path / "cut.litckpt")


def record(name: bytes, shape: tuple[int, ...], data: bytes) -> bytes:
    """One raw container record, written without ``save_tensors``'s checks."""
    u64 = [n.to_bytes(8, "little") for n in (len(name), len(shape), *shape)]
    return u64[0] + name + b"".join(u64[1:]) + data


def test_rejects_a_tensor_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.litckpt"
    path.write_bytes(MAGIC + record(b"\xff\xfe", (1,), bytes(4)))
    with pytest.raises(ValidationError, match="name at byte 16 is not valid UTF-8"):
        load_tensors(path)


@pytest.mark.parametrize("shape,fragment", [
    ((2 ** 63,), "truncated data for tensor 'x'"),
    ((2 ** 64 - 1, 2 ** 64 - 1), "truncated data for tensor 'x'"),
    ((0, 2 ** 63), "numpy cannot hold"),
    ((1,) * 65, "numpy cannot hold"),
], ids=["extent_2_63", "extents_2_64_squared", "zero_beside_2_63", "rank_65"])
def test_rejects_extents_the_file_or_numpy_cannot_hold(tmp_path, shape, fragment):
    path = tmp_path / "t.litckpt"
    path.write_bytes(MAGIC + record(b"x", shape, bytes(8)))
    with pytest.raises(ValidationError, match=fragment):
        load_tensors(path)


def test_model_state_round_trip_bit_exact(tmp_path):
    model = build(micro_config(), seed=3)
    model.forward(np.random.default_rng(0).normal(size=(2, 32, 32, 3)), mode="train")
    path = tmp_path / "model.litckpt"
    model.save(path)

    other = build(micro_config(), seed=99)
    other.load(path)
    for name, arr in model.named_state().items():
        assert other.named_state()[name].tobytes() == np.asarray(arr, dtype=np.float32).tobytes(), name

    # logits agree bit for bit after the round trip
    x = np.random.default_rng(1).normal(size=(1, 32, 32, 3)).astype(np.float32)
    a = model.forward(x, mode="eval").data
    b = other.forward(x, mode="eval").data
    assert a.tobytes() == b.tobytes()


def test_a_dtm_checkpoint_does_not_load_into_a_uniform_merge_model(tmp_path):
    path = tmp_path / "dtm.litckpt"
    build(toy_config(), seed=0).save(path)
    uniform = build(toy_config(merge_kind="uniform_conv"), seed=0)
    with pytest.raises(ConfigError, match=r"does not own: \['stage2\.merge\.offset_conv\.w'.*\.\.\.$"):
        uniform.load(path)


# tests/test_cli.py refuses opt.bogus.m and meta.anything end to end
@pytest.mark.parametrize("name", ["opt.head.w.s", "opt.epoch", "meta.step"])
def test_load_state_refuses_a_training_record_a_checkpoint_never_writes(name):
    model = build(toy_config(), seed=0)
    state = model.named_state()
    state["opt.head.w.m"] = np.zeros((64, 10), np.float32)  # a record it does write
    state[name] = np.zeros((7, 3), np.float32)
    with pytest.raises(ConfigError, match=rf"does not own: \['{name}'\]$"):
        model.load_state(state)


def test_failed_save_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "t.litckpt"
    save_tensors(path, {"x": np.ones((4, 4), dtype=np.float32)})
    before = path.read_bytes()
    # the first record is written before the second fails to convert
    with pytest.raises(ValueError):
        save_tensors(path, {"x": np.zeros(3, dtype=np.float32), "bad": "not a number"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.litckpt"]

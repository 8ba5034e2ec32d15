from __future__ import annotations

import json
import re

import numpy as np
import pytest

from senticast.checkpoint import CHECKPOINT_VERSION, load_checkpoint, restore_model, save_checkpoint
from senticast.errors import CheckpointError
from senticast.models import TrainConfig
from senticast.training import build_model
from senticast.windows import FeatureSetSpec, Normalizer


def make_parts(kind="tft_lite"):
    cfg = TrainConfig(
        lookback=6, horizon=2, hidden_size=8, n_heads=2, hidden_continuous_size=4,
        dropout=0.1, seed=5, epochs=1,
    )
    spec = FeatureSetSpec("HLOVS")
    normalizer = Normalizer(
        tickers=["AAA", "BBB"],
        means=np.random.default_rng(0).normal(size=(2, 6)),
        stds=np.abs(np.random.default_rng(1).normal(size=(2, 6))) + 0.5,
        train_rows=[40, 44],
    )
    model = build_model(kind, cfg, 6, 2, np.random.default_rng(7))
    # nudge weights off their init so the round trip is nontrivial
    for p in model.parameters():
        p.data = p.data + np.random.default_rng(11).normal(0, 0.01, p.data.shape)
    return model, cfg, spec, normalizer


class TestRoundTrip:
    def test_forward_pass_identical_after_reload(self, tmp_path):
        model, cfg, spec, normalizer = make_parts()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        restored = restore_model(load_checkpoint(path))

        rng = np.random.default_rng(3)
        past = rng.normal(size=(4, 6, 6))
        known = np.zeros((4, 2, 6))
        known[:, :, 2] = 1.0
        company = np.asarray([0, 1, 0, 1])
        a = model.forward_batch(past, known, company).data
        b = restored.forward_batch(past, known, company).data
        assert np.array_equal(a, b)  # bit-for-bit

    def test_tensor_values_bit_exact(self, tmp_path):
        model, cfg, spec, normalizer = make_parts("nlinear")
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        checkpoint = load_checkpoint(path)
        for p in model.parameters():
            assert np.array_equal(checkpoint.tensors[p.name], p.data)

    def test_normalizer_and_config_survive(self, tmp_path):
        model, cfg, spec, normalizer = make_parts()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        checkpoint = load_checkpoint(path)
        assert checkpoint.config == cfg
        assert checkpoint.feature_spec == spec
        assert checkpoint.normalizer.tickers == ["AAA", "BBB"]
        assert np.array_equal(checkpoint.normalizer.means, normalizer.means)
        assert checkpoint.normalizer.train_rows == [40, 44]

    def test_save_is_deterministic(self, tmp_path):
        model, cfg, spec, normalizer = make_parts()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(p1, model, cfg, spec, normalizer, n_companies=2)
        save_checkpoint(p2, model, cfg, spec, normalizer, n_companies=2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_with_17_digit_floats_loads_exactly(self, tmp_path):
        # Early files were written with every float at 17 significant
        # digits; those still load to the doubles that were saved.
        model, cfg, spec, normalizer = make_parts()
        model.parameters()[0].data.reshape(-1)[0] = 0.1
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        number = re.compile(r"(?<=[\[,:])-?\d[\d.eE+-]*(?=[,\]}])")  # ints come back unchanged
        text = number.sub(lambda m: format(float(m.group()), ".17g"), path.read_text())
        assert "0.10000000000000001" in text
        path.write_text(text)
        checkpoint = load_checkpoint(path)
        assert checkpoint.config == cfg
        assert np.array_equal(checkpoint.normalizer.means, normalizer.means)
        assert np.array_equal(checkpoint.normalizer.stds, normalizer.stds)
        for p in model.parameters():
            assert np.array_equal(checkpoint.tensors[p.name], p.data)


def saved_doc(tmp_path) -> tuple:
    """A saved checkpoint's path and its parsed JSON, for tests that edit the file."""
    model, cfg, spec, normalizer = make_parts()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
    return path, json.loads(path.read_text())


class TestFormat:
    def test_column_list_is_stored_once(self, tmp_path):
        _, doc = saved_doc(tmp_path)
        assert doc["format_version"] == CHECKPOINT_VERSION == 2
        assert doc["feature_set"] == {"kind": "HLOVS", "embedding_dim": 0}
        assert set(doc["normalizer"]) == {"tickers", "means", "stds", "train_rows"}
        assert "optimizer" not in doc["train_config"]

    def test_version_1_file_rejected_naming_version(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        doc["format_version"] = 1
        doc["train_config"]["optimizer"] = "adam"
        doc["normalizer"]["columns"] = FeatureSetSpec("HLOVS").columns
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="unsupported.*version 1"):
            load_checkpoint(path)


# Edits to a saved checkpoint's normalizer (HLOVS, two tickers) that load
# must refuse: (id, edit, the field the error names).  `predict` on such a
# file is tested in test_cli.py for a narrower kind, a NaN mean, an
# infinite or zero std and an extra train_rows entry.
NORMALIZER_FAULTS = [
    ("kind-wider", lambda doc: doc["feature_set"].update(kind="HLOVE", embedding_dim=4), "means"),
    ("means-ticker-missing", lambda doc: doc["normalizer"]["means"].pop(), "means"),
    ("stds-extra-ticker", lambda doc: doc["normalizer"]["stds"].append([1.0] * 6), "stds"),
    ("stds-negative", lambda doc: doc["normalizer"]["stds"][0].__setitem__(0, -1.0), "stds"),
    ("means-row-short", lambda doc: doc["normalizer"]["means"][1].pop(), "means row 1 has 5 values,"),
    ("stds-row-long", lambda doc: doc["normalizer"]["stds"][0].append(1.0), "stds row 0 has 7 values,"),
    ("train-rows-short", lambda doc: doc["normalizer"]["train_rows"].pop(), "train_rows"),
    ("train-rows-zero", lambda doc: doc["normalizer"]["train_rows"].__setitem__(0, 0), "train_rows"),
]


class TestCorruption:
    def test_truncated_file_raises_without_partial_model(self, tmp_path):
        model, cfg, spec, normalizer = make_parts()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        data = path.read_text()
        path.write_text(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated|unreadable"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        doc["format_version"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="unsupported.*version 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, field", [case[1:] for case in NORMALIZER_FAULTS],
                             ids=[case[0] for case in NORMALIZER_FAULTS])
    def test_normalizer_fault_rejected_naming_field(self, tmp_path, edit, field):
        path, doc = saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity
        with pytest.raises(CheckpointError, match=f"normalizer {field} "):
            load_checkpoint(path)

    def test_shape_mismatch_detected(self, tmp_path):
        model, cfg, spec, normalizer = make_parts()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        doc = json.loads(path.read_text())
        doc["tensors"][0]["shape"] = [1, 1]
        doc["tensors"][0]["values"] = [0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="shape"):
            restore_model(load_checkpoint(path))

    def test_missing_tensor_detected(self, tmp_path):
        model, cfg, spec, normalizer = make_parts()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        doc = json.loads(path.read_text())
        doc["tensors"] = doc["tensors"][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="structure"):
            restore_model(load_checkpoint(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_value_rejected_naming_tensor(self, tmp_path, token):
        model, cfg, spec, normalizer = make_parts()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        doc = json.loads(path.read_text())
        name = doc["tensors"][3]["name"]
        doc["tensors"][3]["values"][0] = "@"
        path.write_text(json.dumps(doc).replace('"@"', token))
        with pytest.raises(CheckpointError, match=re.escape(repr(name)) + ".*non-finite"):
            load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        model, cfg, spec, normalizer = make_parts()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        doc = json.loads(path.read_text())
        name = doc["tensors"][2]["name"]
        doc["tensors"].append(doc["tensors"][2])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=re.escape(repr(name)) + ".*twice"):
            load_checkpoint(path)

    def test_non_checkpoint_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

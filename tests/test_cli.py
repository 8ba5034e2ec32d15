from __future__ import annotations

import json
import shutil
from datetime import date
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    INVALID_TRAIN_CASES,
    INVALID_TRAIN_IDS,
    MALFORMED_CASES,
    MALFORMED_IDS,
    SETTING_CASES,
    SETTING_IDS,
)
from senticast import cli
from senticast.cli import EXIT_MISSING, EXIT_OK, EXIT_VALIDATION, main
from senticast.text import DailyTextFeatures

FIXTURE_CONFIG = str(Path(__file__).parent / "fixtures" / "pipeline" / "config.cfg")


def run(command: str, out: Path, *extra: str) -> int:
    return main([command, "--config", FIXTURE_CONFIG, "--output", str(out), *extra])


def run_pipeline(out: Path, *extra: str) -> None:
    for command in ("preprocess", "features", "analyze", "train", "predict", "evaluate", "report"):
        assert run(command, out, *extra) == EXIT_OK, command


@pytest.fixture(scope="module")
def trained(tmp_path_factory) -> Path:
    """An output directory after preprocess, features and train on the fixture."""
    out = tmp_path_factory.mktemp("trained") / "out"
    for command in ("preprocess", "features", "train"):
        assert run(command, out) == EXIT_OK, command
    return out


def edited_checkpoint(trained: Path, tmp_path: Path, edit) -> Path:
    """A copy of `trained` whose checkpoint JSON went through `edit`."""
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / "train" / "checkpoint.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity
    return out


class TestPrerequisites:
    def test_evaluate_before_train_exits_2_naming_checkpoint(self, tmp_path, caplog):
        assert run("evaluate", tmp_path / "out") == EXIT_MISSING
        assert "checkpoint" in caplog.text

    def test_predict_before_train_exits_2_naming_checkpoint(self, tmp_path, caplog):
        out = tmp_path / "out"
        assert run("preprocess", out) == EXIT_OK
        assert run("features", out) == EXIT_OK
        assert run("predict", out) == EXIT_MISSING
        assert "checkpoint" in caplog.text

    def test_predict_with_non_finite_checkpoint_exits_3_naming_tensor(self, trained, tmp_path, caplog):
        name = json.loads((trained / "train" / "checkpoint.json").read_text())["tensors"][0]["name"]
        out = edited_checkpoint(trained, tmp_path, lambda doc: doc["tensors"][0]["values"].__setitem__(0, float("nan")))
        assert run("predict", out) == EXIT_VALIDATION
        assert repr(name) in caplog.text

    # Checkpoints whose normalizer does not fit the fixture's HLOVS feature
    # set over two tickers: (id, edit, the field the error names).
    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["feature_set"].update(kind="HLOV"), "means"),
            (lambda doc: doc["normalizer"]["means"][1].__setitem__(0, float("nan")), "means"),
            (lambda doc: doc["normalizer"]["stds"][0].__setitem__(4, float("inf")), "stds"),
            (lambda doc: doc["normalizer"]["stds"][0].__setitem__(4, float("-inf")), "stds"),
            (lambda doc: doc["normalizer"]["stds"][1].__setitem__(4, 0.0), "stds"),
            (lambda doc: doc["normalizer"]["train_rows"].append(100), "train_rows"),
            (lambda doc: doc["normalizer"]["means"][1].pop(), "means row 1"),
        ],
        ids=[
            "kind-over-wider-normalizer", "nan-mean", "inf-std", "minus-inf-std", "zero-std", "extra-train-rows",
            "ragged-means",
        ],
    )
    def test_predict_with_mismatched_normalizer_exits_3_naming_field(self, trained, tmp_path, caplog, edit, field):
        out = edited_checkpoint(trained, tmp_path, edit)
        assert run("predict", out) == EXIT_VALIDATION
        assert f"normalizer {field} " in caplog.text
        assert not (out / "predict" / "predictions.csv").exists()

    def test_features_before_preprocess_exits_2(self, tmp_path):
        assert run("features", tmp_path / "out") == EXIT_MISSING

    def test_missing_config_file_exits_3(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_VALIDATION

    def test_bad_override_exits_3(self, tmp_path):
        assert run("preprocess", tmp_path / "out", "--hidden-size", "31") == EXIT_VALIDATION


class TestMalformedInputs:
    def test_empty_daily_text_exits_3(self, tmp_path, caplog):
        out = tmp_path / "out"
        assert run("preprocess", out) == EXIT_OK
        assert run("features", out) == EXIT_OK
        (out / "features" / "daily_text_AAA.csv").write_text("")
        assert run("analyze", out) == EXIT_VALIDATION
        assert "daily_text_AAA.csv: empty file" in caplog.text

    @staticmethod
    def evaluate_predictions(out: Path, predictions: str) -> int:
        """Run evaluate on a stub checkpoint and the given predictions.csv text."""
        (out / "train").mkdir(parents=True)
        (out / "train" / "checkpoint.json").write_text("{}")
        (out / "predict").mkdir()
        meta = {"model": "tft_lite", "feature_set": "HLOVS", "horizon": 3}
        (out / "predict" / "meta.json").write_text(json.dumps(meta))
        (out / "predict" / "predictions.csv").write_text(predictions)
        return run("evaluate", out)

    def test_empty_predictions_exit_3(self, tmp_path, caplog):
        assert self.evaluate_predictions(tmp_path / "out", "") == EXIT_VALIDATION
        assert "predictions.csv: empty file" in caplog.text

    def test_non_numeric_truth_exits_3_naming_line(self, tmp_path, caplog):
        text = "date,ticker,step,truth,pred\n2020-01-02,AAA,1,abc,1.0\n"
        assert self.evaluate_predictions(tmp_path / "out", text) == EXIT_VALIDATION
        assert "predictions.csv:2:" in caplog.text

    def test_non_numeric_daily_score_exits_3(self, tmp_path, caplog):
        out = tmp_path / "out"
        assert run("preprocess", out) == EXIT_OK
        assert run("features", out) == EXIT_OK
        daily = out / "features" / "daily_text_AAA.csv"
        lines = daily.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines[1:], start=2) if line.split(",")[5].strip())
        fields = lines[lineno - 1].split(",")
        fields[4] = "abc"  # score2
        lines[lineno - 1] = ",".join(fields)
        daily.write_text("\n".join(lines) + "\n")
        assert run("analyze", out) == EXIT_VALIDATION
        assert f"daily_text_AAA.csv:{lineno}:" in caplog.text

    def test_repeated_embedding_id_exits_3_naming_line(self, tmp_path, caplog):
        fixture = tmp_path / "fixture"
        shutil.copytree(Path(FIXTURE_CONFIG).parent, fixture)
        embeddings = fixture / "embeddings.csv"
        lines = embeddings.read_text().splitlines()
        embeddings.write_text("\n".join(lines + [lines[1]]) + "\n")
        config = str(fixture / "config.cfg")
        assert main(["preprocess", "--config", config]) == EXIT_OK
        assert main(["features", "--config", config]) == EXIT_VALIDATION
        assert f"embeddings.csv:{len(lines) + 1}: duplicate tweet_id" in caplog.text

    def test_blank_ticker_exits_3_naming_line(self, tmp_path, caplog):
        fixture = tmp_path / "fixture"
        shutil.copytree(Path(FIXTURE_CONFIG).parent, fixture)
        tweets = fixture / "tweets.csv"
        lines = tweets.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = " "
        lines[2] = ",".join(fields)
        tweets.write_text("\n".join(lines) + "\n")
        assert main(["preprocess", "--config", str(fixture / "config.cfg")]) == EXIT_VALIDATION
        assert "tweets.csv:3: blank ticker" in caplog.text

    def test_mixed_utc_offsets_exit_3_naming_line(self, tmp_path, caplog):
        fixture = tmp_path / "fixture"
        shutil.copytree(Path(FIXTURE_CONFIG).parent, fixture)
        tweets = fixture / "tweets.csv"
        lines = tweets.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] += "+00:00"
        lines[3] = ",".join(fields)
        tweets.write_text("\n".join(lines) + "\n")
        assert main(["preprocess", "--config", str(fixture / "config.cfg")]) == EXIT_VALIDATION
        assert "tweets.csv:4: post_date" in caplog.text

    @pytest.mark.parametrize("command", list(cli._DISPATCH))
    def test_repeated_ticker_exits_3_at_every_stage(self, tmp_path, caplog, command):
        fixture = tmp_path / "fixture"
        shutil.copytree(Path(FIXTURE_CONFIG).parent, fixture)
        config = fixture / "config.cfg"
        config.write_text(config.read_text().replace("tickers = AAA,BBB", "tickers = AAA,aaa"))
        assert main([command, "--config", str(config)]) == EXIT_VALIDATION
        assert "tickers must be distinct, got AAA,AAA" in caplog.text
        assert not (fixture / "out").exists()


class TestUsageErrors:
    # argparse's own exit status for a usage error is 2, which would read as
    # a missing artifact; main reports usage errors as validation failures.
    @pytest.mark.parametrize(
        "extra",
        [("--adam-eps", "-1e-8"), ("--no-such-flag", "1"), ("--optimizer", "adam")],
        ids=["negative-exponent-word", "unknown-flag", "removed-optimizer-flag"],
    )
    def test_usage_error_exits_3(self, tmp_path, capsys, extra):
        assert run("train", tmp_path / "out", *extra) == EXIT_VALIDATION
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_optimizer_key_exits_3(self, tmp_path, caplog):
        config = tmp_path / "run.cfg"
        config.write_text(Path(FIXTURE_CONFIG).read_text() + "train.optimizer = adam\n")
        assert main(["train", "--config", str(config)]) == EXIT_VALIDATION
        assert "unknown key 'train.optimizer'" in caplog.text

    def test_help_exits_0(self, capsys):
        assert main(["train", "--help"]) == EXIT_OK
        assert "--adam-eps" in capsys.readouterr().out

    def test_parser_is_built_once_and_survives_a_usage_error(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        assert run("train", tmp_path / "out", "--no-such-flag", "1") == EXIT_VALIDATION
        assert main(["train", "--help"]) == EXIT_OK
        assert "--adam-eps" in capsys.readouterr().out


class TestFullPipeline:
    def test_all_stages_produce_artifacts(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(out)
        expected = [
            "preprocess/tweets_clean.csv",
            "preprocess/filter_stats.json",
            "features/panel_AAA.csv",
            "features/panel_BBB.csv",
            "features/daily_text_AAA.csv",
            "features/meta.json",
            "analyze/correlations.json",
            "analyze/probe.json",
            "analyze/returns.csv",
            "analyze/returns_sigma.json",
            "train/checkpoint.json",
            "train/loss_curve.csv",
            "predict/predictions.csv",
            "predict/predictions_naive.csv",
            "evaluate/metrics.json",
            "evaluate/grouped_report.json",
            "report/report.json",
            "report/price_sentiment.csv",
            "report/sentiment_volatility.csv",
        ]
        for rel in expected:
            assert (out / rel).exists(), rel

    def test_filter_stats_count_known_noise(self, tmp_path):
        out = tmp_path / "out"
        assert run("preprocess", out) == EXIT_OK
        stats = json.loads((out / "preprocess" / "filter_stats.json").read_text())
        assert stats["missing_writer"] >= 1
        assert stats["multi_ticker"] >= 1
        assert stats["raw_duplicate"] >= 1
        assert stats["clean_duplicate"] >= 1
        assert stats["kept"] + sum(
            stats[k] for k in ("missing_writer", "multi_ticker", "raw_duplicate", "clean_duplicate")
        ) == stats["input"]

    def test_correlations_have_unit_diagonal(self, tmp_path):
        out = tmp_path / "out"
        for command in ("preprocess", "features", "analyze"):
            assert run(command, out) == EXIT_OK
        corr = json.loads((out / "analyze" / "correlations.json").read_text())
        for ticker in ("AAA", "BBB"):
            for variant in ("smoothed", "raw"):
                matrix = corr[ticker][variant]
                for i in range(4):
                    assert matrix[i][i] == 1.0

    def test_probe_embeddings_beat_random(self, tmp_path):
        out = tmp_path / "out"
        for command in ("preprocess", "features", "analyze"):
            assert run(command, out) == EXIT_OK
        probe = json.loads((out / "analyze" / "probe.json").read_text())
        for ticker in ("AAA", "BBB"):
            assert probe[ticker]["r2_embeddings"] > probe[ticker]["r2_random"] + 0.2

    def test_grouped_report_ranks_models_per_ticker(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(out)
        grouped = json.loads((out / "evaluate" / "grouped_report.json").read_text())
        for ticker in ("AAA", "BBB"):
            entries = grouped[ticker]
            assert len(entries) == 2  # trained model + naive baseline
            assert [e["position"] for e in entries] == [1, 2]

    def test_gridsearch_writes_leaderboard(self, tmp_path):
        out = tmp_path / "out"
        for command in ("preprocess", "features"):
            assert run(command, out) == EXIT_OK
        assert run("gridsearch", out) == EXIT_OK
        lines = (out / "gridsearch" / "leaderboard.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["rank", "grid_index", "model"]
        assert header.count("model") == 1
        assert len(lines) == 3  # header + 2 grid points


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_pipeline(out_a)
        run_pipeline(out_b)
        for rel in (
            "train/checkpoint.json",
            "predict/predictions.csv",
            "evaluate/metrics.json",
            "report/report.json",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_rerun_in_place_is_idempotent(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(out)
        metrics_before = (out / "evaluate" / "metrics.json").read_bytes()
        run_pipeline(out)
        assert (out / "evaluate" / "metrics.json").read_bytes() == metrics_before

    def test_seed_override_changes_training_artifacts(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for command in ("preprocess", "features"):
            assert run(command, out_a) == EXIT_OK
            assert run(command, out_b) == EXIT_OK
        assert run("train", out_a) == EXIT_OK
        assert run("train", out_b, "--seed", "123") == EXIT_OK
        assert (out_a / "train" / "checkpoint.json").read_bytes() != (
            out_b / "train" / "checkpoint.json"
        ).read_bytes()


class TestOverridesOnCli:
    def test_set_flag_applies_generic_override(self, tmp_path):
        out = tmp_path / "out"
        for command in ("preprocess", "features"):
            assert run(command, out) == EXIT_OK
        assert run("train", out, "--set", "epochs=1") == EXIT_OK
        curve = (out / "train" / "loss_curve.csv").read_text().splitlines()
        assert len(curve) == 2  # header + one epoch

    def test_feature_set_flag_switches_models_inputs(self, tmp_path):
        out = tmp_path / "out"
        for command in ("preprocess", "features"):
            assert run(command, out) == EXIT_OK
        assert run("train", out, "--feature-set", "HLOV", "--epochs", "1") == EXIT_OK
        checkpoint = json.loads((out / "train" / "checkpoint.json").read_text())
        assert checkpoint["feature_set"]["kind"] == "HLOV"

    def test_nlinear_model_flag(self, tmp_path):
        out = tmp_path / "out"
        for command in ("preprocess", "features"):
            assert run(command, out) == EXIT_OK
        assert run("train", out, "--model", "nlinear", "--epochs", "1") == EXIT_OK
        checkpoint = json.loads((out / "train" / "checkpoint.json").read_text())
        assert checkpoint["model_type"] == "nlinear"
        assert run("predict", out) == EXIT_OK
        assert run("evaluate", out) == EXIT_OK


@pytest.fixture
def dispatched(monkeypatch) -> list:
    """Configs that reached the train stage; the stage itself does not run."""
    seen: list = []
    monkeypatch.setitem(cli._DISPATCH, "train", lambda config, artifacts: seen.append(config))
    return seen


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class TestKeyTableOnCli:
    @pytest.mark.parametrize("file_key, name, raw, attr, value", SETTING_CASES, ids=SETTING_IDS)
    def test_flag_sets_field(self, dispatched, file_key, name, raw, attr, value):
        assert main(["train", "--config", FIXTURE_CONFIG, flag(name), raw]) == EXIT_OK
        assert attrgetter(attr)(dispatched[0]) == value

    @pytest.mark.parametrize("file_key, name, raw, attr, value", SETTING_CASES, ids=SETTING_IDS)
    def test_set_sets_field(self, dispatched, file_key, name, raw, attr, value):
        assert main(["train", "--config", FIXTURE_CONFIG, "--set", f"{name}={raw}"]) == EXIT_OK
        assert attrgetter(attr)(dispatched[0]) == value

    def test_consecutive_calls_do_not_share_set_values(self, dispatched):
        # The fixture's config has 3 epochs and dropout 0.1.
        assert main(["train", "--config", FIXTURE_CONFIG, "--set", "epochs=5"]) == EXIT_OK
        assert main(["train", "--config", FIXTURE_CONFIG, "--set", "dropout=0.5", "--set", "seed=3"]) == EXIT_OK
        assert main(["train", "--config", FIXTURE_CONFIG]) == EXIT_OK
        assert [(c.train.epochs, c.train.dropout, c.seed) for c in dispatched] == [(5, 0.1, 7), (3, 0.5, 3), (3, 0.1, 7)]
        first = cli.build_parser().parse_args(["train", "--config", "a.cfg", "--set", "epochs=5"])
        second = cli.build_parser().parse_args(["train", "--config", "a.cfg", "--set", "dropout=0.5"])
        assert (first.extra, second.extra) == (["epochs=5"], ["dropout=0.5"])

    @pytest.mark.parametrize("source", ["file", "flag", "set"])
    @pytest.mark.parametrize("file_key, name, raw", MALFORMED_CASES, ids=MALFORMED_IDS)
    def test_malformed_value_exits_3_naming_key(
        self, tmp_path, caplog, dispatched, source, file_key, name, raw
    ):
        config = tmp_path / "run.cfg"
        text = "paths.ohlcv_dir = o\npaths.tweets = t.csv\npaths.output = out\ntickers = AAA\n"
        argv = ["train", "--config", str(config)]
        if source == "file":
            text += f"{file_key} = {raw}\n"
        elif source == "flag":
            argv += [flag(name), raw]
        else:
            argv += ["--set", f"{name}={raw}"]
        config.write_text(text)
        assert main(argv) == EXIT_VALIDATION
        assert f"{file_key if source == 'file' else name}: expected" in caplog.text
        assert not dispatched

    @pytest.mark.parametrize("name, raw", INVALID_TRAIN_CASES, ids=INVALID_TRAIN_IDS)
    def test_out_of_range_value_exits_3_naming_field(self, caplog, dispatched, name, raw):
        assert main(["train", "--config", FIXTURE_CONFIG, f"{flag(name)}={raw}"]) == EXIT_VALIDATION
        assert name in caplog.text
        assert not dispatched


def test_daily_text_numpy_scalars_are_written_as_plain_floats(tmp_path):
    path = tmp_path / "daily.csv"
    feature = DailyTextFeatures(
        date(2021, 1, 4), "AAA", 2, 1, np.float64(0.5), np.float64(1 / 3), list(np.array([0.25, -1.5]))
    )
    cli._write_daily_text(path, [feature], 2)
    assert path.read_text().splitlines()[1] == "2021-01-04,2,1,0.5,0.3333333333333333,0.25,-1.5"

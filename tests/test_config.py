from __future__ import annotations

import re
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import pytest

from conftest import MALFORMED_CASES, MALFORMED_IDS, SETTING_CASES, SETTING_IDS
from senticast.config import RunConfig, apply_overrides, load_run_config, read_key_values
from senticast.errors import ConfigError, ParseError
from senticast.models import TrainConfig
from senticast.training import LOSSES, MODEL_KINDS
from senticast.windows import FEATURE_SET_KINDS

MINIMAL = """
paths.ohlcv_dir = data/ohlcv
paths.tweets = data/tweets.csv
paths.output = out
tickers = aaa, bbb
"""


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestKeyValueFormat:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("# heading\n\na = 1\n  b = two \n")
        assert read_key_values(path) == {"a": "1", "b": "two"}

    def test_hash_after_whitespace_starts_a_comment(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("a = 1   # one\nb = out#1\nc = x\t# tab\n  # indented\nd = #\ne=f#g # h\n")
        assert read_key_values(path) == {"a": "1", "b": "out#1", "c": "x", "d": "", "e": "f#g"}

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1, "README should hold one ini config example"
        config = load_run_config(write_config(tmp_path, blocks[0]))
        assert config.feature_set == "HLOVS"
        assert config.ohlcv_dir == (tmp_path / "ohlcv").resolve()
        assert config.holidays_file == (tmp_path / "holidays.txt").resolve()
        assert (config.model, config.loss, config.tickers) == ("tft_lite", "dmse", ["AAA", "BBB"])
        assert config.grid == {"lookback": [5, 15]}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ParseError, match="key = value"):
            read_key_values(path)

    def test_byte_order_mark_and_crlf_line_ends(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.lstrip().replace("\n", "\r\n").encode())
        assert load_run_config(path).tickers == ["AAA", "BBB"]
        assert read_key_values(path)["paths.output"] == "out"

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_key_values(path)


class TestLoadRunConfig:
    def test_minimal_config_with_defaults(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        assert config.tickers == ["AAA", "BBB"]
        assert config.feature_set == "HLOVS"
        assert config.train.lookback == 15
        assert config.train.epochs == 200
        assert config.ohlcv_dir == (tmp_path / "data/ohlcv").resolve()

    def test_train_keys_and_seed_flow_through(self, tmp_path):
        text = MINIMAL + "seed = 99\ntrain.hidden_size = 16\ntrain.n_heads = 2\n"
        config = load_run_config(write_config(tmp_path, text))
        assert config.seed == 99
        assert config.train.seed == 99
        assert config.train.hidden_size == 16

    def test_grid_keys_parse_lists(self, tmp_path):
        text = MINIMAL + "grid.lookback = 5, 15\ngrid.model = nlinear,tft_lite\n"
        config = load_run_config(write_config(tmp_path, text))
        assert config.grid == {"lookback": [5, 15], "model": ["nlinear", "tft_lite"]}

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_run_config(write_config(tmp_path, MINIMAL + "mystery = 1\n"))

    def test_unknown_train_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="warmup"):
            load_run_config(write_config(tmp_path, MINIMAL + "train.warmup = 1\n"))

    def test_missing_required_path(self, tmp_path):
        with pytest.raises(ConfigError, match="paths.output"):
            load_run_config(
                write_config(tmp_path, "paths.ohlcv_dir = a\npaths.tweets = b\ntickers = A\n")
            )

    def test_empty_tickers_rejected(self, tmp_path):
        bad = MINIMAL.replace("tickers = aaa, bbb", "tickers = ")
        with pytest.raises(ConfigError, match="tickers"):
            load_run_config(write_config(tmp_path, bad))

    def test_repeated_ticker_rejected(self, tmp_path):
        bad = MINIMAL.replace("tickers = aaa, bbb", "tickers = aaa, bbb, AAA")
        with pytest.raises(ConfigError, match="tickers must be distinct, got AAA,BBB,AAA"):
            load_run_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "key, kinds",
        [("feature_set", FEATURE_SET_KINDS), ("train.model", MODEL_KINDS), ("train.loss", LOSSES)],
        ids=["feature_set", "model", "loss"],
    )
    def test_enumerations_are_the_modules_own(self, tmp_path, key, kinds):
        for kind in kinds:
            load_run_config(write_config(tmp_path, MINIMAL + f"{key} = {kind}\n"))
        with pytest.raises(ConfigError, match="(?i)nope"):
            load_run_config(write_config(tmp_path, MINIMAL + f"{key} = nope\n"))

    def test_invalid_model_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            load_run_config(write_config(tmp_path, MINIMAL + "train.model = lstm\n"))


class TestOverrides:
    def test_train_field_overrides(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        config = apply_overrides(config, {"hidden_size": "16", "n_heads": "2", "dropout": "0.1"})
        assert config.train.hidden_size == 16
        assert config.train.dropout == 0.1

    def test_seed_override_updates_global_and_train(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        config = apply_overrides(config, {"seed": "123"})
        assert config.seed == 123 and config.train.seed == 123

    def test_feature_set_and_output(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        config = apply_overrides(config, {"feature_set": "hlov", "output": str(tmp_path / "o2")})
        assert config.feature_set == "HLOV"
        assert config.output_dir == tmp_path / "o2"

    def test_none_values_are_skipped(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        out = apply_overrides(config, {"hidden_size": None})
        assert out.train.hidden_size == 64

    def test_unknown_override_rejected(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError):
            apply_overrides(config, {"warp_speed": "9"})

    def test_invalid_combination_caught_by_validate(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError):
            apply_overrides(config, {"hidden_size": "30", "n_heads": "4"})


class TestKeyTable:
    def test_cases_cover_every_scalar_field(self):
        expected = {f"train.{name}" for name in get_type_hints(TrainConfig)}
        expected |= {
            name for name, hint in get_type_hints(RunConfig).items() if hint in (str, int, float, bool)
        }
        assert {case[3] for case in SETTING_CASES} == expected

    @pytest.mark.parametrize("file_key, name, raw, attr, value", SETTING_CASES, ids=SETTING_IDS)
    def test_file_key_sets_field(self, tmp_path, file_key, name, raw, attr, value):
        config = load_run_config(write_config(tmp_path, MINIMAL + f"{file_key} = {raw}\n"))
        assert attrgetter(attr)(config) == value

    @pytest.mark.parametrize("file_key, name, raw, attr, value", SETTING_CASES, ids=SETTING_IDS)
    def test_override_sets_field(self, tmp_path, file_key, name, raw, attr, value):
        config = apply_overrides(load_run_config(write_config(tmp_path, MINIMAL)), {name: raw})
        assert attrgetter(attr)(config) == value

    def test_train_seed_key_wins_over_run_seed(self, tmp_path):
        config = load_run_config(write_config(tmp_path, MINIMAL + "seed = 9\ntrain.seed = 4\n"))
        assert config.seed == 9 and config.train.seed == 4

    @pytest.mark.parametrize("file_key, name, raw", MALFORMED_CASES, ids=MALFORMED_IDS)
    def test_malformed_file_value_names_key(self, tmp_path, file_key, name, raw):
        with pytest.raises(ConfigError, match=re.escape(f"{file_key}: expected")):
            load_run_config(write_config(tmp_path, MINIMAL + f"{file_key} = {raw}\n"))

    @pytest.mark.parametrize("file_key, name, raw", MALFORMED_CASES, ids=MALFORMED_IDS)
    def test_malformed_override_names_key(self, tmp_path, file_key, name, raw):
        config = load_run_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError, match=re.escape(f"{name}: expected")):
            apply_overrides(config, {name: raw})

    def test_malformed_grid_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape("grid.lookback: expected int")):
            load_run_config(write_config(tmp_path, MINIMAL + "grid.lookback = 5, x\n"))

    def test_jobs_is_an_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'jobs'"):
            load_run_config(write_config(tmp_path, MINIMAL + "jobs = 2\n"))

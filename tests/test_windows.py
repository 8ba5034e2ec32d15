from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from senticast.errors import ConfigError, ValidationError
from senticast.market import BusinessCalendar
from senticast.text import AlignedPanel, PanelRow
from senticast.windows import (
    FeatureSetSpec,
    Normalizer,
    build_windows,
    fit_normalizer,
    known_future_matrix,
    panel_matrix,
    windows_from_normalizer,
)

CAL = BusinessCalendar()


def make_panel(ticker: str, closes: list[float], embedding_dim: int = 0, seed: int = 0) -> AlignedPanel:
    rng = np.random.default_rng(seed)
    day = date(2021, 1, 4)
    rows = []
    for i, close in enumerate(closes):
        while day.weekday() >= 5:
            day += timedelta(days=1)
        emb = rng.normal(size=embedding_dim).tolist() if embedding_dim else None
        rows.append(
            PanelRow(
                day=day,
                high=close * 1.01,
                low=close * 0.99,
                open=close,
                volume=1000.0 + i,
                close=close,
                score=float(np.sin(i / 7.0)),
                score_raw=float(np.sin(i / 7.0)) + 0.1,
                embedding=emb,
                holiday=0,
                day_of_week=day.weekday(),
            )
        )
        day += timedelta(days=1)
    return AlignedPanel(ticker=ticker, rows=rows, embedding_dim=embedding_dim)


class TestFeatureSetSpec:
    def test_column_counts(self):
        assert len(FeatureSetSpec("HLOV").columns) == 5
        assert len(FeatureSetSpec("HLOVS").columns) == 6
        assert len(FeatureSetSpec("HLOVE", embedding_dim=16).columns) == 21

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSetSpec("HLOVX")

    def test_hlove_needs_dimension(self):
        with pytest.raises(ConfigError):
            FeatureSetSpec("HLOVE")


class TestBuildWindows:
    def test_window_count_without_split(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 100)))
        train, test, _ = build_windows([panel], FeatureSetSpec("HLOV"), 15, 3, split=1.0)
        assert len(train) == 100 - 15 - 3 + 1 == 83
        assert len(test) == 0

    def test_window_count_formula_various_sizes(self):
        for T, L, h in [(30, 5, 2), (60, 15, 3), (45, 10, 5)]:
            panel = make_panel("AAA", list(np.linspace(10, 20, T)))
            train, test, _ = build_windows([panel], FeatureSetSpec("HLOV"), L, h, split=1.0)
            assert len(train) == T - L - h + 1

    @pytest.mark.parametrize("lookback, horizon", [(0, 3), (15, 0)])
    def test_empty_history_or_horizon_rejected(self, lookback, horizon):
        # Every window has an observed row to repeat as the naive forecast.
        panel = make_panel("AAA", list(np.linspace(50, 80, 40)))
        with pytest.raises(ValidationError, match="lookback and horizon must be >= 1"):
            build_windows([panel], FeatureSetSpec("HLOV"), lookback, horizon, split=1.0)

    def test_hlovs_has_six_feature_columns(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 40)))
        train, _, _ = build_windows([panel], FeatureSetSpec("HLOVS"), 15, 3, split=1.0)
        assert train[0].past.shape == (15, 6)

    def test_two_companies_pool_with_indices(self):
        a = make_panel("AAA", list(np.linspace(50, 80, 60)))
        b = make_panel("BBB", list(np.linspace(10, 30, 50)))
        train, test, _ = build_windows([a, b], FeatureSetSpec("HLOV"), 15, 3, split=1.0)
        singles = [
            len(build_windows([p], FeatureSetSpec("HLOV"), 15, 3, split=1.0)[0]) for p in (a, b)
        ]
        assert len(train) == sum(singles)
        assert {w.company_index for w in train} == {0, 1}

    def test_split_keeps_targets_out_of_train(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 100)))
        train, test, norm = build_windows([panel], FeatureSetSpec("HLOV"), 15, 3, split=0.8)
        split_at = norm.train_rows[0]
        assert split_at == 80
        days = [row.day for row in panel.rows]
        for w in train:
            assert all(d < days[split_at] for d in w.target_days)
        for w in test:
            assert all(d >= days[split_at] for d in w.target_days)
        # windows straddling the boundary are dropped entirely
        assert len(train) + len(test) < 100 - 15 - 3 + 1

    def test_normalization_uses_train_rows_only(self):
        closes = [10.0] * 80 + [1000.0] * 20  # regime change in the test region
        panel = make_panel("AAA", closes)
        _, _, norm = build_windows([panel], FeatureSetSpec("HLOV"), 15, 3, split=0.8)
        close_idx = norm.close_index
        assert norm.means[0][close_idx] == pytest.approx(10.0)
        assert norm.stds[0][close_idx] == pytest.approx(1.0)  # degenerate std guard

    def test_normalization_round_trip(self):
        rng = np.random.default_rng(1)
        closes = (100 + rng.normal(0, 5, 60).cumsum()).tolist()
        panel = make_panel("AAA", closes)
        spec = FeatureSetSpec("HLOVS")
        _, _, norm = build_windows([panel], spec, 15, 3, split=0.8)
        values = np.asarray(closes)
        matrix = np.zeros((len(values), len(spec.columns)))
        matrix[:, norm.close_index] = values
        round_trip = norm.denormalize_close(0, norm.normalize(0, matrix)[:, norm.close_index])
        assert np.allclose(round_trip, values, atol=1e-10)

    def test_anchor_is_last_observed_close(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 40)))
        train, _, norm = build_windows([panel], FeatureSetSpec("HLOV"), 15, 3, split=1.0)
        w = train[0]
        assert w.anchor == pytest.approx(w.past[-1, norm.close_index])
        assert w.anchor_day < w.target_days[0]

    def test_too_short_panel_names_ticker(self):
        panel = make_panel("TINY", [10.0] * 10)
        with pytest.raises(ValidationError, match="TINY"):
            build_windows([panel], FeatureSetSpec("HLOV"), 15, 3)

    def test_hlove_requires_matching_dim(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 40)), embedding_dim=4)
        with pytest.raises(ConfigError):
            build_windows([panel], FeatureSetSpec("HLOVE", embedding_dim=8), 15, 3)
        train, _, _ = build_windows([panel], FeatureSetSpec("HLOVE", embedding_dim=4), 15, 3, split=1.0)
        assert train[0].past.shape == (15, 9)

    def test_known_future_is_holiday_plus_dow_onehot(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 40)))
        train, _, _ = build_windows([panel], FeatureSetSpec("HLOV"), 15, 3, split=1.0)
        w = train[0]
        assert w.known.shape == (3, 6)
        assert np.array_equal(w.known[:, 1:].sum(axis=1), np.ones(3))

    def test_windows_from_normalizer_reuses_fitted_stats(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 60)))
        spec = FeatureSetSpec("HLOV")
        norm = fit_normalizer([panel], spec, 15, 3, split=0.8)
        restored = Normalizer.from_dict(norm.to_dict())
        train_a, test_a = windows_from_normalizer([panel], spec, norm, 15, 3)
        train_b, test_b = windows_from_normalizer([panel], spec, restored, 15, 3)
        assert len(train_a) == len(train_b) and len(test_a) == len(test_b)
        assert np.array_equal(train_a[0].past, train_b[0].past)

    def test_duplicate_tickers_rejected(self):
        panel = make_panel("AAA", list(np.linspace(50, 80, 40)))
        with pytest.raises(ValidationError):
            build_windows([panel, panel], FeatureSetSpec("HLOV"), 15, 3)

    def test_gathered_fields_match_per_window_slicing(self):
        a = make_panel("AAA", list(np.linspace(50, 80, 60)), embedding_dim=3, seed=1)
        b = make_panel("BBB", list(np.linspace(10, 30, 45)), embedding_dim=3, seed=2)
        spec = FeatureSetSpec("HLOVE", embedding_dim=3)
        L, h = 15, 3
        train, test, norm = build_windows([a, b], spec, L, h, split=0.8)

        # Reference: one window at a time, sliced from each company's own arrays.
        want_train, want_test = [], []
        for company, (offset, panel) in enumerate(((0, a), (len(a), b))):
            z = norm.normalize(company, panel_matrix(panel, spec))
            known = known_future_matrix(panel)
            days = panel.days
            split_at = norm.train_rows[company]
            for i in range(L - 1, len(panel.rows) - h):
                sample = (
                    z[i - L + 1 : i + 1],
                    known[i + 1 : i + 1 + h],
                    z[i + 1 : i + 1 + h, norm.close_index],
                    float(z[i, norm.close_index]),
                    company,
                    days[i + 1 : i + 1 + h],
                    days[i],
                    offset + np.arange(i - L + 1, i + 1),  # the stacked rows' index of each past step
                )
                if i + h <= split_at - 1:
                    want_train.append(sample)
                elif i + 1 >= split_at:
                    want_test.append(sample)

        assert len(want_train) > 0 and len(want_test) > 0
        assert {int(c) for c in test.company} == {0, 1}
        for got, want in ((train, want_train), (test, want_test)):
            assert len(got) == len(want)
            fields = (
                got.past, got.known, got.target, got.anchor, got.company_index, got.target_days, got.anchor_day,
                got.past_rows,
            )
            for k, expected in enumerate(want):
                past, known, target, anchor, company, target_days, anchor_day, past_rows = (f[k] for f in fields)
                assert np.array_equal(past, expected[0])
                assert np.array_equal(known, expected[1])
                assert np.array_equal(target, expected[2])
                assert anchor == expected[3]
                assert company == expected[4]
                assert list(target_days) == expected[5]
                assert anchor_day == expected[6]
                assert np.array_equal(past_rows, expected[7])
            for k, window in enumerate(got):  # one window read on its own
                assert np.array_equal(window.past, want[k][0])
                assert np.array_equal(window.past_rows, want[k][7])
                assert window.anchor == want[k][3]
                assert list(window.target_days) == want[k][5]

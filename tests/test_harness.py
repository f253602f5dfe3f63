import csv
import json
import math

import numpy as np
import pytest

from cdce.channel import ChannelStats, Pulse
from cdce.estimator import LassoConfig
from cdce.grids import Dims
from cdce.harness import (
    ESTIMATOR_NAMES,
    ResultRow,
    SimConfig,
    emit,
    fit_config_covariance,
    nmse_db,
    run_sweep,
    run_trial,
)
from cdce.pilots import FrameSpec

D = Dims(8, 14, 2)


def make_config(**overrides):
    params = dict(
        dims=D,
        stats=ChannelStats(),
        frame=FrameSpec(dims=D),
        snr_grid_db=(10.0,),
        trials=3,
        estimators=("st_ls",),
        cov_samples=50,
    )
    params.update(overrides)
    return SimConfig(**params)


class TestNmseDb:
    def test_perfect_estimate_hits_the_floor(self):
        h = np.ones((4, 4), dtype=complex)
        assert nmse_db(h, h) == -200.0

    def test_doubled_estimate_is_zero_db(self):
        h = np.random.default_rng(0).standard_normal((5, 5)) + 0j
        assert nmse_db(2 * h, h) == pytest.approx(0.0, abs=1e-12)

    def test_zero_estimate_is_zero_db(self):
        h = np.random.default_rng(1).standard_normal((5, 5)) + 0j
        assert nmse_db(np.zeros_like(h), h) == pytest.approx(0.0, abs=1e-12)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            nmse_db(np.ones((2, 2)), np.zeros((2, 2)))

    def test_floor_clamps_tiny_errors(self):
        h = np.ones((4, 4), dtype=complex)
        assert nmse_db(h + 1e-200, h) == -200.0


class TestSimConfig:
    def test_defaults(self):
        cfg = make_config()
        assert cfg.mode == "pilot_only"
        assert cfg.base_seed == 0
        assert cfg.pulse == Pulse("ideal")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"snr_grid_db": ()},
            {"snr_grid_db": (10.0, math.nan)},
            {"snr_grid_db": (-math.inf,)},
            {"trials": 0},
            {"mode": "blind"},
            {"estimators": ()},
            {"estimators": ("st_ls", "kalman")},
            {"cov_samples": 1},
            {"base_seed": -1},
            {"mode": "with_data"},
            {"frame": FrameSpec(dims=D, data_mode="qpsk")},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides)

    def test_with_data_mode_needs_data_frame(self):
        cfg = make_config(
            mode="with_data", frame=FrameSpec(dims=D, data_mode="qpsk")
        )
        assert cfg.mode == "with_data"


class TestRunTrial:
    def test_deterministic(self):
        cfg = make_config(estimators=("cdce", "st_ls", "st_lmmse", "tf_lasso"))
        a = run_trial(cfg, 10.0, 0)
        b = run_trial(cfg, 10.0, 0)
        assert a == b
        assert set(a) == {"cdce", "st_ls", "st_lmmse", "tf_lasso"}

    def test_estimator_subsets_are_paired(self):
        full = run_trial(make_config(estimators=("cdce", "st_ls", "tf_lasso")), 5.0, 2)
        solo = run_trial(make_config(estimators=("st_ls",)), 5.0, 2)
        assert solo["st_ls"] == full["st_ls"]

    def test_trials_distinct_across_indices_and_snrs(self):
        cfg = make_config()
        r0 = run_trial(cfg, 10.0, 0)["st_ls"]
        r1 = run_trial(cfg, 10.0, 1)["st_ls"]
        r2 = run_trial(cfg, 5.0, 0)["st_ls"]
        assert r0 != r1
        assert r0 != r2

    def test_base_seed_changes_the_draw(self):
        a = run_trial(make_config(), 10.0, 0)["st_ls"]
        b = run_trial(make_config(base_seed=1), 10.0, 0)["st_ls"]
        assert a != b

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError, match="trial_index"):
            run_trial(make_config(), 10.0, -1)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_snr_that_is_not_finite_or_noiseless_rejected(self, snr_db):
        with pytest.raises(ValueError, match="SNR"):
            run_trial(make_config(), snr_db, 0)

    def test_positive_infinite_snr_is_noiseless(self):
        # CDCE recovers a noiseless channel to rounding; any noise shows
        cfg = make_config(estimators=("cdce",))
        assert run_trial(cfg, math.inf, 0)["cdce"] < 1e-20
        assert run_trial(cfg, 60.0, 0)["cdce"] > 1e-20

    def test_ratios_are_positive_floats(self):
        out = run_trial(make_config(estimators=("st_ls", "st_lmmse")), 0.0, 0)
        for value in out.values():
            assert isinstance(value, float)
            assert value > 0

    def test_fs_lmmse_accepts_prefitted_covariance(self):
        cfg = make_config(estimators=("fs_lmmse",), cov_samples=50)
        cov = fit_config_covariance(cfg)
        assert cov.rank == ChannelStats().region_size
        a = run_trial(cfg, 10.0, 0, cov=cov)
        b = run_trial(cfg, 10.0, 0)
        assert a["fs_lmmse"] == pytest.approx(b["fs_lmmse"], rel=1e-12)


@pytest.fixture(scope="module")
def sweep_rows():
    cfg = make_config(
        snr_grid_db=(20.0, 0.0),
        trials=8,
        estimators=("st_ls", "cdce"),
    )
    return run_sweep(cfg)


class TestRunSweep:
    def test_row_grid_is_complete_and_sorted(self, sweep_rows):
        keys = [(r.estimator, r.snr_db) for r in sweep_rows]
        assert keys == [
            ("cdce", 0.0), ("cdce", 20.0), ("st_ls", 0.0), ("st_ls", 20.0)
        ]
        assert all(r.trials == 8 for r in sweep_rows)

    def test_cdce_improves_with_snr(self, sweep_rows):
        by_key = {(r.estimator, r.snr_db): r for r in sweep_rows}
        low = by_key[("cdce", 0.0)]
        high = by_key[("cdce", 20.0)]
        assert high.nmse_db <= low.nmse_db + 2 * (low.stderr_db + high.stderr_db)

    def test_stderr_is_finite_and_nonnegative(self, sweep_rows):
        for r in sweep_rows:
            assert math.isfinite(r.stderr_db)
            assert r.stderr_db >= 0

    def test_single_trial_has_zero_stderr(self):
        rows = run_sweep(make_config(trials=1))
        assert rows[0].stderr_db == 0.0

    def test_trial_count_consistency(self):
        small = run_sweep(make_config(trials=10, snr_grid_db=(10.0,)))[0]
        large = run_sweep(make_config(trials=20, snr_grid_db=(10.0,)))[0]
        spread = 3 * (small.stderr_db + large.stderr_db)
        assert abs(small.nmse_db - large.nmse_db) <= max(spread, 0.5)


class TestEmit:
    ROWS = [
        ResultRow(estimator="st_ls", snr_db=0.0, trials=4, nmse_db=-3.25, stderr_db=0.5),
        ResultRow(estimator="cdce", snr_db=5.0, trials=4, nmse_db=-11.125, stderr_db=0.25),
    ]

    def test_csv_header_and_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        emit(self.ROWS, str(out), "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,snr_db,trials,nmse_db,stderr_db"
        assert lines[1] == "st_ls,0,4,-3.250000,0.500000"
        assert len(lines) == 3

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "rows.csv"
        emit(self.ROWS, str(out), "csv")
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert [p["estimator"] for p in parsed] == ["st_ls", "cdce"]
        assert float(parsed[1]["nmse_db"]) == pytest.approx(-11.125)

    def test_empty_rows_still_write_the_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit([], str(out), "csv")
        assert out.read_text().splitlines() == [
            "estimator,snr_db,trials,nmse_db,stderr_db"
        ]

    def test_json_mirrors_all_fields(self, tmp_path):
        out = tmp_path / "rows.json"
        emit(self.ROWS, str(out), "json")
        payload = json.loads(out.read_text())
        assert payload == [
            {
                "estimator": "st_ls",
                "snr_db": 0.0,
                "trials": 4,
                "nmse_db": -3.25,
                "stderr_db": 0.5,
            },
            {
                "estimator": "cdce",
                "snr_db": 5.0,
                "trials": 4,
                "nmse_db": -11.125,
                "stderr_db": 0.25,
            },
        ]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit(self.ROWS, str(tmp_path / "x.xml"), "xml")

    def test_unwritable_path_reports_the_target(self):
        with pytest.raises(OSError, match="cannot write results"):
            emit(self.ROWS, "/nonexistent-dir/rows.csv", "csv")

import csv
import json
import math
import warnings

import numpy as np
import pytest

import cdce.baselines as baselines
import cdce.estimator as estimator
import cdce.harness as harness
from cdce.baselines import st_ls
from cdce.channel import (
    ChannelStats,
    Pulse,
    apply_channel,
    effective_tf_channel,
    sample_channel,
    time_channel_matrix,
)
from cdce.estimator import cdce_estimate
from cdce.grids import Dims, remove_cp, tf_to_time, time_to_tf, vec
from cdce.harness import (
    ESTIMATOR_NAMES,
    MIN_SNR_DB,
    ResultRow,
    SimConfig,
    emit,
    fit_config_covariance,
    nmse_db,
    run_sweep,
    run_trial,
)
from cdce.pilots import FrameSpec, assemble_frame

from oracles import (
    bands_to_dense,
    dense_atom,
    dense_effective_tf,
    dense_reconstruct_oracle,
    interpolate_grid_loop,
)

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
        assert cfg.frame.data_mode == "none"
        assert cfg.base_seed == 0
        assert cfg.pulse == Pulse("ideal")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"snr_grid_db": ()},
            {"snr_grid_db": (10.0, math.nan)},
            {"snr_grid_db": (-math.inf,)},
            {"snr_grid_db": (10.0, 1e303)},
            {"snr_grid_db": (-1e303,)},
            {"snr_grid_db": (-4000.0,)},
            {"snr_grid_db": (-3082.0,)},
            {"snr_grid_db": (10.0, -1541.3)},
            {"trials": 0},
            {"estimators": ()},
            {"estimators": ("st_ls", "kalman")},
            {"cov_samples": 1},
            {"base_seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides)


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

    def test_st_lmmse_scales_the_trials_st_ls_estimate(self):
        ratios = [
            run_trial(make_config(estimators=names), 5.0, 2)["st_lmmse"]
            for names in (("st_lmmse",), ("st_ls", "st_lmmse"), ("st_lmmse", "st_ls"))
        ]
        assert ratios[0] == ratios[1] == ratios[2]
        cfg = make_config()
        n0 = harness._check_snr(5.0)
        channel_rng, frame_rng, noise_rng = harness._trial_rngs(cfg, 5.0, 2)
        ch = sample_channel(cfg.stats, D, channel_rng)
        frame = assemble_frame(cfg.frame, frame_rng)
        r = apply_channel(tf_to_time(frame.tf, D, with_cp=True), time_channel_matrix(ch, cfg.pulse), n0, noise_rng)
        y = time_to_tf(remove_cp(r, D), D)
        h_true = effective_tf_channel(ch, cfg.pulse)
        h_hat = st_ls(y, frame) / (1.0 + n0)
        want = np.sum(np.abs(h_hat - h_true) ** 2) / np.sum(np.abs(h_true) ** 2)
        assert ratios[0] == pytest.approx(want, rel=1e-12)

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

    @pytest.mark.parametrize("data_mode", ["none", "qpsk"])
    def test_every_nmse_finite_at_the_lowest_simulated_snr(self, data_mode):
        cfg = make_config(frame=FrameSpec(dims=D, data_mode=data_mode), estimators=ESTIMATOR_NAMES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_trial(cfg, MIN_SNR_DB, 0)
        assert set(out) == set(cfg.estimators)
        assert all(math.isfinite(value) for value in out.values())
        with pytest.raises(ValueError, match="SNR"):
            run_trial(cfg, math.nextafter(MIN_SNR_DB, -math.inf), 0)

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


def lasso_sweep_config(data_mode="none", **overrides):
    """A lattice sweep with tf_lasso over two SNR points."""
    params = dict(
        frame=FrameSpec(dims=D, data_mode=data_mode),
        snr_grid_db=(5.0, 15.0),
        trials=4,
        estimators=("cdce", "tf_lasso"),
    )
    params.update(overrides)
    return make_config(**params)


def dense_trial(cfg, snr_db, t, cov):
    """run_trial's NMSEs with every channel a dense MN x MN matrix: the truth
    by the dense blockwise sandwich, CDCE and tf_lasso as sums of dense
    atoms over their gains, the single-tap estimates as np.diag of the
    np.interp loop's grid, and fs_lmmse's bands scattered into a matrix."""
    d = cfg.dims
    n0 = harness._check_snr(snr_db)
    ch, frame, y_tf = harness._received(cfg, snr_db, t, n0)
    h_true = dense_effective_tf(time_channel_matrix(ch, cfg.pulse), d)

    def summed(gains, pairs):
        return dense_reconstruct_oracle(gains, [dense_atom(d, cfg.pulse, l, k) for l, k in pairs])

    mask = frame.pilot_mask
    ratios = np.where(mask, y_tf / np.where(mask, frame.pilot_only_tf, 1), 0)
    single_tap = np.diag(vec(interpolate_grid_loop(ratios, mask)))
    est = cdce_estimate(y_tf, frame, cfg.stats, n0, lasso=cfg.lasso, pulse=cfg.pulse)
    gains = baselines.tf_lasso_gains(vec(y_tf), frame, cfg.lasso, cfg.pulse)
    estimates = {
        "cdce": summed(est.h_hat, est.pairs) if est.pairs else np.zeros_like(h_true),
        "fs_lmmse": bands_to_dense(baselines.fs_lmmse(y_tf, frame, cov, n0)),
        "st_ls": single_tap,
        "st_lmmse": single_tap / (1.0 + n0),
        "tf_lasso": summed(gains, baselines.full_grid_pairs(d)),
    }
    energy = np.sum(np.abs(h_true) ** 2)
    return {name: np.sum(np.abs(estimates[name] - h_true) ** 2) / energy for name in cfg.estimators}


class TestBandScoring:
    @pytest.mark.parametrize("data_mode", ["none", "qpsk"])
    def test_every_nmse_matches_a_dense_oracle_trial(self, data_mode):
        cfg = lasso_sweep_config(data_mode, estimators=ESTIMATOR_NAMES, trials=2)
        cov = fit_config_covariance(cfg)
        for snr_db in cfg.snr_grid_db:
            for t in range(cfg.trials):
                got = run_trial(cfg, snr_db, t, cov)
                want = dense_trial(cfg, snr_db, t, cov)
                assert set(got) == set(ESTIMATOR_NAMES)
                for name in ESTIMATOR_NAMES:
                    assert got[name] == pytest.approx(want[name], rel=1e-12, abs=0), name

    def test_every_channel_in_a_trial_is_a_band_stack(self, monkeypatch):
        # the truth, the four baselines' estimates and CDCE's reconstruction
        sizes = []
        for mod, name in ((harness, "effective_tf_channel"), (harness, "st_ls"), (harness, "st_lmmse"),
                          (harness, "fs_lmmse"), (harness, "tf_lasso"), (estimator, "reconstruct")):
            def spy(*args, _fn=getattr(mod, name), **kwargs):
                out = _fn(*args, **kwargs)
                sizes.append(out.shape)
                return out

            monkeypatch.setattr(mod, name, spy)
        cfg = lasso_sweep_config(estimators=ESTIMATOR_NAMES, trials=1)
        run_trial(cfg, 15.0, 0)
        assert len(sizes) == 6
        assert set(sizes) == {(2, D.n, D.m, D.m)}


@pytest.fixture
def solves(monkeypatch):
    """The shape of y in every solve_lasso call that tf_lasso and the sweep make."""
    shapes = []
    solve_lasso = baselines.solve_lasso

    def recording(y, dictionary, lasso):
        shapes.append(np.shape(y))
        return solve_lasso(y, dictionary, lasso)

    monkeypatch.setattr(baselines, "solve_lasso", recording)
    return shapes


@pytest.fixture
def soft_thresholds(monkeypatch):
    """The threshold of every soft_threshold call, one per FISTA iteration."""
    calls = []
    soft_threshold = estimator.soft_threshold
    monkeypatch.setattr(estimator, "soft_threshold",
                        lambda x, gamma: calls.append(gamma) or soft_threshold(x, gamma))
    return calls


class TestBatchedLassoSweep:
    @pytest.mark.parametrize("data_mode", ["none", "qpsk"])
    def test_rows_are_the_linear_mean_of_run_trial(self, monkeypatch, solves, data_mode):
        # each SNR point holds two full batches and a partial one
        monkeypatch.setattr(harness, "LASSO_BATCH", 5)
        cfg = lasso_sweep_config(data_mode, trials=13)
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always")
            rows = run_sweep(cfg)
        assert solves == [(5, 112), (5, 112), (3, 112)] * len(cfg.snr_grid_db)
        solves.clear()
        with warnings.catch_warnings(record=True) as single:
            warnings.simplefilter("always")
            ratios = {
                snr_db: [run_trial(cfg, snr_db, t) for t in range(cfg.trials)]
                for snr_db in cfg.snr_grid_db
            }
        # run_trial outside a sweep solves each problem on its own
        assert solves == [(112,)] * (cfg.trials * len(cfg.snr_grid_db))
        assert sorted(str(w.message) for w in swept) == sorted(str(w.message) for w in single)
        for row in rows:
            values = np.array([result[row.estimator] for result in ratios[row.snr_db]])
            mean = float(values.mean())
            se_lin = float(values.std(ddof=1)) / math.sqrt(cfg.trials)
            stderr = (10.0 / math.log(10.0)) * se_lin / mean
            assert row.nmse_db.hex() == harness.ratio_db(mean).hex()
            assert row.stderr_db.hex() == stderr.hex()

    def test_random_pilot_sweep_solves_trial_by_trial(self, solves):
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu", placement="uniform_random")
        cfg = lasso_sweep_config(frame=spec, trials=3, snr_grid_db=(10.0,))
        with warnings.catch_warnings():
            # a full-grid fit on random pilots may use up max_iter; only the calls matter here
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(cfg)
        assert solves == [(112,)] * 3

    @pytest.mark.parametrize("data_mode", ["none", "qpsk"])
    def test_run_trial_given_its_gains_only_reconstructs(self, soft_thresholds, data_mode):
        cfg = lasso_sweep_config(data_mode, estimators=("cdce", "st_ls", "tf_lasso"))
        for snr_db in cfg.snr_grid_db:
            for t in range(cfg.trials):
                _, frame, y_tf = harness._received(cfg, snr_db, t, harness._check_snr(snr_db))
                gains = baselines.tf_lasso_gains(vec(y_tf), frame, cfg.lasso, cfg.pulse)
                soft_thresholds.clear()
                solved = run_trial(cfg, snr_db, t)
                assert len(soft_thresholds) > 0
                soft_thresholds.clear()
                given = run_trial(cfg, snr_db, t, lasso_gains=gains)
                assert soft_thresholds == []
                assert {k: v.hex() for k, v in given.items()} == {k: v.hex() for k, v in solved.items()}

    def test_tf_lasso_without_gains_solves(self, soft_thresholds):
        cfg = lasso_sweep_config(trials=1, snr_grid_db=(10.0,))
        _, frame, y_tf = harness._received(cfg, 10.0, 0, harness._check_snr(10.0))
        solved = baselines.tf_lasso(y_tf, frame, cfg.lasso, cfg.pulse)
        assert len(soft_thresholds) > 0
        gains = baselines.tf_lasso_gains(vec(y_tf), frame, cfg.lasso, cfg.pulse)
        soft_thresholds.clear()
        given = baselines.tf_lasso(y_tf, frame, cfg.lasso, cfg.pulse, gains=gains)
        assert soft_thresholds == []
        assert given.tobytes() == solved.tobytes()

    @pytest.mark.parametrize("data_mode", ["none", "qpsk"])
    @pytest.mark.parametrize("sequence_kind", ["all_ones", "walsh", "zadoff_chu"])
    def test_lattice_trials_share_one_pilot_only_grid(self, sequence_kind, data_mode):
        # a sweep chunk's tf_lasso problems are all solved against one trial's
        # frame; 16 symbols give the lattice the 64 pilots a Walsh row needs
        d = Dims(8, 16, 2)
        spec = FrameSpec(dims=d, sequence_kind=sequence_kind, data_mode=data_mode)
        cfg = lasso_sweep_config(dims=d, frame=spec)
        frames = [
            assemble_frame(spec, harness._trial_rngs(cfg, snr_db, t)[1])
            for snr_db in cfg.snr_grid_db
            for t in range(2 * harness.LASSO_BATCH + 1)
        ]
        assert len({frame.pilot_only_tf.tobytes() for frame in frames}) == 1
        if data_mode == "qpsk":
            assert len({frame.tf.tobytes() for frame in frames}) == len(frames)

    def test_full_grid_pairs_are_built_once_per_dims(self):
        pairs = baselines.full_grid_pairs(D)
        assert baselines.full_grid_pairs(Dims(8, 14, 2)) is pairs
        assert len(pairs) == len(set(pairs)) == D.grid_size


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

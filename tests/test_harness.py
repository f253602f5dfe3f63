import csv
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
    ratio_db,
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

# the two data fills, with ids naming what fills the data elements
DATA_FILLS = pytest.mark.parametrize("data_mode", ["pilot_only", "with_data"], ids=["none", "qpsk"])


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


def nmse_db(h_hat, h_true):
    """An estimate's NMSE in dB as a sweep scores it: ratio_db of _ratio."""
    return ratio_db(harness._ratio(h_hat, h_true, harness._energy(h_true)))


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
        with pytest.raises(ZeroDivisionError):
            nmse_db(np.ones((2, 2)), np.zeros((2, 2)))

    def test_floor_clamps_tiny_errors(self):
        h = np.ones((4, 4), dtype=complex)
        assert nmse_db(h + 1e-200, h) == -200.0

    @pytest.mark.parametrize("seed", range(5))
    def test_energy_is_the_sum_of_squared_magnitudes(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((2, D.n, D.m, D.m)) + 1j * rng.standard_normal((2, D.n, D.m, D.m))
        energy = harness._energy(h)
        assert type(energy) is float
        assert energy == pytest.approx(float(np.sum(np.abs(h) ** 2)), rel=1e-15, abs=0)

    def test_energy_of_zero_bands_is_exactly_zero(self):
        assert harness._energy(np.zeros((2, D.n, D.m, D.m), dtype=complex)) == 0.0


class TestSimConfig:
    def test_defaults(self):
        cfg = make_config()
        assert cfg.frame.data_mode == "pilot_only"
        assert cfg.base_seed == 0

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
        r = apply_channel(tf_to_time(frame.tf, D, with_cp=True), time_channel_matrix(ch), n0, noise_rng)
        y = time_to_tf(remove_cp(r, D), D)
        h_true = effective_tf_channel(ch)
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

    @DATA_FILLS
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


def lasso_sweep_config(data_mode="pilot_only", **overrides):
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
    _, frame, y_tf = harness._received(cfg, snr_db, t, n0)
    ch = sample_channel(cfg.stats, d, harness._trial_rngs(cfg, snr_db, t)[0])
    h_true = dense_effective_tf(time_channel_matrix(ch), d)

    def summed(gains, pairs):
        return dense_reconstruct_oracle(gains, [dense_atom(d, l, k) for l, k in pairs])

    mask = frame.pilot_only_tf != 0
    ratios = np.where(mask, y_tf / np.where(mask, frame.pilot_only_tf, 1), 0)
    single_tap = np.diag(vec(interpolate_grid_loop(ratios, mask)))
    est = cdce_estimate(y_tf, frame, cfg.stats, n0, lasso=cfg.lasso)
    gains = baselines.tf_lasso_gains(vec(y_tf), frame, cfg.lasso)
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
    @DATA_FILLS
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


def assert_each_draw_precedes_its_detection(monkeypatch, cfg):
    """A tracer scores each threshold_select against the latest
    sample_channel, so a sweep must draw trial t's channel right before
    trial t's detection, once, in trial order; the benchmark times the sweep
    between its run_trial calls, one per trial. The trial's truth is built
    once, right after the draw, and every estimator is scored against it."""
    want = []
    for snr_db in cfg.snr_grid_db:
        for t in range(cfg.trials):
            ch = harness.sample_channel(cfg.stats, cfg.dims, harness._trial_rngs(cfg, snr_db, t)[0])
            want += [ch, ("truth", ch), "select"]
    calls = []
    sample_channel, threshold_select = harness.sample_channel, estimator.threshold_select
    effective_tf_channel = harness.effective_tf_channel

    def sampling(*args):
        ch = sample_channel(*args)
        calls.append(ch)
        return ch

    monkeypatch.setattr(harness, "sample_channel", sampling)
    monkeypatch.setattr(harness, "effective_tf_channel",
                        lambda ch: calls.append(("truth", ch)) or effective_tf_channel(ch))
    monkeypatch.setattr(estimator, "threshold_select", lambda *a: calls.append("select") or threshold_select(*a))
    keys = []
    run_trial = harness.run_trial

    def keyed(c, snr_db, t, *args, **kwargs):
        keys.append((snr_db, t))
        return run_trial(c, snr_db, t, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", keyed)
    run_sweep(cfg)
    assert calls == want
    assert keys == [(snr_db, t) for snr_db in cfg.snr_grid_db for t in range(cfg.trials)]


class TestBatchedLassoSweep:
    @DATA_FILLS
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
            if row.estimator == "tf_lasso":
                # a batched row is within rtol 1e-12 of its own solve, which
                # moves an NMSE above -40 dB by well under 1e-9 dB
                assert row.nmse_db == pytest.approx(harness.ratio_db(mean), rel=0, abs=1e-9)
                assert row.stderr_db == pytest.approx(stderr, rel=0, abs=1e-9)
            else:
                assert row.nmse_db.hex() == harness.ratio_db(mean).hex()
                assert row.stderr_db.hex() == stderr.hex()

    def test_random_pilot_sweep_solves_trial_by_trial(self, monkeypatch, solves):
        # off the lattice, each run_trial call solves and scores its own
        # trial's tf_lasso problem
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu", placement="uniform_random")
        cfg = lasso_sweep_config(frame=spec, trials=3, snr_grid_db=(10.0,))
        calls = []
        run_trial = harness.run_trial

        def counted(c, snr_db, t, *args, **kwargs):
            before = len(solves)
            out = run_trial(c, snr_db, t, *args, **kwargs)
            calls.append((t, len(solves) - before, sorted(out)))
            return out

        monkeypatch.setattr(harness, "run_trial", counted)
        with warnings.catch_warnings():
            # a full-grid fit on random pilots may use up max_iter; only the calls matter here
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(cfg)
        assert solves == [(112,)] * 3
        assert calls == [(t, 1, ["cdce", "tf_lasso"]) for t in range(3)]

    @pytest.mark.parametrize("spec", [
        FrameSpec(dims=D, data_mode="with_data"),
        FrameSpec(dims=D, sequence_kind="zadoff_chu", placement="uniform_random"),
    ], ids=["lattice", "uniform_random"])
    def test_a_lattice_chunk_keeps_only_its_first_frame(self, monkeypatch, spec):
        monkeypatch.setattr(harness, "LASSO_BATCH", 5)
        cfg = lasso_sweep_config(frame=spec, trials=7, snr_grid_db=(10.0,), estimators=("tf_lasso",))
        drawn, scored, truths = [], [], []
        received, tf_lasso, ratio = harness._received, harness.tf_lasso, harness._ratio

        def drawing(*args):
            drawn.append(received(*args))
            return drawn[-1]

        def scoring(y_tf, frame, *args, **kwargs):
            scored.append(frame)
            return tf_lasso(y_tf, frame, *args, **kwargs)

        monkeypatch.setattr(harness, "_received", drawing)
        monkeypatch.setattr(harness, "tf_lasso", scoring)
        monkeypatch.setattr(harness, "_ratio",
                            lambda h_hat, h_true, energy: truths.append(h_true) or ratio(h_hat, h_true, energy))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(cfg)
        frames = [frame for _, frame, _ in drawn]
        if spec.placement == "lattice":
            frames = [frames[0]] * 5 + [frames[5]] * 2
        assert len(scored) == 7 and all(a is b for a, b in zip(scored, frames))
        # each score is against the truth its trial's chain built
        assert len(truths) == 7 and all(a is h_true for a, (h_true, _, _) in zip(truths, drawn))

    @DATA_FILLS
    def test_run_trial_given_its_chain_matches_run_trial(self, monkeypatch, data_mode):
        cfg = lasso_sweep_config(data_mode, estimators=ESTIMATOR_NAMES)
        cov = fit_config_covariance(cfg)
        sampled = []
        sample_channel = harness.sample_channel
        monkeypatch.setattr(harness, "sample_channel", lambda *a: sampled.append(a) or sample_channel(*a))
        for snr_db in cfg.snr_grid_db:
            for t in range(cfg.trials):
                solved = run_trial(cfg, snr_db, t, cov)
                rec = harness._received(cfg, snr_db, t, harness._check_snr(snr_db))
                sampled.clear()
                given = run_trial(cfg, snr_db, t, cov, received=rec)
                assert sampled == []
                assert {k: v.hex() for k, v in given.items()} == {k: v.hex() for k, v in solved.items()}

    @DATA_FILLS
    def test_sweep_draws_each_channel_just_before_its_detection(self, monkeypatch, data_mode):
        monkeypatch.setattr(harness, "LASSO_BATCH", 5)
        assert_each_draw_precedes_its_detection(monkeypatch, lasso_sweep_config(data_mode, trials=13))

    def test_random_pilot_sweep_draws_each_channel_just_before_its_detection(self, monkeypatch):
        monkeypatch.setattr(harness, "LASSO_BATCH", 5)
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu", placement="uniform_random")
        with warnings.catch_warnings():
            # a full-grid fit on random pilots may use up max_iter; only the calls matter here
            warnings.simplefilter("ignore", RuntimeWarning)
            assert_each_draw_precedes_its_detection(monkeypatch, lasso_sweep_config(frame=spec, trials=7))

    def test_lattice_sweep_without_tf_lasso_draws_each_channel_once(self, monkeypatch):
        monkeypatch.setattr(harness, "LASSO_BATCH", 5)
        cfg = lasso_sweep_config(trials=7, estimators=("cdce", "st_ls", "fs_lmmse"))
        assert_each_draw_precedes_its_detection(monkeypatch, cfg)

    def test_random_pilot_sweep_is_the_mean_of_run_trial(self):
        # every row, tf_lasso's too, since a random-pilot sweep solves each
        # tf_lasso problem on its own as run_trial does
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu", placement="uniform_random")
        cfg = lasso_sweep_config(frame=spec, trials=5, estimators=ESTIMATOR_NAMES)
        cov = fit_config_covariance(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = run_sweep(cfg, cov)
            ratios = {snr_db: [run_trial(cfg, snr_db, t, cov) for t in range(cfg.trials)]
                      for snr_db in cfg.snr_grid_db}
        assert len(rows) == len(ESTIMATOR_NAMES) * len(cfg.snr_grid_db)
        for row in rows:
            values = np.array([result[row.estimator] for result in ratios[row.snr_db]])
            mean = float(values.mean())
            se_lin = float(values.std(ddof=1)) / math.sqrt(cfg.trials)
            stderr = (10.0 / math.log(10.0)) * se_lin / mean
            assert row.nmse_db.hex() == ratio_db(mean).hex(), row.estimator
            assert row.stderr_db.hex() == stderr.hex(), row.estimator

    def test_tf_lasso_only_sweep_is_the_mean_of_run_trial(self, monkeypatch, solves):
        monkeypatch.setattr(harness, "LASSO_BATCH", 5)
        cfg = lasso_sweep_config(trials=7, estimators=("tf_lasso",))
        rows = run_sweep(cfg)
        assert solves == [(5, 112), (2, 112)] * len(cfg.snr_grid_db)
        assert [(row.estimator, row.snr_db) for row in rows] == [("tf_lasso", s) for s in cfg.snr_grid_db]
        for row in rows:
            values = np.array([run_trial(cfg, row.snr_db, t)["tf_lasso"] for t in range(cfg.trials)])
            assert row.nmse_db == pytest.approx(harness.ratio_db(float(values.mean())), rel=0, abs=1e-9)

    def test_tf_lasso_without_gains_solves(self, soft_thresholds):
        cfg = lasso_sweep_config(trials=1, snr_grid_db=(10.0,))
        _, frame, y_tf = harness._received(cfg, 10.0, 0, harness._check_snr(10.0))
        solved = baselines.tf_lasso(y_tf, frame, cfg.lasso)
        assert len(soft_thresholds) > 0
        gains = baselines.tf_lasso_gains(vec(y_tf), frame, cfg.lasso)
        soft_thresholds.clear()
        given = baselines.tf_lasso(y_tf, frame, cfg.lasso, gains=gains)
        assert soft_thresholds == []
        assert given.tobytes() == solved.tobytes()

    @DATA_FILLS
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
        if data_mode == "with_data":
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
        emit(self.ROWS, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,snr_db,trials,nmse_db,stderr_db"
        assert lines[1] == "st_ls,0,4,-3.250000,0.500000"
        assert len(lines) == 3

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "rows.csv"
        emit(self.ROWS, str(out))
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert [p["estimator"] for p in parsed] == ["st_ls", "cdce"]
        assert float(parsed[1]["nmse_db"]) == pytest.approx(-11.125)

    def test_empty_rows_still_write_the_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit([], str(out))
        assert out.read_text().splitlines() == [
            "estimator,snr_db,trials,nmse_db,stderr_db"
        ]

    def test_noiseless_point_is_inf(self, tmp_path):
        rows = [ResultRow(estimator="cdce", snr_db=math.inf, trials=4, nmse_db=-200.0, stderr_db=0.0)]
        emit(rows, str(tmp_path / "rows.csv"))
        assert (tmp_path / "rows.csv").read_text().splitlines()[1].split(",")[1] == "inf"

    def test_snr_labels_tell_distinct_points_apart(self, tmp_path):
        # both points load, their seed keys differ, and both print as 100 under :g
        snrs = [0.0, 5.0, 10.0, 15.0, 20.0, -2.5, 100.00001, 100.00002]
        rows = [ResultRow(estimator="st_ls", snr_db=s, trials=4, nmse_db=-3.25, stderr_db=0.5) for s in snrs]
        out = tmp_path / "rows.csv"
        emit(rows, str(out))
        labels = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
        assert labels == ["0", "5", "10", "15", "20", "-2.5", "100.00001", "100.00002"]
        assert [float(label) for label in labels] == snrs

    def test_unwritable_path_reports_the_target(self):
        with pytest.raises(OSError, match="cannot write results"):
            emit(self.ROWS, "/nonexistent-dir/rows.csv")

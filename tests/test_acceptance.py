"""End-to-end acceptance gate.

Each test prints one pass/fail line with the measured numbers. The two
Monte Carlo sweeps (500 paired trials per SNR point, pilot-only and with
data) are shared module fixtures so the whole gate runs them once. The
module is marked ``slow``: ``pytest -m "not slow"`` runs everything else.
"""

import math
import time

import numpy as np
import pytest

from cdce.baselines import fit_covariance, fs_lmmse
from cdce.channel import (
    ChannelRealization,
    ChannelStats,
    PathParams,
    effective_tf_channel,
    full_grid_pairs,
    sample_channel,
)
from cdce.estimator import (
    LassoConfig,
    build_dictionary,
    cdce_estimate,
    doppler_col,
    reconstruct,
    solve_lasso,
    solve_ls,
    twisted_convolution,
)
from cdce.estimator import Dictionary
from cdce.grids import (
    Dims,
    add_cp,
    dft_matrix,
    remove_cp,
    tf_to_dd,
    unvec,
    vec,
)
from cdce.harness import SimConfig, _trial_rngs, fit_config_covariance, run_sweep, run_trial
from cdce.pilots import (
    FrameSpec,
    af_summary,
    assemble_frame,
    discrete_af,
    pilot_dd_image,
)

from oracles import (
    bands_to_dense,
    dense_atom,
    dense_fs_lmmse_oracle,
    ista_reference,
    lasso_certificate_gap,
    received_tf,
)

pytestmark = pytest.mark.slow

D = Dims(8, 14, 2)
STATS = ChannelStats()
SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0)
TRIALS = 500
RUNTIME_BUDGET_S = 600.0
REGION = STATS.region_pairs


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def sweep_config(mode):
    frame = FrameSpec(dims=D, data_mode=mode)
    return SimConfig(
        dims=D,
        stats=STATS,
        frame=frame,
        snr_grid_db=SNR_GRID,
        trials=TRIALS,
    )


def by_key(rows):
    return {(r.estimator, r.snr_db): r.nmse_db for r in rows}


@pytest.fixture(scope="module")
def pilot_sweep():
    t0 = time.perf_counter()
    rows = run_sweep(sweep_config("pilot_only"))
    return by_key(rows), time.perf_counter() - t0


@pytest.fixture(scope="module")
def data_cov():
    return fit_config_covariance(sweep_config("with_data"))


@pytest.fixture(scope="module")
def data_sweep(data_cov):
    rows = run_sweep(sweep_config("with_data"), data_cov)
    return by_key(rows)


def ls_noise_gain(pairs):
    """Least-squares noise amplification of the unit-path dictionary at
    ``pairs`` on the default lattice frame: tr((A^H A)^-1 G_F) / MN, with A
    the pilot responses of the atoms and G_F their Frobenius Gram. Times N0
    and E[1 / sum |g_p|^2] it is the NMSE of the unregularized fit."""
    x = vec(assemble_frame(FrameSpec(dims=D)).pilot_only_tf)
    atoms = [dense_atom(D, l, k) for l, k in pairs]
    a = np.column_stack([t @ x for t in atoms])
    t = np.column_stack([t.ravel() for t in atoms])
    amp = np.linalg.solve(a.conj().T @ a, t.conj().T @ t)
    return float(np.real(np.trace(amp))) / D.grid_size


def test_criterion_1_pilot_only_gap_and_runtime(pilot_sweep):
    nmse, elapsed = pilot_sweep
    gaps = {s: nmse[("cdce", s)] - nmse[("fs_lmmse", s)] for s in SNR_GRID}
    in_budget = elapsed < RUNTIME_BUDGET_S
    ok = all(g <= -2.0 for g in gaps.values()) and in_budget
    detail = (
        "gap dB per SNR "
        + ", ".join(f"{s:g}:{g:+.2f}" for s, g in gaps.items())
        + f"; need <= -2.00 each; sweep took {elapsed:.0f}s of {RUNTIME_BUDGET_S:.0f}s"
    )
    assert report(1, ok, detail), detail


def test_criterion_2_with_data_gap(data_sweep):
    nmse = data_sweep
    gaps = {s: nmse[("cdce", s)] - nmse[("fs_lmmse", s)] for s in SNR_GRID}
    ok = all(g <= -3.0 for g in gaps.values())
    detail = (
        "gap dB per SNR "
        + ", ".join(f"{s:g}:{g:+.2f}" for s, g in gaps.items())
        + "; need <= -3.00 each"
    )
    assert report(2, ok, detail), detail


def test_criterion_2_bound_within_reach_of_stage_two(data_cov):
    # Stage two fitted on each channel's true support, on the with-data
    # sweep's own frames, beats FS-LMMSE by criterion 2's 3 dB: the bound is
    # within reach of the LS stage, so coarse detection is what falls short.
    cfg = sweep_config("with_data")
    gaps = {}
    for snr in SNR_GRID:
        n0 = 10.0 ** (-snr / 10.0)
        oracle, lmmse = [], []
        for t in range(100):
            channel_rng, frame_rng, noise_rng = _trial_rngs(cfg, snr, t)
            ch = sample_channel(STATS, D, channel_rng)
            frame = assemble_frame(cfg.frame, frame_rng)
            y = received_tf(frame, ch, n0, noise_rng)
            h_true = effective_tf_channel(ch)
            energy = np.sum(np.abs(h_true) ** 2)
            pairs = tuple((p.delay_int, p.doppler_int) for p in ch.paths)
            gains = solve_ls(vec(y), build_dictionary(frame.pilot_only_tf, pairs, D))
            h_oracle = reconstruct(gains, pairs, D)
            oracle.append(np.sum(np.abs(h_oracle - h_true) ** 2) / energy)
            lmmse.append(np.sum(np.abs(fs_lmmse(y, frame, data_cov, n0) - h_true) ** 2) / energy)
        # the frames are the harness's own: trial 0 scores FS-LMMSE identically
        assert lmmse[0] == pytest.approx(run_trial(cfg, snr, 0, data_cov)["fs_lmmse"], rel=1e-9)
        gaps[snr] = 10 * math.log10(np.mean(oracle) / np.mean(lmmse))
    ok = all(g <= -3.0 for g in gaps.values())
    detail = (
        "true-support LS - fs_lmmse gap dB per SNR over 100 with-data trials "
        + ", ".join(f"{s:g}:{g:+.2f}" for s, g in gaps.items())
        + "; need <= -3.00 each"
    )
    assert report("2 (stage two)", ok, detail), detail


def test_criterion_3_single_tap_floors(pilot_sweep, data_sweep):
    pilot, _ = pilot_sweep
    data = data_sweep
    checks = []
    for name in ("st_ls", "st_lmmse"):
        p_mean = np.mean([pilot[(name, s)] for s in SNR_GRID])
        d_mean = np.mean([data[(name, s)] for s in SNR_GRID])
        p_slope = abs(pilot[(name, 20.0)] - pilot[(name, 15.0)]) * 2.0
        d_slope = abs(data[(name, 20.0)] - data[(name, 15.0)]) * 2.0
        checks.append((name, p_mean, d_mean, max(p_slope, d_slope)))
    ok = all(
        -7.0 <= p <= -1.0 and -8.0 <= d <= -2.0 and slope < 1.0
        for _, p, d, slope in checks
    )
    detail = "; ".join(
        f"{name} pilot {p:.2f} dB in [-7,-1], data {d:.2f} dB in [-8,-2], "
        f"slope {slope:.2f} dB/10dB < 1"
        for name, p, d, slope in checks
    )
    assert report(3, ok, detail), detail


def test_criterion_4_tf_lasso_failure_on_the_lattice(pilot_sweep):
    # Dropping the coarse stage widens the LS fit from the region to the
    # whole grid; its noise amplification grows by G, and tf_lasso must pay
    # at least that much over cdce at every SNR.
    nmse, _ = pilot_sweep
    gain_full = ls_noise_gain(full_grid_pairs(D))
    gain_region = ls_noise_gain(REGION)
    g_db = 10 * math.log10(gain_full / gain_region)
    p = STATS.n_paths
    floor_0db = 10 * math.log10(gain_full * p / (p - 1))
    gaps = {s: nmse[("tf_lasso", s)] - nmse[("cdce", s)] for s in SNR_GRID}
    ok = all(g >= g_db for g in gaps.values())
    detail = (
        "tf_lasso - cdce gap dB per SNR "
        + ", ".join(f"{s:g}:{g:+.2f}" for s, g in gaps.items())
        + f"; need >= G = {g_db:.2f} each (LS noise gain {gain_full:.3f} full grid "
        + f"vs {gain_region:.3f} region); tf_lasso NMSE / analytic LS floor per SNR "
        + ", ".join(f"{s:g}:{nmse[('tf_lasso', s)]:+.2f}/{floor_0db - s:+.2f}" for s in SNR_GRID)
    )
    assert report(4, ok, detail), detail


def test_criterion_5_coarse_stage_exhaustive():
    frame = assemble_frame(FrameSpec(dims=D))
    x_dd = tf_to_dd(frame.pilot_only_tf, D)
    hits = 0
    for l, k in REGION:
        ch = ChannelRealization(
            paths=(PathParams(gain=1.0, delay_int=l, doppler_int=k),), dims=D
        )
        y = received_tf(frame, ch)
        v = twisted_convolution(tf_to_dd(y, D), x_dd)
        scores = {(lc, kc): abs(v[lc, doppler_col(kc, D.n)]) for lc, kc in REGION}
        hits += max(scores, key=scores.get) == (l, k)
    ok = hits == len(REGION)
    detail = f"noiseless coarse argmax exact on {hits}/{len(REGION)} single-path channels"
    assert report(5, ok, detail), detail


def test_criterion_6_exact_recovery_on_noiseless_three_path_channels():
    frame = assemble_frame(FrameSpec(dims=D))
    rng = np.random.default_rng(2026)
    worst = -math.inf
    hits = 0
    for _ in range(100):
        ch = sample_channel(STATS, D, rng)
        y = received_tf(frame, ch)
        h_true = effective_tf_channel(ch)
        est = cdce_estimate(y, frame, STATS, n0=0.0)
        err = 10 * np.log10(
            np.sum(np.abs(est.h_tf_hat - h_true) ** 2) / np.sum(np.abs(h_true) ** 2)
        )
        worst = max(worst, err)
        hits += err < -80.0
    ok = hits == 100
    detail = f"noiseless LS recovery below -80 dB on {hits}/100 draws, worst {worst:.1f} dB"
    assert report(6, ok, detail), detail


def test_criterion_7_solver_oracle():
    rng = np.random.default_rng(7)
    lam = 0.05
    worst_diff = 0.0
    worst_gap = 0.0
    for _ in range(50):
        d = rng.standard_normal((40, 12)) + 1j * rng.standard_normal((40, 12))
        d /= np.linalg.norm(d, axis=0)
        h = np.zeros(12, dtype=complex)
        support = rng.choice(12, size=3, replace=False)
        h[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = d @ h + 0.05 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        dictionary = Dictionary(matrix=d, pairs=tuple((j, 0) for j in range(12)))
        ours = solve_lasso(y, dictionary, LassoConfig(lam=lam, tol=1e-12, max_iter=100000))
        ref = ista_reference(y, d, lam)
        worst_diff = max(worst_diff, float(np.max(np.abs(ours - ref))))
        worst_gap = max(worst_gap, lasso_certificate_gap(y, d, lam, ours))
    ok = worst_diff <= 1e-4 and worst_gap <= 1e-3
    detail = (
        f"50 instances: max entry diff vs ISTA {worst_diff:.2e} <= 1e-4, "
        f"max certificate gap {worst_gap:.2e} <= 1e-3"
    )
    assert report(7, ok, detail), detail


def test_criterion_8_transform_and_property_suite():
    rng = np.random.default_rng(8)
    failures = []

    for n in (8, 14):
        f = dft_matrix(n)
        if not np.allclose(f @ f.conj().T, np.eye(n), atol=1e-12):
            failures.append(f"DFT({n}) not unitary")

    s = rng.standard_normal(D.frame_len) + 1j * rng.standard_normal(D.frame_len)
    payload = remove_cp(add_cp(remove_cp(add_cp(s[: D.m * D.n], D), D), D), D)
    if not np.allclose(payload, s[: D.m * D.n], atol=1e-12):
        failures.append("CP round trip broke the payload")

    for trial in range(5):
        ch = sample_channel(STATS, D, rng)
        frame = assemble_frame(FrameSpec(dims=D, data_mode="with_data"), rng)
        y_sig = received_tf(frame, ch)
        y_mat = unvec(bands_to_dense(effective_tf_channel(ch)) @ vec(frame.tf), D.m, D.n)
        rel = np.linalg.norm(y_sig - y_mat) / np.linalg.norm(y_mat)
        if rel > 1e-10:
            failures.append(f"chain equivalence off by {rel:.1e}")

    frame = assemble_frame(FrameSpec(dims=D))
    af = discrete_af(pilot_dd_image(frame))
    if not np.all(np.abs(af) <= abs(af[0, 0]) + 1e-12):
        failures.append("AF self-correlation peak not maximal")

    d4 = Dims(4, 4, 2)
    stats4 = ChannelStats(n_paths=2, l_max=2, k_max=1)
    cov = fit_covariance(stats4, d4, 50, np.random.default_rng(80))
    frame4 = assemble_frame(FrameSpec(dims=d4), None)
    ch4 = sample_channel(stats4, d4, np.random.default_rng(81))
    y4 = received_tf(frame4, ch4, n0=0.3, rng=np.random.default_rng(82))
    fact = fs_lmmse(y4, frame4, cov, 0.3)
    atoms = np.column_stack([vec(dense_atom(d4, l, k)) for l, k in cov.pairs])
    dense = dense_fs_lmmse_oracle(
        vec(y4), vec(frame4.pilot_only_tf), atoms @ cov.mean, atoms @ cov.factor, 0.3
    )
    if not np.allclose(bands_to_dense(fact), unvec(dense, d4.grid_size, d4.grid_size), atol=1e-8):
        failures.append("factored FS-LMMSE disagrees with the dense oracle")

    ok = not failures
    detail = "unitarity, CP round trip, chain equivalence, AF peak, FS-LMMSE oracle all green" if ok else "; ".join(failures)
    assert report(8, ok, detail), detail


def test_criterion_9_pilot_sequence_analysis():
    d16 = Dims(16, 16, 2)

    def study(kind):
        s = af_summary(FrameSpec(dims=d16, freq_spacing=2, time_spacing=1, sequence_kind=kind))
        ratio = s["af_peak"] / s["af_max_sidelobe"] if s["af_max_sidelobe"] else math.inf
        return s["n_pilots"], s["bins_for_90pct"], ratio

    np_ones, bins_ones, ratio_ones = study("all_ones")
    np_walsh, bins_walsh, ratio_walsh = study("walsh")
    np_zc, bins_zc, ratio_zc = study("zadoff_chu")
    assert np_ones == np_walsh == np_zc

    ok = (
        bins_ones <= np_ones
        and bins_walsh <= np_walsh
        and ratio_ones >= 2.0 * ratio_zc
        and ratio_walsh >= 2.0 * ratio_zc
    )
    detail = (
        f"90% energy bins: all_ones {bins_ones}, walsh {bins_walsh} (cap {np_ones}); "
        f"AF peak/sidelobe: all_ones {ratio_ones:.2f}, walsh {ratio_walsh:.2f}, "
        f"zadoff_chu {ratio_zc:.2f}; lattice pilots need >= 2x the ZC ratio"
    )
    assert report(9, ok, detail), detail

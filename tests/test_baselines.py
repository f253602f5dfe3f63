import numpy as np
import pytest

import cdce.baselines as baselines
import cdce.estimator as estimator
from cdce.baselines import (
    CovarianceModel,
    fit_covariance,
    fs_lmmse,
    st_lmmse,
    st_ls,
    tf_lasso,
)
from cdce.channel import (
    ChannelRealization,
    ChannelStats,
    PathParams,
    effective_tf_channel,
    sample_channel,
)
from cdce.estimator import LassoConfig, reconstruct
from cdce.grids import Dims, unvec, vec
from cdce.pilots import Frame, FrameSpec, assemble_frame

from oracles import (
    bands_to_dense,
    dense_atom,
    dense_fs_lmmse_oracle,
    fit_covariance_reference,
    interpolate_grid_loop,
    received_tf,
)

D = Dims(8, 14, 2)


def lifted(cov, d):
    """Mean and factor of vec(H_TF): the path-gain model mapped through the
    vectorized unit-path atoms."""
    atoms = np.column_stack(
        [vec(dense_atom(d, l, k)) for l, k in cov.pairs]
    )
    return atoms @ cov.mean, atoms @ cov.factor


def nmse_db(est, true):
    return 10 * np.log10(np.sum(np.abs(est - true) ** 2) / np.sum(np.abs(true) ** 2))


@pytest.fixture(scope="module")
def frame():
    return assemble_frame(FrameSpec(dims=D))


def interp_masks():
    """Pilot masks of every kind the vectorized interpolation must handle."""
    rng = np.random.default_rng(3)
    masks = []
    for f, t in ((2, 1), (3, 2)):
        masks.append(assemble_frame(FrameSpec(dims=D, freq_spacing=f, time_spacing=t)).pilot_only_tf != 0)
    # lattices with a leading gap before their first pilot row or column
    leading_column = np.zeros((9, 5), bool)
    leading_column[::2, 1::2] = True
    leading_row = np.zeros((6, 11), bool)
    leading_row[1::4, ::3] = True
    masks += [leading_column, leading_row]
    for shape, share in (((8, 14), 0.5), ((8, 14), 0.1), ((5, 9), 0.3), ((1, 6), 0.5), ((7, 1), 0.5)):
        mask = rng.random(shape) < share
        mask[rng.integers(shape[0]), rng.integers(shape[1])] = True
        masks.append(mask)
    one_per_column = np.zeros((8, 14), bool)
    one_per_column[np.arange(14) % 8, np.arange(14)] = True
    masks.append(one_per_column)
    for row in (0, -1):  # pilots only in the first or the last row
        edge = np.zeros((8, 14), bool)
        edge[row, ::3] = True
        masks.append(edge)
    gaps = np.zeros((8, 14), bool)  # pilot-free symbols between pilot symbols
    gaps[[1, 4, 6], 2] = True
    gaps[[0, 7], 9] = True
    gaps[5, 13] = True
    masks.append(gaps)
    return masks


class TestInterpolation:
    @pytest.mark.parametrize("i", range(len(interp_masks())))
    def test_matches_the_np_interp_loop_bit_for_bit(self, i):
        mask = interp_masks()[i]
        rng = np.random.default_rng(i)
        for scale in (1e-3, 1.0, 1e3):
            values = scale * (rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape))
            values[~mask] = 0
            got = baselines._interpolate_grid(values, mask)
            want = interpolate_grid_loop(values, mask)
            assert got.shape == mask.shape and got.dtype == complex
            assert got.tobytes() == want.tobytes()

    def test_constant_ends_and_exact_hits(self):
        mask = np.zeros((5, 4), bool)
        mask[[1, 3], 1] = True
        values = np.zeros((5, 4), dtype=complex)
        values[1, 1], values[3, 1] = 2.0 - 1.0j, 4.0 + 3.0j
        grid = baselines._interpolate_grid(values, mask)
        column = [2.0 - 1.0j, 2.0 - 1.0j, 3.0 + 1.0j, 4.0 + 3.0j, 4.0 + 3.0j]
        np.testing.assert_array_equal(grid, np.repeat(np.array(column)[:, None], 4, axis=1))


class TestStLs:
    def test_identity_channel(self, frame):
        h = st_ls(frame.pilot_only_tf, frame)
        assert h.shape == (2, D.n, D.m, D.m)
        np.testing.assert_allclose(bands_to_dense(h), np.eye(D.grid_size), atol=1e-12)

    def test_flat_channel_gain(self, frame):
        gain = 0.4 - 1.1j
        h = st_ls(gain * frame.pilot_only_tf, frame)
        np.testing.assert_allclose(bands_to_dense(h), gain * np.eye(D.grid_size), atol=1e-12)

    def test_diagonal_output(self, frame):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        h = bands_to_dense(st_ls(y, frame))
        np.testing.assert_array_equal(h - np.diag(np.diag(h)), np.zeros_like(h))

    @pytest.mark.parametrize("placement", ["lattice", "uniform_random"])
    def test_bands_are_the_diagonal_matrix_bit_for_bit(self, placement):
        # the old dense form: np.diag of the np.interp loop's grid, and
        # st_lmmse's shrink of it
        rng = np.random.default_rng(8)
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu", placement=placement)
        for _ in range(5):
            fr = assemble_frame(spec, rng)
            y = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
            mask = fr.pilot_only_tf != 0
            ratios = np.where(mask, y / np.where(mask, fr.pilot_only_tf, 1), 0)
            dense = np.diag(vec(interpolate_grid_loop(ratios, mask)))
            bands = st_ls(y, fr)
            np.testing.assert_array_equal(bands_to_dense(bands), dense)
            np.testing.assert_array_equal(bands_to_dense(st_lmmse(bands, 0.25)), dense / (1.0 + 0.25))

    def test_affine_grid_interpolated_exactly(self):
        d9 = Dims(9, 5, 2)
        fr = assemble_frame(
            FrameSpec(dims=d9, freq_spacing=2, time_spacing=2)
        )
        rows = np.arange(d9.m)[:, None]
        cols = np.arange(d9.n)[None, :]
        x = (0.3 + 0.1j) * rows + (-0.2 + 0.4j) * cols + (1.0 + 1.0j)
        h = bands_to_dense(st_ls(x * fr.pilot_only_tf, fr))
        np.testing.assert_allclose(np.diag(h), vec(x), atol=1e-12)

    def test_pilotless_frame_rejected(self):
        zero = np.zeros((D.m, D.n), dtype=complex)
        fake = Frame(tf=zero, pilot_only_tf=zero, dims=D, data_mode="pilot_only")
        with pytest.raises(ValueError, match="no pilots"):
            st_ls(zero, fake)


class TestStLmmse:
    def test_unit_snr_halves_the_ls_answer(self, frame):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        np.testing.assert_allclose(
            st_lmmse(st_ls(y, frame), 1.0), st_ls(y, frame) / 2.0, atol=1e-14
        )

    def test_high_snr_approaches_ls(self, frame):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        np.testing.assert_allclose(
            st_lmmse(st_ls(y, frame), 1e-12), st_ls(y, frame), rtol=1e-9
        )

    def test_noiseless_keeps_the_ls_answer(self, frame):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        est = st_ls(y, frame)
        assert st_lmmse(est, 0.0).tobytes() == est.tobytes()

    @pytest.mark.parametrize("n0", [-1e-3, -1.0])
    def test_negative_n0_rejected(self, frame, n0):
        with pytest.raises(ValueError, match="n0"):
            st_lmmse(st_ls(frame.pilot_only_tf, frame), n0)


class TestFitCovariance:
    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="2"):
            fit_covariance(ChannelStats(), D, 1, np.random.default_rng(0))

    def test_factor_energy_matches_sample_scatter(self):
        # the lifted model against the statistics of the sampled vec(H_TF)
        stats = ChannelStats()
        k = 20
        cov = fit_covariance(stats, D, k, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        samples = np.empty((D.grid_size**2, k), dtype=complex)
        for j in range(k):
            ch = sample_channel(stats, D, rng)
            samples[:, j] = vec(bands_to_dense(effective_tf_channel(ch)))
        mean = samples.mean(axis=1)
        scatter = (samples - mean[:, None]) / np.sqrt(k)
        lift_mean, lift_factor = lifted(cov, D)
        np.testing.assert_allclose(lift_mean, mean, atol=1e-12)
        assert np.sum(np.abs(lift_factor) ** 2) == pytest.approx(np.sum(np.abs(scatter) ** 2), rel=1e-10)
        # both covariances applied to random probes, without forming either
        probe = np.random.default_rng(43).standard_normal((mean.size, 4)) + 0j
        np.testing.assert_allclose(
            lift_factor @ (lift_factor.conj().T @ probe),
            scatter @ (scatter.conj().T @ probe),
            rtol=0,
            atol=1e-10 * np.linalg.norm(scatter) ** 2 * np.linalg.norm(probe),
        )

    # the ids name the sample grid's ("ideal") pulse, the only one modelled
    @pytest.mark.parametrize("seed", [0, 5, 0x636F76], ids=lambda s: f"{s}-ideal")
    def test_matches_the_sample_channel_loop_bit_for_bit(self, seed):
        for stats, k in ((ChannelStats(), 200), (ChannelStats(n_paths=5, l_max=1, k_max=2), 30)):
            cov = fit_covariance(stats, D, k, np.random.default_rng(seed))
            mean, factor = fit_covariance_reference(stats, D, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(cov.mean, mean)
            np.testing.assert_array_equal(cov.factor, factor)

    def test_rank_saturates_at_region_size(self):
        stats = ChannelStats()
        cov = fit_covariance(stats, D, 100, np.random.default_rng(3))
        assert cov.rank == stats.region_size
        assert cov.n_samples == 100

    def test_identical_samples_give_rank_zero(self, monkeypatch):
        fixed = ChannelRealization(
            paths=(PathParams(gain=1.0, delay_int=1, doppler_int=0),), dims=D
        )
        flat = np.array([ChannelStats().region_pairs.index((1, 0))])
        monkeypatch.setattr(
            baselines, "draw_paths", lambda *a, **k: (flat, np.array([1.0 + 0.0j]))
        )
        cov = fit_covariance(ChannelStats(), D, 5, np.random.default_rng(0))
        assert cov.rank == 0
        np.testing.assert_allclose(
            reconstruct(cov.mean, cov.pairs, D),
            effective_tf_channel(fixed),
            atol=1e-12,
        )


@pytest.fixture(scope="module")
def small_setup():
    d4 = Dims(4, 4, 2)
    stats4 = ChannelStats(n_paths=2, l_max=2, k_max=1)
    cov = fit_covariance(stats4, d4, 50, np.random.default_rng(7))
    frame4 = assemble_frame(
        FrameSpec(dims=d4, data_mode="with_data"), np.random.default_rng(11)
    )
    return d4, stats4, cov, frame4


@pytest.fixture(scope="module")
def full_pilot_frame4(small_setup):
    # pilots on every resource element, so every region atom leaves its own
    # trace in the received grid and the noiseless fit is exact
    d4 = small_setup[0]
    return assemble_frame(
        FrameSpec(dims=d4, freq_spacing=1, sequence_kind="zadoff_chu")
    )


class TestFsLmmse:
    def test_negative_noise_rejected(self, small_setup):
        d4, _, cov, frame4 = small_setup
        with pytest.raises(ValueError, match="n0"):
            fs_lmmse(np.zeros((d4.m, d4.n)), frame4, cov, -0.5)

    def test_rank_zero_returns_prior_mean(self, frame):
        stats = ChannelStats()
        mean = np.arange(stats.region_size, dtype=complex)
        cov = CovarianceModel(
            mean=mean,
            factor=np.zeros((stats.region_size, 0)),
            pairs=stats.region_pairs,
            n_samples=3,
        )
        rng = np.random.default_rng(4)
        y = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        np.testing.assert_array_equal(
            fs_lmmse(y, frame, cov, 1.0), reconstruct(mean, stats.region_pairs, D)
        )

    def test_overwhelming_noise_returns_prior_mean(self, small_setup, full_pilot_frame4):
        d4, stats4, cov, _ = small_setup
        ch = sample_channel(stats4, d4, np.random.default_rng(13))
        y = received_tf(full_pilot_frame4, ch)
        est = fs_lmmse(y, full_pilot_frame4, cov, 1e12)
        prior = unvec(lifted(cov, d4)[0], d4.grid_size, d4.grid_size)
        assert np.linalg.norm(bands_to_dense(est) - prior) <= 1e-8 * np.linalg.norm(prior)

    def test_noiseless_full_frame_recovers_ensemble_channel(self, small_setup, full_pilot_frame4):
        d4, stats4, cov, _ = small_setup
        ch = sample_channel(stats4, d4, np.random.default_rng(13))
        y = received_tf(full_pilot_frame4, ch)
        h_true = effective_tf_channel(ch)
        est = fs_lmmse(y, full_pilot_frame4, cov, 0.0)
        assert nmse_db(est, h_true) < -60.0

    def test_matches_dense_oracle(self, small_setup):
        d4, stats4, cov, frame4 = small_setup
        ch = sample_channel(stats4, d4, np.random.default_rng(17))
        y = received_tf(frame4, ch, n0=0.5, rng=np.random.default_rng(19))
        n0 = 0.5
        est = fs_lmmse(y, frame4, cov, n0)
        dense = dense_fs_lmmse_oracle(
            vec(y), vec(frame4.pilot_only_tf), *lifted(cov, d4), n0
        )
        np.testing.assert_allclose(
            bands_to_dense(est), unvec(dense, d4.grid_size, d4.grid_size), atol=1e-8
        )


class TestTfLasso:
    def test_noiseless_single_path_recovery(self):
        rng = np.random.default_rng(5)
        fr = assemble_frame(FrameSpec(dims=D, placement="uniform_random"), rng)
        ch = ChannelRealization(
            paths=(PathParams(gain=0.7 + 0.2j, delay_int=1, doppler_int=-2),), dims=D
        )
        y = received_tf(fr, ch)
        h_true = effective_tf_channel(ch)
        est = tf_lasso(y, fr, cfg=LassoConfig(lam=0.01, tol=1e-10, max_iter=5000))
        assert nmse_db(est, h_true) < -60.0

    def test_zero_signal_gives_zero_estimate(self, frame):
        est = tf_lasso(np.zeros((D.m, D.n), dtype=complex), frame)
        np.testing.assert_array_equal(est, np.zeros((2, D.n, D.m, D.m)))


class TestFrameCache:
    def test_alternating_lattice_frames_match_cold_results(self):
        stats = ChannelStats()
        cov = fit_covariance(stats, D, 50, np.random.default_rng(3))
        rng = np.random.default_rng(9)
        frames = [assemble_frame(FrameSpec(dims=D, pilot_power=p)) for p in (1.0, 2.0)]
        received = [
            received_tf(fr, sample_channel(stats, D, rng), n0=0.1, rng=rng) for fr in frames
        ]

        def both(y, fr):
            return tf_lasso(y, fr), fs_lmmse(y, fr, cov, 0.1)

        cold = []
        for y, fr in zip(received, frames):
            estimator._frame_dictionary.cache_clear()
            cold.append(both(y, fr))
        estimator._frame_dictionary.cache_clear()
        for _ in range(2):
            for (y, fr), want in zip(zip(received, frames), cold):
                for got, expected in zip(both(y, fr), want):
                    np.testing.assert_array_equal(got, expected)

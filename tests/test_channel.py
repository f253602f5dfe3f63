import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdce.channel import (
    ChannelRealization,
    ChannelStats,
    PathParams,
    Pulse,
    apply_channel,
    effective_tf_channel,
    pulse_af,
    sample_channel,
    time_channel_matrix,
    unit_path_tf_channel,
)
from cdce.grids import Dims, dft_matrix, remove_cp, tf_to_dd, tf_to_time, time_to_tf, unvec, vec

from oracles import dense_effective_tf_oracle, rect_af_quadrature, time_channel_oracle

D = Dims(8, 14, 2)
IDEAL = Pulse("ideal")
RECT = Pulse("rectangular")


def payload_clock(d):
    """Payload sample index of every CP-extended sample: CP samples inherit
    the index of the tail sample they copy."""
    idx = np.empty(d.frame_len, dtype=int)
    for n in range(d.frame_len):
        b, c = divmod(n, d.m + d.cp_len)
        idx[n] = b * d.m + (c - d.cp_len) % d.m
    return idx


def single_path(gain, l, k, d=D):
    return ChannelRealization(
        paths=(PathParams(gain=gain, delay_int=l, doppler_int=k),), dims=d
    )


def random_frame(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d.m, d.n)) + 1j * rng.standard_normal((d.m, d.n))


class TestTypes:
    def test_region_size(self):
        assert ChannelStats().region_size == 21

    def test_default_per_path_variance(self):
        assert ChannelStats(n_paths=4).per_path_variance == pytest.approx(0.25)

    def test_explicit_gain_variance(self):
        assert ChannelStats(n_paths=4, gain_variance=0.5).per_path_variance == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_paths=0),
            dict(l_max=-1),
            dict(k_max=-1),
            dict(gain_variance=0.0),
            dict(gain_variance=math.nan),
            dict(gain_variance=math.inf),
        ],
    )
    def test_invalid_stats(self, kwargs):
        with pytest.raises(ValueError):
            ChannelStats(**kwargs)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            PathParams(gain=1.0, delay_int=-1)

    def test_doppler_beyond_half_grid_rejected(self):
        with pytest.raises(ValueError):
            single_path(1.0, 0, 8)

    def test_unknown_pulse_kind(self):
        with pytest.raises(ValueError):
            Pulse("gaussian")


class TestSampleChannel:
    def test_doppler_region_must_stay_below_half_grid(self):
        with pytest.raises(ValueError, match="Doppler grid"):
            sample_channel(ChannelStats(k_max=7), D, np.random.default_rng(0))

    @given(st.integers(0, 2**32 - 1))
    def test_paths_land_in_region_and_are_distinct(self, seed):
        stats = ChannelStats()
        ch = sample_channel(stats, D, np.random.default_rng(seed))
        pairs = [(p.delay_int, p.doppler_int) for p in ch.paths]
        assert len(pairs) == stats.n_paths
        assert len(set(pairs)) == stats.n_paths
        for l, k in pairs:
            assert 0 <= l <= stats.l_max
            assert -stats.k_max <= k <= stats.k_max

    def test_same_seed_same_realization(self):
        a = sample_channel(ChannelStats(), D, np.random.default_rng(9))
        b = sample_channel(ChannelStats(), D, np.random.default_rng(9))
        assert a == b

    def test_mean_total_energy_is_unity(self):
        rng = np.random.default_rng(0)
        stats = ChannelStats()
        total = 0.0
        draws = 10000
        for _ in range(draws):
            ch = sample_channel(stats, D, rng)
            total += sum(abs(p.gain) ** 2 for p in ch.paths)
        assert total / draws == pytest.approx(1.0, abs=0.05)

    def test_impossible_distinctness_rejected(self):
        with pytest.raises(ValueError):
            sample_channel(
                ChannelStats(n_paths=22), D, np.random.default_rng(0)
            )


class TestPulseAf:
    def test_zero_lag_is_unity(self):
        assert pulse_af(0.0, IDEAL) == pytest.approx(1.0)
        assert pulse_af(0.0, RECT) == pytest.approx(1.0)

    def test_ideal_pulse_is_kronecker(self):
        assert pulse_af(0.5, IDEAL) == 1.0
        assert pulse_af(3.0, IDEAL) == 1.0

    # Lag 0 is the only point of the triangle 1 - |tau| that an integer-delay
    # path evaluates.
    @pytest.mark.parametrize("tau", [0.0])
    def test_rect_zero_doppler_is_triangle(self, tau):
        assert rect_af_quadrature(tau, 0.0) == pytest.approx(1.0 - abs(tau), abs=1e-10)
        assert pulse_af(0.0, RECT) == pytest.approx(1.0 - abs(tau), abs=1e-12)

    @pytest.mark.parametrize("nu",[-2.0, -0.4, 0.1, 1.7])
    def test_rect_matches_quadrature(self, nu):
        assert pulse_af(nu, RECT) == pytest.approx(rect_af_quadrature(0.0, nu), abs=1e-10)


class TestTimeChannelMatrix:
    def test_identity_path(self):
        g = time_channel_matrix(single_path(1.0, 0, 0), IDEAL)
        np.testing.assert_allclose(g, np.eye(D.frame_len), atol=1e-12)

    def test_unit_delay_is_subdiagonal(self):
        g = time_channel_matrix(single_path(1.0, 1, 0), IDEAL)
        np.testing.assert_allclose(g, np.eye(D.frame_len, k=-1), atol=1e-12)

    def test_unit_doppler_is_payload_clock_diagonal(self):
        g = time_channel_matrix(single_path(1.0, 0, 1), IDEAL)
        phases = np.exp(2j * np.pi * payload_clock(D) / D.grid_size)
        np.testing.assert_allclose(g, np.diag(phases), atol=1e-12)

    def test_doppler_acts_as_per_sample_modulation(self):
        g = time_channel_matrix(single_path(1.0, 0, 2), IDEAL)
        s = tf_to_time(random_frame(D, 5), D, with_cp=True)
        modulated = s * np.exp(2j * np.pi * 2 * payload_clock(D) / D.grid_size)
        np.testing.assert_allclose(g @ s, modulated, atol=1e-12)

    def test_gain_scales_linearly(self):
        g1 = time_channel_matrix(single_path(1.0, 2, -3), IDEAL)
        g2 = time_channel_matrix(single_path(0.5 - 0.25j, 2, -3), IDEAL)
        np.testing.assert_allclose(g2, (0.5 - 0.25j) * g1, atol=1e-12)

    @pytest.mark.parametrize("pulse", [IDEAL, RECT], ids=lambda p: p.kind)
    @pytest.mark.parametrize("d", [D, Dims(6, 5, 3)], ids=str)
    def test_matches_entrywise_oracle(self, d, pulse):
        rng = np.random.default_rng(d.grid_size)
        paths = tuple(
            PathParams(
                complex(rng.standard_normal(), rng.standard_normal()),
                int(rng.integers(0, d.m)),
                int(rng.integers(-(d.n // 2), d.n // 2 + 1)),
            )
            for _ in range(4)
        )
        np.testing.assert_allclose(
            time_channel_matrix(ChannelRealization(paths, d), pulse),
            time_channel_oracle(
                [(p.gain, p.delay_int, p.doppler_int) for p in paths],
                d.m, d.n, d.cp_len, pulse.kind,
            ),
            rtol=0,
            atol=1e-12,
        )

    def test_paths_superpose(self):
        a = single_path(0.8, 1, 2)
        b = single_path(-0.3j, 2, -1)
        both = ChannelRealization(paths=a.paths + b.paths, dims=D)
        np.testing.assert_allclose(
            time_channel_matrix(both, IDEAL),
            time_channel_matrix(a, IDEAL) + time_channel_matrix(b, IDEAL),
            atol=1e-12,
        )


class TestApplyChannel:
    def test_noiseless_identity(self):
        s = np.arange(D.frame_len) + 0.0j
        np.testing.assert_array_equal(
            apply_channel(s, np.eye(D.frame_len), 0.0), s
        )

    def test_cp_absorbs_unit_delay(self):
        x = random_frame(D, 6)
        s = tf_to_time(x, D, with_cp=True)
        g = time_channel_matrix(single_path(1.0, 1, 0), IDEAL)
        payload = unvec(remove_cp(apply_channel(s, g, 0.0), D), D.m, D.n)
        original = unvec(tf_to_time(x, D), D.m, D.n)
        np.testing.assert_allclose(payload, np.roll(original, 1, axis=0), atol=1e-12)

    def test_noise_variance_matches_n0(self):
        rng = np.random.default_rng(2)
        s = np.zeros(100, dtype=complex)
        out = np.concatenate([apply_channel(s, np.eye(100), 0.25, rng) for _ in range(100)])
        assert np.mean(np.abs(out) ** 2) == pytest.approx(0.25, rel=0.03)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.zeros(4, dtype=complex), np.eye(4), -1.0)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            apply_channel(np.zeros(4, dtype=complex), np.eye(4), 1.0)


class TestEffectiveTfChannel:
    def test_identity_sandwich(self):
        g = np.eye(D.frame_len)
        np.testing.assert_allclose(
            effective_tf_channel(g, D), np.eye(D.grid_size), atol=1e-12
        )

    def test_flat_path_is_scaled_identity(self):
        h = 0.7 + 0.2j
        g = time_channel_matrix(single_path(h, 0, 0), IDEAL)
        np.testing.assert_allclose(
            effective_tf_channel(g, D), h * np.eye(D.grid_size), atol=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_chain_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        ch = sample_channel(ChannelStats(), D, rng)
        g = time_channel_matrix(ch, IDEAL)
        x = random_frame(D, seed + 1)
        via_matrix = unvec(effective_tf_channel(g, D) @ vec(x), D.m, D.n)
        via_signal = time_to_tf(
            remove_cp(apply_channel(tf_to_time(x, D, with_cp=True), g, 0.0), D), D
        )
        np.testing.assert_allclose(via_matrix, via_signal, atol=1e-10)

    def test_matches_dense_kronecker_oracle(self):
        rng = np.random.default_rng(11)
        ch = sample_channel(ChannelStats(), D, rng)
        g = time_channel_matrix(ch, IDEAL)
        np.testing.assert_allclose(
            effective_tf_channel(g, D),
            dense_effective_tf_oracle(g, D.m, D.n, D.cp_len),
            atol=1e-10,
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            effective_tf_channel(np.eye(10), D)

    @pytest.mark.parametrize("d", [Dims(8, 14, 2), Dims(4, 4, 0), Dims(6, 5, 3)], ids=str)
    def test_cached_path_matches_fresh_einsum(self, d):
        rng = np.random.default_rng(d.frame_len)
        g = rng.standard_normal((d.frame_len,) * 2) + 1j * rng.standard_normal((d.frame_len,) * 2)
        span = d.m + d.cp_len
        fm = dft_matrix(d.m)
        eye = np.eye(d.m)
        c = fm @ np.hstack([np.zeros((d.m, d.cp_len)), eye])
        b = (np.vstack([eye[d.m - d.cp_len:], eye]) if d.cp_len else eye) @ fm.conj().T
        fresh = np.einsum("ij,ajbk,kl->aibl", c, g.reshape(d.n, span, d.n, span), b, optimize=True)
        for _ in range(2):
            np.testing.assert_array_equal(
                effective_tf_channel(g, d), fresh.reshape(d.grid_size, d.grid_size)
            )

    def test_ici_exactly_when_doppler_nonzero(self):
        for k, expect_ici in ((0, False), (2, True)):
            h_tf = effective_tf_channel(
                time_channel_matrix(single_path(1.0, 1, k), IDEAL), D
            )
            off = 0.0
            for b in range(D.n):
                block = h_tf[b * D.m:(b + 1) * D.m, b * D.m:(b + 1) * D.m]
                off += np.sum(np.abs(block - np.diag(np.diag(block))) ** 2)
            assert (off > 1e-6) == expect_ici

    def test_dd_impulse_peaks_at_path_exhaustively(self):
        stats = ChannelStats()
        imp = np.zeros((D.m, D.n))
        imp[0, 0] = 1.0
        from cdce.grids import dd_to_tf

        x_tf = dd_to_tf(imp, D)
        for l in range(stats.l_max + 1):
            for k in range(-stats.k_max, stats.k_max + 1):
                h_tf = effective_tf_channel(
                    time_channel_matrix(single_path(1.0, l, k), IDEAL), D
                )
                y_dd = tf_to_dd(unvec(h_tf @ vec(x_tf), D.m, D.n), D)
                peak = np.unravel_index(np.argmax(np.abs(y_dd)), y_dd.shape)
                assert peak == (l, k % D.n), f"path ({l},{k}) peaked at {peak}"


class TestUnitPathCache:
    def test_matches_explicit_construction(self):
        h_tf = unit_path_tf_channel(D, IDEAL, 2, -3)
        direct = effective_tf_channel(
            time_channel_matrix(single_path(1.0, 2, -3), IDEAL), D
        )
        np.testing.assert_allclose(h_tf, direct, atol=1e-12)

    def test_cached_array_is_readonly(self):
        h_tf = unit_path_tf_channel(D, IDEAL, 1, 1)
        with pytest.raises(ValueError):
            h_tf[0, 0] = 0

    def test_delay_spread_unchecked_for_dictionary_use(self):
        h_tf = unit_path_tf_channel(D, IDEAL, 5, 0)
        assert h_tf.shape == (D.grid_size, D.grid_size)

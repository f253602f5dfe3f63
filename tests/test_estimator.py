import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdce.estimator as estimator
from cdce import harness
from cdce.baselines import tf_lasso_gains
from cdce.channel import (
    ChannelRealization,
    ChannelStats,
    PathParams,
    apply_channel,
    effective_tf_channel,
    full_grid_pairs,
    sample_channel,
    time_channel_matrix,
)
from cdce.estimator import (
    Dictionary,
    LassoConfig,
    build_dictionary,
    cached_dictionary,
    cdce_estimate,
    default_gamma,
    doppler_col,
    reconstruct,
    signed_doppler,
    soft_threshold,
    solve_lasso,
    solve_ls,
    threshold_select,
    twisted_convolution,
)
from cdce.config import load_config
from cdce.grids import Dims, _twist_tables, remove_cp, tf_to_dd, tf_to_time, time_to_tf, vec
from cdce.pilots import Frame, FrameSpec, assemble_frame

from oracles import (
    bands_to_dense,
    cross_ambiguity_reference,
    dense_atom,
    dense_reconstruct_oracle,
    fista_reference,
    ista_reference,
    lasso_certificate_gap,
    received_tf,
    twisted_convolution_reference,
)

D = Dims(8, 14, 2)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# The atom cases run on the sample grid's own ("ideal") pulse, the channel
# model's only one, and their ids name it as they did beside the deleted
# rectangular pulse.
IDEAL_SHAPE_IDS = [f"shape{i}-ideal" for i in range(4)]

STATS = ChannelStats()


def make_channel(path_list):
    return ChannelRealization(
        paths=tuple(PathParams(gain=g, delay_int=l, doppler_int=k) for g, l, k in path_list),
        dims=D,
    )


@pytest.fixture(scope="module")
def frame():
    return assemble_frame(FrameSpec(dims=D))


class TestSignedDoppler:
    def test_wrap_convention(self):
        assert signed_doppler(0, 14) == 0
        assert signed_doppler(7, 14) == 7
        assert signed_doppler(8, 14) == -6
        assert signed_doppler(13, 14) == -1

    def test_doppler_col_inverts(self):
        for k in range(-6, 8):
            assert signed_doppler(doppler_col(k, 14), 14) == k


class TestTwistedConvolution:
    def test_impulse_self_correlation(self):
        x = np.zeros((4, 6), dtype=complex)
        x[0, 0] = 1.0
        v = twisted_convolution(x, x)
        expected = np.zeros((4, 6), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_zero_lag_is_energy(self, frame):
        x_dd = tf_to_dd(frame.pilot_only_tf, D)
        v = twisted_convolution(x_dd, x_dd)
        assert abs(v[0, 0]) == pytest.approx(np.sum(np.abs(x_dd) ** 2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            twisted_convolution(np.zeros((4, 6)), np.zeros((4, 5)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 7))
    @settings(max_examples=10)
    def test_matches_scalar_reference(self, seed, m, n):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        np.testing.assert_allclose(
            twisted_convolution(y, x), twisted_convolution_reference(y, x), atol=1e-10
        )

    def test_alternating_shapes_match_scalar_reference(self):
        # the per-shape tables must be keyed on (M, N): a stale table fails here
        rng = np.random.default_rng(5)
        for shape in ((4, 6), (5, 7), (4, 6)):
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            np.testing.assert_allclose(
                twisted_convolution(y, x), twisted_convolution_reference(y, x), atol=1e-10
            )

    def test_cached_tables_are_read_only(self):
        twisted_convolution(np.ones((3, 5)), np.ones((3, 5)))
        shift, ramps = _twist_tables(3, 5)
        with pytest.raises(ValueError):
            shift[0, 0] = 1
        with pytest.raises(ValueError):
            ramps[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(3, 5), (8, 14), (64, 14)])
    def test_cached_tables_hold_mn_times_m_plus_n_entries(self, shape):
        m, n = shape
        shift, ramps = _twist_tables(m, n)
        assert shift.shape == (m, m * n) and ramps.shape == (m * n, n)

    @pytest.mark.parametrize("shape", [(8, 14, 2), (16, 14, 2)])
    @pytest.mark.parametrize("pilots", ["random", "lattice", "random_pilots"])
    def test_is_cross_ambiguity_of_time_sequences(self, shape, pilots):
        # V of the DD images is the discrete cross-ambiguity of the CP-free
        # time sequences of the TF grids
        d = Dims(*shape)
        rng = np.random.default_rng(d.m)
        a = rng.standard_normal((d.m, d.n)) + 1j * rng.standard_normal((d.m, d.n))
        if pilots == "random":
            b = rng.standard_normal((d.m, d.n)) + 1j * rng.standard_normal((d.m, d.n))
        else:
            placement = "lattice" if pilots == "lattice" else "uniform_random"
            spec = FrameSpec(dims=d, sequence_kind="zadoff_chu", placement=placement)
            b = assemble_frame(spec, rng).pilot_only_tf
        for y_tf, x_tf in ((a, b), (b, b)):
            np.testing.assert_allclose(
                twisted_convolution(tf_to_dd(y_tf, d), tf_to_dd(x_tf, d)),
                cross_ambiguity_reference(tf_to_time(y_tf, d), tf_to_time(x_tf, d), d.m, d.n),
                atol=1e-10,
            )

    def test_random_pilot_support_matches_scalar_reference(self):
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu", placement="uniform_random")
        assert spec.n_pilots == 56
        n0 = 0.1  # 10 dB SNR
        gamma = default_gamma("pilot_only", n0=n0)
        rng = np.random.default_rng(2024)
        detected = 0
        for _ in range(20):
            fr = assemble_frame(spec, rng)
            g = time_channel_matrix(sample_channel(STATS, D, rng))
            r = apply_channel(tf_to_time(fr.tf, D, with_cp=True), g, n0, rng)
            y_dd = tf_to_dd(time_to_tf(remove_cp(r, D), D), D)
            x_dd = tf_to_dd(fr.pilot_only_tf, D)
            energy = np.sum(np.abs(x_dd) ** 2)
            fast = threshold_select(twisted_convolution(y_dd, x_dd) / energy, STATS, gamma)
            slow = threshold_select(twisted_convolution_reference(y_dd, x_dd) / energy, STATS, gamma)
            assert fast.pairs == slow.pairs
            detected += fast.p_hat
        assert detected >= 20

    def test_matches_scalar_reference_at_frame_size(self, frame):
        # the lattice pilots' DD image, and a random grid: the hypothesis
        # test above stops at 6 x 7
        rng = np.random.default_rng(99)
        y = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        random_x = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        for x_dd in (tf_to_dd(frame.pilot_only_tf, D), random_x):
            np.testing.assert_allclose(
                twisted_convolution(y, x_dd),
                twisted_convolution_reference(y, x_dd),
                atol=1e-10,
            )

    def test_single_path_argmax(self, frame):
        y = received_tf(frame, make_channel([(1.0, 1, 2)]))
        x_dd = tf_to_dd(frame.pilot_only_tf, D)
        v = twisted_convolution(tf_to_dd(y, D), x_dd)
        best = None
        for l in range(STATS.l_max + 1):
            for k in range(-STATS.k_max, STATS.k_max + 1):
                mag = abs(v[l, doppler_col(k, D.n)])
                if best is None or mag > best[0]:
                    best = (mag, (l, k))
        assert best[1] == (1, 2)

    def test_coarse_stage_exhaustive_over_region(self, frame):
        x_dd = tf_to_dd(frame.pilot_only_tf, D)
        for l in range(STATS.l_max + 1):
            for k in range(-STATS.k_max, STATS.k_max + 1):
                y = received_tf(frame, make_channel([(1.0, l, k)]))
                v = twisted_convolution(tf_to_dd(y, D), x_dd)
                scores = {
                    (lc, kc): abs(v[lc, doppler_col(kc, D.n)])
                    for lc in range(STATS.l_max + 1)
                    for kc in range(-STATS.k_max, STATS.k_max + 1)
                }
                assert max(scores, key=scores.get) == (l, k)

    def test_correlation_score_recovers_conjugate_gain(self, frame):
        gain = 0.5 * np.exp(0.3j)
        y = received_tf(frame, make_channel([(gain, 2, -3)]))
        x_dd = tf_to_dd(frame.pilot_only_tf, D)
        v = twisted_convolution(tf_to_dd(y, D), x_dd)
        score = v[2, doppler_col(-3, D.n)] / np.sum(np.abs(x_dd) ** 2)
        assert score == pytest.approx(np.conj(gain), abs=1e-10)


class TestDefaultGamma:
    def test_pilot_only_formula(self):
        assert default_gamma("pilot_only", n0=9.0) == pytest.approx(1.0)

    def test_with_data_zero_grid(self):
        assert default_gamma("with_data", v_dd=np.zeros((8, 14)), region_size=21) == 0.0

    def test_with_data_is_region_scaled_rms(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((8, 14)) + 1j * rng.standard_normal((8, 14))
        gamma = default_gamma("with_data", v_dd=v, region_size=21)
        assert gamma == pytest.approx(math.sqrt(np.sum(np.abs(v) ** 2) / 21))
        rms = math.sqrt(np.mean(np.abs(v) ** 2))
        assert gamma == pytest.approx(rms * math.sqrt(112 / 21))

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError):
            default_gamma("pilot_only")
        with pytest.raises(ValueError):
            default_gamma("pilot_only", n0=-1.0)
        with pytest.raises(ValueError):
            default_gamma("with_data", v_dd=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            default_gamma("tf_only", n0=1.0)


class TestThresholdSelect:
    def test_zero_gamma_keeps_whole_region(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        coarse = threshold_select(v, STATS, 0.0)
        assert coarse.p_hat == 21
        assert len(set(coarse.pairs)) == 21

    def test_huge_gamma_keeps_nothing(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((D.m, D.n)) + 1j * rng.standard_normal((D.m, D.n))
        coarse = threshold_select(v, STATS, 1e9)
        assert coarse.p_hat == 0
        assert coarse.pairs == ()

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            threshold_select(np.zeros((D.m, D.n)), STATS, -0.1)

    def test_results_sorted_by_magnitude(self):
        v = np.zeros((D.m, D.n), dtype=complex)
        v[0, 0] = 1.0
        v[1, 2] = 3.0
        v[2, doppler_col(-1, D.n)] = 2.0
        coarse = threshold_select(v, STATS, 0.5)
        assert coarse.pairs == ((1, 2), (2, -1), (0, 0))

    def test_ties_break_lexicographically(self):
        v = np.zeros((D.m, D.n), dtype=complex)
        v[2, doppler_col(-2, D.n)] = 1.0
        v[1, doppler_col(3, D.n)] = 1.0
        v[1, doppler_col(-3, D.n)] = 1.0
        coarse = threshold_select(v, STATS, 0.5)
        assert coarse.pairs == ((1, -3), (1, 3), (2, -2))

    def test_superset_of_true_paths(self, frame):
        paths = [(0.6, 0, 1), (0.5, 1, -2), (0.4, 2, 3)]
        y = received_tf(frame, make_channel(paths))
        x_dd = tf_to_dd(frame.pilot_only_tf, D)
        v = twisted_convolution(tf_to_dd(y, D), x_dd) / np.sum(np.abs(x_dd) ** 2)
        smallest = min(
            abs(v[l, doppler_col(k, D.n)]) for _, l, k in paths
        )
        coarse = threshold_select(v, STATS, smallest / 2)
        kept = set(coarse.pairs)
        assert {(1, -2), (0, 1), (2, 3)} <= kept

    def test_region_bins_only(self):
        v = np.ones((D.m, D.n), dtype=complex)
        coarse = threshold_select(v, STATS, 0.5)
        for l, k in coarse.pairs:
            assert 0 <= l <= STATS.l_max
            assert -STATS.k_max <= k <= STATS.k_max


class TestBuildDictionary:
    def test_identity_pair_column_is_the_pilot(self, frame):
        d = build_dictionary(frame.pilot_only_tf, ((0, 0),), D)
        np.testing.assert_allclose(d.matrix[:, 0], vec(frame.pilot_only_tf), atol=1e-12)

    def test_columns_preserve_pilot_energy(self, frame):
        pairs = tuple((l, k) for l in range(3) for k in (-3, 0, 2))
        d = build_dictionary(frame.pilot_only_tf, pairs, D)
        energy = np.sum(np.abs(frame.pilot_only_tf) ** 2)
        for j in range(d.matrix.shape[1]):
            assert np.sum(np.abs(d.matrix[:, j]) ** 2) == pytest.approx(energy, rel=1e-10)

    def test_column_linearity_against_received_signal(self, frame):
        gain = 0.3 - 0.8j
        y = received_tf(frame, make_channel([(gain, 2, -3)]))
        d = build_dictionary(frame.pilot_only_tf, ((2, -3),), D)
        np.testing.assert_allclose(vec(y), gain * d.matrix[:, 0], atol=1e-10)

    @pytest.mark.parametrize(
        "shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)], ids=IDEAL_SHAPE_IDS
    )
    def test_columns_match_dense_atom_products(self, shape):
        # the band products sum only the non-zero terms of the dense ones
        d = Dims(*shape)
        pairs = tuple((l, signed_doppler(kc, d.n)) for kc in range(d.n) for l in range(d.m))
        rng = np.random.default_rng(d.grid_size)
        x_tf = rng.standard_normal((d.m, d.n)) + 1j * rng.standard_normal((d.m, d.n))
        matrix = build_dictionary(x_tf, pairs, d).matrix
        for j, (l, k) in enumerate(pairs):
            dense = dense_atom(d, l, k) @ vec(x_tf)
            assert np.linalg.norm(matrix[:, j] - dense) <= 1e-14 * np.linalg.norm(dense)

    def test_empty_coarse_rejected(self, frame):
        with pytest.raises(ValueError, match="empty"):
            build_dictionary(frame.pilot_only_tf, (), D)


class TestDictionaryCache:
    def test_repeated_frame_returns_the_cached_dictionary(self, frame):
        pairs = STATS.region_pairs
        first = cached_dictionary(frame.pilot_only_tf, pairs, D)
        assert cached_dictionary(frame.pilot_only_tf.copy(), pairs, D) is first
        other = cached_dictionary(2.0 * frame.pilot_only_tf, pairs, D)
        np.testing.assert_array_equal(other.matrix, 2.0 * first.matrix)
        np.testing.assert_array_equal(
            first.matrix, build_dictionary(frame.pilot_only_tf, pairs, D).matrix
        )

    def test_cached_matrix_and_gram_are_read_only(self, frame):
        for build in (build_dictionary, cached_dictionary):
            d = build(frame.pilot_only_tf, STATS.region_pairs, D)
            with pytest.raises(ValueError):
                d.matrix[0, 0] = 1.0
            with pytest.raises(ValueError):
                d.gram[0, 0] = 1.0

    def test_random_pilot_frames_stay_within_the_bound(self):
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu", placement="uniform_random")
        rng = np.random.default_rng(50)
        for _ in range(50):
            cached_dictionary(assemble_frame(spec, rng).pilot_only_tf, STATS.region_pairs, D)
            assert estimator._frame_dictionary.cache_info().currsize <= estimator.DICTIONARY_CACHE_SIZE
        assert estimator._frame_dictionary.cache_info().currsize == estimator.DICTIONARY_CACHE_SIZE

    def test_cdce_builds_its_support_dictionary_afresh(self, frame, monkeypatch):
        # per-trial supports almost never repeat, so they are not memoised;
        # the call goes through the module, where a tracer would wrap it
        built = []

        def spy(*args, _build=estimator.build_dictionary):
            built.append(_build(*args))
            return built[-1]

        monkeypatch.setattr(estimator, "build_dictionary", spy)
        estimator._frame_dictionary.cache_clear()
        y = received_tf(frame, make_channel([(0.9, 1, 1), (0.5, 2, -2)]))
        for _ in range(2):
            cdce_estimate(y, frame, STATS, n0=1e-4)
        assert len(built) == 2 and built[0] is not built[1]
        assert built[0].pairs == built[1].pairs
        np.testing.assert_array_equal(built[0].matrix, built[1].matrix)
        assert estimator._frame_dictionary.cache_info().currsize == 0


class TestReconstruct:
    @pytest.mark.parametrize(
        "shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)], ids=IDEAL_SHAPE_IDS
    )
    def test_whole_grid_matches_dense_oracle(self, shape):
        d = Dims(*shape)
        pairs = tuple((l, signed_doppler(kc, d.n)) for kc in range(d.n) for l in range(d.m))
        atoms = [dense_atom(d, l, k) for l, k in pairs]
        rng = np.random.default_rng(d.grid_size)
        h = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        h[rng.random(len(pairs)) < 0.3] = 0.0
        # a sum of every bin's closed-form atom: within 1e-14 of the oracle's sum in
        # Frobenius norm, relative
        bands = reconstruct(h, pairs, d)
        dense = dense_reconstruct_oracle(h, atoms)
        assert bands.shape == (2, d.n, d.m, d.m)
        assert np.linalg.norm(bands_to_dense(bands) - dense) <= 1e-14 * np.linalg.norm(dense)
        assert not reconstruct(np.zeros(len(pairs), dtype=complex), pairs, d).any()

    @pytest.mark.parametrize("shape", [(8, 14, 2), (6, 5, 3)])
    def test_any_pairs_match_dense_oracle(self, shape):
        # a run of the grid's stack, scattered pairs, the grid's edge bins, a
        # repeated pair and none at all
        d = Dims(*shape)
        rng = np.random.default_rng(d.frame_len)
        edges = ((d.m - 1, 1), (0, 0), (0, d.n // 2), (d.m - 1, -((d.n - 1) // 2)))
        for pairs in (((1, 0), (2, 0), (3, 0)), ((2, -1), (0, 2), (1, 1)), edges, ((1, 1), (1, 1)), ()):
            atoms = [dense_atom(d, l, k) for l, k in pairs] or [np.zeros((d.grid_size,) * 2)]
            h = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
            np.testing.assert_allclose(
                bands_to_dense(reconstruct(h, pairs, d)), dense_reconstruct_oracle(h, atoms),
                rtol=1e-14, atol=1e-14,
            )

    @pytest.mark.parametrize("n_gains", [0, 1, 2, 4])
    def test_one_gain_per_pair(self, n_gains):
        # one gain would otherwise broadcast over all three atoms; every
        # count but three is refused, naming both lengths
        pairs = ((0, 0), (1, 1), (2, -1))
        with pytest.raises(ValueError, match=f"{n_gains} gains for 3 pairs"):
            reconstruct(np.ones(n_gains), pairs, D)


class TestSoftThreshold:
    def test_shrinks_magnitude(self):
        theta = 0.7
        x = np.array([3.0 * np.exp(1j * theta)])
        np.testing.assert_allclose(
            soft_threshold(x, 1.0), [2.0 * np.exp(1j * theta)], atol=1e-12
        )

    def test_kills_small_entries(self):
        np.testing.assert_array_equal(soft_threshold(np.array([0.5 + 0j]), 1.0), [0.0])

    def test_zero_stays_zero(self):
        np.testing.assert_array_equal(soft_threshold(np.zeros(3, dtype=complex), 1.0), np.zeros(3))

    @staticmethod
    def masked(x, gamma):
        """The threshold written with a mask: shrink the entries above gamma,
        leave zeros elsewhere."""
        mag = np.abs(x)
        out = np.zeros_like(x)
        above = mag > gamma
        out[above] = (1.0 - gamma / mag[above]) * x[above]
        return out

    def test_matches_masked_formula(self):
        rng = np.random.default_rng(20)
        for trial in range(200):
            gamma = (0.0, 5.0, float(rng.exponential()), float(rng.exponential(1e-3)))[trial % 4]
            scale = 10.0 ** rng.integers(-4, 2)
            x = scale * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
            x[rng.random(100) < 0.1] = 0.0
            # entries of magnitude exactly gamma, on both axes and (3, 4, 5) off them
            x[:4] = (gamma, -gamma, 1j * gamma, -1j * gamma)
            if gamma == 5.0:
                x[4:8] = (3 + 4j, -3 + 4j, 3 - 4j, -4 - 3j)
            assert np.all(np.abs(x[:4]) == gamma)
            np.testing.assert_array_equal(soft_threshold(x, gamma), self.masked(x, gamma))

    def test_zero_gamma_returns_a_copy(self):
        x = np.array([1.5 - 2j, 0j, -1e-300 + 0j])
        out = soft_threshold(x, 0.0)
        np.testing.assert_array_equal(out, x)
        assert not np.shares_memory(out, x)


def random_lasso_instance(seed, rows=40, cols=12, sparsity=3, noise=0.0):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    d /= np.linalg.norm(d, axis=0)
    h = np.zeros(cols, dtype=complex)
    support = rng.choice(cols, size=sparsity, replace=False)
    h[support] = rng.standard_normal(sparsity) + 1j * rng.standard_normal(sparsity)
    y = d @ h
    if noise:
        y = y + noise * (rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
    return y, Dictionary(matrix=d, pairs=tuple((j, 0) for j in range(cols))), h


def conditioned(rows, cols, cond, seed=0):
    """A complex rows x cols matrix with singular values spaced
    geometrically from 1 down to 1/cond."""
    rng = np.random.default_rng(seed)

    def orthonormal(n, k):
        q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        return q

    sv = np.geomspace(1.0, 1.0 / cond, cols)
    return (orthonormal(rows, cols) * sv) @ orthonormal(cols, cols).conj().T


class TestSolveLs:
    @pytest.mark.parametrize("cond", [1.0, 3.0, 10.0, 1e2, 1e3, 1e4])
    @pytest.mark.parametrize("shape", [(112, 21), (112, 3), (40, 12), (5, 2)])
    def test_gram_condition_number_matches_the_svd(self, shape, cond):
        for seed in range(3):
            m = conditioned(*shape, cond, seed)
            d = Dictionary(matrix=m, pairs=tuple((j, 0) for j in range(shape[1])))
            assert d.cond == pytest.approx(np.linalg.cond(m), rel=1e-6)

    def test_rank_deficient_dictionary_has_infinite_or_huge_condition(self):
        m = conditioned(40, 4, 10.0)
        d = Dictionary(matrix=np.column_stack([m, m[:, 1]]), pairs=tuple((j, 0) for j in range(5)))
        assert not d.cond < estimator.LS_CONDITION_LIMIT

    def test_orthonormal_columns_recover_exactly(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 5)))
        h = np.arange(1, 6) + 0.5j
        d = Dictionary(matrix=q, pairs=tuple((j, 0) for j in range(5)))
        np.testing.assert_allclose(solve_ls(q @ h, d), h, atol=1e-10)

    def test_single_column_scaling(self):
        col = np.array([1.0, 2.0, -1.0, 0.5j])
        d = Dictionary(matrix=col[:, None], pairs=((0, 0),))
        np.testing.assert_allclose(solve_ls(2.0 * col, d), [2.0], atol=1e-12)

    def test_noiseless_three_path_gains(self, frame):
        paths = [(0.5 + 0.1j, 0, 1), (-0.3 + 0.4j, 1, -2), (0.25, 2, 3)]
        y = received_tf(frame, make_channel(paths))
        d = build_dictionary(frame.pilot_only_tf, ((0, 1), (1, -2), (2, 3)), D)
        np.testing.assert_allclose(
            solve_ls(vec(y), d), [0.5 + 0.1j, -0.3 + 0.4j, 0.25], atol=1e-10
        )

    def test_fat_dictionary_rejected(self):
        d = Dictionary(matrix=np.ones((3, 5)), pairs=tuple((j, 0) for j in range(5)))
        with pytest.raises(ValueError, match="solve_lasso"):
            solve_ls(np.ones(3), d)

    def test_ill_conditioned_dictionary_rejected(self):
        base = np.random.default_rng(1).standard_normal(30)
        m = np.column_stack([base, base + 1e-9 * np.random.default_rng(2).standard_normal(30)])
        d = Dictionary(matrix=m, pairs=((0, 0), (1, 0)))
        with pytest.raises(ValueError, match="condition"):
            solve_ls(m @ np.array([1.0, 1.0]), d)


class TestLassoConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=-0.5), dict(lam=math.nan), dict(lam=math.inf),
            dict(tol=0.0), dict(tol=math.nan), dict(tol=math.inf),
            dict(max_iter=0),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LassoConfig(**kwargs)


class TestSolveLasso:
    def test_first_iterations_match_manual_fista(self):
        y, d, _ = random_lasso_instance(3)
        lam = 0.05
        eps = 1.0 / np.linalg.norm(d.matrix, 2) ** 2
        gamma = lam * eps

        def step(z):
            g = d.matrix.conj().T @ (y - d.matrix @ z)
            return soft_threshold(z + eps * g, gamma)

        h0 = np.zeros(d.matrix.shape[1], dtype=complex)
        h1 = step(h0)
        beta1 = (1.0 + math.sqrt(5.0)) / 2.0
        z1 = h1 + ((1.0 - 1.0) / beta1) * (h1 - h0)
        h2 = step(z1)
        beta2 = (1.0 + math.sqrt(1.0 + 4.0 * beta1**2)) / 2.0
        z2 = h2 + ((beta1 - 1.0) / beta2) * (h2 - h1)
        h3 = step(z2)

        for iters, expected in ((1, h1), (2, h2), (3, h3)):
            with pytest.warns(RuntimeWarning, match="did not converge"):
                got = solve_lasso(y, d, LassoConfig(lam=lam, tol=1e-30, max_iter=iters))
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_exhausted_max_iter_warns(self):
        y, d, _ = random_lasso_instance(3)
        with pytest.warns(RuntimeWarning, match=r"lam=0\.05, max_iter=3 .*relative change"):
            solve_lasso(y, d, LassoConfig(lam=0.05, tol=1e-30, max_iter=3))

    def test_converging_solve_does_not_warn(self):
        y, d, _ = random_lasso_instance(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_lasso(y, d, LassoConfig(lam=0.05, tol=1e-6, max_iter=5000))

    def test_agrees_with_converged_ista(self):
        y, d, h_true = random_lasso_instance(7)
        cfg = LassoConfig(lam=0.02, tol=1e-12, max_iter=50000)
        h = solve_lasso(y, d, cfg)
        ref = ista_reference(y, d.matrix, 0.02)
        np.testing.assert_allclose(h, ref, atol=1e-4)
        assert set(np.flatnonzero(h)) == set(np.flatnonzero(h_true))

    def test_satisfies_subgradient_certificate(self):
        # one received vector through the single-vector loop, and a stack
        # through the row loop
        y, d, _ = random_lasso_instance(11, noise=0.05)
        cfg = LassoConfig(lam=0.05, tol=1e-12, max_iter=50000)
        h = solve_lasso(y, d, cfg)
        assert lasso_certificate_gap(y, d.matrix, 0.05, h) < 1e-3
        ys, rows = lasso_rows(11)
        for row, gains in zip(ys, solve_lasso(ys, rows, cfg)):
            assert lasso_certificate_gap(row, rows.matrix, 0.05, gains) < 1e-3

    @pytest.mark.parametrize(
        "lam,tol,max_iter,converges",
        [(0.05, 1e-6, 5000, True), (0.02, 1e-12, 50000, True), (0.05, 1e-30, 7, False)],
    )
    def test_matches_fista_oracle_on_random_instances(self, lam, tol, max_iter, converges):
        for seed in range(10):
            y, d, _ = random_lasso_instance(seed, noise=0.05)
            ref, converged = fista_reference(y, d.matrix, lam, tol, max_iter)
            assert converged == converges
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                h = solve_lasso(y, d, LassoConfig(lam=lam, tol=tol, max_iter=max_iter))
            assert len(caught) == (0 if converges else 1)
            assert_row_matches(h, ref)

    @pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0, 15.0, 20.0])
    def test_matches_fista_oracle_on_a_lattice_full_grid_frame(self, frame, snr_db):
        rng = np.random.default_rng(int(snr_db))
        n0 = 10.0 ** (-snr_db / 10.0)
        y = received_tf(frame, sample_channel(STATS, D, rng), n0=n0, rng=rng)
        pairs = tuple((l, signed_doppler(kc, D.n)) for kc in range(D.n) for l in range(D.m))
        d = build_dictionary(frame.pilot_only_tf, pairs, D)
        cfg = LassoConfig()
        ref, converged = fista_reference(vec(y), d.matrix, cfg.lam, cfg.tol, cfg.max_iter)
        assert converged
        assert_row_matches(solve_lasso(vec(y), d, cfg), ref)

    def test_zero_lambda_matches_fista_oracle(self):
        for seed in range(5):
            y, d, _ = random_lasso_instance(seed, noise=0.05)
            ref, converged = fista_reference(y, d.matrix, 0.0, 1e-6, 5000)
            assert converged
            assert_row_matches(solve_lasso(y, d, LassoConfig(lam=0.0, tol=1e-6, max_iter=5000)), ref)

    def test_thresholds_once_per_iteration_through_the_module(self, monkeypatch):
        # the benchmark counts FISTA iterations by wrapping this name
        calls = []

        def counting(x, gamma):
            calls.append(gamma)
            return soft_threshold(x, gamma)

        monkeypatch.setattr(estimator, "soft_threshold", counting)
        y, d, _ = random_lasso_instance(3)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            solve_lasso(y, d, LassoConfig(lam=0.05, tol=1e-30, max_iter=7))
        assert len(calls) == 7

    def test_solves_on_a_cached_dictionary_return_independent_arrays(self, frame):
        pairs = tuple((l, signed_doppler(kc, D.n)) for kc in range(D.n) for l in range(D.m))
        d = cached_dictionary(frame.pilot_only_tf, pairs, D)
        assert cached_dictionary(frame.pilot_only_tf, pairs, D) is d
        rng = np.random.default_rng(4)
        ys = [vec(received_tf(frame, sample_channel(STATS, D, rng), n0=0.1, rng=rng)) for _ in range(2)]
        first = solve_lasso(ys[0], d, LassoConfig())
        kept = first.copy()
        second = solve_lasso(ys[1], d, LassoConfig())
        assert first.tobytes() == kept.tobytes()
        assert not np.array_equal(first, second)
        for other in (second, d.matrix, d.gram):
            assert not np.shares_memory(first, other)

    def test_zero_dictionary_rejected(self):
        d = Dictionary(matrix=np.zeros((6, 2)), pairs=((0, 0), (1, 0)))
        with pytest.raises(ValueError, match="degenerate"):
            solve_lasso(np.ones(6), d, LassoConfig())

    def test_zero_signal_gives_zero_estimate(self):
        _, d, _ = random_lasso_instance(5)
        h = solve_lasso(np.zeros(d.matrix.shape[0], dtype=complex), d, LassoConfig())
        np.testing.assert_array_equal(h, np.zeros(d.matrix.shape[1]))

    def test_false_alarms_driven_to_exact_zero(self, frame):
        true_paths = [(0.7, 0, 0), (0.5 - 0.2j, 1, 2), (0.6j, 2, -3)]
        y = received_tf(frame, make_channel(true_paths))
        true_pairs = [(0, 0), (1, 2), (2, -3)]
        spurious = [
            (0, 1), (0, -1), (0, 2), (1, -2), (1, 3), (1, -3),
            (2, 0), (2, 1), (2, 2), (2, 3),
        ]
        d = build_dictionary(frame.pilot_only_tf, tuple(true_pairs + spurious), D)
        h = solve_lasso(vec(y), d, LassoConfig())
        for j, pair in enumerate(d.pairs):
            if pair in true_pairs:
                truth = dict(((l, k), g) for g, l, k in true_paths)[pair]
                assert abs(h[j] - truth) <= 0.05 * abs(truth)
            else:
                assert h[j] == 0.0, f"spurious pair {pair} kept weight {h[j]}"


def lasso_rows(seed, k=6, rows=40, cols=12, sparsity=3, noise=0.05):
    """k noisy received vectors of different sparse gains on one random
    dictionary, the second of them all zero."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    d /= np.linalg.norm(d, axis=0)
    h = np.zeros((k, cols), dtype=complex)
    for gains in h:
        support = rng.choice(cols, size=sparsity, replace=False)
        gains[support] = rng.standard_normal(sparsity) + 1j * rng.standard_normal(sparsity)
    y = h @ d.T + noise * (rng.standard_normal((k, rows)) + 1j * rng.standard_normal((k, rows)))
    y[1] = 0
    return y, Dictionary(matrix=d, pairs=tuple((j, 0) for j in range(cols)))


def counted_iterations(monkeypatch, solve):
    """The soft_threshold calls, one per FISTA iteration, that solve() makes."""
    return len(threshold_widths(monkeypatch, solve))


def threshold_widths(monkeypatch, solve):
    """The problems each soft_threshold call of solve() covers: one per call
    of a 1-D solve, the live columns of the block for a stack."""
    widths = []

    def counting(x, gamma):
        widths.append(1 if np.ndim(x) == 1 else x.shape[1])
        return soft_threshold(x, gamma)

    with monkeypatch.context() as patch:
        patch.setattr(estimator, "soft_threshold", counting)
        solve()
    return widths


def stopping_iterations(widths):
    """The sorted iterations at which the problems of a solve stop, read off
    its threshold widths: the problems that leave after call t stopped at t."""
    widths = [*widths, 0]
    return sorted(t + 1 for t in range(len(widths) - 1) for _ in range(widths[t] - widths[t + 1]))


# A row of a stack is the plain FISTA formula on a (P, K) block, whose gemm
# rounds otherwise than one gemv per vector: it agrees with its own solve,
# and so with fista_reference, to this bound, with the same zero entries.
ROW_RTOL = 1e-12
ROW_ATOL = 1e-13


def assert_row_matches(row, ref):
    np.testing.assert_allclose(row, ref, rtol=ROW_RTOL, atol=ROW_ATOL)
    np.testing.assert_array_equal(row == 0, ref == 0)


class TestSolveLassoRows:
    # max_iter 45 at lam 0.05 and 70 at lam 0 stop some rows of a batch and
    # exhaust others
    @pytest.mark.parametrize(
        "lam,tol,max_iter",
        [(0.05, 1e-6, 5000), (0.02, 1e-12, 50000), (0.0, 1e-6, 5000), (0.05, 1e-6, 45), (0.0, 1e-6, 70)],
    )
    def test_every_row_matches_fista_oracle(self, monkeypatch, lam, tol, max_iter):
        cfg = LassoConfig(lam=lam, tol=tol, max_iter=max_iter)
        mixed = False
        for seed in range(4):
            y, d = lasso_rows(seed)
            refs = [fista_reference(row, d.matrix, lam, tol, max_iter) for row in y]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                iters = [counted_iterations(monkeypatch, lambda: solve_lasso(row, d, cfg)) for row in y]
                single = sorted(str(w.message) for w in caught)
                caught.clear()
                batch = []
                widths = threshold_widths(monkeypatch, lambda: batch.append(solve_lasso(y, d, cfg)))
            (h,) = batch
            assert len(set(iters)) > 2, "rows must stop at different iterations"
            assert iters[1] == 1  # the zero row
            assert stopping_iterations(widths) == sorted(iters)
            stalled = sum(not converged for _, converged in refs)
            mixed |= 0 < stalled < len(y)
            assert [w.category for w in caught] == [RuntimeWarning] * stalled
            assert all("did not converge" in str(w.message) for w in caught)
            assert sorted(str(w.message) for w in caught) == single
            assert h.shape == (len(y), d.matrix.shape[1])
            for row, (ref, _) in zip(h, refs):
                assert_row_matches(row, ref)
        assert mixed == (max_iter < 100)

    def test_change_is_relative_to_the_previous_iterate(self, monkeypatch):
        # from h = 0 the first change is infinite, so even a tolerance above 1
        # takes two iterations; over the new iterate it would read 1 and stop
        y, d = lasso_rows(2)
        cfg = LassoConfig(lam=0.05, tol=2.0, max_iter=100)
        batch = []
        assert counted_iterations(monkeypatch, lambda: batch.append(solve_lasso(y, d, cfg))) == 2
        for row, h in zip(y, batch[0]):
            ref, _ = fista_reference(row, d.matrix, cfg.lam, cfg.tol, cfg.max_iter)
            assert_row_matches(h, ref)
            assert counted_iterations(monkeypatch, lambda: solve_lasso(row, d, cfg)) == (2 if row.any() else 1)

    def test_a_row_does_not_depend_on_its_batch(self):
        y, d = lasso_rows(5, k=8)
        cfg = LassoConfig(lam=0.02, tol=1e-9, max_iter=5000)
        whole = solve_lasso(y, d, cfg)
        for rows in ([3], [7, 0], [2, 5, 1, 6], list(range(8))[::-1]):
            part = solve_lasso(y[rows], d, cfg)
            for j, row in enumerate(rows):
                assert_row_matches(part[j], whole[row])
        for row in range(len(y)):
            assert_row_matches(whole[row], solve_lasso(y[row], d, cfg))

    def test_rows_match_on_a_lattice_full_grid_frame(self, monkeypatch, frame):
        pairs = tuple((l, signed_doppler(kc, D.n)) for kc in range(D.n) for l in range(D.m))
        d = build_dictionary(frame.pilot_only_tf, pairs, D)
        rng = np.random.default_rng(8)
        y = np.stack([
            vec(received_tf(frame, sample_channel(STATS, D, rng), n0=n0, rng=rng))
            for n0 in (1.0, 0.3, 0.1, 0.03, 0.01)
        ])
        cfg = LassoConfig()
        batch = []
        widths = threshold_widths(monkeypatch, lambda: batch.append(solve_lasso(y, d, cfg)))
        iters = [counted_iterations(monkeypatch, lambda: solve_lasso(row, d, cfg)) for row in y]
        assert stopping_iterations(widths) == sorted(iters)
        for row, h in zip(y, batch[0]):
            ref, converged = fista_reference(row, d.matrix, cfg.lam, cfg.tol, cfg.max_iter)
            assert converged
            assert_row_matches(h, ref)

    def test_empty_stack_gives_no_rows(self):
        _, d = lasso_rows(0)
        h = solve_lasso(np.zeros((0, d.matrix.shape[0]), dtype=complex), d, LassoConfig())
        assert h.shape == (0, d.matrix.shape[1])


def full_grid_dictionary(shape, sequence_kind="all_ones", placement="lattice"):
    d = Dims(*shape)
    spec = FrameSpec(dims=d, sequence_kind=sequence_kind, placement=placement)
    frame = assemble_frame(spec, np.random.default_rng(0))
    return build_dictionary(frame.pilot_only_tf, full_grid_pairs(d), d)


def three_path_rows(d):
    """Received vectors of three random atoms of d each, at five noise levels."""
    rows, cols = d.matrix.shape
    rng = np.random.default_rng(cols)
    y = np.empty((5, rows), dtype=complex)
    for row, noise in zip(y, (1.0, 0.3, 0.1, 0.03, 0.01)):
        support = rng.choice(cols, size=3, replace=False)
        gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / math.sqrt(6)
        row[:] = d.matrix[:, support] @ gains + noise * (
            rng.standard_normal(rows) + 1j * rng.standard_normal(rows)) / math.sqrt(2)
    return y


def interleaved_dictionary(rng):
    """Columns of two row-disjoint dictionaries, interleaved: six of a complex
    one (no phases make its Gram real), five of one real up to column phases."""
    cplx = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
    real = rng.standard_normal((20, 5)) * np.exp(2j * np.pi * rng.uniform(size=5))
    matrix = np.zeros((40, 11), dtype=complex)
    matrix[:20, 0::2], matrix[20:, 1::2] = cplx, real
    return Dictionary(matrix=matrix, pairs=tuple((j, 0) for j in range(11)))


class TestGramBlocks:
    # on the all-ones and Walsh lattices even delays never couple to odd
    # ones, and the Gram is a real matrix up to a diagonal phase similarity:
    # the operator runs it as real blocks, each a view of the one step matrix
    @pytest.mark.parametrize(
        "shape,sequence_kind,sizes",
        [
            ((8, 14, 2), "all_ones", [56, 56]),
            ((16, 14, 3), "all_ones", [84, 84, 56]),
            ((8, 16, 2), "walsh", [64, 64]),
        ],
        ids=["8x14-ideal", "16x14", "walsh-8x16"],
    )
    def test_lattice_gram_is_block_diagonal(self, shape, sequence_kind, sizes):
        d = full_grid_dictionary(shape, sequence_kind)
        op = d.fista_operator
        order, p = op.order, op.phases
        bound = estimator.GRAM_LINK_RTOL * np.abs(d.gram).max()
        assert sorted(order) == list(range(len(d.gram)))
        assert op.whole.dtype == float and op.whole.flags.c_contiguous
        np.testing.assert_allclose(np.abs(p), 1.0, rtol=0, atol=1e-15)
        permuted = d.gram[np.ix_(order, order)]
        inside = np.zeros(permuted.shape, dtype=bool)
        start = 0
        for rows, step in op.blocks:
            assert rows == slice(start, start + len(step))
            assert np.all(np.diff(order[rows]) > 0)
            assert np.shares_memory(step, op.whole) and not step.flags.writeable
            # S = I - eps R on the block, so R = (I - S) / eps
            block = (np.identity(len(step)) - step) / op.eps
            rebuilt = p[rows, None] * block * p[rows].conj()
            assert np.abs(rebuilt - permuted[rows, rows]).max() <= bound
            inside[rows, rows] = True
            start = rows.stop
        assert [len(step) for _, step in op.blocks] == sizes
        assert np.abs(permuted[~inside]).max() <= bound
        assert not op.whole[~inside].any()
        for array in (order, p, op.whole):
            assert not array.flags.writeable

    @pytest.mark.parametrize("placement", ["lattice", "uniform_random"])
    def test_zadoff_chu_gram_is_one_block(self, placement):
        d = full_grid_dictionary((8, 14, 2), "zadoff_chu", placement)
        op = d.fista_operator
        ((rows, step),) = op.blocks
        # the one-block order is the natural one, as an index array like any other
        assert op.order.tobytes() == np.arange(len(d.gram)).tobytes() and rows == slice(0, len(d.gram))
        assert not op.order.flags.writeable
        assert np.shares_memory(step, op.whole) and not step.flags.writeable
        assert op.whole.tobytes() == (np.identity(len(d.gram)) - op.eps * d.gram).tobytes()
        assert op.phases.tobytes() == np.ones(len(d.gram), dtype=complex).tobytes()

    def test_complex_block_keeps_p_one_beside_a_real_block(self, monkeypatch):
        # the Gram has a complex block beside a real one; no phases make the
        # whole of it real, so it runs as one complex block in the natural
        # order with p = 1
        rng = np.random.default_rng(3)
        d = interleaved_dictionary(rng)
        matrix = d.matrix
        assert not d.gram[0::2, 1::2].any()
        op = d.fista_operator
        ((rows, step),) = op.blocks
        assert op.order.tobytes() == np.arange(11).tobytes() and rows == slice(0, 11)
        assert np.shares_memory(step, op.whole) and not step.flags.writeable
        assert op.phases.tobytes() == np.ones(11, dtype=complex).tobytes()
        assert op.whole.tobytes() == (np.identity(11) - op.eps * d.gram).tobytes()
        y = np.stack([matrix @ (rng.standard_normal(11) * (rng.uniform(size=11) < 0.3)) for _ in range(4)])
        y += 0.05 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        cfg = LassoConfig(lam=1.0)
        batch = []
        widths = threshold_widths(monkeypatch, lambda: batch.append(solve_lasso(y, d, cfg)))
        iters = [counted_iterations(monkeypatch, lambda: solve_lasso(row, d, cfg)) for row in y]
        assert stopping_iterations(widths) == sorted(iters)
        assert np.all((batch[0] == 0).any(axis=1))
        for row, h in zip(y, batch[0]):
            ref, converged = fista_reference(row, d.matrix, cfg.lam, cfg.tol, cfg.max_iter)
            assert converged
            assert_row_matches(h, ref)

    # max_iter 270, 500 and 275 stop some rows and exhaust others; every
    # block is real, so the rows run in the blocks' phases
    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize(
        "shape,sequence_kind,short",
        [
            ((8, 16, 2), "walsh", 270),
            ((16, 14, 3), "all_ones", 500),
            ((8, 14, 2), "all_ones", 275),
        ],
        ids=["walsh-8x16", "16x14", "8x14"],
    )
    def test_rows_match_fista_oracle_across_blocks(self, monkeypatch, shape, sequence_kind, short, cut):
        d = full_grid_dictionary(shape, sequence_kind)
        op = d.fista_operator
        assert len(op.blocks) > 1 and op.whole.dtype == float
        y = three_path_rows(d)
        cfg = LassoConfig(max_iter=short if cut else 1000)
        refs = [fista_reference(row, d.matrix, cfg.lam, cfg.tol, cfg.max_iter) for row in y]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            iters = [counted_iterations(monkeypatch, lambda: solve_lasso(row, d, cfg)) for row in y]
            single = sorted(str(w.message) for w in caught)
            caught.clear()
            batch = []
            widths = threshold_widths(monkeypatch, lambda: batch.append(solve_lasso(y, d, cfg)))
        assert stopping_iterations(widths) == sorted(iters)
        assert sorted(str(w.message) for w in caught) == single
        stalled = sum(not converged for _, converged in refs)
        assert len(caught) == stalled and (0 < stalled < len(y)) == cut
        for row, (ref, _) in zip(batch[0], refs):
            assert_row_matches(row, ref)


class TestFistaOperator:
    @pytest.mark.parametrize(
        "make,dtype",
        [
            (lambda: full_grid_dictionary((8, 14, 2)), float),
            (lambda: full_grid_dictionary((16, 14, 3)), float),
            (lambda: full_grid_dictionary((8, 16, 2), "walsh"), float),
            (lambda: full_grid_dictionary((8, 14, 2), "zadoff_chu"), complex),
            (lambda: full_grid_dictionary((8, 14, 2), "zadoff_chu", "uniform_random"), complex),
            (lambda: interleaved_dictionary(np.random.default_rng(3)), complex),
        ],
        ids=["8x14", "16x14", "walsh-8x16", "zadoff-chu", "random-pilots", "complex-and-real"],
    )
    def test_step_is_the_rotated_gram_in_block_order(self, make, dtype):
        d = make()
        op = d.fista_operator
        p = op.phases
        assert op.eps == 1.0 / d.norm_sq
        assert op.whole.dtype == dtype
        rotated = p.conj()[:, None] * d.gram[np.ix_(op.order, op.order)] * p
        want = np.identity(len(p)) - op.eps * rotated
        assert np.abs(op.whole - want).max() <= estimator.GRAM_LINK_RTOL * op.eps * np.abs(d.gram).max()
        # each block is bytewise I - eps times the real part of the rotated Gram
        # (the Gram itself when complex), and S is zero between blocks
        if dtype == float:
            want = np.identity(len(p)) - op.eps * rotated.real
        inside = np.zeros(op.whole.shape, dtype=bool)
        for rows, step in op.blocks:
            assert step.tobytes() == want[rows, rows].tobytes()
            assert np.shares_memory(step, op.whole)
            inside[rows, rows] = True
        assert not op.whole[~inside].any()
        for array in (op.whole, op.phases, *(step for _, step in op.blocks)):
            assert not array.flags.writeable

    def test_built_once_per_dictionary(self, frame):
        d = cached_dictionary(frame.pilot_only_tf, full_grid_pairs(D), D)
        op = d.fista_operator
        assert d.fista_operator is op
        y = np.stack([vec(received_tf(frame, make_channel([(0.7, 1, 2)]), n0=0.1, rng=np.random.default_rng(k)))
                      for k in range(3)])
        solve_lasso(y, d, LassoConfig())
        solve_lasso(y[0], d, LassoConfig())
        assert d.fista_operator is op
        assert cached_dictionary(frame.pilot_only_tf, full_grid_pairs(D), D).fista_operator is op
        with pytest.raises(ValueError, match="read-only"):
            op.whole[0, 0] = 0.0

    # the single-vector loop multiplies a copy of S with the shift as extra
    # columns; the cached S keeps its bytes, real (two blocks on the all-ones
    # lattice) and complex (one block on a Zadoff-Chu lattice)
    @pytest.mark.parametrize("sequence_kind,dtype", [("all_ones", float), ("zadoff_chu", complex)])
    def test_vector_solve_leaves_the_step_matrix_untouched(self, sequence_kind, dtype):
        d = full_grid_dictionary((8, 14, 2), sequence_kind)
        op = d.fista_operator
        assert op.whole.dtype == dtype
        before = op.whole.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for row in three_path_rows(d):
                solve_lasso(row, d, LassoConfig())
        assert d.fista_operator is op
        assert op.whole.tobytes() == before
        assert not op.whole.flags.writeable

    # the 16 x 14 lattice runs three real blocks as one real matrix, and
    # every solve converges; the Zadoff-Chu lattice's Gram is one complex
    # block (cond 253), and max_iter 1000 stops one solve and exhausts four
    @pytest.mark.parametrize(
        "shape,sequence_kind,stalled",
        [((16, 14, 3), "all_ones", 0), ((8, 14, 2), "zadoff_chu", 4)],
        ids=["16x14", "zadoff-chu"],
    )
    def test_vector_solves_match_fista_oracle(self, monkeypatch, shape, sequence_kind, stalled):
        d = full_grid_dictionary(shape, sequence_kind)
        assert len(d.fista_operator.blocks) == (3 if sequence_kind == "all_ones" else 1)
        y = three_path_rows(d)
        cfg = LassoConfig()
        iters, single = [], []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for row in y:
                ref, converged = fista_reference(row, d.matrix, cfg.lam, cfg.tol, cfg.max_iter)
                solved = []
                iters.append(counted_iterations(monkeypatch, lambda: solved.append(solve_lasso(row, d, cfg))))
                assert_row_matches(solved[0], ref)
                assert [w.category for w in caught] == ([] if converged else [RuntimeWarning])
                single += [str(w.message) for w in caught]
                caught.clear()
            widths = threshold_widths(monkeypatch, lambda: solve_lasso(y, d, cfg))
        assert len(single) == stalled
        assert sorted(str(w.message) for w in caught) == sorted(single)
        assert stopping_iterations(widths) == sorted(iters)

    # tf_lasso on the keyed received vectors of trials 0-3 at 10 dB, solved
    # one by one as vectors (on the one step matrix), one by one as one-row
    # stacks and as one four-row stack (block by block): pilot-only and
    # data-filled at 8 x 14 (two real 56-atom blocks) and the 16 x 16
    # AF-study lattice (two real 128-atom blocks)
    @pytest.mark.parametrize(
        "config,sizes",
        [("pilot_only", [56, 56]), ("with_data", [56, 56]), ("af_study", [128, 128])],
        ids=["pilot_only", "with_data", "af_study"],
    )
    def test_loops_agree_on_the_config_frames(self, config, sizes):
        cfg = load_config(CONFIG_DIR / f"{config}.yaml", env={})
        n0 = harness._check_snr(10.0)
        received = [harness._received(cfg, 10.0, t, n0)[1:] for t in range(4)]
        frame = received[0][0]
        ys = np.stack([vec(y_tf) for _, y_tf in received])
        op = cached_dictionary(frame.pilot_only_tf, full_grid_pairs(cfg.dims), cfg.dims).fista_operator
        assert op.whole.dtype == float and [len(step) for _, step in op.blocks] == sizes
        want = np.stack([tf_lasso_gains(y, frame, cfg.lasso) for y in ys])
        for gains in (
            np.concatenate([tf_lasso_gains(ys[i:i + 1], frame, cfg.lasso) for i in range(len(ys))]),
            tf_lasso_gains(ys, frame, cfg.lasso),
        ):
            np.testing.assert_allclose(gains, want, rtol=1e-12, atol=1e-13)
            np.testing.assert_array_equal(gains == 0, want == 0)


class TestCdceEstimate:
    def test_noiseless_single_path_reconstruction(self, frame):
        gain = 0.7 + 0.2j
        ch = make_channel([(gain, 2, -3)])
        y = received_tf(frame, ch)
        est = cdce_estimate(y, frame, STATS, n0=0.0)
        h_true = effective_tf_channel(ch)
        assert est.h_tf_hat.shape == h_true.shape == (2, D.n, D.m, D.m)
        err = np.linalg.norm(est.h_tf_hat - h_true) / np.linalg.norm(h_true)
        assert err < 1e-8
        assert est.h_hat.size > 0

    def test_zero_received_signal_flags_empty(self, frame):
        est = cdce_estimate(np.zeros((D.m, D.n), dtype=complex), frame, STATS, n0=1.0)
        assert est.h_hat.size == 0
        assert est.pairs == ()
        np.testing.assert_array_equal(est.h_tf_hat, np.zeros((2, D.n, D.m, D.m)))

    def test_deterministic(self, frame):
        rng = np.random.default_rng(21)
        ch = make_channel([(0.5, 1, 1), (0.5j, 2, -2)])
        y = received_tf(frame, ch, n0=0.1, rng=rng)
        a = cdce_estimate(y, frame, STATS, n0=0.1)
        b = cdce_estimate(y, frame, STATS, n0=0.1)
        np.testing.assert_array_equal(a.h_tf_hat, b.h_tf_hat)
        assert a.pairs == b.pairs

    def test_empty_pilot_frame_rejected(self):
        zero = np.zeros((D.m, D.n), dtype=complex)
        fake = Frame(tf=zero, pilot_only_tf=zero, dims=D, data_mode="pilot_only")
        with pytest.raises(ValueError, match="pilot"):
            cdce_estimate(zero, fake, STATS, n0=1.0)

    def test_with_data_mode_runs_the_rms_threshold(self, frame):
        rng = np.random.default_rng(4)
        spec = FrameSpec(dims=D, data_mode="with_data")
        data_frame = assemble_frame(spec, rng)
        ch = make_channel([(0.8, 1, 0)])
        y = received_tf(data_frame, ch, n0=0.01, rng=rng)
        est = cdce_estimate(y, data_frame, STATS, n0=0.01)
        assert (1, 0) in est.pairs

    @pytest.mark.parametrize("data_mode", ["pilot_only", "with_data"])
    def test_the_frame_picks_the_threshold_rule(self, monkeypatch, data_mode):
        rng = np.random.default_rng(5)
        fr = assemble_frame(FrameSpec(dims=D, data_mode=data_mode), rng)
        y = received_tf(fr, make_channel([(0.8, 1, 0)]), n0=0.01, rng=rng)
        rules = []

        def spy(mode, **kwargs):
            rules.append(mode)
            return default_gamma(mode, **kwargs)

        monkeypatch.setattr(estimator, "default_gamma", spy)
        cdce_estimate(y, fr, STATS, n0=0.01)
        assert rules == [data_mode]

    @pytest.mark.parametrize("grid", ["pilot_only_tf", "tf"])
    @pytest.mark.parametrize("data_mode", ["pilot_only", "with_data"])
    def test_the_data_mode_alone_picks_the_threshold_rule(self, monkeypatch, grid, data_mode):
        # a hand-built frame whose grid disagrees with its data_mode: the field wins
        rng = np.random.default_rng(6)
        filled = assemble_frame(FrameSpec(dims=D, data_mode="with_data"), rng)
        fr = Frame(tf=getattr(filled, grid), pilot_only_tf=filled.pilot_only_tf, dims=D, data_mode=data_mode)
        y = received_tf(fr, make_channel([(0.8, 1, 0)]), n0=0.01, rng=rng)
        rules = []

        def spy(mode, **kwargs):
            rules.append(mode)
            return default_gamma(mode, **kwargs)

        monkeypatch.setattr(estimator, "default_gamma", spy)
        cdce_estimate(y, fr, STATS, n0=0.01)
        assert rules == [data_mode]

    @pytest.mark.parametrize("freq_spacing,branch", [(2, "solve_ls"), (4, "solve_lasso")])
    def test_fista_only_for_ill_conditioned_dictionaries(self, monkeypatch, freq_spacing, branch):
        # n0 = 0 keeps all 21 region bins; pilots on every fourth subcarrier
        # cannot tell delay 0 from delay 2, so two columns coincide. The
        # branch is chosen before the call: a FISTA trial never enters solve_ls
        fr = assemble_frame(FrameSpec(dims=D, freq_spacing=freq_spacing))
        y = received_tf(fr, make_channel([(0.9, 1, 1)]))
        entered, finished = [], []
        for name in ("solve_ls", "solve_lasso"):
            def spy(*args, _solve=getattr(estimator, name), _name=name):
                entered.append(_name)
                h = _solve(*args)
                finished.append(_name)
                return h

            monkeypatch.setattr(estimator, name, spy)
        est = cdce_estimate(y, fr, STATS, n0=0.0)
        assert len(est.pairs) > 0
        assert entered == finished == [branch]

    @pytest.mark.parametrize("cond,branch", [(0.98e6, "solve_ls"), (1.02e6, "solve_lasso")])
    def test_branch_follows_the_gram_condition_number(self, monkeypatch, frame, cond, branch):
        # n0 = 0 keeps all 21 region bins; the dictionary is swapped for one
        # of the given condition number, 2 % either side of the limit
        y = received_tf(frame, make_channel([(0.9, 1, 1)]))
        built = []

        def build(pilot_only_tf, pairs, d):
            built.append(Dictionary(matrix=conditioned(d.grid_size, len(pairs), cond), pairs=tuple(pairs)))
            return built[-1]

        monkeypatch.setattr(estimator, "build_dictionary", build)
        entered, finished = [], []
        for name in ("solve_ls", "solve_lasso"):
            def spy(*args, _solve=getattr(estimator, name), _name=name):
                entered.append(_name)
                h = _solve(*args)
                finished.append(_name)
                return h

            monkeypatch.setattr(estimator, name, spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cdce_estimate(y, frame, STATS, n0=0.0)
        assert [d.matrix.shape for d in built] == [(D.grid_size, STATS.region_size)]
        assert built[0].cond == pytest.approx(cond, rel=1e-3)
        assert entered == finished == [branch]

    def test_reconstruction_uses_only_surviving_pairs(self, frame):
        gain = 0.9
        ch = make_channel([(gain, 1, 1)])
        y = received_tf(frame, ch, n0=0.0)
        est = cdce_estimate(y, frame, STATS, n0=1e-4)
        rebuilt = np.zeros((D.grid_size, D.grid_size), dtype=complex)
        for g, pair in zip(est.h_hat, est.pairs):
            rebuilt += g * dense_atom(D, *pair)
        np.testing.assert_allclose(bands_to_dense(est.h_tf_hat), rebuilt, atol=1e-12)

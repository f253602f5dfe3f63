import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdce.channel as channel
from cdce.channel import (
    ChannelRealization,
    ChannelStats,
    PathParams,
    apply_channel,
    atom_columns,
    draw_paths,
    effective_tf_channel,
    full_grid_pairs,
    sample_channel,
    time_channel_matrix,
    reconstruct,
    unit_path_tf_channel,
)
from cdce.grids import (
    Dims,
    remove_cp,
    signed_doppler,
    tf_to_dd,
    tf_to_time,
    time_to_tf,
    unvec,
    vec,
)
from cdce.harness import SimConfig
from cdce.pilots import FrameSpec

from oracles import (
    bands_to_dense,
    dd_to_tf,
    dense_atom,
    dense_effective_tf,
    dense_effective_tf_oracle,
    time_channel_oracle,
)

D = Dims(8, 14, 2)

# The atom cases run on the sample grid's own ("ideal") pulse, the channel
# model's only one, and their ids name it as they did beside the deleted
# rectangular pulse.
IDEAL_SHAPE_IDS = [f"shape{i}-ideal" for i in range(4)]


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

    def test_gain_variance_is_one_over_n_paths(self):
        stats = ChannelStats(n_paths=4)
        _, gains = draw_paths(stats, D, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        rng.choice(stats.region_size, size=4, replace=False)
        normals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_array_equal(gains, math.sqrt(0.25 / 2) * normals)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_paths=0),
            dict(l_max=-1),
            dict(k_max=-1),
            dict(n_paths=-3),
            # more paths than the 21 bins of the default region hold
            dict(n_paths=22),
            dict(n_paths=4, l_max=0, k_max=1),
        ],
    )
    def test_invalid_stats(self, kwargs):
        with pytest.raises(ValueError):
            ChannelStats(**kwargs)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            PathParams(gain=1.0, delay_int=-1)

    @pytest.mark.parametrize(
        "delay,doppler", [(1.0, 0), (0, 0.5), (np.float64(2.0), 1), (1, np.float32(-1.0))]
    )
    def test_non_integer_bin_rejected(self, delay, doppler):
        with pytest.raises(ValueError, match="must be integer bins"):
            PathParams(1.0, delay, doppler)
        with pytest.raises(ValueError, match="must be integer bins"):
            channel._unit_path_atoms(D, [(delay, doppler)])

    def test_numpy_integer_bins_accepted(self):
        np.testing.assert_array_equal(
            effective_tf_channel(single_path(0.5, np.int64(1), np.int32(-2))),
            effective_tf_channel(single_path(0.5, 1, -2)),
        )
        blocks, ramps = channel._unit_path_atoms(D, [(np.int64(1), np.int32(-2))])
        want_blocks, want_ramps = channel._unit_path_atoms(D, [(1, -2)])
        np.testing.assert_array_equal(blocks, want_blocks)
        np.testing.assert_array_equal(ramps, want_ramps)

    def test_doppler_beyond_half_grid_rejected(self):
        with pytest.raises(ValueError):
            single_path(1.0, 0, 8)


class TestSampleChannel:
    def test_doppler_region_must_stay_below_half_grid(self):
        with pytest.raises(ValueError, match="Doppler grid"):
            sample_channel(ChannelStats(k_max=7), D, np.random.default_rng(0))

    @pytest.mark.parametrize("d,k_max", [(D, 7), (Dims(8, 13, 2), 7)])
    def test_config_and_draw_state_one_doppler_rule(self, d, k_max):
        # the config check at load and the draw fail on the same rule, in
        # the same words
        stats = ChannelStats(k_max=k_max)
        with pytest.raises(ValueError, match="half the Doppler grid") as drawn:
            draw_paths(stats, d, np.random.default_rng(0))
        with pytest.raises(ValueError, match="half the Doppler grid") as loaded:
            SimConfig(dims=d, stats=stats, frame=FrameSpec(dims=d))
        assert str(loaded.value) == str(drawn.value)
        draw_paths(ChannelStats(k_max=(d.n - 1) // 2), d, np.random.default_rng(0))

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


class TestTimeChannelMatrix:
    def test_identity_path(self):
        g = time_channel_matrix(single_path(1.0, 0, 0))
        np.testing.assert_allclose(g, np.eye(D.frame_len), atol=1e-12)

    def test_unit_delay_is_subdiagonal(self):
        g = time_channel_matrix(single_path(1.0, 1, 0))
        np.testing.assert_allclose(g, np.eye(D.frame_len, k=-1), atol=1e-12)

    def test_unit_doppler_is_payload_clock_diagonal(self):
        g = time_channel_matrix(single_path(1.0, 0, 1))
        phases = np.exp(2j * np.pi * payload_clock(D) / D.grid_size)
        np.testing.assert_allclose(g, np.diag(phases), atol=1e-12)

    def test_doppler_acts_as_per_sample_modulation(self):
        g = time_channel_matrix(single_path(1.0, 0, 2))
        s = tf_to_time(random_frame(D, 5), D, with_cp=True)
        modulated = s * np.exp(2j * np.pi * 2 * payload_clock(D) / D.grid_size)
        np.testing.assert_allclose(g @ s, modulated, atol=1e-12)

    def test_gain_scales_linearly(self):
        g1 = time_channel_matrix(single_path(1.0, 2, -3))
        g2 = time_channel_matrix(single_path(0.5 - 0.25j, 2, -3))
        np.testing.assert_allclose(g2, (0.5 - 0.25j) * g1, atol=1e-12)

    @pytest.mark.parametrize("d", [D, Dims(6, 5, 3)], ids=lambda d: f"{d}-ideal")
    def test_matches_entrywise_oracle(self, d):
        rng = np.random.default_rng(d.grid_size)
        paths = tuple(
            PathParams(
                complex(rng.standard_normal(), rng.standard_normal()),
                int(rng.integers(0, d.m)),
                int(rng.integers(-((d.n - 1) // 2), d.n // 2 + 1)),
            )
            for _ in range(4)
        )
        np.testing.assert_allclose(
            time_channel_matrix(ChannelRealization(paths, d)),
            time_channel_oracle(
                [(p.gain, p.delay_int, p.doppler_int) for p in paths],
                d.m, d.n, d.cp_len,
            ),
            rtol=0,
            atol=1e-12,
        )

    def test_paths_superpose(self):
        a = single_path(0.8, 1, 2)
        b = single_path(-0.3j, 2, -1)
        both = ChannelRealization(paths=a.paths + b.paths, dims=D)
        np.testing.assert_allclose(
            time_channel_matrix(both),
            time_channel_matrix(a) + time_channel_matrix(b),
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
        g = time_channel_matrix(single_path(1.0, 1, 0))
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


def dense_h_tf(ch):
    return bands_to_dense(effective_tf_channel(ch))


class TestEffectiveTfChannel:
    def test_identity_sandwich(self):
        np.testing.assert_allclose(dense_h_tf(single_path(1.0, 0, 0)), np.eye(D.grid_size), atol=1e-12)

    def test_flat_path_is_scaled_identity(self):
        h = 0.7 + 0.2j
        np.testing.assert_allclose(dense_h_tf(single_path(h, 0, 0)), h * np.eye(D.grid_size), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_chain_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        ch = sample_channel(ChannelStats(), D, rng)
        g = time_channel_matrix(ch)
        x = random_frame(D, seed + 1)
        via_matrix = unvec(dense_h_tf(ch) @ vec(x), D.m, D.n)
        via_signal = time_to_tf(
            remove_cp(apply_channel(tf_to_time(x, D, with_cp=True), g, 0.0), D), D
        )
        np.testing.assert_allclose(via_matrix, via_signal, atol=1e-10)

    def test_matches_dense_kronecker_oracle(self):
        rng = np.random.default_rng(11)
        ch = sample_channel(ChannelStats(), D, rng)
        g = time_channel_matrix(ch)
        np.testing.assert_allclose(
            dense_h_tf(ch), dense_effective_tf_oracle(g, D.m, D.n, D.cp_len), atol=1e-10
        )

    @pytest.mark.parametrize(
        "shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)], ids=IDEAL_SHAPE_IDS
    )
    def test_bands_are_the_dense_blocks_within_1e_14(self, shape):
        # a unit-gain path at every delay of the grid, at both Doppler edges:
        # the bands are the dense blocks within 1e-14 (the closed-form atoms
        # do not round as the dense sandwich does), and every other block of
        # the dense sandwich is exactly zero
        d = Dims(*shape)
        m = d.m
        for l in range(d.m):
            for k in (-((d.n - 1) // 2), 1, d.n // 2):
                ch = ChannelRealization((PathParams(1.0, l, k),), d)
                g = time_channel_matrix(ch)
                bands = effective_tf_channel(ch)
                dense = dense_effective_tf(g, d)
                kron = dense_effective_tf_oracle(g, d.m, d.n, d.cp_len)
                assert bands.shape == (2, d.n, m, m)
                assert not bands[1, 0].any()
                np.testing.assert_allclose(bands_to_dense(bands), dense, rtol=0, atol=1e-14)
                np.testing.assert_allclose(dense, kron, atol=1e-12)
                for r in range(d.n):
                    for c in range(d.n):
                        if c not in (r, r - 1):
                            assert not kron[r * m:(r + 1) * m, c * m:(c + 1) * m].any()

    @pytest.mark.parametrize(
        "shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)], ids=IDEAL_SHAPE_IDS
    )
    def test_random_channels_match_the_dense_sandwich(self, shape):
        # three paths with complex gains: the closed-form atom sum rounds
        # differently from the dense sandwich of G, but only at the last bits
        d = Dims(*shape)
        stats = ChannelStats(n_paths=3, l_max=d.cp_len, k_max=(d.n - 1) // 2)
        rng = np.random.default_rng(d.frame_len)
        for _ in range(20):
            ch = sample_channel(stats, d, rng)
            dense = dense_effective_tf(time_channel_matrix(ch), d)
            err = np.linalg.norm(dense_h_tf(ch) - dense) / np.linalg.norm(dense)
            assert err <= 1e-14

    @pytest.mark.parametrize("shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)])
    def test_delay_of_one_symbol_rejected(self, shape):
        # a realization the atoms cannot score cannot be built: a delay of one
        # CP-extended symbol, and on even N Doppler -N/2 (the DD column of +N/2)
        d = Dims(*shape)
        off = [(PathParams(0.5, d.m + d.cp_len, 0), "delay")]
        if d.n % 2 == 0:
            off.append((PathParams(0.5, 1, -d.n // 2), "Doppler"))
        for path, named in off:
            with pytest.raises(ValueError, match=named):
                ChannelRealization((PathParams(1.0, 0, 0), path), d)

    def test_ici_exactly_when_doppler_nonzero(self):
        for k, expect_ici in ((0, False), (2, True)):
            bands = effective_tf_channel(single_path(1.0, 1, k))
            off = 0.0
            for block in bands[0]:
                off += np.sum(np.abs(block - np.diag(np.diag(block))) ** 2)
            assert (off > 1e-6) == expect_ici

    def test_dd_impulse_peaks_at_path_exhaustively(self):
        stats = ChannelStats()
        imp = np.zeros((D.m, D.n))
        imp[0, 0] = 1.0
        x_tf = dd_to_tf(imp, D)
        for l in range(stats.l_max + 1):
            for k in range(-stats.k_max, stats.k_max + 1):
                h_tf = dense_h_tf(single_path(1.0, l, k))
                y_dd = tf_to_dd(unvec(h_tf @ vec(x_tf), D.m, D.n), D)
                peak = np.unravel_index(np.argmax(np.abs(y_dd)), y_dd.shape)
                assert peak == (l, k % D.n), f"path ({l},{k}) peaked at {peak}"


class TestUnitPathCache:
    @pytest.mark.parametrize(
        "shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)], ids=IDEAL_SHAPE_IDS
    )
    def test_bands_are_the_dense_atom_within_1e_14(self, shape):
        # every bin's closed-form atom is its dense atom's two bands, entrywise
        # within 1e-14, and the dense atom's symbol blocks are symbol 0's
        # (diagonal) and symbol 1's (sub-diagonal) times the Doppler ramp;
        # [1, 0] and every other dense block are exactly zero
        d = Dims(*shape)
        m = d.m
        for l in range(d.m):
            for kc in range(d.n):
                k = signed_doppler(kc, d.n)
                ramp = np.exp(2j * np.pi * k * np.arange(d.n) / d.n)
                bands = unit_path_tf_channel(d, l, k)
                dense = dense_atom(d, l, k)
                assert bands.shape == (2, d.n, m, m)
                assert not bands[1, 0].any()
                for r in range(d.n):
                    for c in range(d.n):
                        block = dense[r * m:(r + 1) * m, c * m:(c + 1) * m]
                        if r == c:
                            np.testing.assert_allclose(bands[0, r], block, rtol=0, atol=1e-14)
                            np.testing.assert_allclose(block, ramp[r] * dense[:m, :m], rtol=0, atol=1e-14)
                        elif r == c + 1:
                            np.testing.assert_allclose(bands[1, r], block, rtol=0, atol=1e-14)
                            np.testing.assert_allclose(block, ramp[c] * dense[m:2 * m, :m], rtol=0, atol=1e-14)
                        else:
                            assert not block.any(), f"({l}, {k}) block ({r}, {c})"

    def test_lookups_are_counted_like_lru_cache(self):
        # one table lookup per call, whatever the number of pairs
        channel._atom_table.cache_clear()
        reconstruct(np.ones(3), ((0, 1), (2, -3), (0, 1)), D)
        unit_path_tf_channel(D, 2, -3)
        info = unit_path_tf_channel.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)])
    def test_delay_of_one_symbol_rejected(self, shape):
        d = Dims(*shape)
        with pytest.raises(ValueError, match="delay"):
            unit_path_tf_channel(d, d.m + d.cp_len, 0)

    @pytest.mark.parametrize(
        "shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)], ids=IDEAL_SHAPE_IDS
    )
    def test_grid_bins_sit_at_their_arithmetic_slots(self, shape):
        # bin (l, k) at slot (k mod N) M + l of the table, and the bins in any
        # order look up the same blocks and ramps
        d = Dims(*shape)
        pairs = full_grid_pairs(d)
        blocks, ramps = channel._atom_table(d)
        assert blocks.shape == (d.grid_size, 2, d.m, d.m) and ramps.shape == (d.grid_size, d.n)
        order = np.random.default_rng(d.grid_size).permutation(len(pairs))
        shuffled = [pairs[i] for i in order]
        got_blocks, got_ramps = channel._unit_path_atoms(d, shuffled)
        np.testing.assert_array_equal(got_blocks, blocks[order])
        np.testing.assert_array_equal(got_ramps, ramps[order])
        for slot, (l, k) in enumerate(pairs):
            assert slot == k % d.n * d.m + l
            ramp = np.exp(2j * np.pi * k * np.arange(d.n) / d.n)
            np.testing.assert_allclose(ramps[slot], ramp, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)], ids=IDEAL_SHAPE_IDS
    )
    def test_full_grid_pairs_look_up_the_table_itself(self, shape):
        # the full_grid_pairs tuple is the table's own order, so it gets the
        # read-only table with no copy; the same pairs as a list are checked
        # and gathered, and give the same bytes
        d = Dims(*shape)
        pairs = full_grid_pairs(d)
        fast = channel._unit_path_atoms(d, pairs)
        gathered = channel._unit_path_atoms(d, list(pairs))
        for got, table, want in zip(fast, channel._atom_table(d), gathered):
            assert got is table
            assert got.tobytes() == want.tobytes()
        rng = np.random.default_rng(d.grid_size)
        h = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        x = rng.standard_normal((d.m, d.n)) + 1j * rng.standard_normal((d.m, d.n))
        assert reconstruct(h, pairs, d).tobytes() == reconstruct(h, list(pairs), d).tobytes()
        assert atom_columns(x, pairs, d).tobytes() == atom_columns(x, list(pairs), d).tobytes()

    @pytest.mark.parametrize("shape", [(8, 14, 2), (4, 4, 0), (6, 5, 3), (3, 7, 1)])
    def test_bins_off_the_grid_rejected(self, shape):
        # delay M, and on even N Doppler -N/2 (the DD column of +N/2); the
        # pair is checked before the table is looked up, and no realization
        # with such a path can be built
        d = Dims(*shape)
        off = [((d.m, 0), "delay")] + ([((1, -d.n // 2), "Doppler")] if d.n % 2 == 0 else [])
        before = unit_path_tf_channel.cache_info()
        for (l, k), named in off:
            pairs = ((0, 0), (l, k))
            with pytest.raises(ValueError, match=named):
                unit_path_tf_channel(d, l, k)
            with pytest.raises(ValueError, match=named):
                reconstruct(np.ones(2), pairs, d)
            with pytest.raises(ValueError, match=named):
                ChannelRealization((PathParams(1.0, 0, 0), PathParams(0.5, l, k)), d)
        assert unit_path_tf_channel.cache_info() == before

    def test_matches_explicit_construction(self):
        h_tf = reconstruct(np.ones(1), ((2, -3),), D)
        np.testing.assert_allclose(bands_to_dense(h_tf), dense_atom(D, 2, -3), rtol=0, atol=1e-14)

    def test_cached_array_is_readonly(self):
        for array in (unit_path_tf_channel(D, 1, 1), *channel._atom_table(D)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0

    def test_delay_spread_unchecked_for_dictionary_use(self):
        h_tf = reconstruct(np.ones(1), ((5, 0),), D)
        assert h_tf.shape == (2, D.n, D.m, D.m)

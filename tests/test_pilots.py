import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import hadamard

from cdce.grids import Dims, tf_to_dd
from cdce.pilots import (
    Frame,
    FrameSpec,
    _pilot_positions,
    af_summary,
    assemble_frame,
    discrete_af,
    make_pilot_sequence,
    pilot_dd_image,
)

from oracles import twisted_convolution_reference

D = Dims(8, 14, 2)


class TestMakePilotSequence:
    def test_all_ones(self):
        np.testing.assert_array_equal(
            make_pilot_sequence("all_ones", 4), np.ones(4, dtype=complex)
        )

    def test_walsh_row_one_alternates(self):
        # at length 2 the row length // 2 is row one
        np.testing.assert_array_equal(make_pilot_sequence("walsh", 2), [1, -1])

    def test_walsh_default_row(self):
        seq = make_pilot_sequence("walsh", 8)
        np.testing.assert_array_equal(seq, np.array([1, 1, 1, 1, -1, -1, -1, -1]))

    def test_walsh_needs_power_of_two(self):
        for n in set(range(1, 257)) - {2**k for k in range(9)}:
            with pytest.raises(ValueError, match="power-of-two"):
                make_pilot_sequence("walsh", n)

    @pytest.mark.parametrize("n", [2**k for k in range(9)])
    def test_walsh_rows_match_sylvester_hadamard(self, n):
        # scipy builds H_n by Sylvester's doubling H_2n = [[H, H], [H, -H]]
        np.testing.assert_array_equal(make_pilot_sequence("walsh", n), hadamard(n)[n // 2].astype(complex))

    def test_zadoff_chu_is_the_root_one_sequence(self):
        for n in range(1, 257):
            # x[k] = exp(-j pi k (k + n mod 2) / n), its phase reduced mod 2 pi in integers
            k = np.arange(n)
            expected = np.exp(-1j * np.pi * (k * (k + n % 2) % (2 * n)) / n)
            np.testing.assert_allclose(make_pilot_sequence("zadoff_chu", n), expected, rtol=0, atol=1e-12)

    def test_zadoff_chu_prime_length_has_flat_autocorrelation(self):
        z = make_pilot_sequence("zadoff_chu", 7)
        for lag in range(1, 7):
            corr = np.vdot(z, np.roll(z, lag))
            assert abs(corr) == pytest.approx(0.0, abs=1e-10)

    def test_zadoff_chu_even_length_formula(self):
        z = make_pilot_sequence("zadoff_chu", 4)
        n = np.arange(4)
        np.testing.assert_allclose(z, np.exp(-1j * np.pi * n * n / 4), atol=1e-12)

    @pytest.mark.parametrize("kind", ["all_ones", "walsh", "zadoff_chu"])
    def test_unit_modulus(self, kind):
        seq = make_pilot_sequence(kind, 8)
        np.testing.assert_allclose(np.abs(seq), 1.0, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_pilot_sequence("gold", 8)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            make_pilot_sequence("all_ones", 0)


class TestFrameSpec:
    def test_default_lattice_pilot_count(self):
        assert FrameSpec(dims=D).n_pilots == 56

    def test_spacings_thin_the_lattice(self):
        spec = FrameSpec(dims=D, freq_spacing=3, time_spacing=4)
        assert spec.n_pilots == len(range(0, 8, 3)) * len(range(0, 14, 4)) == 12

    @pytest.mark.parametrize("spacings,n_pilots", [((8, 1), 14), ((20, 14), 1)])
    def test_spacing_past_the_grid_keeps_the_first_row_and_column(self, spacings, n_pilots):
        spec = FrameSpec(dims=D, freq_spacing=spacings[0], time_spacing=spacings[1])
        assert spec.n_pilots == n_pilots
        mask = assemble_frame(spec).pilot_only_tf != 0
        assert mask[0, 0]
        assert mask.sum() == n_pilots

    def test_lattice_starts_at_the_origin(self):
        for f, t in ((1, 1), (2, 1), (3, 2), (5, 4), (7, 13)):
            mask = assemble_frame(FrameSpec(dims=D, freq_spacing=f, time_spacing=t)).pilot_only_tf != 0
            expected = np.zeros((D.m, D.n), bool)
            expected[::f, ::t] = True
            np.testing.assert_array_equal(mask, expected)

    @pytest.mark.parametrize("spacings", [(0, 1), (2, 0), (-1, 1)])
    def test_spacings_below_one_rejected(self, spacings):
        with pytest.raises(ValueError, match="spacings"):
            FrameSpec(dims=D, freq_spacing=spacings[0], time_spacing=spacings[1])

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            FrameSpec(dims=D, pilot_power=0.0)

    @pytest.mark.parametrize("power", [math.nan, math.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="finite"):
            FrameSpec(dims=D, pilot_power=power)

    def test_bad_enums_rejected(self):
        with pytest.raises(ValueError, match="got 'pn'"):
            FrameSpec(dims=D, sequence_kind="pn")
        with pytest.raises(ValueError, match="pilot_only or with_data, got 'qam'"):
            FrameSpec(dims=D, data_mode="qam")
        with pytest.raises(ValueError, match="got 'speckle'"):
            FrameSpec(dims=D, placement="speckle")

    @pytest.mark.parametrize("placement", ["lattice", "uniform_random"])
    def test_qpsk_needs_a_resource_element_without_a_pilot(self, placement):
        full = dict(freq_spacing=1, time_spacing=1)
        with pytest.raises(ValueError, match="qpsk"):
            FrameSpec(dims=D, **full, data_mode="with_data", placement=placement)
        assert FrameSpec(dims=D, **full, placement=placement).n_pilots == D.grid_size
        # one symbol without pilots leaves room for data
        FrameSpec(dims=Dims(8, 2, 2), freq_spacing=1, time_spacing=2, data_mode="with_data")


class TestAssembleFrame:
    def test_pilot_only_energy(self):
        spec = FrameSpec(dims=D, pilot_power=2.0)
        frame = assemble_frame(spec)
        assert np.sum(np.abs(frame.tf) ** 2) == pytest.approx(spec.n_pilots * 2.0)
        np.testing.assert_array_equal(frame.tf, frame.pilot_only_tf)

    def test_dense_all_ones_lattice_fills_grid(self):
        spec = FrameSpec(dims=D, freq_spacing=1, time_spacing=1)
        frame = assemble_frame(spec)
        np.testing.assert_allclose(frame.tf, np.ones((D.m, D.n)), atol=1e-12)

    def test_scan_order_is_column_major(self):
        spec = FrameSpec(dims=Dims(4, 2, 0), sequence_kind="walsh")
        frame = assemble_frame(spec)
        seq = make_pilot_sequence("walsh", 4)
        expected = np.zeros((4, 2), dtype=complex)
        expected[0, 0], expected[2, 0] = seq[0], seq[1]
        expected[0, 1], expected[2, 1] = seq[2], seq[3]
        np.testing.assert_array_equal(frame.pilot_only_tf, expected)

    def test_mask_marks_exactly_the_lattice(self):
        frame = assemble_frame(FrameSpec(dims=D))
        rows, cols = np.nonzero(frame.pilot_only_tf)
        assert set(rows) == {0, 2, 4, 6}
        assert set(cols) == set(range(14))
        assert np.count_nonzero(frame.pilot_only_tf) == 56

    @pytest.mark.parametrize("data_mode", ["pilot_only", "with_data"])
    @pytest.mark.parametrize("placement", ["lattice", "uniform_random"])
    @pytest.mark.parametrize("kind", ["all_ones", "walsh", "zadoff_chu"])
    def test_nonzero_pilot_grid_marks_exactly_the_placed_pilots(self, kind, placement, data_mode):
        # every pilot symbol has modulus sqrt(pilot_power) > 0, so the pilot
        # positions are the non-zero entries of the pilot-only grid; 16
        # symbols give the lattice the 64 pilots a Walsh row needs
        spec = FrameSpec(dims=Dims(8, 16, 2), sequence_kind=kind, placement=placement,
                         data_mode=data_mode, pilot_power=0.5)
        for seed in range(3):
            placed = np.zeros((8, 16), dtype=bool)
            placed[_pilot_positions(spec, np.random.default_rng(seed))] = True
            frame = assemble_frame(spec, np.random.default_rng(seed))
            np.testing.assert_array_equal(frame.pilot_only_tf != 0, placed)
            np.testing.assert_array_equal(frame.tf[placed], frame.pilot_only_tf[placed])

    def test_qpsk_fill_covers_non_pilot_positions(self):
        spec = FrameSpec(dims=D, data_mode="with_data")
        frame = assemble_frame(spec, np.random.default_rng(0))
        pilots = frame.pilot_only_tf != 0
        data = frame.tf[~pilots]
        assert np.all(np.abs(np.abs(data) - 1.0) < 1e-12)
        np.testing.assert_array_equal(frame.tf[pilots], frame.pilot_only_tf[pilots])

    def test_qpsk_symbol_energy_is_exactly_unit(self):
        rng = np.random.default_rng(1)
        frame = assemble_frame(FrameSpec(dims=D, data_mode="with_data"), rng)
        energies = np.abs(frame.tf[frame.pilot_only_tf == 0]) ** 2
        assert energies.mean() == pytest.approx(1.0, rel=0.01)

    def test_qpsk_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            assemble_frame(FrameSpec(dims=D, data_mode="with_data"))

    def test_uniform_random_placement(self):
        spec = FrameSpec(dims=D, placement="uniform_random")
        frame = assemble_frame(spec, np.random.default_rng(5))
        assert np.count_nonzero(frame.pilot_only_tf) == spec.n_pilots
        assert np.sum(np.abs(frame.pilot_only_tf) ** 2) == pytest.approx(spec.n_pilots)

    def test_uniform_random_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            assemble_frame(FrameSpec(dims=D, placement="uniform_random"))

    def test_uniform_random_is_seed_deterministic(self):
        spec = FrameSpec(dims=D, placement="uniform_random")
        a = assemble_frame(spec, np.random.default_rng(8))
        b = assemble_frame(spec, np.random.default_rng(8))
        np.testing.assert_array_equal(a.pilot_only_tf, b.pilot_only_tf)


class TestPilotDdImage:
    def test_full_grid_all_ones_is_impulse(self):
        spec = FrameSpec(dims=D, freq_spacing=1, time_spacing=1)
        img = pilot_dd_image(assemble_frame(spec))
        expected = np.zeros((D.m, D.n))
        expected[0, 0] = np.sqrt(D.grid_size)
        np.testing.assert_allclose(img, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "kind,dims",
        [("all_ones", D), ("all_ones", Dims(16, 16, 2)), ("walsh", Dims(16, 16, 2))],
    )
    def test_lattice_pilots_concentrate_energy(self, kind, dims):
        spec = FrameSpec(dims=dims, sequence_kind=kind)
        img = pilot_dd_image(assemble_frame(spec))
        energy = np.sort(np.abs(img.ravel()) ** 2)[::-1]
        top = np.cumsum(energy)[spec.n_pilots - 1]
        assert top >= 0.9 * energy.sum()

    def test_zadoff_chu_spreads_energy(self):
        spec = FrameSpec(dims=D, sequence_kind="zadoff_chu")
        img = pilot_dd_image(assemble_frame(spec))
        energy = np.abs(img) ** 2
        assert energy.max() < 0.5 * energy.sum()


D16 = Dims(16, 16, 2)


class TestAfSummary:
    @pytest.mark.parametrize(
        "kind,bins,sidelobe,ratio",
        [("all_ones", 2, "0.00", "inf"), ("walsh", 8, "16.00", "8.00"), ("zadoff_chu", 231, "40.42", "3.17")],
    )
    def test_sequences_on_the_16x16_half_lattice(self, kind, bins, sidelobe, ratio):
        s = af_summary(FrameSpec(dims=D16, sequence_kind=kind))
        peak, lobe = s["af_peak"], s["af_max_sidelobe"]
        ratio_got = f"{peak / lobe if lobe else math.inf:.2f}"
        assert (s["n_pilots"], s["bins_for_90pct"], f"{peak:.2f}", f"{lobe:.2f}", ratio_got) == (
            128, bins, "128.00", sidelobe, ratio)

    @pytest.mark.parametrize("spacing", [(2, 2), (4, 2), (2, 4), (4, 4)])
    def test_all_ones_has_no_sidelobe_off_the_grating_lobes(self, spacing):
        # the lobes are the product set (j M / fs, i N / ts), cross lobes
        # such as (8, 8) at 2 x 2 included
        fs, ts = spacing
        assert af_summary(FrameSpec(dims=D16, freq_spacing=fs, time_spacing=ts))["af_max_sidelobe"] == 0.0


class TestDiscreteAf:
    def test_zero_lag_is_energy(self):
        frame = assemble_frame(FrameSpec(dims=D))
        x_dd = pilot_dd_image(frame)
        af = discrete_af(x_dd)
        assert af[0, 0] == pytest.approx(np.sum(np.abs(x_dd) ** 2))

    def test_impulse_af_is_single_spike(self):
        x = np.zeros((4, 5), dtype=complex)
        x[0, 0] = 2.0
        af = discrete_af(x)
        expected = np.zeros((4, 5), dtype=complex)
        expected[0, 0] = 4.0
        np.testing.assert_allclose(af, expected, atol=1e-12)

    def test_lattice_af_peaks_at_half_delay_grid(self):
        frame = assemble_frame(FrameSpec(dims=D))
        af = np.abs(discrete_af(pilot_dd_image(frame)))
        assert af[4, 0] == pytest.approx(af[0, 0])
        others = af.copy()
        others[0, 0] = others[4, 0] = 0.0
        assert others.max() < 1e-9 * af[0, 0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_peak_dominates_on_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        af = discrete_af(x)
        assert np.max(np.abs(af)) <= abs(af[0, 0]) + 1e-10

    def test_matches_scalar_reference_definition(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        np.testing.assert_allclose(
            discrete_af(x), twisted_convolution_reference(x, x), atol=1e-10
        )

    def test_frame_invariants_hold(self):
        frame = assemble_frame(FrameSpec(dims=D))
        assert isinstance(frame, Frame)
        assert frame.tf.shape == frame.pilot_only_tf.shape == (D.m, D.n)

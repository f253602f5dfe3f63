import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdce.grids import (
    Dims,
    add_cp,
    dft_matrix,
    remove_cp,
    tf_to_dd,
    tf_to_time,
    time_to_tf,
    unvec,
    vec,
)

from oracles import dd_to_tf, sfft_kron_oracle


def random_grid(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d.m, d.n)) + 1j * rng.standard_normal((d.m, d.n))


dims_st = st.builds(
    Dims,
    m=st.integers(2, 8),
    n=st.integers(1, 8),
    cp_len=st.just(0),
).flatmap(
    lambda d: st.integers(0, d.m - 1).map(lambda cp: Dims(d.m, d.n, cp))
)


class TestDims:
    def test_grid_and_frame_sizes(self):
        d = Dims(8, 14, 2)
        assert d.grid_size == 112
        assert d.frame_len == 140

    @pytest.mark.parametrize("m,n,cp", [(0, 4, 0), (4, 0, 0), (4, 4, -1), (4, 4, 4), (4, 4, 5)])
    def test_invalid_geometry_rejected(self, m, n, cp):
        with pytest.raises(ValueError):
            Dims(m, n, cp)


class TestDftMatrix:
    @given(st.integers(1, 16))
    def test_unitary(self, n):
        f = dft_matrix(n)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-12)

    def test_symmetric(self):
        f = dft_matrix(8)
        np.testing.assert_allclose(f, f.T, atol=1e-15)

    def test_entry_formula(self):
        f = dft_matrix(4)
        assert f[1, 1] == pytest.approx(np.exp(-2j * np.pi / 4) / 2)

    def test_cached_array_is_readonly(self):
        f = dft_matrix(6)
        with pytest.raises(ValueError):
            f[0, 0] = 0

    def test_bad_size(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestVec:
    def test_column_major_order(self):
        x = np.array([[1, 3], [2, 4]])
        np.testing.assert_array_equal(vec(x), [1, 2, 3, 4])

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_round_trip(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, n))
        np.testing.assert_array_equal(unvec(vec(x), m, n), x)


class TestTimeTransforms:
    def test_round_trip_without_cp(self):
        d = Dims(8, 14, 2)
        x = random_grid(d, 0)
        np.testing.assert_allclose(time_to_tf(tf_to_time(x, d), d), x, atol=1e-12)

    def test_cp_round_trip(self):
        d = Dims(8, 14, 2)
        x = random_grid(d, 1)
        s = tf_to_time(x, d, with_cp=True)
        assert s.shape == (d.frame_len,)
        np.testing.assert_allclose(
            remove_cp(s, d), tf_to_time(x, d, with_cp=False), atol=1e-12
        )

    def test_cp_blocks_copy_symbol_tails(self):
        d = Dims(4, 3, 2)
        s = vec(np.arange(12, dtype=float).reshape(4, 3, order="F"))
        ext = unvec(add_cp(s, d), d.m + d.cp_len, d.n)
        base = unvec(s, d.m, d.n)
        np.testing.assert_array_equal(ext[:2], base[-2:])
        np.testing.assert_array_equal(ext[2:], base)

    def test_add_cp_noop_when_zero_length(self):
        d = Dims(4, 3, 0)
        s = np.arange(12.0)
        np.testing.assert_array_equal(add_cp(s, d), s)

    def test_time_to_tf_rejects_cp_signal(self):
        d = Dims(8, 14, 2)
        x = random_grid(d, 2)
        s = tf_to_time(x, d, with_cp=True)
        with pytest.raises(ValueError, match="remove_cp"):
            time_to_tf(s, d)

    def test_parseval_through_the_chain(self):
        d = Dims(8, 14, 2)
        x = random_grid(d, 3)
        s = tf_to_time(x, d)
        energy = np.sum(np.abs(x) ** 2)
        assert np.sum(np.abs(s) ** 2) == pytest.approx(energy)
        assert np.sum(np.abs(tf_to_dd(x, d)) ** 2) == pytest.approx(energy)

    def test_shape_errors(self):
        d = Dims(8, 14, 2)
        with pytest.raises(ValueError):
            tf_to_time(np.zeros((4, 4)), d)
        with pytest.raises(ValueError):
            remove_cp(np.zeros(10), d)
        with pytest.raises(ValueError):
            add_cp(np.zeros(10), d)


class TestDDTransforms:
    def test_inverse_pair(self):
        d = Dims(8, 14, 2)
        x = random_grid(d, 4)
        np.testing.assert_allclose(dd_to_tf(tf_to_dd(x, d), d), x, atol=1e-12)

    @given(dims_st, st.integers(0, 2**32 - 1))
    def test_matches_kronecker_oracle(self, d, seed):
        x = random_grid(d, seed)
        np.testing.assert_allclose(tf_to_dd(x, d), sfft_kron_oracle(x), atol=1e-10)

    def test_all_ones_tf_is_dd_impulse(self):
        d = Dims(8, 14, 2)
        x_dd = tf_to_dd(np.ones((d.m, d.n)), d)
        expected = np.zeros((d.m, d.n))
        expected[0, 0] = np.sqrt(d.grid_size)
        np.testing.assert_allclose(x_dd, expected, atol=1e-12)

    def test_dd_impulse_is_flat_in_tf(self):
        d = Dims(4, 6, 1)
        imp = np.zeros((d.m, d.n))
        imp[0, 0] = 1.0
        x_tf = dd_to_tf(imp, d)
        np.testing.assert_allclose(
            x_tf, np.full((d.m, d.n), 1.0 / np.sqrt(d.grid_size)), atol=1e-12
        )

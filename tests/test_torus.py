"""Tests for the torus spectral model: grids, transforms, norms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscimax import (
    CutoffProfile,
    GridField,
    LatticeGrid,
    SpectralField,
    SymbolParams,
    eigenvalue,
    forward_transform,
    grid_norm,
    inverse_transform,
    oscillating_op,
    pure_mode,
    random_spectral_field,
)
from oscimax.torus import PERIOD


def is_conjugate_symmetric(f: SpectralField, tol: float = 1e-12) -> bool:
    """c(-xi) == conj(c(xi)) to tol * max|c|, the spectral form of a real field."""
    c = f.coefficients
    axes = tuple(range(c.ndim))
    mirrored = np.conj(np.flip(np.roll(c, -1, axis=axes), axis=axes))
    scale = np.max(np.abs(c)) or 1.0
    # The -M/2 row has no mirror partner; compare only where both exist.
    mask = np.ones_like(c, dtype=bool)
    half = f.grid.modes_per_axis // 2
    k = f.grid.freqs_1d
    for ax in axes:
        sl = [slice(None)] * c.ndim
        sl[ax] = k == -half
        mask[tuple(sl)] = False
    return bool(np.max(np.abs((c - mirrored)[mask])) <= tol * scale)


class TestLatticeGrid:
    def test_basic_properties(self):
        grid = LatticeGrid(1, 64)
        assert grid.spatial_points_per_axis == 64
        assert grid.spectral_shape == (64,)
        assert grid.freqs_1d.min() == -32
        assert grid.freqs_1d.max() == 31
        assert grid.spacing == pytest.approx(2 * np.pi / 64)

    def test_2d_shapes(self):
        grid = LatticeGrid(2, 16)
        assert grid.spectral_shape == (16, 16)
        assert grid.eigenvalue_array().shape == (16, 16)
        assert grid.cell_volume == pytest.approx(grid.spacing**2)

    def test_spatial_points_are_the_modes(self):
        grid = LatticeGrid(2, 16)
        assert grid.spatial_points_per_axis == 16
        assert grid.spatial_shape == grid.spectral_shape
        with pytest.raises(TypeError):
            LatticeGrid(1, 16, spatial_points_per_axis=64)

    @pytest.mark.parametrize(
        "dim,modes", [(4, 16), (1, 7), (1, 15), (0, 16)]
    )
    def test_invalid_construction(self, dim, modes):
        with pytest.raises(ValueError):
            LatticeGrid(dim, modes)

    @pytest.mark.parametrize("dim, modes", [(2, 10_000_000), (3, 2048), (1, 2**24 + 2), (2, 4098)])
    def test_more_than_2_24_points_refused_before_any_allocation(self, dim, modes):
        """2^24 points make 256 MB per complex array."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{modes}\\^{dim} lattice points exceed 16777216"):
                LatticeGrid(dim, modes)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("dim, modes", [(1, 2**24), (2, 4096), (3, 256)])
    def test_2_24_points_are_accepted(self, dim, modes):
        assert LatticeGrid(dim, modes).spectral_shape == (modes,) * dim


class TestEigenvalue:
    def test_values(self):
        grid = LatticeGrid(2, 16)
        assert eigenvalue(grid, (3, 4)) == pytest.approx(5.0)
        assert eigenvalue(LatticeGrid(1, 16), (-8,)) == pytest.approx(8.0)

    def test_three_dimensions(self):
        grid = LatticeGrid(3, 16)
        assert eigenvalue(grid, (2, -3, 6)) == pytest.approx(7.0)
        lam = grid.eigenvalue_array()
        assert lam.shape == (16, 16, 16)
        assert lam[2, -3, 6] == pytest.approx(7.0, rel=1e-15)
        with pytest.raises(ValueError):
            eigenvalue(grid, (3, 4))

    def test_out_of_range(self):
        grid = LatticeGrid(1, 16)
        with pytest.raises(ValueError):
            eigenvalue(grid, (8,))  # max representable is 7
        with pytest.raises(ValueError):
            eigenvalue(grid, (-9,))


class TestTransforms:
    def test_roundtrip_1d(self):
        grid = LatticeGrid(1, 64)
        rng = np.random.default_rng(0)
        f = random_spectral_field(grid, rng)
        back = forward_transform(inverse_transform(f))
        np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-13)

    def test_roundtrip_2d(self):
        grid = LatticeGrid(2, 16)
        rng = np.random.default_rng(1)
        f = random_spectral_field(grid, rng)
        back = forward_transform(inverse_transform(f))
        np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-13)

    @pytest.mark.parametrize("dim,modes", [(1, 16), (2, 8)])
    def test_inverse_matches_direct_sum(self, dim, modes):
        """Samples equal sum_xi c(xi) exp(i<xi, x>) summed term by term."""
        grid = LatticeGrid(dim, modes)
        f = random_spectral_field(grid, np.random.default_rng(3))
        # waves[j, k] = exp(i * xi_k * x_j) along one axis
        waves = np.exp(1j * np.outer(grid.coords_1d, grid.freqs_1d))
        if dim == 1:
            expected = np.einsum("jk,k->j", waves, f.coefficients)
        else:
            expected = np.einsum("jk,lm,km->jl", waves, waves, f.coefficients)
        samples = inverse_transform(f).samples
        assert samples.shape == grid.spatial_shape
        np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-12)

    def test_real_samples_keep_their_dtype(self):
        """Real samples stay real, integer samples become float, and the
        transform of real samples equals that of their complex copy."""
        grid = LatticeGrid(1, 32)
        samples = np.cos(3 * grid.coords_1d)
        assert GridField(grid, samples).samples.dtype == np.float64
        assert GridField(grid, np.arange(32)).samples.dtype == np.float64
        assert np.array_equal(
            forward_transform(GridField(grid, samples)).coefficients,
            forward_transform(GridField(grid, samples.astype(complex))).coefficients,
        )

    def test_pure_mode_values(self):
        """A pure mode has unit coefficient and samples exp(i<xi,x>)."""
        grid = LatticeGrid(1, 32)
        f = pure_mode(grid, (5,))
        samples = inverse_transform(f).samples
        expected = np.exp(1j * 5 * grid.coords_1d)
        np.testing.assert_allclose(samples, expected, atol=1e-13)

    def test_parseval(self):
        grid = LatticeGrid(2, 32)
        rng = np.random.default_rng(2)
        f = random_spectral_field(grid, rng)
        spatial = grid_norm(inverse_transform(f), 2.0)
        assert spatial == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_shape_mismatch_rejected(self):
        grid = LatticeGrid(1, 16)
        with pytest.raises(ValueError):
            SpectralField(grid, np.zeros(8, dtype=complex))
        with pytest.raises(ValueError):
            GridField(grid, np.zeros((16, 16), dtype=complex))


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bytes of a complex or real array, so that -0.0 != 0.0."""
    return np.ascontiguousarray(a).view(np.uint8)


STACK_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def stacks(draw):
    """A grid of dimension 1 or 2 and a random stack of 1 to 5 fields on it."""
    dimension = draw(st.sampled_from([1, 2]))
    modes = draw(st.sampled_from([8, 16, 64, 256] if dimension == 1 else [8, 16, 32]))
    count = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    grid = LatticeGrid(dimension, modes)
    rng = np.random.default_rng(seed)
    shape = (count,) + grid.spectral_shape
    return grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStackedFields:
    def test_one_leading_axis(self):
        grid = LatticeGrid(2, 8)
        assert SpectralField(grid, np.zeros((3, 8, 8)), stacked=True).coefficients.shape == (3, 8, 8)
        assert GridField(grid, np.zeros((1, 8, 8)), stacked=True).samples.shape == (1, 8, 8)
        for bad in [(8, 8), (3, 8), (2, 3, 8, 8), (3, 8, 16)]:
            with pytest.raises(ValueError, match="does not match a stack"):
                SpectralField(grid, np.zeros(bad), stacked=True)
            with pytest.raises(ValueError, match="does not match a stack"):
                GridField(grid, np.zeros(bad), stacked=True)

    def test_norms_reject_stacks(self):
        """Norms are of one field; none sums across the members of a stack."""
        grid = LatticeGrid(1, 16)
        ones = np.ones((2, 16))
        with pytest.raises(ValueError, match="not a stack"):
            SpectralField(grid, ones, stacked=True).l2_norm()
        with pytest.raises(ValueError, match="not a stack"):
            grid_norm(GridField(grid, ones, stacked=True), 2.0)

    def test_transforms_keep_the_stack(self):
        grid = LatticeGrid(1, 16)
        f = SpectralField(grid, np.ones((3, 16)), stacked=True)
        g = inverse_transform(f)
        assert g.stacked and g.samples.shape == (3, 16)
        assert forward_transform(g).stacked
        assert not inverse_transform(SpectralField(grid, np.ones(16))).stacked

    @STACK_SETTINGS
    @given(stacks())
    def test_stacked_transforms_equal_per_field_bit_for_bit(self, case):
        grid, c = case
        stacked = inverse_transform(SpectralField(grid, c, stacked=True)).samples
        for row, member in zip(stacked, c):
            assert np.array_equal(bits(row), bits(inverse_transform(SpectralField(grid, member)).samples))
        real = c.real
        stacked = forward_transform(GridField(grid, real, stacked=True)).coefficients
        for row, member in zip(stacked, real):
            assert np.array_equal(bits(row), bits(forward_transform(GridField(grid, member)).coefficients))

    @STACK_SETTINGS
    @given(stacks())
    def test_stacked_round_trips(self, case):
        grid, c = case
        f = SpectralField(grid, c, stacked=True)
        back = forward_transform(inverse_transform(f)).coefficients
        np.testing.assert_allclose(back, c, rtol=0, atol=1e-13)
        samples = inverse_transform(f).samples
        again = inverse_transform(forward_transform(GridField(grid, samples, stacked=True))).samples
        np.testing.assert_allclose(again, samples, rtol=0, atol=1e-13 * np.max(np.abs(samples)))


def ifftn_oracle(F: SpectralField) -> np.ndarray:
    """numpy's unpruned inverse FFT over the grid axes, times M^n: the
    transform before it skipped the rows without a mode."""
    grid = F.grid
    out = np.fft.ifftn(F.coefficients, axes=tuple(range(-grid.dimension, 0)))
    out *= grid.modes_per_axis**grid.dimension
    return out


def assert_matches_oracle(F: SpectralField) -> None:
    got = inverse_transform(F).samples
    want = np.ascontiguousarray(ifftn_oracle(F))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture
def ifft_calls(monkeypatch):
    """The input shape and axis of every np.fft.ifft call the library makes
    (numpy's own ifftn does not go through np.fft.ifft)."""
    calls = []
    ifft = np.fft.ifft

    def counting(a, *args, axis=-1, **kwargs):
        calls.append((np.shape(a), axis))
        return ifft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    return calls


class TestPrunedInverseTransform:
    """The first pass skips the rows that hold no mode; the samples equal
    ifftn's bit for bit (uint64 views, so NaNs and zero signs count)."""

    @pytest.mark.parametrize(
        "dimension, modes, band",
        [(1, 512, 100), (1, 64, 40), (2, 64, 13), (2, 128, 32), (3, 16, 5), (3, 32, 8)],
    )
    def test_band_limited_fields(self, dimension, modes, band):
        grid = LatticeGrid(dimension, modes)
        for seed in range(3):
            assert_matches_oracle(random_spectral_field(grid, np.random.default_rng(seed), band_limit=band))

    @pytest.mark.parametrize("dimension, modes, band", [(1, 1024, 256), (2, 128, 32)])
    def test_operator_products_with_negative_zeros(self, dimension, modes, band):
        """Coefficient times a zero symbol is a zero whose sign follows the
        coefficient's; slices whose symbol vanishes on the band hold nothing
        else."""
        grid = LatticeGrid(dimension, modes)
        f = random_spectral_field(grid, np.random.default_rng(5), band_limit=band)
        params = SymbolParams(0.5, 0.75)
        dead = live = 0
        for t in np.geomspace(0.5 * 2.0**-12, 0.5, 12):
            g = oscillating_op(f, params, CutoffProfile(), t)
            parts = g.coefficients.view(float)
            assert np.any(np.signbit(parts[parts == 0.0]))
            if np.any(g.coefficients):
                live += 1
            else:
                dead += 1
            assert_matches_oracle(g)
        assert dead and live

    def test_operator_products_in_three_dimensions(self):
        """As above on a 32-point cube.  Where the symbol vanishes on the
        band, the field is not transformed: its samples are +0, and ifftn of
        its signed zeros may put a -0 among them."""
        grid = LatticeGrid(3, 32)
        f = random_spectral_field(grid, np.random.default_rng(5), band_limit=8)
        params = SymbolParams(0.5, 0.75)
        live = 0
        for t in np.geomspace(0.5 * 2.0**-12, 0.5, 12):
            g = oscillating_op(f, params, CutoffProfile(), t)
            if np.any(g.coefficients):
                live += 1
                assert_matches_oracle(g)
                continue
            got = inverse_transform(g).samples
            assert not np.any(ifftn_oracle(g)) and not np.any(got)
            assert not np.any(np.signbit(got.view(float)))
        assert 0 < live < 12

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_all_zero_field_is_not_transformed(self, dimension, ifft_calls):
        grid = LatticeGrid(dimension, 32)
        F = SpectralField(grid, np.zeros(grid.spectral_shape))
        assert_matches_oracle(F)
        assert ifft_calls == []
        stack = SpectralField(grid, np.zeros((3,) + grid.spectral_shape), stacked=True)
        assert_matches_oracle(stack)
        assert ifft_calls == []

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_stack_with_a_zero_member(self, dimension):
        grid = LatticeGrid(dimension, 32)
        rng = np.random.default_rng(1)
        members = [random_spectral_field(grid, rng, band_limit=6).coefficients for _ in range(3)]
        members[1] = np.zeros(grid.spectral_shape, dtype=complex)
        assert_matches_oracle(SpectralField(grid, np.stack(members), stacked=True))

    def test_single_live_row(self, ifft_calls):
        grid = LatticeGrid(2, 32)
        for xi in [(0, 0), (5, -3), (-16, 15)]:
            assert_matches_oracle(pure_mode(grid, xi))
        assert [shape for shape, axis in ifft_calls if axis == -1] == [(1, 32)] * 3

    def test_strided_and_fortran_ordered_coefficients(self):
        grid = LatticeGrid(2, 16)
        wide = random_spectral_field(LatticeGrid(2, 32), np.random.default_rng(4), band_limit=5).coefficients
        for c in (wide[:16, ::2], np.asfortranarray(wide[:16, :16])):
            assert_matches_oracle(SpectralField(grid, c))

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_nan_coefficient_counts_as_live(self, dimension):
        grid = LatticeGrid(dimension, 16)
        c = np.zeros(grid.spectral_shape, dtype=complex)
        c[(3,) * dimension] = np.nan
        with np.errstate(invalid="ignore"):
            assert_matches_oracle(SpectralField(grid, c))
            assert np.all(np.isnan(inverse_transform(SpectralField(grid, c)).samples))

    def test_first_pass_covers_only_live_rows(self, ifft_calls):
        """Band 10 on a 64-point axis: rows -10..10 hold modes, in two runs
        (0..10 and -10..-1 in FFT order); the second pass covers the whole
        lattice once."""
        grid = LatticeGrid(2, 64)
        f = random_spectral_field(grid, np.random.default_rng(2), band_limit=10)
        live_rows = int(np.count_nonzero(np.any(f.coefficients != 0, axis=1)))
        assert live_rows == 21
        assert_matches_oracle(f)
        first = [shape for shape, axis in ifft_calls if axis == -1]
        assert first == [(11, 64), (10, 64)]
        assert [shape for shape, axis in ifft_calls if axis == -2] == [(64, 64)]

    def test_three_dimensions_pass_the_remaining_axes_in_ifftn_order(self, ifft_calls):
        """Band 4 on a 16-point cube: the first pass covers the live rows
        only, then axes -2 and -3 each cover the whole lattice, as in ifftn."""
        grid = LatticeGrid(3, 16)
        f = random_spectral_field(grid, np.random.default_rng(6), band_limit=4)
        live_rows = int(np.count_nonzero(np.any(f.coefficients != 0, axis=-1)))
        assert_matches_oracle(f)
        first = [shape for shape, axis in ifft_calls if axis == -1]
        assert sum(shape[0] for shape in first) == live_rows < 16 * 16
        assert [(shape, axis) for shape, axis in ifft_calls if axis != -1] == [
            ((16, 16, 16), -2),
            ((16, 16, 16), -3),
        ]

    def test_zero_rows_may_differ_only_in_the_sign_of_zero(self):
        """A row of zeros gives zeros, whatever their signs: the FFT of
        signed zeros can put a -0 where the pruned pass writes +0, which no
        magnitude shows."""
        grid = LatticeGrid(1, 512)
        rng = np.random.default_rng(8)  # a draw whose unpruned FFT holds a -0
        c = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) * (0.0 + 0.0j)
        got = inverse_transform(SpectralField(grid, c)).samples
        want = ifftn_oracle(SpectralField(grid, c))
        assert np.array_equal(got, want) and not np.any(want)
        assert not np.any(np.signbit(got.view(float)))
        assert np.count_nonzero(np.signbit(want.view(float))) == 1


def transform_in_place(F: SpectralField) -> np.ndarray:
    """The samples of a copy of F transformed in its own buffer."""
    c = F.coefficients.copy()
    samples = inverse_transform(SpectralField(F.grid, c, F.stacked), out=c).samples
    assert samples is c
    return samples


class TestInPlaceInverseTransform:
    """With out=F.coefficients the transform overwrites the field with its
    samples, the same bits as the out-of-place transform."""

    @staticmethod
    def fields(dimension):
        grid = LatticeGrid(dimension, 16 if dimension == 3 else 32)
        rng = np.random.default_rng(dimension)
        band = random_spectral_field(grid, rng, band_limit=5).coefficients
        stack = np.stack([band, np.zeros_like(band), random_spectral_field(grid, rng).coefficients])
        nan_row = band.copy()
        nan_row[(0,) * (dimension - 1) + (slice(None),)] = 0.0
        nan_row[(0,) * (dimension - 1) + (3,)] = np.nan  # a row whose only entry is NaN
        return [
            SpectralField(grid, band),
            SpectralField(grid, stack, stacked=True),
            SpectralField(grid, nan_row),
            SpectralField(grid, np.zeros(grid.spectral_shape)),
            SpectralField(grid, np.zeros((2,) + grid.spectral_shape), stacked=True),
        ]

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_equals_the_out_of_place_transform(self, dimension):
        with np.errstate(invalid="ignore"):
            for F in self.fields(dimension):
                want = inverse_transform(F).samples
                got = transform_in_place(F)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_separate_out_buffer(self):
        F = random_spectral_field(LatticeGrid(2, 32), np.random.default_rng(3), band_limit=6)
        out = np.empty(F.coefficients.shape, dtype=complex)
        before = F.coefficients.copy()
        assert inverse_transform(F, out=out).samples is out
        assert np.array_equal(out.view(np.uint64), inverse_transform(F).samples.view(np.uint64))
        assert np.array_equal(F.coefficients, before)

    def test_out_of_the_wrong_layout_is_refused(self):
        grid = LatticeGrid(2, 16)
        F = random_spectral_field(grid, np.random.default_rng(0), band_limit=4)
        bad = [
            np.empty((16, 8), dtype=complex),
            np.empty((1, 16, 16), dtype=complex),
            np.empty((16, 16), dtype=np.complex64),
            np.empty((16, 16)),
            np.empty((16, 32), dtype=complex)[:, ::2],
            np.asfortranarray(np.empty((16, 16), dtype=complex)),
        ]
        for out in bad:
            with pytest.raises(ValueError, match="C-contiguous complex array"):
                inverse_transform(F, out=out)

    def test_out_overlapping_the_coefficients_is_refused(self):
        """Only the coefficients array itself may be both input and output."""
        grid = LatticeGrid(1, 16)
        c = np.zeros(32, dtype=complex)
        c[3] = 1.0
        F = SpectralField(grid, c[:16])
        for out in (c[8:24], c[:16].view()):
            with pytest.raises(ValueError, match="share no memory"):
                inverse_transform(F, out=out)
        assert c[3] == 1.0


def mirrored(c: np.ndarray, dimension: int) -> np.ndarray:
    """c at -xi (mod M) for every xi of the trailing `dimension` axes: flip
    them, then roll by one so that index 0 stays in place."""
    axes = tuple(range(-dimension, 0))
    return np.roll(np.flip(c, axis=axes), 1, axis=axes)


class TestTransformProperties:
    """Parseval and conjugate symmetry, per member of a stack."""

    @staticmethod
    def energy(a: np.ndarray, dimension: int) -> np.ndarray:
        return np.sum(np.abs(a) ** 2, axis=tuple(range(-dimension, 0)))

    @STACK_SETTINGS
    @given(stacks())
    def test_parseval(self, case):
        """integral |f|^2 = (2pi)^n sum |c|^2 through the stacked inverse
        transform, and through the forward one from real samples."""
        grid, c = case
        n = grid.dimension
        samples = inverse_transform(SpectralField(grid, c, stacked=True)).samples
        np.testing.assert_allclose(
            self.energy(samples, n) * grid.cell_volume, PERIOD**n * self.energy(c, n), rtol=1e-12
        )
        coefficients = forward_transform(GridField(grid, c.real, stacked=True)).coefficients
        np.testing.assert_allclose(
            PERIOD**n * self.energy(coefficients, n), self.energy(c.real, n) * grid.cell_volume, rtol=1e-12
        )

    @STACK_SETTINGS
    @given(stacks())
    def test_real_samples_iff_hermitian_coefficients(self, case):
        """Real samples have coefficients with c(-xi) = conj c(xi).  Split
        any coefficients into the Hermitian part and the rest: the first
        gives the real part of the samples, the second the imaginary part, so
        the samples are real exactly when the rest vanishes."""
        grid, c = case
        n = grid.dimension
        coefficients = forward_transform(GridField(grid, c.real, stacked=True)).coefficients
        np.testing.assert_allclose(
            mirrored(coefficients, n),
            np.conj(coefficients),
            rtol=0,
            atol=1e-15 * np.max(np.abs(coefficients)),
        )
        hermitian = 0.5 * (c + np.conj(mirrored(c, n)))
        rest = c - hermitian
        samples = inverse_transform(SpectralField(grid, c, stacked=True)).samples
        real = inverse_transform(SpectralField(grid, hermitian, stacked=True)).samples
        tol = 1e-13 * np.max(np.abs(samples))
        np.testing.assert_allclose(real.imag, 0.0, rtol=0, atol=tol)
        np.testing.assert_allclose(samples.real, real.real, rtol=0, atol=tol)
        np.testing.assert_allclose(
            self.energy(samples.imag, n) * grid.cell_volume,
            PERIOD**n * self.energy(rest, n),
            rtol=1e-11,
        )


class TestEigenvalueArray:
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_built_once_and_read_only(self, dimension):
        grid = LatticeGrid(dimension, 16)
        lam = grid.eigenvalue_array()
        assert grid.eigenvalue_array() is lam
        with pytest.raises(ValueError):
            lam[0] = 1.0
        with pytest.raises(ValueError):
            lam *= 2.0

    def test_values(self):
        k = LatticeGrid(1, 16).freqs_1d.astype(float)
        np.testing.assert_array_equal(LatticeGrid(1, 16).eigenvalue_array(), np.abs(k))
        kx, ky = np.meshgrid(k, k, indexing="ij")
        np.testing.assert_array_equal(LatticeGrid(2, 16).eigenvalue_array(), np.hypot(kx, ky))

    @pytest.mark.parametrize("dimension, modes", [(1, 8192), (2, 512), (2, 1024)])
    def test_general_form_equals_the_per_dimension_formulas(self, dimension, modes):
        """|xi| as hypot folded over the axes gives the bits of the 1-D abs
        and the 2-D meshgrid hypot it replaced; the square root of the sum of
        squares would not."""
        grid = LatticeGrid(dimension, modes)
        k = grid.freqs_1d.astype(float)
        if dimension == 1:
            oracle = np.abs(k)
        else:
            kx, ky = np.meshgrid(k, k, indexing="ij")
            oracle = np.hypot(kx, ky)
        assert np.array_equal(grid.eigenvalue_array().view(np.uint64), oracle.view(np.uint64))

    def test_three_dimensions_within_an_ulp_of_the_root_of_the_sum(self):
        grid = LatticeGrid(3, 32)
        k = grid.freqs_1d.astype(float)
        kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
        root = np.sqrt(kx**2 + ky**2 + kz**2)
        np.testing.assert_allclose(grid.eigenvalue_array(), root, rtol=2**-51, atol=0)

    def test_equality_and_hash_ignore_the_cache(self):
        a, b = LatticeGrid(2, 16), LatticeGrid(2, 16)
        a.eigenvalue_array()
        assert a == b
        assert hash(a) == hash(b)
        assert a != LatticeGrid(2, 32)


class TestConjugateSymmetry:
    def test_real_field_is_symmetric(self):
        grid = LatticeGrid(1, 32)
        samples = np.cos(3 * grid.coords_1d) + 0.5 * np.sin(7 * grid.coords_1d)
        f = forward_transform(GridField(grid, samples))
        assert is_conjugate_symmetric(f)

    def test_complex_field_is_not(self):
        grid = LatticeGrid(1, 32)
        f = pure_mode(grid, (5,))
        assert not is_conjugate_symmetric(f)


class TestRandomField:
    def test_band_limit(self):
        grid = LatticeGrid(2, 32)
        rng = np.random.default_rng(3)
        f = random_spectral_field(grid, rng, band_limit=5.0)
        lam = grid.eigenvalue_array()
        assert np.all(f.coefficients[lam > 5.0] == 0.0)
        assert np.any(f.coefficients[lam <= 5.0] != 0.0)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="band_limit must be nonnegative"):
                random_spectral_field(grid, rng, band_limit=bad)

    @pytest.mark.parametrize("band_limit", [None, 0.0, 5.0, 11.3])
    @pytest.mark.parametrize("dimension, modes", [(1, 64), (2, 32)])
    def test_equals_the_two_draw_expression(self, dimension, modes, band_limit):
        """Built in place, the field is bit for bit the sum of the two draws
        masked by the band, as a fresh complex expression would give it."""
        grid = LatticeGrid(dimension, modes)
        shape = grid.spectral_shape
        for seed in (0, 1, 12345):
            f = random_spectral_field(grid, np.random.default_rng(seed), band_limit)
            rng = np.random.default_rng(seed)
            expected = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if band_limit is not None:
                expected = np.where(grid.eigenvalue_array() <= band_limit, expected, 0.0)
            assert np.array_equal(bits(f.coefficients), bits(expected))

    def test_determinism(self):
        grid = LatticeGrid(1, 16)
        a = random_spectral_field(grid, np.random.default_rng(7))
        b = random_spectral_field(grid, np.random.default_rng(7))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

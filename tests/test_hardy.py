"""Tests for atoms, heat quasinorms, and weak-L^p."""

import itertools
import math
import re

import numpy as np
import pytest

from oscimax import (
    Atom,
    AtomSpec,
    LatticeGrid,
    forward_transform,
    grid_norm,
    heat_semigroup,
    hp_quasinorm_estimate,
    inverse_transform,
    make_regular_atom,
    moment_integrals,
    pure_mode,
    random_spectral_field,
    weak_lp_quasinorm,
)
from oscimax import hardy
from oscimax.hardy import ResolutionError, _displacements, _monomials, _multi_indices, ball_measure
from oscimax.torus import GridField


class TestAtomSpec:
    def test_cancellation_degree(self):
        spec = AtomSpec(p=0.5, center=(1.0,), radius=0.1, seed=0)
        assert spec.cancellation_degree(1) == 1
        assert spec.cancellation_degree(2) == 2
        spec34 = AtomSpec(p=0.75, center=(1.0,), radius=0.1, seed=0)
        assert spec34.cancellation_degree(1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomSpec(p=1.2, center=(0.0,), radius=0.1, seed=0)
        with pytest.raises(ValueError):
            AtomSpec(p=0.5, center=(0.0,), radius=1.0, seed=0)  # > pi/10


class TestRegularAtoms:
    def test_certificates_1d(self):
        grid = LatticeGrid(1, 512)
        spec = AtomSpec(p=0.5, center=(2.0,), radius=0.25, seed=3)
        atom = make_regular_atom(spec, grid)
        target = ball_measure(1, 0.25) ** (0.5 - 2.0)
        assert atom.certified_l2 == pytest.approx(target, rel=1e-13)
        assert atom.certified_moment_bound <= 1e-10 * atom.certified_l2

    def test_certificates_2d(self):
        grid = LatticeGrid(2, 128)
        spec = AtomSpec(p=2.0 / 3.0, center=(3.0, 1.0), radius=0.3, seed=5)
        atom = make_regular_atom(spec, grid)
        target = ball_measure(2, 0.3) ** (0.5 - 1.5)
        assert atom.certified_l2 == pytest.approx(target, rel=1e-13)
        assert atom.certified_moment_bound <= 1e-10 * atom.certified_l2

    def test_support_inside_ball(self):
        grid = LatticeGrid(1, 512)
        spec = AtomSpec(p=0.5, center=(np.pi,), radius=0.2, seed=1)
        atom = make_regular_atom(spec, grid)
        x = grid.coords_1d
        outside = np.abs(((x - np.pi + np.pi) % (2 * np.pi)) - np.pi) >= 0.2
        assert np.all(atom.field.samples[outside] == 0.0)

    def test_moments_reverify(self):
        grid = LatticeGrid(1, 1024)
        spec = AtomSpec(p=0.5, center=(1.5,), radius=0.3, seed=9)
        atom = make_regular_atom(spec, grid)
        moments = moment_integrals(atom.field, spec.center, 1)
        assert np.max(np.abs(moments)) <= 1e-10 * atom.certified_l2

    def test_determinism(self):
        grid = LatticeGrid(1, 256)
        spec = AtomSpec(p=0.5, center=(1.0,), radius=0.2, seed=4)
        a = make_regular_atom(spec, grid)
        b = make_regular_atom(spec, grid)
        np.testing.assert_array_equal(a.field.samples, b.field.samples)

    def test_unresolvable_radius(self):
        grid = LatticeGrid(1, 16)
        spec = AtomSpec(p=0.5, center=(1.0,), radius=0.05, seed=0)
        with pytest.raises(ResolutionError):
            make_regular_atom(spec, grid)

    def test_ball_with_too_few_points_for_the_monomials(self):
        """p = 0.1 cancels degree 9, 10 monomials, but a ball of radius 4
        cells holds only 8 points: every projection is zero, whatever the seed."""
        grid = LatticeGrid(1, 256)
        spec = AtomSpec(p=0.1, center=(1.0,), radius=4.0 * grid.spacing, seed=0)
        with pytest.raises(ResolutionError, match="holds 8 grid points.*10 monomials"):
            make_regular_atom(spec, grid)

    @pytest.mark.parametrize(
        "dimension, p, count",
        [
            (1, 1e-3, "1000"),
            (2, 1e-3, "1.999e+06"),
            (1, 1e-300, "1e+300"),
            (2, 1e-300, "inf"),
            (3, 1e-3, "4.496e+09"),
            (3, 1e-300, "inf"),
        ],
    )
    def test_monomials_are_counted_before_any_is_built(self, monkeypatch, dimension, p, count):
        """C(d + n, n) monomials: (d + 1) in 1-D, (d + 1)(d + 2)/2 in 2-D; a
        count beyond the ball's points is refused without building one (at
        p = 1e-300 there are about 1e300 of them in 1-D, 2e600 in 2-D)."""
        monkeypatch.setattr(hardy, "_monomials", None)
        grid = LatticeGrid(dimension, 256 if dimension < 3 else 80)
        spec = AtomSpec(p=p, center=(1.0,) * dimension, radius=np.pi / 10, seed=0)
        with pytest.raises(ResolutionError, match=f"too few to cancel the {re.escape(count)} monomials"):
            make_regular_atom(spec, grid)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_non_finite_degree_is_refused(self, dimension):
        """1/p overflows for the smallest subnormal p."""
        spec = AtomSpec(p=5e-324, center=(1.0,) * dimension, radius=0.1, seed=0)
        with pytest.raises(ResolutionError, match="moments of every degree"):
            spec.cancellation_degree(dimension)
        with pytest.raises(ResolutionError, match="moments of every degree"):
            make_regular_atom(spec, LatticeGrid(dimension, 256))


    def test_certificates_3d(self):
        """p = 1/2 cancels the 20 moments of degree <= 3.  A radius of pi/10
        needs 4 grid cells, so M >= 80; the ball then holds about 268 points."""
        grid = LatticeGrid(3, 80)
        spec = AtomSpec(p=0.5, center=(1.0, 2.0, 3.0), radius=np.pi / 10, seed=0)
        atom = make_regular_atom(spec, grid)
        target = ball_measure(3, np.pi / 10) ** (0.5 - 2.0)
        assert atom.certified_l2 == pytest.approx(target, rel=1e-13)
        moments = moment_integrals(atom.field, spec.center, 3)
        assert moments.shape == (20,)
        assert np.max(np.abs(moments)) == atom.certified_moment_bound <= 1e-10 * atom.certified_l2
        rho2 = sum(d**2 for d in _displacements(grid, spec.center))
        assert np.all(atom.field.samples[rho2 >= spec.radius**2] == 0.0)

    @pytest.mark.parametrize(
        "center, grid",
        [((1.0, 2.0, 3.0), LatticeGrid(1, 256)), ((1.0,), LatticeGrid(2, 128))],
        ids=["three-on-1d", "one-on-2d"],
    )
    def test_center_needs_one_coordinate_per_axis(self, center, grid):
        """Extra coordinates were dropped, and a missing one left the
        projection degenerate, reported as non-convergence."""
        spec = AtomSpec(p=0.5, center=center, radius=0.3, seed=0)
        with pytest.raises(ValueError, match="one coordinate per grid axis"):
            make_regular_atom(spec, grid)
        with pytest.raises(ValueError, match="one coordinate per grid axis"):
            moment_integrals(GridField(grid, np.zeros(grid.spatial_shape)), center, 1)


def whole_grid_atom_samples(spec, grid):
    """`make_regular_atom`'s samples with the envelope and the modulation
    built on the whole lattice and the ball's points gathered from them, as
    the library built them before it gathered the displacements first."""
    degree = spec.cancellation_degree(grid.dimension)
    disp = _displacements(grid, spec.center)
    rho2 = sum(d**2 for d in disp)
    inside = rho2 < spec.radius**2
    idx = np.flatnonzero(inside.ravel())
    s = np.zeros(grid.spatial_shape)
    np.divide(rho2, spec.radius**2, out=s, where=inside)
    envelope = np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    basis = np.stack([mono.ravel()[idx] for mono in _monomials(disp, degree)], axis=1)
    for attempt in range(hardy._MAX_RETRIES):
        rng = np.random.default_rng(spec.seed + 7919 * attempt)
        modulation = np.ones(grid.spatial_shape)
        for d in disp:
            for h in range(1, 4):
                a, b = rng.standard_normal(2)
                modulation = modulation + a * np.cos(
                    h * np.pi * d / spec.radius
                ) + b * np.sin(h * np.pi * d / spec.radius)
        raw = (envelope * modulation).ravel()[idx]
        try:
            coef = np.linalg.solve(basis.T @ basis, basis.T @ raw)
        except np.linalg.LinAlgError:
            continue
        projected = raw - basis @ coef
        norm2 = np.sqrt(np.sum(projected**2) * grid.cell_volume)
        if norm2 > 1e-8 * np.sqrt(np.sum(raw**2) * grid.cell_volume + 1e-300):
            break
    target = ball_measure(grid.dimension, spec.radius) ** (0.5 - 1.0 / spec.p)
    samples = np.zeros(grid.spatial_shape)
    samples.ravel()[idx] = projected * (target / norm2)
    return samples


class TestAtomOnTheBall:
    @pytest.mark.parametrize(
        "dimension, modes, p, seeds",
        [(1, 512, 0.5, (0, 3, 11)), (1, 4096, 0.25, (2,)), (2, 128, 2.0 / 3.0, (5, 8)), (3, 80, 0.5, (0,))],
    )
    def test_equals_the_whole_grid_construction(self, dimension, modes, p, seeds):
        """Built on the ball's points, the atom and its certificates equal
        the whole-grid construction bit for bit."""
        grid = LatticeGrid(dimension, modes)
        rng = np.random.default_rng(modes)
        for seed in seeds:
            center = tuple(rng.uniform(0.0, 2.0 * np.pi, dimension))
            spec = AtomSpec(p=p, center=center, radius=np.pi / 10, seed=seed)
            atom = make_regular_atom(spec, grid)
            want = GridField(grid, whole_grid_atom_samples(spec, grid))
            assert np.array_equal(atom.field.samples.view(np.uint64), want.samples.view(np.uint64))
            moments = moment_integrals(want, spec.center, spec.cancellation_degree(dimension))
            assert atom.certified_moment_bound == float(np.max(np.abs(moments)))
            assert atom.certified_l2 == grid_norm(want, 2.0)


def graded_indices_oracle(dimension, degree):
    """The per-dimension multi-indices that the general form replaced."""
    out = []
    for total in range(degree + 1):
        if dimension == 1:
            out.append((total,))
        else:
            for i in range(total, -1, -1):
                out.append((i, total - i))
    return out


class TestGeneralForms:
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_multi_indices_equal_the_per_dimension_lists(self, dimension):
        for degree in range(8):
            assert _multi_indices(dimension, degree) == graded_indices_oracle(dimension, degree)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_multi_indices_are_graded_and_complete(self, dimension):
        """C(d + n, n) indices: every one of total degree <= d, once, by
        ascending degree and descending lexicographic within one."""
        for degree in range(6):
            got = _multi_indices(dimension, degree)
            assert len(got) == math.comb(degree + dimension, dimension)
            every = [g for g in itertools.product(range(degree + 1), repeat=dimension) if sum(g) <= degree]
            assert got == sorted(every, key=lambda g: (sum(g), [-v for v in g]))

    def test_ball_volume_equals_the_per_dimension_formulas(self):
        radii = np.random.default_rng(0).uniform(0.0, 10.0, 3000)
        for r in radii.tolist():
            assert ball_measure(1, r) == 2.0 * r
            assert ball_measure(2, r) == np.pi * r**2

    def test_ball_volume_in_three_dimensions(self):
        assert ball_measure(0, 0.3) == 1.0
        for r in (0.1, 0.3, np.pi / 10, 2.0):
            assert ball_measure(3, r) == pytest.approx(4.0 / 3.0 * np.pi * r**3, rel=1e-15)
            assert ball_measure(4, r) == pytest.approx(np.pi**2 / 2.0 * r**4, rel=1e-15)

    def test_ball_point_counts_in_three_dimensions(self):
        """On LatticeGrid(3, 64), a ball of radius r holds between
        V(r - h sqrt(3)/2) / h^3 and V(r + h sqrt(3)/2) / h^3 grid points (the
        cubes of side h around them lie in the larger ball and cover the
        smaller one); over 50 random centers, a radius-pi/10 ball averages
        V(r) / h^3 = 137.3 points to within 2%."""
        grid = LatticeGrid(3, 64)
        h, x = grid.spacing, grid.coords_1d
        radii = np.array([0.2, 0.25, np.pi / 10])
        counts = []
        for center in np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, (50, 3)):
            disp = [((x - z + np.pi) % (2.0 * np.pi)) - np.pi for z in center]
            rho2 = np.add.outer(np.add.outer(disp[0] ** 2, disp[1] ** 2), disp[2] ** 2)
            counts.append([np.count_nonzero(rho2 < r**2) for r in radii])
        counts = np.array(counts)
        slack = h * np.sqrt(3.0) / 2.0
        assert np.all(ball_measure(3, radii - slack) / h**3 <= counts.min(axis=0))
        assert np.all(counts.max(axis=0) <= ball_measure(3, radii + slack) / h**3)
        assert np.mean(counts[:, 2]) == pytest.approx(ball_measure(3, np.pi / 10) / h**3, rel=0.02)


    @pytest.mark.parametrize("dimension, modes, degree", [(1, 256, 3), (2, 128, 2), (3, 80, 3)])
    def test_monomials_on_the_ball_equal_the_gathered_grid_ones(self, dimension, modes, degree):
        """Built on the ball's gathered displacements, each monomial equals
        the whole-grid monomial at the ball's points bit for bit."""
        grid = LatticeGrid(dimension, modes)
        disp = _displacements(grid, (1.0, 2.0, 3.0)[:dimension])
        idx = np.flatnonzero((sum(d**2 for d in disp) < (np.pi / 10) ** 2).ravel())
        ball = [d.ravel()[idx] for d in disp]
        pairs = zip(_monomials(ball, degree), _monomials(disp, degree), strict=True)
        for on_ball, on_grid in pairs:
            assert np.array_equal(on_ball.view(np.uint64), on_grid.ravel()[idx].view(np.uint64))


class TestHeatQuasinorm:
    def test_semigroup_decay(self):
        grid = LatticeGrid(1, 32)
        f = pure_mode(grid, (3,))
        out = heat_semigroup(f, 0.5)
        assert out.coefficients[3] == pytest.approx(np.exp(-0.5 * 9.0))

    def test_dominates_lp_of_function(self):
        """The heat maximal function dominates the function itself as t->0."""
        grid = LatticeGrid(1, 128)
        f = random_spectral_field(grid, np.random.default_rng(1), band_limit=10)
        est = hp_quasinorm_estimate(f, 1.0)
        plain = grid_norm(inverse_transform(f), 1.0)
        assert est >= 0.99 * plain

    def test_band_limited_field_on_a_large_lattice(self):
        """Only the field's own top mode, 16, has to be resolved, not the
        lattice's 2048."""
        grid = LatticeGrid(1, 4096)
        f = random_spectral_field(grid, np.random.default_rng(4), band_limit=16)
        est = hp_quasinorm_estimate(f, 0.5)
        assert est >= 0.99 * grid_norm(inverse_transform(f), 0.5)

    def test_unresolved_times_rejected(self):
        grid = LatticeGrid(1, 256)
        f = random_spectral_field(grid, np.random.default_rng(2))
        with pytest.raises(ResolutionError):
            hp_quasinorm_estimate(f, 1.0, heat_times=np.array([1.0, 2.0]))


class TestWeakLp:
    def test_indicator_exact(self):
        """For an indicator of measure m, the weak quasinorm is m^{1/p}."""
        grid = LatticeGrid(1, 64)
        samples = np.zeros(64, dtype=complex)
        samples[:16] = 1.0
        f = GridField(grid, samples)
        measure = 16 * grid.cell_volume
        for p in (0.5, 1.0, 2.0):
            assert weak_lp_quasinorm(f, p) == pytest.approx(measure ** (1.0 / p))

    def test_dominated_by_strong_norm(self):
        grid = LatticeGrid(1, 128)
        f = inverse_transform(random_spectral_field(grid, np.random.default_rng(3)))
        for p in (0.5, 1.0):
            assert weak_lp_quasinorm(f, p) <= grid_norm(f, p) + 1e-12

    def test_validation(self):
        grid = LatticeGrid(1, 64)
        f = GridField(grid, np.zeros(64, dtype=complex))
        with pytest.raises(ValueError):
            weak_lp_quasinorm(f, 0.0)


def test_quasinorms_reject_stacks():
    """A quasinorm is of one field: a stack of two must not be measured as
    one function on a doubled set."""
    grid = LatticeGrid(1, 64)
    stack = GridField(grid, np.ones((2, 64)), stacked=True)
    with pytest.raises(ValueError, match="not a stack"):
        weak_lp_quasinorm(stack, 0.5)
    with pytest.raises(ValueError, match="not a stack"):
        hp_quasinorm_estimate(forward_transform(stack), 0.5)

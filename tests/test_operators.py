"""Tests for diagonal operators, maximal sweeps, kernel sums, and checks."""

import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oscimax import (
    CutoffProfile,
    LatticeGrid,
    SpectralField,
    SymbolParams,
    TimeGrid,
    apply_multiplier,
    combination_error_symbol,
    fit_decay_exponent,
    inverse_transform,
    kernel_lattice_sum,
    maximal_over_times,
    oscillating_op,
    pure_mode,
    random_spectral_field,
    riesz_mean_op,
    riesz_symbol_decay_check,
    verify_kernel_decay,
)
from oscimax import hardy, operators
from oscimax.hardy import AtomSpec, heat_semigroup, make_regular_atom
from oscimax.torus import GridField, forward_transform
from oscimax.symbols import mu_symbol, riesz_mean_symbol
from oracles import fourier_cosine_mu, schrodinger_propagate

PROFILE = CutoffProfile()


def direct_lattice_sum(params, profile, t, x, eps, M_cap):
    """The lattice sum term by term, one cosine per m, with every factor
    built per call; oracle for kernel_lattice_sum's two-level evaluation."""
    m = np.arange(1, M_cap + 1, dtype=float)
    terms = mu_symbol(params, profile, t, m) * np.cos(m * x)
    if eps > 0.0:
        terms = terms * np.exp(-eps * m**2)
    return 2.0 * complex(np.sum(terms))


def lattice_weights(params, profile, t, eps, M_cap):
    """The float64 weights w_m = mu(t m) e^{-eps m^2}, m = 1..M_cap."""
    m = np.arange(1, M_cap + 1, dtype=float)
    return mu_symbol(params, profile, t, m) * np.exp(-eps * m**2)


def lattice_rounding_bound(M_cap, x):
    """First-order rounding error of kernel_lattice_sum relative to
    2 sum |w_m|: u m|x| <= u M_cap |x| from rounding the argument m x (as
    theta_a + b x), u (B + 2A) <= 3u B from the two dot products over the
    B-blocks and the 2A rotated pairs, and a few u for cos, sin and the
    rotation; u = 2^-53."""
    B = math.isqrt(M_cap - 1) + 1
    return 2.0**-53 * (M_cap * abs(x) + 4 * B + 8)


def full_lattice_multiplier(f, m):
    """m evaluated once on the whole |xi| array and multiplied in, as
    coefficient times multiplier; the oracle for the bytes of
    apply_multiplier's chunked products."""
    # held by a name: numpy would multiply a fresh temporary of 256 KiB or
    # more in place, as multiplier times coefficient
    mult = m(f.grid.eigenvalue_array())
    return SpectralField(f.grid, f.coefficients * mult, f.stacked)


def diagonal_ops(grid):
    """Every diagonal operator, named.  The Riesz means run at the time
    where the lattice's largest z = t |xi|^(1/2) is 8.5, so the chunks sum
    the series to different lengths and the top of the lattice takes the
    contour branch."""
    params = SymbolParams(0.5, 0.75)
    t_riesz = 8.5 / math.sqrt(float(np.max(grid.eigenvalue_array())))
    ops = {
        "oscillating-t=1/2": lambda g: oscillating_op(g, params, PROFILE, 0.5),
        "oscillating-t=0.01": lambda g: oscillating_op(g, params, PROFILE, 0.01),
        "schrodinger": lambda g: schrodinger_propagate(g, 0.5, 0.7),
        "heat": lambda g: heat_semigroup(g, 1e-4),
    }
    for k in (0.5, 1.0, 2.5):
        ops[f"riesz-k={k}"] = lambda g, k=k: riesz_mean_op(g, k, 0.5, t_riesz)
    return ops


class TestTimeGrid:
    def test_geometric_defaults(self):
        tg = TimeGrid()
        times = tg.times
        assert times[-1] == pytest.approx(0.5)
        assert np.all(np.diff(times) > 0)
        assert times[0] == pytest.approx(0.5 * 2.0**-20)

    def test_refined_nests(self):
        tg = TimeGrid(count=9, span_octaves=6)
        fine = tg.refined().times
        assert fine.size == 17
        for t in tg.times:
            assert np.min(np.abs(fine - t)) <= 1e-12 * t

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(sigma=0.6)
        with pytest.raises(ValueError):
            TimeGrid(count=1)
        for span in (0.0, -3.0, float("nan")):
            with pytest.raises(ValueError, match="span_octaves"):
                TimeGrid(span_octaves=span)


class TestDiagonalOperators:
    def test_identity_and_zero(self):
        grid = LatticeGrid(1, 32)
        f = random_spectral_field(grid, np.random.default_rng(0))
        same = apply_multiplier(f, lambda lam: np.ones_like(lam))
        np.testing.assert_array_equal(same.coefficients, f.coefficients)
        zero = apply_multiplier(f, lambda lam: np.zeros_like(lam))
        assert np.all(zero.coefficients == 0)

    def test_unitarity(self):
        grid = LatticeGrid(2, 32)
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = random_spectral_field(grid, rng)
            g = schrodinger_propagate(f, 0.5, 1.3)
            assert g.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_group_law(self):
        grid = LatticeGrid(1, 64)
        f = random_spectral_field(grid, np.random.default_rng(2))
        ab = schrodinger_propagate(schrodinger_propagate(f, 0.3, 0.4), 0.3, 0.8)
        direct = schrodinger_propagate(f, 0.3, 1.2)
        np.testing.assert_allclose(ab.coefficients, direct.coefficients, atol=1e-13)

    def test_linearity(self):
        grid = LatticeGrid(1, 32)
        rng = np.random.default_rng(3)
        f = random_spectral_field(grid, rng)
        g = random_spectral_field(grid, rng)
        params = SymbolParams(0.5, 0.75)
        lhs = oscillating_op(
            f.__class__(grid, 2.0 * f.coefficients - 1j * g.coefficients),
            params,
            PROFILE,
            0.3,
        )
        rhs = (
            2.0 * oscillating_op(f, params, PROFILE, 0.3).coefficients
            - 1j * oscillating_op(g, params, PROFILE, 0.3).coefficients
        )
        np.testing.assert_allclose(lhs.coefficients, rhs, atol=1e-14)

    def test_commutation(self):
        grid = LatticeGrid(1, 64)
        f = random_spectral_field(grid, np.random.default_rng(4))
        params = SymbolParams(0.5, 1.0)
        ab = oscillating_op(schrodinger_propagate(f, 0.5, 0.7), params, PROFILE, 0.2)
        ba = schrodinger_propagate(oscillating_op(f, params, PROFILE, 0.2), 0.5, 0.7)
        np.testing.assert_allclose(ab.coefficients, ba.coefficients, atol=1e-13)

    def test_riesz_mean_single_mode(self):
        grid = LatticeGrid(1, 32)
        f = pure_mode(grid, (6,))
        out = riesz_mean_op(f, 2.0, 0.5, 0.1)
        expected = riesz_mean_symbol(2.0, 0.1 * 6.0**0.5)
        assert out.coefficients[6] == pytest.approx(expected, abs=1e-12)

    def test_riesz_mean_zero_mode_passthrough(self):
        grid = LatticeGrid(1, 32)
        f = pure_mode(grid, (0,))
        out = riesz_mean_op(f, 2.0, 0.5, 0.1)
        assert out.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 1.5])
    def test_riesz_mean_alpha_outside_unit_interval_is_refused(self, alpha):
        """alpha meets the check of SymbolParams: at alpha = 0 the zero mode
        would get z = t, and below 0 lam**alpha divides by zero."""
        f = pure_mode(LatticeGrid(1, 32), (0,))
        with pytest.raises(ValueError, match="alpha must lie in"):
            riesz_mean_op(f, 2.0, alpha, 0.1)

    def test_riesz_mean_2d_matches_symbol(self):
        """In 2-D each coefficient is scaled by the symbol at t |xi|^alpha;
        t = 3 puts the lattice on both sides of the series/contour switch."""
        grid = LatticeGrid(2, 32)
        f = random_spectral_field(grid, np.random.default_rng(11))
        k, alpha, t = 1.5, 0.5, 3.0
        out = riesz_mean_op(f, k, alpha, t)
        lam = grid.eigenvalue_array()
        z = t * lam**alpha
        assert z.max() > 8.0
        symbol = np.array([riesz_mean_symbol(k, float(v)) for v in z.ravel()])
        np.testing.assert_allclose(
            out.coefficients, f.coefficients * symbol.reshape(lam.shape), rtol=0, atol=1e-15
        )
        zero = lam == 0.0
        assert np.count_nonzero(zero) == 1
        assert out.coefficients[zero] == f.coefficients[zero]


class TestMaximalOverTimes:
    def test_monotone_under_refinement(self):
        grid = LatticeGrid(1, 64)
        f = random_spectral_field(grid, np.random.default_rng(5), band_limit=20)
        params = SymbolParams(0.5, 0.75)
        tg = TimeGrid(count=12, span_octaves=8)
        coarse = maximal_over_times(f, oscillating_op, tg.times, params, PROFILE).samples
        fine = maximal_over_times(f, oscillating_op, tg.refined().times, params, PROFILE).samples
        assert np.all(fine >= coarse - 1e-15)

    def test_dominates_single_time(self):
        grid = LatticeGrid(1, 32)
        f = random_spectral_field(grid, np.random.default_rng(6), band_limit=10)
        params = SymbolParams(0.5, 0.75)
        tg = TimeGrid(count=8, span_octaves=4)
        maximal = maximal_over_times(f, oscillating_op, tg.times, params, PROFILE).samples
        one = np.abs(inverse_transform(oscillating_op(f, params, PROFILE, tg.times[3])).samples)
        assert np.all(maximal >= one - 1e-15)


    @pytest.mark.parametrize("dimension, modes", [(1, 64), (2, 16)])
    def test_real_max_of_slice_magnitudes(self, dimension, modes):
        """Real samples, equal bit for bit to the max over the times of the
        magnitudes of the inverse-transformed slices."""
        grid = LatticeGrid(dimension, modes)
        f = random_spectral_field(grid, np.random.default_rng(7), band_limit=modes / 4)
        params = SymbolParams(0.5, 0.75)
        times = TimeGrid(count=6, span_octaves=6).times
        maximal = maximal_over_times(f, oscillating_op, times, params, PROFILE).samples
        slices = [np.abs(inverse_transform(oscillating_op(f, params, PROFILE, t)).samples) for t in times]
        assert maximal.dtype == np.float64
        assert np.array_equal(maximal, np.max(slices, axis=0))

    def test_each_slice_is_transformed_in_its_own_buffer(self, monkeypatch):
        grid = LatticeGrid(2, 32)
        f = random_spectral_field(grid, np.random.default_rng(3), band_limit=8)
        times = TimeGrid(count=5, span_octaves=6).times
        args = (SymbolParams(0.5, 0.75), PROFILE)
        want = maximal_over_times(f, oscillating_op, times, *args).samples
        in_place = []

        def spy(F, out=None):
            in_place.append(out is F.coefficients)
            return inverse_transform(F, out=out)

        monkeypatch.setattr(operators, "inverse_transform", spy)
        got = maximal_over_times(f, oscillating_op, times, *args).samples
        assert in_place == [True] * len(times)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_family_sharing_memory_with_f_is_refused(self):
        """The sweep overwrites each slice, so a slice must not be f itself
        or a view of it."""
        grid = LatticeGrid(1, 32)
        f = random_spectral_field(grid, np.random.default_rng(4), band_limit=8)
        before = f.coefficients.copy()
        ops = [
            lambda g, t: g,
            lambda g, t: SpectralField(g.grid, g.coefficients[:]),
        ]
        for op in ops:
            assert np.may_share_memory(op(f, 0.5).coefficients, f.coefficients)
            with pytest.raises(ValueError, match="fresh field"):
                maximal_over_times(f, op, [0.25, 0.5])
        assert np.array_equal(f.coefficients, before)

    # lattice, band and operator of each sweep whose memory is measured
    SWEEP_MEMORY_CASES = {
        "heat-256": (256, 64, "heat"),
        "oscillating-512": (512, 128, "oscillating"),
    }

    def test_empty_times_is_refused(self):
        f = random_spectral_field(LatticeGrid(1, 32), np.random.default_rng(4), band_limit=8)
        with pytest.raises(ValueError, match="at least one time"):
            maximal_over_times(f, oscillating_op, [], SymbolParams(0.5, 0.75), PROFILE)

    @pytest.mark.parametrize("name", SWEEP_MEMORY_CASES)
    def test_sweep_holds_one_product_and_two_real_lattices(self, name, monkeypatch):
        """A sweep peaks at its running maximum (one float lattice) and, per
        worker, one product (a complex lattice), the working set of building
        one product, which is O(_SYMBOL_CHUNK) and measured here per time,
        and one fold step's magnitudes, _FOLD_BLOCK floats; 64 KiB cover the
        row test, the fields' bookkeeping and the helper thread.  So one
        worker holds one product and less than two real lattices, and two
        workers two products.  A transform into a fresh array would hold a
        second complex lattice, 1 or 4 MiB here, per worker on top."""
        modes, band, kind = self.SWEEP_MEMORY_CASES[name]
        grid = LatticeGrid(2, modes)
        f = random_spectral_field(grid, np.random.default_rng(0), band_limit=band)
        if kind == "heat":
            times = np.geomspace(1e-6, 1e-2, 16)
            op, args = heat_semigroup, ()
        else:
            times = TimeGrid(count=16, span_octaves=12).times
            op, args = oscillating_op, (SymbolParams(0.5, 0.75), PROFILE)

        grid.eigenvalue_array()
        product_set = 0
        for t in times:
            tracemalloc.start()
            try:
                g = op(f, *args, t)
                product_set = max(product_set, tracemalloc.get_traced_memory()[1] - g.coefficients.nbytes)
            finally:
                tracemalloc.stop()
            del g
        assert product_set <= 1.5 * 2**20
        lattice = modes**2
        assert lattice >= operators._SPLIT_POINTS
        monkeypatch.setattr(operators.os, "sched_getaffinity", lambda pid: {0, 1})
        for workers in (1, 2):
            monkeypatch.setattr(operators, "_SWEEP_WORKERS", workers)
            tracemalloc.start()
            try:
                maximal_over_times(f, op, times, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_worker = 16 * lattice + product_set + 8 * operators._FOLD_BLOCK
            assert peak <= 8 * lattice + workers * per_worker + 64 * 2**10, (name, workers)


class TestSplitSweep:
    """A sweep split between threads gives the serial sweep's maxima bit for
    bit, and the first error in either half stops the other half before
    its next time and reaches the caller once every helper thread has
    stopped.  The split is forced on small lattices by lowering the
    threshold and reporting two CPUs."""

    PARAMS = SymbolParams(0.5, 0.75)

    @staticmethod
    def sweep(monkeypatch, workers, f, op, times, *args):
        monkeypatch.setattr(operators, "_SPLIT_POINTS", 0)
        monkeypatch.setattr(operators, "_SWEEP_WORKERS", workers)
        monkeypatch.setattr(operators.os, "sched_getaffinity", lambda pid: set(range(workers)))
        threads = set()

        def spy(*a):
            threads.add(threading.get_ident())
            return op(*a)

        maximal = maximal_over_times(f, spy, times, *args)
        assert len(threads) == min(workers, len(times))
        return maximal

    @staticmethod
    def atom_block(grid, count):
        specs = [AtomSpec(0.75, (1.0 + 0.3 * i,), 0.2 + 0.02 * i, i) for i in range(count)]
        samples = np.stack([make_regular_atom(spec, grid).field.samples for spec in specs])
        return forward_transform(GridField(grid, samples, stacked=True))

    @staticmethod
    def signed_zeros_and_nan(grid):
        """A stack whose members hold -0 rows among live ones, a NaN, and
        nothing but -0."""
        rng = np.random.default_rng(2)
        c = rng.standard_normal((3,) + grid.spectral_shape) + 0j
        c[0, ::3] = -0.0
        c[1, 5, 7] = np.nan
        c[2] = complex(-0.0, -0.0)
        return SpectralField(grid, c, stacked=True)

    def cases(self):
        tg = TimeGrid(count=16, span_octaves=12)
        oscillating = (oscillating_op, self.PARAMS, PROFILE)
        return {
            "oscillating-512": (
                lambda: random_spectral_field(LatticeGrid(2, 512), np.random.default_rng(0), band_limit=128),
                tg.times,
                oscillating,
            ),
            "oscillating-512-64-times": (
                lambda: random_spectral_field(LatticeGrid(2, 512), np.random.default_rng(1), band_limit=128),
                TimeGrid(count=64).times,
                oscillating,
            ),
            "oscillating-3d-64": (
                lambda: random_spectral_field(LatticeGrid(3, 64), np.random.default_rng(0), band_limit=16),
                tg.times,
                oscillating,
            ),
            "atom-block": (lambda: self.atom_block(LatticeGrid(1, 4096), 5), tg.times, oscillating),
            "heat": (
                lambda: random_spectral_field(LatticeGrid(2, 128), np.random.default_rng(3), band_limit=32),
                np.geomspace(1e-6, 1e-2, 9),
                (heat_semigroup,),
            ),
            "signed-zeros-and-nan": (lambda: self.signed_zeros_and_nan(LatticeGrid(2, 32)), tg.times, oscillating),
        }

    @pytest.mark.parametrize(
        "name",
        ["oscillating-512", "oscillating-512-64-times", "oscillating-3d-64", "atom-block", "heat", "signed-zeros-and-nan"],
    )
    def test_two_workers_equal_one(self, name, monkeypatch):
        build, times, (op, *args) = self.cases()[name]
        f = build()
        one = self.sweep(monkeypatch, 1, f, op, times, *args).samples
        two = self.sweep(monkeypatch, 2, f, op, times, *args)
        assert two.stacked == f.stacked
        assert np.array_equal(two.samples.view(np.uint64), one.view(np.uint64))
        if name == "signed-zeros-and-nan":
            assert np.isnan(one[1]).any()
            assert not one[2].view(np.uint64).any()  # +0 everywhere

    def test_more_workers_than_cores_lose_no_update(self, monkeypatch):
        """Four workers and a short switch interval, folding whole lattices
        (one block, without the interpreter lock) after an op that costs
        little more than the transform, overlap their folds as often as they
        can; a lost update would leave some sample below the serial
        maximum."""
        monkeypatch.setattr(operators, "_FOLD_BLOCK", 2**17)
        f = random_spectral_field(LatticeGrid(1, 2**17), np.random.default_rng(8))
        scales = np.random.default_rng(9).uniform(0.5, 2.0, 16)

        def op(g, t):
            return SpectralField(g.grid, g.coefficients * t)

        one = self.sweep(monkeypatch, 1, f, op, scales).samples
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                four = self.sweep(monkeypatch, 4, f, op, scales).samples
                assert np.array_equal(four.view(np.uint64), one.view(np.uint64))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("half", ["caller", "helper"])
    def test_error_in_either_half_is_raised_after_the_join(self, half, monkeypatch):
        """The helper takes times[1::2] and the caller times[0::2]; the op
        fails at the second time of one of them."""
        monkeypatch.setattr(operators, "_SPLIT_POINTS", 0)
        monkeypatch.setattr(operators.os, "sched_getaffinity", lambda pid: {0, 1})
        f = random_spectral_field(LatticeGrid(2, 32), np.random.default_rng(5), band_limit=8)
        times = list(TimeGrid(count=8, span_octaves=6).times)
        bad = times[2] if half == "caller" else times[3]

        def op(g, t):
            if t == bad:
                raise RuntimeError(f"op failed at {t}")
            return oscillating_op(g, self.PARAMS, PROFILE, t)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="op failed"):
            maximal_over_times(f, op, times)
        assert threading.active_count() == before

    def test_first_error_stops_the_other_half(self, monkeypatch):
        """The caller's op fails at its second time of 64 (times[2]) once
        the helper has begun, and each helper op sleeps 2 ms, so the
        helper's 32 times outlast the caller's two.  After the failure the
        helper starts at most two more ops, not the rest of its share."""
        monkeypatch.setattr(operators, "_SPLIT_POINTS", 0)
        monkeypatch.setattr(operators.os, "sched_getaffinity", lambda pid: {0, 1})
        f = random_spectral_field(LatticeGrid(2, 32), np.random.default_rng(5), band_limit=8)
        times = list(TimeGrid(count=64).times)
        caller = threading.get_ident()
        helper_began = threading.Event()
        calls = []  # (thread, time) as each op starts

        def op(g, t):
            calls.append((threading.get_ident(), t))
            if threading.get_ident() != caller:
                helper_began.set()
                time.sleep(2e-3)
            elif t == times[2]:
                assert helper_began.wait(10)
                raise RuntimeError("op failed")
            return oscillating_op(g, self.PARAMS, PROFILE, t)

        with pytest.raises(RuntimeError, match="op failed"):
            maximal_over_times(f, op, times)
        helper = [thread != caller for thread, _ in calls]
        assert sum(helper[calls.index((caller, times[2])) :]) <= 2
        assert sum(helper) < 32

    @pytest.mark.parametrize("half", ["caller", "helper"])
    def test_keyboard_interrupt_in_either_half_reaches_the_caller(self, half, monkeypatch):
        """A BaseException that is no Exception, raised by the op at the
        second time of either half, is raised here after the join."""
        monkeypatch.setattr(operators, "_SPLIT_POINTS", 0)
        monkeypatch.setattr(operators.os, "sched_getaffinity", lambda pid: {0, 1})
        f = random_spectral_field(LatticeGrid(2, 32), np.random.default_rng(5), band_limit=8)
        times = list(TimeGrid(count=8, span_octaves=6).times)
        bad = times[2] if half == "caller" else times[3]

        def op(g, t):
            if t == bad:
                raise KeyboardInterrupt
            return oscillating_op(g, self.PARAMS, PROFILE, t)

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            maximal_over_times(f, op, times)
        assert threading.active_count() == before

    def test_no_sched_getaffinity_falls_back_to_cpu_count(self, monkeypatch):
        """macOS and Windows have no os.sched_getaffinity.  A 256² sweep,
        which takes the split path, then counts os.cpu_count()'s CPUs and
        keeps the serial sweep's bits."""
        f = random_spectral_field(LatticeGrid(2, 256), np.random.default_rng(6), band_limit=64)
        assert f.coefficients.size >= operators._SPLIT_POINTS
        times = TimeGrid(count=8, span_octaves=6).times
        args = (self.PARAMS, PROFILE)
        with monkeypatch.context() as serial:
            serial.setattr(operators, "_SWEEP_WORKERS", 1)
            one = maximal_over_times(f, oscillating_op, times, *args).samples
        monkeypatch.delattr(operators.os, "sched_getaffinity")
        threads = set()

        def spy(*a):
            threads.add(threading.get_ident())
            return oscillating_op(*a)

        split = maximal_over_times(f, spy, times, *args).samples
        assert len(threads) == min(operators._SWEEP_WORKERS, os.cpu_count() or 1)
        assert np.array_equal(split.view(np.uint64), one.view(np.uint64))


class TestStackedOperators:
    """A stack goes through the diagonal operators and the maximal function
    as its members would, one at a time, bit for bit.  The members here have
    no zero chunk; where a member's zeros lie outside its own spans but
    inside the stack's, the stack multiplies them and the single field
    writes +0, so the two may differ in the signs of those zeros (see
    TestZeroChunks), as the pruned transform's dead rows may."""

    PARAMS = SymbolParams(0.5, 0.75)

    @staticmethod
    def stack(grid, count, seed):
        rng = np.random.default_rng(seed)
        shape = (count,) + grid.spectral_shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize(
        "dimension, modes", [(1, 8192), (1, 16384), (2, 64), (2, 128)]
    )
    def test_members_equal_single_fields(self, dimension, modes):
        """Each member of a stack gets the bytes it gets as a single field,
        on lattices whose complex multiplier is below 256 KiB and from it,
        the size from which numpy elides a whole-array temporary."""
        grid = LatticeGrid(dimension, modes)
        c = self.stack(grid, 3, modes)
        t = 4.0 / float(np.max(grid.eigenvalue_array()))
        ops = [
            lambda g: oscillating_op(g, self.PARAMS, PROFILE, t),
            lambda g: schrodinger_propagate(g, 0.5, t),
            lambda g: riesz_mean_op(g, 1.0, 0.5, t),
            lambda g: apply_multiplier(g, lambda lam: np.exp(-t * lam)),
        ]
        for op in ops:
            out = op(SpectralField(grid, c, stacked=True))
            assert out.stacked
            for row, member in zip(out.coefficients, c):
                single = op(SpectralField(grid, member)).coefficients
                assert np.array_equal(row.view(np.uint64), single.view(np.uint64))

    @pytest.mark.parametrize("dimension, modes", [(1, 64), (2, 16)])
    def test_maximal_function_per_member(self, dimension, modes):
        grid = LatticeGrid(dimension, modes)
        c = self.stack(grid, 4, 9)
        times = TimeGrid(count=6, span_octaves=6).times
        args = (self.PARAMS, PROFILE)
        maximal = maximal_over_times(SpectralField(grid, c, stacked=True), oscillating_op, times, *args)
        assert maximal.stacked
        for row, member in zip(maximal.samples, c):
            single = maximal_over_times(SpectralField(grid, member), oscillating_op, times, *args).samples
            assert np.array_equal(row, single)


class TestChunkedMultiplier:
    """apply_multiplier evaluates m on chunks of the flattened lattice; the
    products equal the whole-lattice ones byte for byte."""

    LATTICES = [(1, 256), (1, 16384), (1, 65536), (2, 128), (2, 200), (2, 512)]

    @pytest.mark.parametrize("dimension, modes", LATTICES)
    def test_equals_the_full_lattice_oracle(self, monkeypatch, dimension, modes):
        grid = LatticeGrid(dimension, modes)
        rng = np.random.default_rng(modes)
        shape = (2,) + grid.spectral_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fields = [SpectralField(grid, c[0]), SpectralField(grid, c, stacked=True)]
        for name, op in diagonal_ops(grid).items():
            with monkeypatch.context() as patched:
                patched.setattr(operators, "apply_multiplier", full_lattice_multiplier)
                patched.setattr(hardy, "apply_multiplier", full_lattice_multiplier)
                expected = [op(f).coefficients for f in fields]
            for f, want in zip(fields, expected):
                got = op(f).coefficients
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, f.stacked)

    @pytest.mark.parametrize("chunk", [1000, 4097])
    @pytest.mark.parametrize("dimension, modes", [(1, 16384), (2, 200)])
    def test_any_chunk_size_gives_the_same_bytes(self, monkeypatch, chunk, dimension, modes):
        """Ragged chunks too: the last one short, and boundaries at no
        multiple of a vector width."""
        grid = LatticeGrid(dimension, modes)
        rng = np.random.default_rng(1)
        shape = (2,) + grid.spectral_shape
        f = SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), stacked=True)
        ops = diagonal_ops(grid)
        whole = {name: op(f).coefficients for name, op in ops.items()}
        monkeypatch.setattr(operators, "_SYMBOL_CHUNK", chunk)
        for name, op in ops.items():
            assert np.array_equal(op(f).coefficients.view(np.uint64), whole[name].view(np.uint64)), name

    def test_multiplier_sees_chunks_of_the_flattened_lattice(self):
        grid = LatticeGrid(2, 200)
        seen = []

        def m(lam):
            seen.append(lam)
            return np.ones_like(lam)

        f = random_spectral_field(grid, np.random.default_rng(0))
        out = apply_multiplier(f, m)
        assert [a.shape for a in seen] == [(2**14,), (2**14,), (40000 - 2**15,)]
        assert np.array_equal(np.concatenate(seen), grid.eigenvalue_array().ravel())
        assert not np.shares_memory(out.coefficients, f.coefficients)
        assert np.array_equal(out.coefficients, f.coefficients)

    # each op with the MiB it may hold beyond its result
    WORKING_SET_OPS = {
        "oscillating-t=1/2": (
            lambda f: oscillating_op(f, SymbolParams(0.5, 0.75), PROFILE, 0.5), 1.5
        ),
        "oscillating-t=0.01": (
            lambda f: oscillating_op(f, SymbolParams(0.5, 0.75), PROFILE, 0.01), 1.5
        ),
        "riesz": (lambda f: riesz_mean_op(f, 0.5, 0.5, 0.1), 1.25),
        "riesz-contour": (lambda f: riesz_mean_op(f, 1.0, 0.5, 1.0), 1.5),
    }

    @pytest.mark.parametrize("name", WORKING_SET_OPS)
    def test_working_set_is_bounded_by_the_chunk(self, name):
        """On a 512^2 lattice one call holds at most 1.5 MiB beyond its 4 MiB
        result; evaluated on the whole lattice at once the same calls held
        4.4, 7.6 and 18.3 MiB.  The Riesz mean is taken where every z sums
        the series, which updates one array in place: 1.16 MiB; with the
        contour branch too, at k = 1 and t = 1, whose 48-node sum also
        accumulates in place, it holds 1.40 MiB.  The cached |xi| array
        is built first, since it is not a temporary of the call."""
        op, bound_mib = self.WORKING_SET_OPS[name]
        grid = LatticeGrid(2, 512)
        f = random_spectral_field(grid, np.random.default_rng(0))
        grid.eigenvalue_array()
        tracemalloc.start()
        try:
            out = op(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.coefficients.nbytes <= bound_mib * 2**20, name


def chunk_starts(seen, lam):
    """Offsets into the flattened |xi| array of the chunks a multiplier saw."""
    base = lam.__array_interface__["data"][0]
    return [(a.__array_interface__["data"][0] - base) // lam.itemsize for a in seen]


def recording(m, seen):
    def wrapped(lam):
        seen.append(lam)
        return m(lam)

    return wrapped


class TestZeroChunks:
    """apply_multiplier evaluates the multiplier, in each chunk, only on the
    span from the first to the last nonzero coefficient, and writes +0
    outside it."""

    def test_band_limited_field_skips_its_empty_chunks(self, monkeypatch):
        """Band 32 on 256^2: chunks of 64 rows, of which the middle two (rows
        64..191, |xi_1| >= 64) hold no mode, and the last holds modes only
        from row 224 (xi_1 = -32) on.  The products equal the whole-lattice
        ones on the field's nonzero entries and in magnitude everywhere."""
        grid = LatticeGrid(2, 256)
        f = random_spectral_field(grid, np.random.default_rng(2), band_limit=32)
        lam = grid.eigenvalue_array().ravel()
        nonzero = f.coefficients != 0
        for name, op in diagonal_ops(grid).items():
            with monkeypatch.context() as patched:
                patched.setattr(operators, "apply_multiplier", full_lattice_multiplier)
                patched.setattr(hardy, "apply_multiplier", full_lattice_multiplier)
                want = op(f).coefficients
            seen = []
            with monkeypatch.context() as patched:
                chunked = operators.apply_multiplier
                patched.setattr(operators, "apply_multiplier", lambda g, m: chunked(g, recording(m, seen)))
                patched.setattr(hardy, "apply_multiplier", lambda g, m: chunked(g, recording(m, seen)))
                got = op(f).coefficients
            assert chunk_starts(seen, lam) == [0, 224 * 256], name
            assert not np.any(got[64:224]) and not np.any(np.signbit(got[64:224].view(float)))
            assert np.array_equal(got[nonzero].view(np.uint64), want[nonzero].view(np.uint64)), name
            assert np.array_equal(np.abs(got).view(np.uint64), np.abs(want).view(np.uint64)), name

    def test_a_nan_keeps_its_chunk_live(self):
        grid = LatticeGrid(2, 256)
        c = np.zeros(grid.spectral_shape, dtype=complex)
        c[100, 7] = complex(np.nan, 0.0)  # chunk 1, rows 64..127
        seen = []
        with np.errstate(invalid="ignore"):
            out = apply_multiplier(SpectralField(grid, c), recording(lambda lam: np.exp(-lam), seen))
        assert chunk_starts(seen, grid.eigenvalue_array().ravel()) == [100 * 256 + 7]
        assert [a.size for a in seen] == [1]
        assert np.isnan(out.coefficients[100, 7])
        assert np.count_nonzero(out.coefficients) == 1

    def test_stack_chunk_is_live_if_any_member_is(self):
        """Member 0 holds only chunk 0, member 1 only chunk 2: both chunks
        are multiplied for both members, so member 0's chunk 2 holds its
        zeros times the multiplier, signed as in the whole-lattice product,
        and chunks 1 and 3 are skipped for both."""
        grid = LatticeGrid(2, 256)
        rng = np.random.default_rng(6)
        c = np.zeros((2,) + grid.spectral_shape, dtype=complex)
        c[0, :64] = rng.standard_normal((64, 256)) + 1j * rng.standard_normal((64, 256))
        c[1, 128:192] = rng.standard_normal((64, 256)) + 1j * rng.standard_normal((64, 256))
        c[0, 128:192] = complex(-0.0, -0.0)  # zeros whose products are signed
        stack = SpectralField(grid, c, stacked=True)
        m = lambda lam: np.exp(-1e-3 * lam) * (1.0 - 2.0j)
        seen = []
        got = apply_multiplier(stack, recording(m, seen)).coefficients
        assert chunk_starts(seen, grid.eigenvalue_array().ravel()) == [0, 2 * 2**14]
        want = full_lattice_multiplier(stack, m).coefficients
        for rows in (slice(0, 64), slice(128, 192)):
            assert np.array_equal(got[:, rows].view(np.uint64), want[:, rows].view(np.uint64))
        assert np.any(np.signbit(got[0, 128:192].view(float)))
        for rows in (slice(64, 128), slice(192, 256)):
            assert not np.any(got[:, rows]) and not np.any(np.signbit(got[:, rows].view(float)))
        single = apply_multiplier(SpectralField(grid, c[0]), m).coefficients
        assert not np.any(np.signbit(single[128:192].view(float)))
        assert np.array_equal(np.abs(single), np.abs(got[0]))


class TestMultiplierSpans:
    """Within a chunk, the multiplier sees exactly the span from the first to
    the last nonzero coefficient of any member, at whatever offset."""

    def test_pure_mode_costs_one_point_per_time(self, monkeypatch):
        """A pure mode among 2^20: each time's Riesz mean evaluates its symbol
        on one point, not on the mode's whole chunk."""
        grid = LatticeGrid(1, 2**20)
        f = pure_mode(grid, (20001,))
        sizes = []

        def counted(k, z):
            sizes.append(np.size(z))
            return riesz_mean_symbol(k, z)

        monkeypatch.setattr(operators, "riesz_mean_symbol", counted)
        times = np.geomspace(1e-4, 1e-2, 4)
        for t in times:
            out = riesz_mean_op(f, 1.0, 0.5, float(t)).coefficients
            assert out[20001] == riesz_mean_symbol(1.0, t * 20001**0.5)
            assert np.count_nonzero(out) == 1 and not np.any(np.signbit(out.view(float)))
        assert sizes == [1] * len(times)

    @pytest.mark.parametrize(
        "dimension, modes, band, points",
        # eight whole chunks and, in the chunk that holds the band's edge
        # row, the one point xi = (band, 0, ...)
        [(2, 512, 128, 8 * 2**14 + 1), (3, 64, 16, 8 * 2**14 + 1)],
    )
    def test_band_limited_sweep_points(self, dimension, modes, band, points):
        grid = LatticeGrid(dimension, modes)
        f = random_spectral_field(grid, np.random.default_rng(0), band_limit=band)
        seen = []
        apply_multiplier(f, recording(np.ones_like, seen))
        assert sum(a.size for a in seen) == points

    def test_stack_members_share_the_union_span(self):
        """Member 0 is nonzero at 10 and 20, member 1 at 500 and 600, all in
        chunk 0: both get the products on 10..600, and +0 around it."""
        grid = LatticeGrid(1, 2**15)
        c = np.zeros((2, 2**15), dtype=complex)
        c[0, [10, 20]] = [1.5 - 2j, -0.5 + 1j]
        c[1, [500, 600]] = [-1j, 3.0]
        c[0, 300] = complex(-0.0, -0.0)  # a zero inside the span, signed in the product
        stack = SpectralField(grid, c, stacked=True)
        m = lambda lam: np.exp(-1e-3 * lam) * (-1.0 + 2.0j)
        seen = []
        got = apply_multiplier(stack, recording(m, seen)).coefficients
        assert chunk_starts(seen, grid.eigenvalue_array()) == [10]
        assert [a.size for a in seen] == [591]
        want = full_lattice_multiplier(stack, m).coefficients
        assert np.array_equal(got[:, 10:601].view(np.uint64), want[:, 10:601].view(np.uint64))
        assert np.any(np.signbit(got[0, 10:601].view(float)))
        assert not np.any(got[:, :10].view(np.uint64)) and not np.any(got[:, 601:].view(np.uint64))

    def test_nan_at_the_last_index_is_inside_and_signed_zeros_are_outside(self):
        """Chunk 0 holds -0 before its first nonzero, at 7, and a NaN at its
        last index; chunk 1 holds only -0."""
        grid = LatticeGrid(1, 2**15)
        c = np.full(2**15, complex(-0.0, -0.0))
        c[7] = 2.0 - 1j
        c[2**14 - 1] = complex(np.nan, np.nan)
        seen = []
        with np.errstate(invalid="ignore"):
            out = apply_multiplier(SpectralField(grid, c), recording(lambda lam: np.exp(-lam), seen)).coefficients
        assert chunk_starts(seen, grid.eigenvalue_array()) == [7]
        assert [a.size for a in seen] == [2**14 - 7]
        assert np.isnan(out[2**14 - 1])
        assert not np.any(out[:7].view(np.uint64)) and not np.any(out[2**14 :].view(np.uint64))

    # the multipliers of the four diagonal operators, at times where mu is
    # zero below |xi| = 500 and the Riesz means' z = t |xi|^(1/2) passes 8,
    # the series' limit, at |xi| = 1814
    T_RIESZ = 8.5 / math.sqrt(2048)
    MULTIPLIERS = {
        "mu": lambda lam: mu_symbol(SymbolParams(0.5, 0.75), PROFILE, 1 / 500, lam),
        "riesz-k=0.5": lambda lam: riesz_mean_symbol(0.5, TestMultiplierSpans.T_RIESZ * lam**0.5),
        "riesz-k=2.5": lambda lam: riesz_mean_symbol(2.5, TestMultiplierSpans.T_RIESZ * lam**0.5),
        "combination": lambda lam: combination_error_symbol(3, 1e-2 * lam**0.5),
        "heat": lambda lam: np.exp(-1e-6 * lam**2),
    }

    @pytest.mark.parametrize("name", MULTIPLIERS)
    def test_spans_at_odd_offsets_equal_the_full_lattice_oracle(self, monkeypatch, name):
        """Chunks of 64 points on a 4096-mode lattice, chunk j holding one
        span of length 1 + j % 33 at an odd offset, with a -0 inside where
        it is long enough: the products equal the whole-lattice ones bit
        for bit on every span, for a field and a stack, and are +0 outside."""
        monkeypatch.setattr(operators, "_SYMBOL_CHUNK", 64)
        grid = LatticeGrid(1, 4096)
        rng = np.random.default_rng(33)
        c = np.zeros((2, 4096), dtype=complex)
        inside = np.zeros(4096, dtype=bool)
        lengths = []
        for lo in range(0, 4096, 64):
            length = 1 + (lo // 64) % 33
            first = lo + 1 + 2 * int(rng.integers((64 - length) // 2))
            span = slice(first, first + length)
            c[:, span] = rng.standard_normal((2, length)) + 1j * rng.standard_normal((2, length))
            if length > 2:
                c[:, first + 1] = complex(-0.0, -0.0)
            inside[span] = True
            lengths.append(length)
        z = self.T_RIESZ * grid.eigenvalue_array()[inside] ** 0.5
        assert np.any(z <= 8.0) and np.any(z > 8.0)
        m = self.MULTIPLIERS[name]
        for f in (SpectralField(grid, c[0]), SpectralField(grid, c, stacked=True)):
            seen = []
            got = apply_multiplier(f, recording(m, seen)).coefficients
            want = full_lattice_multiplier(f, m).coefficients
            assert [a.size for a in seen] == lengths
            got, want = (a.view(np.uint64).reshape(*a.shape, 2) for a in (got, want))
            assert np.array_equal(got[..., inside, :], want[..., inside, :])
            assert not np.any(got[..., ~inside, :]) and not np.any(want[..., ~inside, :] << 1)


class TestKernelLatticeSum:
    def test_matches_operator_on_grid(self):
        """Circular convolution with the band-matched kernel reproduces the
        diagonal operator exactly."""
        grid = LatticeGrid(1, 64)
        f = random_spectral_field(grid, np.random.default_rng(7), band_limit=20)
        params = SymbolParams(0.5, 1.5)
        t = 0.3
        op_side = inverse_transform(oscillating_op(f, params, PROFILE, t)).samples
        fvals = inverse_transform(f).samples
        xs = grid.coords_1d
        cap = grid.modes_per_axis // 2 - 1
        kvals = np.array(
            [kernel_lattice_sum(params, PROFILE, t, float(x), M_cap=cap) for x in xs]
        )
        n = len(xs)
        conv = (
            np.array(
                [
                    np.sum(kvals[(j - np.arange(n)) % n] * fvals)
                    for j in range(n)
                ]
            )
            * grid.spacing
            / (2.0 * np.pi)
        )
        np.testing.assert_allclose(conv, op_side, atol=1e-8)

    def test_matches_continuum_transform(self):
        """For small t the lattice sum approximates t^-1 times the cosine
        transform of the symbol at x/t."""
        params = SymbolParams(0.5, 0.5)
        t = 0.5
        for u in (0.1, 0.3, 0.7):
            lattice = kernel_lattice_sum(
                params, PROFILE, t, u * t, eps=1e-7, M_cap=200_000
            )
            continuum = fourier_cosine_mu(params, PROFILE, u) / t
            assert abs(lattice - continuum) <= 0.02 * abs(continuum)

    def test_unregularized_needs_decay(self):
        with pytest.raises(ValueError):
            kernel_lattice_sum(SymbolParams(0.5, 0.5), PROFILE, 0.5, 0.1, eps=0.0)

    def test_eps_halving_stability(self):
        params = SymbolParams(0.5, 0.5)
        a = kernel_lattice_sum(params, PROFILE, 0.5, 0.2, eps=1e-7, M_cap=200_000)
        b = kernel_lattice_sum(params, PROFILE, 0.5, 0.2, eps=5e-8, M_cap=200_000)
        assert abs(a - b) <= 1e-3 * abs(a)

    @pytest.mark.parametrize("M_cap", [1, 2, 7, 1024, 1023, 1025, 3001])
    def test_against_mpmath(self, M_cap):
        """A 30-digit sum of the same float64 weights: one block, a partial
        last block, a perfect square and its neighbours, and a prime.  At
        t = 1.5 every weight is nonzero, m = 1 inside the cutoff band."""
        mpmath = pytest.importorskip("mpmath")
        params, t, eps = SymbolParams(0.5, 0.5), 1.5, 1e-7
        w = lattice_weights(params, PROFILE, t, eps, M_cap)
        scale = 2.0 * np.sum(np.abs(w))
        for x in (0.0, 1e-3, 0.3, np.pi, 2.0 * np.pi - 1e-3, -0.7):
            with mpmath.workdps(30):
                cosines = [mpmath.cos(m * mpmath.mpf(x)) for m in range(1, M_cap + 1)]
                re = 2 * mpmath.fsum(float(a) * c for a, c in zip(w.real, cosines))
                im = 2 * mpmath.fsum(float(a) * c for a, c in zip(w.imag, cosines))
            got = kernel_lattice_sum(params, PROFILE, t, x, eps=eps, M_cap=M_cap)
            assert abs(got - complex(re, im)) <= lattice_rounding_bound(M_cap, x) * scale

    @pytest.mark.parametrize("M_cap", [0, -3, 2**24 + 1, 10**12])
    def test_m_cap_outside_range_is_rejected_before_allocation(self, monkeypatch, M_cap):
        def build(*args):
            raise AssertionError("weights built for a rejected M_cap")

        monkeypatch.setattr(operators, "_lattice_weights", build)
        with pytest.raises(ValueError, match=r"M_cap must lie in \[1, 16777216\]"):
            kernel_lattice_sum(SymbolParams(0.5, 0.5), PROFILE, 0.5, 0.1, eps=1e-7, M_cap=M_cap)


class TestLatticeWeights:
    """kernel_lattice_sum reuses its x-independent factors across calls."""

    T = 0.5
    XS = [0.003, 0.05, 0.2, 0.5, 1.7]

    @pytest.mark.parametrize(
        "eps, pair",
        [
            (1e-7, (SymbolParams(0.5, 0.5), SymbolParams(0.5, 0.75))),
            (1e-10, (SymbolParams(0.5, 0.5), SymbolParams(0.25, 0.4))),
            (0.0, (SymbolParams(0.5, 1.5), SymbolParams(0.25, 1.25))),
        ],
    )
    def test_matches_direct_sum_exactly(self, monkeypatch, eps, pair):
        """Bit-identical to a build into a fresh slot while the slot is rebuilt
        by alternating M_cap and params, and reused within each x sweep; within
        twice the rounding bound of the cosine formula."""
        monkeypatch.setattr(operators, "_lattice_slot", {})
        p, q = pair
        for params, cap in [(p, 3000), (p, 3000), (p, 5000), (q, 3000), (q, 5000), (p, 3000)]:
            scale = 2.0 * np.sum(np.abs(lattice_weights(params, PROFILE, self.T, eps, cap)))
            for x in self.XS:
                got = kernel_lattice_sum(params, PROFILE, self.T, x, eps=eps, M_cap=cap)
                with monkeypatch.context() as fresh:
                    fresh.setattr(operators, "_lattice_slot", {})
                    assert got == kernel_lattice_sum(params, PROFILE, self.T, x, eps=eps, M_cap=cap)
                direct = direct_lattice_sum(params, PROFILE, self.T, x, eps, cap)
                assert abs(got - direct) <= 2.0 * lattice_rounding_bound(cap, x) * scale

    def test_slot_holds_one_read_only_entry(self, monkeypatch):
        monkeypatch.setattr(operators, "_lattice_slot", {})
        params = SymbolParams(0.5, 1.5)
        kernel_lattice_sum(params, PROFILE, self.T, 0.1, eps=1e-7, M_cap=1000)
        kernel_lattice_sum(params, PROFILE, self.T, 0.1, eps=0.0, M_cap=2000)
        assert len(operators._lattice_slot) == 1
        (key, weights), = operators._lattice_slot.items()
        assert key == (params, PROFILE, self.T, 0.0, 2000)
        # B = ceil(sqrt(2000)) = 45 columns, A = ceil(2000/45) = 45 blocks
        assert weights.shape == (2 * 45, 45)
        flat = weights.reshape(2, -1)
        undamped = mu_symbol(params, PROFILE, self.T, np.arange(1, 2001, dtype=float))
        assert np.array_equal(flat[0, :2000], undamped.real)
        assert np.array_equal(flat[1, :2000], undamped.imag)
        assert not np.any(flat[:, 2000:])
        with pytest.raises(ValueError):
            weights[0, 0] = 0.0
        kernel_lattice_sum(params, PROFILE, self.T, 0.1, eps=1e-7, M_cap=1000)
        (weights,) = operators._lattice_slot.values()
        damped = lattice_weights(params, PROFILE, self.T, 1e-7, 1000)
        assert np.array_equal(weights.reshape(2, -1)[:, :1000], [damped.real, damped.imag])
        with pytest.raises(ValueError):
            weights[0, 0] = 0.0

    @pytest.mark.parametrize("eps", [1e-7, 0.0])
    def test_chunked_build_equals_one_chunk(self, monkeypatch, eps):
        """The weights are built in chunks of m; any chunk size, whole or
        ragged, gives the same matrix bit for bit."""
        params = SymbolParams(0.5, 1.5)
        monkeypatch.setattr(operators, "_lattice_slot", {})
        whole = operators._lattice_weights(params, PROFILE, self.T, eps, 2000)
        for chunk in (1, 7, 500, 1999):
            monkeypatch.setattr(operators, "_lattice_slot", {})
            monkeypatch.setattr(operators, "_SYMBOL_CHUNK", chunk)
            chunked = operators._lattice_weights(params, PROFILE, self.T, eps, 2000)
            assert np.array_equal(chunked.view(np.uint64), whole.view(np.uint64))

    def test_sweep_builds_the_symbol_once(self, monkeypatch):
        monkeypatch.setattr(operators, "_lattice_slot", {})
        calls = []

        def counted(*args):
            calls.append(args)
            return mu_symbol(*args)

        monkeypatch.setattr(operators, "mu_symbol", counted)
        params = SymbolParams(0.5, 0.5)
        for x in np.geomspace(0.005, 1.0, 20) * self.T:
            kernel_lattice_sum(params, PROFILE, self.T, float(x), eps=1e-7, M_cap=4000)
        assert len(calls) == 1


class TestVerifyKernelDecay:
    def test_bounded_branch(self):
        """beta = 0.75 gives excess 0.5 and predicted exponent 0: the kernel is
        predicted bounded on the window."""
        params = SymbolParams(0.5, 0.75)
        t = 0.5
        radii = np.geomspace(0.05, 1.0, 12) * t
        report = verify_kernel_decay(params, PROFILE, t, radii)
        assert [c["name"] for c in report["checks"]] == ["bounded"]
        assert report["pass"]

    def test_m_cap_stability(self):
        params = SymbolParams(0.5, 0.5)
        t = 0.5
        radii = np.geomspace(0.05, 1.0, 10) * t
        a = verify_kernel_decay(params, PROFILE, t, radii, M_cap=200_000)
        b = verify_kernel_decay(params, PROFILE, t, radii, M_cap=400_000)
        assert abs(a["fitted"].slope - b["fitted"].slope) < 0.05

    def test_window_validation(self):
        params = SymbolParams(0.5, 0.75)
        with pytest.raises(ValueError):
            verify_kernel_decay(params, PROFILE, 0.5, [1.0])  # x/t = 2 > 1


class TestKernelNearDiagonal:
    """Evidence behind criterion 4: by Poisson summation t * kernel(x, t) is
    FC(x/t) = fourier_cosine_mu(x/t) up to images FC(|x - 2 pi j|/t), j != 0,
    which are negligible at t = 1/2."""

    T = 0.5

    @pytest.mark.parametrize("u", [0.01, 0.05])
    def test_lattice_sum_matches_quadrature(self, u):
        params = SymbolParams(0.5, 0.5)
        lattice = self.T * kernel_lattice_sum(
            params, PROFILE, self.T, u * self.T, eps=1e-10, M_cap=400_000
        )
        continuum = fourier_cosine_mu(params, PROFILE, u)
        assert abs(lattice - continuum) <= 0.01 * abs(continuum)

    def test_pre_asymptotic_window_fits_the_same_slope(self):
        """On x/t in [0.05, 1] quadrature and lattice sum fit the same slope,
        and it is not the x/t -> 0 law: the window, not the kernel, is off."""
        params = SymbolParams(0.5, 0.5)
        ratios = np.geomspace(0.05, 1.0, 12)
        quad = fit_decay_exponent(
            [(u, abs(fourier_cosine_mu(params, PROFILE, float(u)))) for u in ratios]
        )
        lattice = verify_kernel_decay(params, PROFILE, self.T, ratios * self.T)
        assert abs(quad.slope - lattice["fitted"].slope) <= 0.05
        assert abs(quad.slope - lattice["predicted"]) > 0.3

    def test_default_eps_over_damps_the_near_window(self):
        """At eps = 1e-7, e^{-eps m*^2} = e^{-40} at x/t = 0.005: the fit on the
        near-diagonal window fails, so that window does not pass by itself."""
        params = SymbolParams(0.5, 0.5)
        radii = np.geomspace(0.005, 0.05, 8) * self.T
        rep = verify_kernel_decay(params, PROFILE, self.T, radii, eps=1e-7, M_cap=400_000)
        assert not rep["pass"]


class TestRieszSymbolDecay:
    def test_order_one_envelope(self):
        report = riesz_symbol_decay_check(1.0, 0.5, 100.0, 10_000.0)
        assert report["fitted"].slope == pytest.approx(-1.0, abs=0.15)
        assert report["pass"]

    def test_fractional_order(self):
        report = riesz_symbol_decay_check(0.5, 0.5, 100.0, 10_000.0)
        assert report["fitted"].slope == pytest.approx(-0.5, abs=0.15)
        assert report["pass"]

    @pytest.mark.parametrize("k, z_hi", [(1.0, 1000.0), (0.5, 1000.0), (2.0, 10_000.0)])
    def test_one_symbol_call_equals_the_window_loop(self, monkeypatch, k, z_hi):
        """All windows go through one riesz_mean_symbol call, and the report
        equals that of one call per window bit for bit."""
        edges = np.geomspace(100.0, z_hi, 41)
        centers, peaks = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            hi = max(hi, lo + 2.5 * np.pi)
            centers.append(np.sqrt(lo * hi))
            zs = np.linspace(lo, hi, 48)
            peaks.append(np.max(np.abs(riesz_mean_symbol(k, zs))))
        fit = fit_decay_exponent(list(zip(centers, peaks)))
        predicted = -min(k, 1.0)
        passed = bool(abs(fit.slope - predicted) <= 0.15)
        expected = {"fitted": fit, "samples": list(zip(centers, peaks)),
                    "predicted": predicted, "pass": passed,
                    "checks": [{"name": "slope", "value": abs(fit.slope - predicted),
                                "relation": "<=", "bound": 0.15, "pass": passed}]}
        calls = []

        def counted(*args):
            calls.append(args)
            return riesz_mean_symbol(*args)

        monkeypatch.setattr(operators, "riesz_mean_symbol", counted)
        assert riesz_symbol_decay_check(k, 0.5, 100.0, z_hi) == expected
        assert len(calls) == 1

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            riesz_symbol_decay_check(1.0, 0.5, 5.0, 50.0)

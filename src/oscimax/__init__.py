"""Spectral numerics for oscillatory multipliers, fractional Schrodinger
propagators and Riesz means on flat tori, with decay-law experiments."""

from .torus import (
    LatticeGrid,
    SpectralField,
    GridField,
    eigenvalue,
    forward_transform,
    inverse_transform,
    grid_norm,
    pure_mode,
    random_spectral_field,
)
from .symbols import (
    SymbolParams,
    CutoffProfile,
    phi_cutoff,
    dyadic_bump,
    mu_symbol,
    riesz_mean_symbol,
)
from .quadrature import (
    DecayFit,
    ConvergenceError,
    fourier_cosine_mu_derivative,
    fourier_cosine_mu_dyadic,
    dyadic_tail_order,
    dyadic_band_ratio,
    fit_decay_exponent,
    verify_small_tau_decay,
    small_tau_exponent,
)
from .operators import (
    TimeGrid,
    apply_multiplier,
    oscillating_op,
    riesz_mean_op,
    maximal_over_times,
    kernel_lattice_sum,
    verify_kernel_decay,
    riesz_symbol_decay_check,
)
from .hardy import (
    AtomSpec,
    Atom,
    make_regular_atom,
    heat_semigroup,
    hp_quasinorm_estimate,
    weak_lp_quasinorm,
    moment_integrals,
)
from .extrapolation import (
    combination_error_symbol,
    combination_apply,
    combination_rate_experiment,
    atom_uniformity_experiment,
)

__version__ = "0.1.0"

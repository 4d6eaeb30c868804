"""Reference functions that only the tests use.

Each was a public library function that no runner and no library function
calls any more; the tests keep them as independent forms to compare with.
"""

import numpy as np

from oscimax import operators
from oscimax.quadrature import fourier_cosine_mu_derivative
from oscimax.symbols import phi_cutoff


def fourier_cosine_mu(params, profile, tau):
    """Cosine transform 2 * integral_0^inf lam^-beta e^{i lam^alpha} cutoff cos(tau lam)."""
    return fourier_cosine_mu_derivative(params, profile, tau, 0)


def schrodinger_propagate(f, alpha, s):
    """Unimodular diagonal propagator with phase s * |xi|^alpha per mode."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    # looked up on the module, as the library's operators do, so that a test
    # that patches operators.apply_multiplier reaches this one too
    return operators.apply_multiplier(f, lambda lam: np.exp(1j * s * lam**alpha))


def psi0(profile, lam):
    """Low bump: 1 for |lam| <= 1/2, 0 for |lam| >= 1."""
    return 1.0 - phi_cutoff(profile, 2.0 * np.asarray(lam, dtype=float))

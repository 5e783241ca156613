"""Angular discretization of the unit circle and Henyey-Greenstein scattering.

The direction space is parameterized by theta in [0, 2*pi), partitioned into
N_a uniform angular elements with piecewise-constant approximation.
N_a must be divisible by 4 so that, for axis-aligned face normals, every
angular element is entirely inflow or entirely outflow.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, roots_legendre

TWO_PI = 2.0 * np.pi

# Gauss points per angular element and per pair when integrating the phase
# kernel; adequate for g_asym <= 0.9 at N_a = 28.
_KERNEL_QUAD_POINTS = 16


@dataclass(frozen=True)
class AngularGrid:
    """Uniform partition of [0, 2*pi) into n_elems angular elements."""

    n_elems: int
    boundaries: np.ndarray  # (n_elems + 1,)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.boundaries[:-1] + self.boundaries[1:])

    @property
    def cos_int(self) -> np.ndarray:
        """Per-element integral of cos(theta)."""
        return np.sin(self.boundaries[1:]) - np.sin(self.boundaries[:-1])

    @property
    def sin_int(self) -> np.ndarray:
        """Per-element integral of sin(theta)."""
        return np.cos(self.boundaries[:-1]) - np.cos(self.boundaries[1:])

    @property
    def mean_weights(self) -> np.ndarray:
        """Angular-average weights (sum to 1)."""
        return self.widths / TWO_PI

    def normal_flux_int(self, normal) -> np.ndarray:
        """Per-element integral of s . n for a face normal n = (nx, ny)."""
        nx, ny = normal
        return nx * self.cos_int + ny * self.sin_int

    def outflow_mask(self, normal) -> np.ndarray:
        """True where the angular element is outflow for the given face normal.

        Each element must have a single sign of s . n over its extent; the
        uniform divisible-by-4 partition guarantees this for axis-aligned
        normals. A sign change inside an element raises.
        """
        nx, ny = normal
        lo = nx * np.cos(self.boundaries[:-1]) + ny * np.sin(self.boundaries[:-1])
        hi = nx * np.cos(self.boundaries[1:]) + ny * np.sin(self.boundaries[1:])
        flux = self.normal_flux_int(normal)
        straddle = (np.minimum(lo, hi) < -1e-12) & (np.maximum(lo, hi) > 1e-12)
        if np.any(straddle & (np.abs(flux) > 0)):
            raise ValueError(
                f"angular element straddles the inflow/outflow boundary of normal {normal}"
            )
        return flux > 0.0


@dataclass(frozen=True)
class PhaseKernel:
    """Discretized Henyey-Greenstein scattering kernel on an AngularGrid.

    kernel[a, a'] is the double integral of p(s, s') over elements a x a',
    row-rescaled so that row a sums exactly to the element measure; transfer
    is the same matrix with rows divided by the element measures, so its
    rows sum to 1 (the discrete analogue of the unit-integral normalization).
    """

    g_asym: float
    norm_const: float
    kernel: np.ndarray
    transfer: np.ndarray


def build_angular_grid(n_a: int) -> AngularGrid:
    """Uniform angular partition with element count n_a (divisible by 4)."""
    if n_a < 4 or n_a % 4 != 0:
        raise ValueError(
            f"angular element count must be >= 4 and divisible by 4, got {n_a} "
            "(an element would straddle a face's inflow/outflow boundary)"
        )
    boundaries = TWO_PI * np.arange(n_a + 1) / n_a
    return AngularGrid(n_elems=n_a, boundaries=boundaries)


def hg_normalization(g_asym: float) -> float:
    """Constant c making the circle integral of the HG kernel equal 1.

    With the 3/2-power kernel (1-g^2) / (c (1+g^2-2g cos a)^{3/2}), the
    integral over [0, 2*pi) reduces to a complete elliptic integral:
    c = 4 E(4g/(1+g)^2) / (1-g). For g = 0 this is 2*pi.
    """
    if not 0.0 <= g_asym < 1.0:
        raise ValueError(f"asymmetry parameter must be in [0, 1), got {g_asym}")
    if g_asym == 0.0:
        return TWO_PI
    return 4.0 / (1.0 - g_asym) * ellipe(4.0 * g_asym / (1.0 + g_asym) ** 2)


def hg_phase(g_asym: float, angle, norm_const: float | None = None):
    """HG phase function value at scattering angle(s), normalized over the circle."""
    c = hg_normalization(g_asym) if norm_const is None else norm_const
    g = g_asym
    return (1.0 - g * g) / (c * (1.0 + g * g - 2.0 * g * np.cos(angle)) ** 1.5)


def scattering_kernel_matrix(grid: AngularGrid, g_asym: float) -> PhaseKernel:
    """Tested scattering kernel matrix over all angular element pairs.

    Entries are computed with a tensorized Gauss rule per element pair,
    then each row is rescaled so the discrete redistribution conserves the
    scattered energy exactly (rows of the transfer matrix sum to 1).
    """
    c = hg_normalization(g_asym)
    gx, gw = roots_legendre(_KERNEL_QUAD_POINTS)
    widths = grid.widths
    lo = grid.boundaries[:-1]
    # Quadrature nodes/weights for every element, shape (n_elems, n_q).
    theta = lo[:, None] + 0.5 * widths[:, None] * (gx[None, :] + 1.0)
    wq = 0.5 * widths[:, None] * gw[None, :]
    diff = theta[:, None, :, None] - theta[None, :, None, :]
    vals = hg_phase(g_asym, diff, norm_const=c)
    kernel = np.einsum("aq,br,abqr->ab", wq, wq, vals)
    transfer = kernel / kernel.sum(axis=1, keepdims=True)
    kernel = transfer * widths[:, None]
    return PhaseKernel(g_asym=g_asym, norm_const=c, kernel=kernel, transfer=transfer)

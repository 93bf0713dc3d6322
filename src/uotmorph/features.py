"""Per-subject feature images from transport solutions.

The allocation image is oriented template-minus-subject: mass the solver
removed from the template (tissue the subject lacks) counts positive, mass
it added counts negative.  In the local limit (allocation far cheaper than
any transport) this reduces to the voxel-wise difference template - subject,
the classical VBM/TBM feature.  The transport-cost image is outgoing
transported cost minus incoming transported cost per voxel, which sums to
zero over the grid.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import convolve1d

from .grid import GridDomain
from .solver import CostSpec, TransportSolution
from .solver.specs import NET_SIGN, voxel_costs


def allocation_image(sol: TransportSolution, domain: GridDomain) -> np.ndarray:
    """Signed allocation field, template-minus-subject orientation."""
    field = np.zeros(domain.size)
    kind, vox, units = sol.allocation.T
    np.add.at(field, vox, -NET_SIGN[kind] * (units * sol.mass_per_unit))
    return field.reshape(domain.dims)


def transport_cost_image(
    sol: TransportSolution, cost: CostSpec, domain: GridDomain
) -> np.ndarray:
    """Outgoing minus incoming transported cost per voxel."""
    field = np.zeros(domain.size)
    src, tgt, units = sol.plan_arcs.T
    moved = (units * sol.mass_per_unit) * voxel_costs(domain, src, tgt)
    np.add.at(field, src, moved)
    np.subtract.at(field, tgt, moved)
    return field.reshape(domain.dims)


def smooth(field: np.ndarray, sigma: float, truncation_radius: int | None = None):
    """Truncated Gaussian smoothing with per-voxel boundary renormalization.

    The kernel is exp(-|d|^2 / (2 sigma^2)) on the cube of half-width
    ``truncation_radius`` voxels (default ceil(3 sigma)); at each voxel the
    kernel mass falling outside the domain is renormalized away, so
    constant fields pass through unchanged. sigma=0 is the identity.
    """
    field = np.asarray(field, dtype=np.float64)
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return field.copy()
    radius = int(np.ceil(3 * sigma)) if truncation_radius is None else int(
        truncation_radius
    )
    if radius == 0:
        return field.copy()
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-(offsets.astype(np.float64) ** 2) / (2 * sigma * sigma))

    num = field
    den = np.ones_like(field)
    for axis in range(field.ndim):
        num = convolve1d(num, kernel, axis=axis, mode="constant", cval=0.0)
        den = convolve1d(den, kernel, axis=axis, mode="constant", cval=0.0)
    return num / den


def extract_features(
    sol: TransportSolution,
    cost: CostSpec,
    domain: GridDomain,
    sigma: float = 0.0,
    truncation_radius: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(allocation, transport_cost)`` images, smoothed when ``sigma`` > 0."""
    images = (allocation_image(sol, domain), transport_cost_image(sol, cost, domain))
    if sigma > 0:
        images = tuple(smooth(img, sigma, truncation_radius) for img in images)
    return images

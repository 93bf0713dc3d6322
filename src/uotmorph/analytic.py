"""Closed-form asymptotic correlations for the two-population tissue model.

A subject is healthy with probability 1-p (indicator H=1) and expresses
tissue independently at each of n locations with probability t_h (healthy)
or t_p (pathological).  The VBM feature at a location is the tissue
indicator itself; its population correlation with H has a closed form free
of n.  The allocation feature takes values in {-t_h, 0, 1-t_h}: against a
template holding t_h everywhere, a subject with k tissue locations removes
mass with probability (t_h*n - k)/(n*t_h) when k is below the template
total and allocates with probability (k - t_h*n)/(n*(1-t_h)) above it,
with k binomial.  The k=0 term is included in the removal sum so the
distribution is total-probability consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError


@dataclass(frozen=True)
class PopulationModel:
    p: float  # probability of pathology, P(H=0)
    t_h: float  # tissue probability, healthy
    t_p: float  # tissue probability, pathological
    n: int  # number of tissue locations

    def __post_init__(self):
        for name in ("p", "t_h", "t_p"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ConfigError(f"{name} must lie strictly in (0, 1), got {v}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")


def vbm_correlation(m: PopulationModel) -> float:
    """Population correlation of the per-voxel tissue indicator with health.

    cov(T, H) = p(1-p)(t_h - t_p); divided by the standard deviations of
    the Bernoulli mixture and of H.  Independent of n.
    """
    q = (1 - m.p) * m.t_h + m.p * m.t_p
    cov = m.p * (1 - m.p) * (m.t_h - m.t_p)
    sd = math.sqrt(m.p * (1 - m.p) * q * (1 - q))
    return cov / sd


def _binom_pmf(n: int, t: float) -> np.ndarray:
    k = np.arange(n + 1)
    logs = (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(t)
        + (n - k) * math.log(1 - t)
    )
    return np.exp(logs)


def allocation_distribution(m: PopulationModel, healthy: bool):
    """Distribution of the allocation feature over {-t_h, 0, 1-t_h}.

    Returns (atoms, probabilities) arrays of length 3.
    """
    t = m.t_h if healthy else m.t_p
    n = m.n
    pmf = _binom_pmf(n, t)
    k = np.arange(n + 1)
    thn = m.t_h * n

    lo = int(math.floor(thn))
    hi = int(math.ceil(thn))
    remove_weight = (thn - k[: lo + 1]) / (n * m.t_h)
    p_remove = float(np.dot(pmf[: lo + 1], remove_weight))
    add_weight = (k[hi:] - thn) / (n * (1 - m.t_h))
    p_add = float(np.dot(pmf[hi:], add_weight))
    p_zero = 1.0 - p_remove - p_add
    atoms = np.array([-m.t_h, 0.0, 1.0 - m.t_h])
    probs = np.array([p_remove, p_zero, p_add])
    return atoms, probs


def otf_correlation(m: PopulationModel) -> float:
    """Exact correlation of the allocation feature with the health indicator."""
    atoms, probs_h = allocation_distribution(m, healthy=True)
    _, probs_p = allocation_distribution(m, healthy=False)
    ph = 1 - m.p  # P(H=1)

    e_a_h = float(atoms @ probs_h)
    e_a_p = float(atoms @ probs_p)
    e_a2_h = float((atoms**2) @ probs_h)
    e_a2_p = float((atoms**2) @ probs_p)

    e_a = ph * e_a_h + m.p * e_a_p
    e_a2 = ph * e_a2_h + m.p * e_a2_p
    var_a = e_a2 - e_a * e_a
    var_h = ph * m.p
    cov = ph * e_a_h - e_a * ph
    if var_a <= 0:
        return 0.0
    return cov / math.sqrt(var_a * var_h)


def correlation_curves(t_h: float, t_p_list, p: float, n_max: int):
    """Correlation-vs-dispersion table: rows (n, t_p, r_vbm, r_otf).

    An empty table is a ``ConfigError``: ``n_max`` below 1 or no ``t_p``.
    """
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    if not t_p_list:
        raise ConfigError("t_p_list must not be empty")
    rows = []
    for t_p in t_p_list:
        for n in range(1, n_max + 1):
            model = PopulationModel(p=p, t_h=t_h, t_p=t_p, n=n)
            rows.append((n, t_p, vbm_correlation(model), otf_correlation(model)))
    return rows


def write_curves_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,t_p,r_vbm,r_otf\n")
        for n, t_p, r_vbm, r_otf in rows:
            fh.write(f"{n},{t_p!r},{r_vbm!r},{r_otf!r}\n")

"""Plans pinned to SOLVER_VERSION.

Cached transport results are keyed by ``SOLVER_VERSION``, so any change to
the network build, the starting basis, the pivot rule or the multiscale
refinement that can alter a plan must raise it.  This test holds, per
version, a digest of the plans of a fixed seeded set of solves; a plan that
changes while the version stays the same fails here.

The inputs are generated here from fixed seeds.  Most grid spacings and
origins are exact binary fractions, so their arc costs are exact and do not
depend on the order of summation.  The non-binary cases have costs that
round; the order of their sum is pinned in ``test_solver.py``, since an ulp
in one arc cost seldom moves a plan or its objective.
"""

import hashlib
import math

import numpy as np

from uotmorph.grid import GridDomain, GridMeasure
from uotmorph.solver import (
    SOLVER_VERSION,
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    solve_multiscale,
    solve_unbalanced,
)

COST = CostSpec()
QUANT = QuantizationSpec(units=10**6)

# SOLVER_VERSION -> case -> sha256 over the case's solutions, in order
PLAN_DIGESTS = {
    4: {
        "blobs 12x12 lam=0.0":
            "0e2c749badd8cf760c8f0b9b92b972ce7c01994a8d96d30b14a1be9560813814",
        "blobs 12x12 lam=10.0":
            "15cbe09ae47eb7be0a5d9336320295b268c0642abc3cd33a391a3c688622007a",
        "blobs 12x12 lam=100.0":
            "a2e50dec2f278521a127e37c952a74e7f061722ca4cda4900a51b5c1e68126b6",
        "blobs 12x12 lam=2000.0":
            "9204ffa31b3bf8155386c2f472f556176f23be71bf87c19c4c459bf9a6bd61fe",
        "multiscale 5x5x5 lam=0.0":
            "8e1bafd12ee6baeb0a34abbf28410802a91ff0e99fdaa866d0b0c9910ca234b4",
        "multiscale 5x5x5 lam=10.0":
            "1b1452ee0fbbffa3bedbd97a89e88bdc8d093cdc31916f644b840fe5fb3bc861",
        "multiscale 5x5x5 lam=2000.0":
            "13b9ad90a4dd5e50c55bce8f747dedd848895862cd7a6b1a93d090095f2d21f2",
        "anisotropic 7x5x3 lam=0.0":
            "0adf35151fdb302163f785666b71fc488820a4d11ec81c32a1f997c047f99206",
        "anisotropic 7x5x3 lam=2.5":
            "11e7b590615b325de3388bb35911926e5935fbcc36bdca15b2a7da969eddff91",
        "anisotropic 7x5x3 lam=40.0":
            "7ed6b6f240d49bc416e4fad945d7e0029762d210ae4fd209faceabeb54b5cf2b",
        "anisotropic 7x5x3 permuted lam=inf":
            "60a275dca4224b8549272d57abc7be09bcefa7faac0af4416bc0c61fb65c25e0",
    },
    5: {
        "blobs 12x12 lam=0.0":
            "0e2c749badd8cf760c8f0b9b92b972ce7c01994a8d96d30b14a1be9560813814",
        "blobs 12x12 lam=10.0":
            "15cbe09ae47eb7be0a5d9336320295b268c0642abc3cd33a391a3c688622007a",
        "blobs 12x12 lam=100.0":
            "a2e50dec2f278521a127e37c952a74e7f061722ca4cda4900a51b5c1e68126b6",
        "blobs 12x12 lam=2000.0":
            "9204ffa31b3bf8155386c2f472f556176f23be71bf87c19c4c459bf9a6bd61fe",
        "multiscale 5x5x5 lam=0.0":
            "8e1bafd12ee6baeb0a34abbf28410802a91ff0e99fdaa866d0b0c9910ca234b4",
        "multiscale 5x5x5 lam=10.0":
            "1b1452ee0fbbffa3bedbd97a89e88bdc8d093cdc31916f644b840fe5fb3bc861",
        "multiscale 5x5x5 lam=2000.0":
            "13b9ad90a4dd5e50c55bce8f747dedd848895862cd7a6b1a93d090095f2d21f2",
        "multiscale 5x5x5 balanced lam=inf":
            "b56685a73101fb44bd964c0345d2a2ff308cf436873f3a594ee9eea4d357dcc7",
        "anisotropic 7x5x3 lam=0.0":
            "0adf35151fdb302163f785666b71fc488820a4d11ec81c32a1f997c047f99206",
        "anisotropic 7x5x3 lam=2.5":
            "11e7b590615b325de3388bb35911926e5935fbcc36bdca15b2a7da969eddff91",
        "anisotropic 7x5x3 lam=40.0":
            "7ed6b6f240d49bc416e4fad945d7e0029762d210ae4fd209faceabeb54b5cf2b",
        "anisotropic 7x5x3 permuted lam=inf":
            "0f156623f2c51b4cf11763cce51f01fbc5610befd615768162732bcdf06613e7",
        "non-binary 6x5x4 lam=0.0":
            "f607e01a188bce551f62a6cbf9f88f709eb88567c01ef830d500d5d65ad95302",
        "non-binary 6x5x4 lam=0.7":
            "e22ef81e7f00986ce283516ef1c71dab1659e5a3e92797a2f6ba3973b6882078",
        "non-binary 6x5x4 lam=3.1":
            "3328f0118f67bd67278a9819f0dc948f813036215b3b475cc4d58d43c4acc63b",
        "non-binary 6x5x4 lam=40.0":
            "3403bf13e7afa4141852136d010c13ddae26dd630d4171014ce0646378a12a8f",
    },
}


def _blob_field(rng, dims):
    field = np.full(dims, 0.05)
    axes = np.meshgrid(*(np.arange(d, dtype=float) for d in dims), indexing="ij")
    scale = min(dims) / 32
    for _ in range(3):
        centre = rng.random(len(dims)) * np.asarray(dims)
        width = (2 + rng.random() * 6) * scale
        field += np.exp(-sum((a - c) ** 2 for a, c in zip(axes, centre))
                        / (2 * width * width))
    return field


def _blob_pairs(seed, count, dims):
    nd = len(dims)
    dom = GridDomain(dims=dims, spacing=(1.0,) * nd, origin=(0.0,) * nd)
    rng = np.random.default_rng(seed)
    return [(GridMeasure(dom, _blob_field(rng, dims)),
             GridMeasure(dom, _blob_field(rng, dims))) for _ in range(count)]


def _digest(solutions):
    h = hashlib.sha256()
    for sol in solutions:
        h.update(np.ascontiguousarray(sol.plan_arcs, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(sol.allocation, dtype="<i8").tobytes())
        h.update(repr(sol.objective).encode())
    return h.hexdigest()


def _cases():
    """case name -> list of solutions, in a fixed order."""
    cases = {}
    pairs = _blob_pairs(2024, 8, (12, 12))
    for lam in (0.0, 10.0, 100.0, 2000.0):
        cases[f"blobs 12x12 lam={lam!r}"] = [
            solve_unbalanced(mu, nu, COST, AllocationSpec(lam=lam), QUANT)
            for mu, nu in pairs
        ]
    pairs = _blob_pairs(2025, 4, (5, 5, 5))
    for lam in (0.0, 10.0, 2000.0):
        cases[f"multiscale 5x5x5 lam={lam!r}"] = [
            solve_multiscale(mu, nu, COST, AllocationSpec(lam=lam), QUANT,
                             coarsen_threshold=20)
            for mu, nu in pairs
        ]
    balanced = [(mu, GridMeasure(nu.domain, nu.values * (mu.total_mass / nu.total_mass)))
                for mu, nu in pairs]
    cases["multiscale 5x5x5 balanced lam=inf"] = [
        solve_multiscale(mu, nu, COST, AllocationSpec(lam=math.inf), QUANT,
                         coarsen_threshold=20)
        for mu, nu in balanced
    ]
    dims = (7, 5, 3)
    dom = GridDomain(dims=dims, spacing=(0.5, 2.0, 1.0), origin=(1.0, -3.0, 0.5))
    rng = np.random.default_rng(2026)
    w = rng.random(dims) * (rng.random(dims) < 0.7)
    z = rng.random(dims) * (rng.random(dims) < 0.7)
    mu, nu = GridMeasure(dom, w), GridMeasure(dom, z)
    for lam in (0.0, 2.5, 40.0):
        cases[f"anisotropic 7x5x3 lam={lam!r}"] = [
            solve_unbalanced(mu, nu, COST, AllocationSpec(lam=lam), QUANT)
        ]
    perm = GridMeasure(dom, w.ravel()[rng.permutation(w.size)].reshape(dims))
    cases["anisotropic 7x5x3 permuted lam=inf"] = [
        solve_unbalanced(mu, perm, COST, AllocationSpec(lam=math.inf), QUANT)
    ]
    # non-binary spacing and origin: arc costs round
    dims = (6, 5, 4)
    dom = GridDomain(dims=dims, spacing=(0.3, 1.7, 0.9), origin=(0.1, -2.3, 1.45))
    rng = np.random.default_rng(2027)
    mu, nu = (GridMeasure(dom, rng.random(dims) * (rng.random(dims) < 0.8))
              for _ in range(2))
    for lam in (0.0, 0.7, 3.1, 40.0):
        cases[f"non-binary 6x5x4 lam={lam!r}"] = [
            solve_unbalanced(mu, nu, COST, AllocationSpec(lam=lam), QUANT),
            solve_multiscale(mu, nu, COST, AllocationSpec(lam=lam), QUANT,
                             coarsen_threshold=20),
        ]
    return cases


def test_plans_pinned_to_solver_version():
    digests = {name: _digest(sols) for name, sols in _cases().items()}
    pinned = PLAN_DIGESTS.get(SOLVER_VERSION)
    assert pinned is not None, (
        f"no plan digests pinned for SOLVER_VERSION {SOLVER_VERSION}; "
        f"add PLAN_DIGESTS[{SOLVER_VERSION}] = {digests!r}"
    )
    changed = sorted(name for name in digests if digests[name] != pinned.get(name))
    assert not changed, (
        f"plans changed without a SOLVER_VERSION bump: {changed}.  Any change "
        "that can alter a solution must raise SOLVER_VERSION "
        "(uotmorph/solver/__init__.py), so results cached by the old solver "
        "are solved again; then pin the new version's digests here."
    )

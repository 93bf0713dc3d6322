"""Plans pinned to SOLVER_VERSION.

Cached transport results are keyed by ``SOLVER_VERSION``, so any change to
the network build, the starting basis, the pivot rule or the multiscale
refinement that can alter a plan must raise it.  This test holds, per
version, a digest of the plans of a fixed seeded set of solves, and one of
the networks its exact solves build; a plan or network that changes while
the version stays the same fails here.

The inputs are generated here from fixed seeds.  Most grid spacings and
origins are exact binary fractions, so their arc costs are exact and do not
depend on the order of summation.  The non-binary cases have costs that
round.  An ulp in one arc cost seldom moves a plan or its objective, so the
network digests, which hash every arc cost, are what pin that rounding.
"""

import hashlib
import math

import numpy as np

from conftest import record_coarsened
from uotmorph.grid import GridDomain, GridMeasure
from uotmorph.solver import (
    SOLVER_VERSION,
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    solve_multiscale,
    solve_unbalanced,
)
from uotmorph.solver import network

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
    6: {
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
            "b142658999d4aff5e31b8686617fee7ec729dc2f97db897974ccdfb79b8837b6",
        "anisotropic 7x5x3 lam=40.0":
            "803e8a29a837c7a24857a159569129b5b037439506fd15c2faa05c569a60559a",
        "anisotropic 7x5x3 permuted lam=inf":
            "251fbc3dc4f2024be1508c3525b9c44b1bcc1a8e2f85904e7247f02b49b88bda",
        "non-binary 6x5x4 lam=0.0":
            "f607e01a188bce551f62a6cbf9f88f709eb88567c01ef830d500d5d65ad95302",
        "non-binary 6x5x4 lam=0.7":
            "8078819055ac5293f743ccbb44f4ada9dc88dda464e90f79034363b2449b2d5e",
        "non-binary 6x5x4 lam=3.1":
            "7ca0b0b43bfa335b8fcc8598f0af119e46ee617ad1e6334e014628cdec1a6853",
        "non-binary 6x5x4 lam=40.0":
            "99f5bc15ab33a9885a9e42507140ce7856537dccf30b57a4aa0dbd4ad6b3758f",
    },
    7: {
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
            "b10b91defdeef4bfca2d5b54ff68a6eb225f80c4fa3769b09f4c801a0c930128",
        "multiscale 5x5x5 lam=2000.0":
            "bae064d63af564b5af8c4a60dbeb1feb3e0c08c9ae32fee8301e16b809162cca",
        "multiscale 5x5x5 balanced lam=inf":
            "bf2e085da5f0b49f12e0e866a0d63da1cc99c40f3ce307b495d5b68fad8870b9",
        "anisotropic 7x5x3 lam=0.0":
            "0adf35151fdb302163f785666b71fc488820a4d11ec81c32a1f997c047f99206",
        "anisotropic 7x5x3 lam=2.5":
            "b142658999d4aff5e31b8686617fee7ec729dc2f97db897974ccdfb79b8837b6",
        "anisotropic 7x5x3 lam=40.0":
            "803e8a29a837c7a24857a159569129b5b037439506fd15c2faa05c569a60559a",
        "anisotropic 7x5x3 permuted lam=inf":
            "251fbc3dc4f2024be1508c3525b9c44b1bcc1a8e2f85904e7247f02b49b88bda",
        "non-binary 6x5x4 lam=0.0":
            "f607e01a188bce551f62a6cbf9f88f709eb88567c01ef830d500d5d65ad95302",
        "non-binary 6x5x4 lam=0.7":
            "68178a6ca5dbe7dd76688d68a2a7f6ab88d42af2dbf751077fc75730606bbe2f",
        "non-binary 6x5x4 lam=3.1":
            "7e59d24ac82367fd3f6885a7cf2b1a73e20687d666bbe4fdd93272c44a623780",
        "non-binary 6x5x4 lam=40.0":
            "e6b622ad875effd6614012f1c95a3e5ce5cde9333634bfc2bb17c13d8f939558",
        "pyramid 16x16 lam=30.0":
            "a6e6624e192d950e196e0aa27c6d765197593012c85ed78f3564393a0e9e27f2",
        "pyramid 16x16 balanced lam=inf":
            "be33b0a790d95a443223544c74bb7001b20bf55fedd44b4743a906658144214b",
    },
}

# SOLVER_VERSION -> case -> sha256 over NETWORK_FIELDS of the networks of
# the case's exact solves, in order
NETWORK_FIELDS = ("tails", "heads", "costs", "supplies", "basis")
NETWORK_DIGESTS = {
    5: {
        "blobs 12x12 lam=0.0":
            "ee68e46a59687ed3a449f90ed09097c8c2e049a003aa00dbf23bbe0adecb5c48",
        "blobs 12x12 lam=10.0":
            "8b501b2d2c2ac44be90bd042f1f30563b4ab39c838560f8bc0406952e48d4898",
        "blobs 12x12 lam=100.0":
            "4f9055df9cae4e5fca6b9aa75b106e3eb529f2bd0584778482aaf29a94346227",
        "blobs 12x12 lam=2000.0":
            "40528d6c23d905ff467a5abe4344ff743ff94d32a57d9d6af218a399d0d97204",
        "anisotropic 7x5x3 lam=0.0":
            "85a618a6260917ad1dfa2cd7840ef5c29b547ff0108c81f86809becf45246899",
        "anisotropic 7x5x3 lam=2.5":
            "57084198798aec8fb839d68901d6461cacf31042e00616acf3363b135c973837",
        "anisotropic 7x5x3 lam=40.0":
            "b8a2397debdd6eacab95ad4f9c49690e39889af2db834236d292bc4ec8ab1108",
        "anisotropic 7x5x3 permuted lam=inf":
            "9f0f00cf7ec066026a17aa17c5c664021ba903c4545476b978b03cfa3e35c0bd",
        "non-binary 6x5x4 lam=0.0":
            "29d9fc6e772eb46b7adb080338a1c610cff43facbc3d8c5528b5f7f9aa97705f",
        "non-binary 6x5x4 lam=0.7":
            "cecd8f58380c5ea17fc9d64602edfd98b33d1d3cdb71f85d5a446b007e887a3b",
        "non-binary 6x5x4 lam=3.1":
            "75e5fba110e37603479167da45a16431e1e0387ad70cdd65e127dd037d59c2e4",
        "non-binary 6x5x4 lam=40.0":
            "7a2b151416a744278a570d34dad225b481c5cba4efdf9de2cf3b2eeb305f8eff",
    },
    6: {
        "blobs 12x12 lam=0.0":
            "ee68e46a59687ed3a449f90ed09097c8c2e049a003aa00dbf23bbe0adecb5c48",
        "blobs 12x12 lam=10.0":
            "8b501b2d2c2ac44be90bd042f1f30563b4ab39c838560f8bc0406952e48d4898",
        "blobs 12x12 lam=100.0":
            "4f9055df9cae4e5fca6b9aa75b106e3eb529f2bd0584778482aaf29a94346227",
        "blobs 12x12 lam=2000.0":
            "40528d6c23d905ff467a5abe4344ff743ff94d32a57d9d6af218a399d0d97204",
        "anisotropic 7x5x3 lam=0.0":
            "abd4d23677e61a0e4402d307cbcfd841e1dcbdd5102e7cbdbd950c43a1840887",
        "anisotropic 7x5x3 lam=2.5":
            "e3b54c9d39fe9c31954cccd19164411058524422a7975e69ab4d1b07bf73985f",
        "anisotropic 7x5x3 lam=40.0":
            "31a45f0beddb2bfc95f678e5801366aa454fe490fc3ee2ca09d00e7f20da4e76",
        "anisotropic 7x5x3 permuted lam=inf":
            "c0f135a175784a82a71b6c0756c2acc058b66d84fef16453ea67dd96c42ce1dd",
        "non-binary 6x5x4 lam=0.0":
            "db8bd61970fe612b2ab2b1e6d13c3deb8b84a26affca70c7c7d9d0b3576a88c2",
        "non-binary 6x5x4 lam=0.7":
            "7b1af520fa1fe4bc4295a5259ecc1b519878813f337139ac3a3a3e0131a07ad4",
        "non-binary 6x5x4 lam=3.1":
            "c80a41117139c35fb5b56910bd2109a107f09b462c5a0f48523b04c748f5e914",
        "non-binary 6x5x4 lam=40.0":
            "5df48d1a14d044d05fbe3dfc62f6dfcf9c9eda65f980ed7e49eaa7a1def0ace9",
    },
}


# version 7 changed only which multiscale instances coarsen
NETWORK_DIGESTS[7] = NETWORK_DIGESTS[6]


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


def _network_digest(problems):
    h = hashlib.sha256()
    for problem in problems:
        for field in NETWORK_FIELDS:
            dtype = "<f8" if field == "costs" else "<i8"
            array = np.ascontiguousarray(getattr(problem, field), dtype=dtype)
            h.update(array.tobytes())
    return h.hexdigest()


def _multiscale(mu, nu, alloc, quant):
    return solve_multiscale(mu, nu, COST, alloc, quant, coarsen_threshold=20)


def _pyramid(mu, nu, alloc, quant):
    # these instances coarsen: test_plans_pinned_to_solver_version checks it,
    # so the feeder and admission stay pinned
    return solve_multiscale(mu, nu, COST, alloc, quant, coarsen_threshold=40)


def _exact(mu, nu, alloc, quant):
    return solve_unbalanced(mu, nu, COST, alloc, quant)


def _cases():
    """case name -> list of (solver, mu, nu, lam), in a fixed order; the
    solver is ``_exact``, ``_multiscale`` or ``_pyramid``."""
    cases = {}
    pairs = _blob_pairs(2024, 8, (12, 12))
    for lam in (0.0, 10.0, 100.0, 2000.0):
        cases[f"blobs 12x12 lam={lam!r}"] = [(_exact, mu, nu, lam) for mu, nu in pairs]
    pairs = _blob_pairs(2025, 4, (5, 5, 5))
    for lam in (0.0, 10.0, 2000.0):
        cases[f"multiscale 5x5x5 lam={lam!r}"] = [
            (_multiscale, mu, nu, lam) for mu, nu in pairs
        ]
    balanced = [(mu, GridMeasure(nu.domain, nu.values * (mu.total_mass / nu.total_mass)))
                for mu, nu in pairs]
    cases["multiscale 5x5x5 balanced lam=inf"] = [
        (_multiscale, mu, nu, math.inf) for mu, nu in balanced
    ]
    dims = (7, 5, 3)
    dom = GridDomain(dims=dims, spacing=(0.5, 2.0, 1.0), origin=(1.0, -3.0, 0.5))
    rng = np.random.default_rng(2026)
    w = rng.random(dims) * (rng.random(dims) < 0.7)
    z = rng.random(dims) * (rng.random(dims) < 0.7)
    mu, nu = GridMeasure(dom, w), GridMeasure(dom, z)
    for lam in (0.0, 2.5, 40.0):
        cases[f"anisotropic 7x5x3 lam={lam!r}"] = [(_exact, mu, nu, lam)]
    perm = GridMeasure(dom, w.ravel()[rng.permutation(w.size)].reshape(dims))
    cases["anisotropic 7x5x3 permuted lam=inf"] = [(_exact, mu, perm, math.inf)]
    # non-binary spacing and origin: arc costs round
    dims = (6, 5, 4)
    dom = GridDomain(dims=dims, spacing=(0.3, 1.7, 0.9), origin=(0.1, -2.3, 1.45))
    rng = np.random.default_rng(2027)
    mu, nu = (GridMeasure(dom, rng.random(dims) * (rng.random(dims) < 0.8))
              for _ in range(2))
    for lam in (0.0, 0.7, 3.1, 40.0):
        cases[f"non-binary 6x5x4 lam={lam!r}"] = [
            (_exact, mu, nu, lam), (_multiscale, mu, nu, lam),
        ]
    # the cases above are too small for a pyramid; these build 16^2, 8^2 and
    # 4^2 levels
    pairs = _blob_pairs(2028, 4, (16, 16))
    cases["pyramid 16x16 lam=30.0"] = [(_pyramid, mu, nu, 30.0) for mu, nu in pairs]
    balanced = [(mu, GridMeasure(nu.domain, nu.values * (mu.total_mass / nu.total_mass)))
                for mu, nu in pairs]
    cases["pyramid 16x16 balanced lam=inf"] = [
        (_pyramid, mu, nu, math.inf) for mu, nu in balanced
    ]
    return cases


def _assert_pinned(digests, table, what):
    pinned = table.get(SOLVER_VERSION)
    assert pinned is not None, (
        f"no {what} digests pinned for SOLVER_VERSION {SOLVER_VERSION}; "
        f"add {{{SOLVER_VERSION}: {digests!r}}}"
    )
    changed = sorted(name for name in digests if digests[name] != pinned.get(name))
    assert not changed, (
        f"{what} changed without a SOLVER_VERSION bump: {changed}.  Any change "
        "that can alter a solution must raise SOLVER_VERSION "
        "(uotmorph/solver/__init__.py), so results cached by the old solver "
        "are solved again; then pin the new version's digests here."
    )


def test_plans_pinned_to_solver_version(monkeypatch):
    coarsened = record_coarsened(monkeypatch)
    digests = {}
    for name, solves in _cases().items():
        solutions = []
        for solve, mu, nu, lam in solves:
            before = len(coarsened)
            solutions.append(solve(mu, nu, AllocationSpec(lam=lam), QUANT))
            assert solve is not _pyramid or len(coarsened) > before, (
                f"{name}: the pinned pyramid solve built no pyramid")
        digests[name] = _digest(solutions)
    _assert_pinned(digests, PLAN_DIGESTS, "plans")


def test_networks_pinned_to_solver_version():
    # the exact solves' networks, bytes and all: an ulp in one arc cost
    # changes these digests even where no plan moves
    digests = {}
    for name, solves in _cases().items():
        problems = [
            network.build_unbalanced_problem(mu, nu, COST, AllocationSpec(lam=lam),
                                             QUANT)
            for solve, mu, nu, lam in solves if solve is _exact
        ]
        if problems:
            digests[name] = _network_digest(problems)
    _assert_pinned(digests, NETWORK_DIGESTS, "networks")

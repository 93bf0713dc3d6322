"""Public solve entry points and transport-solution CSV export."""

from __future__ import annotations

import math
import re

import numpy as np

from ..errors import DataError
from ..grid import GridMeasure
from . import network, simplex, ssp
from .specs import AllocationSpec, CostSpec, QuantizationSpec, TransportSolution

_ENGINES = {
    "simplex": simplex.solve_min_cost_flow,
    "ssp": ssp.solve_min_cost_flow,
}


def _run(problem, engine: str) -> TransportSolution:
    flows = _ENGINES[engine](problem)[0]
    return network.extract_solution(problem, flows)


def solve_unbalanced(
    mu: GridMeasure,
    nu: GridMeasure,
    cost: CostSpec,
    alloc: AllocationSpec,
    quant: QuantizationSpec = QuantizationSpec(),
) -> TransportSolution:
    """Unbalanced transport with priced mass allocation between two measures.

    ``AllocationSpec(lam=math.inf)`` gives balanced transport on the same
    network, allocation priced at max cost + 1; quantized totals that differ
    then raise InfeasibleError.
    """
    problem = network.build_unbalanced_problem(mu, nu, cost, alloc, quant)
    return _run(problem, "simplex")


# row label per arc kind (ARC_* constants index this tuple)
_KIND_LABELS = ("arc", "add_src", "rem_src")
_HEADER = "kind,source_index,target_index,mass"
# an arc row with two indices or an allocation row with an empty target, then
# a non-negative decimal mass; indices below 2**53 are exact in float64
_ROW = re.compile(r"(?:arc,\d{1,15},\d{1,15}|(?:add_src|rem_src),\d{1,15},),"
                  r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", re.ASCII)
_ROWS = re.compile(rf"(?:{_ROW.pattern}(?:\n{_ROW.pattern})*)?", re.ASCII)


def export_solution(sol: TransportSolution, path) -> None:
    """Write a solution as CSV rows ``kind,source_index,target_index,mass``.

    Three ``# key=value`` lines (objective, delta, mass_per_unit) precede the
    header.  Plan arcs come first as ``arc`` rows, then allocation rows
    labelled ``add_src`` or ``rem_src`` with an empty target index.  Each
    mass is the ``repr`` of ``units * mass_per_unit``, so it is an exact
    multiple of ``mass_per_unit``.
    """
    rows = ([f"arc,{i},{j}," for i, j in sol.plan_arcs[:, :2].tolist()]
            + [f"{_KIND_LABELS[k]},{v},," for k, v in sol.allocation[:, :2].tolist()])
    units = np.concatenate((sol.plan_arcs[:, 2], sol.allocation[:, 2]))
    masses = (units * sol.mass_per_unit).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in ("objective", "delta", "mass_per_unit"):
            fh.write(f"# {key}={getattr(sol, key)!r}\n")
        # CSV rows end in \r\n
        fh.write(_HEADER + "\r\n")
        fh.writelines(f"{row}{m!r}\r\n" for row, m in zip(rows, masses))


def load_solution(path) -> TransportSolution:
    """Read back a solution written by export_solution.

    Masses are converted back to flow units, giving the int64 arrays of
    ``extract_solution``.  A row that is malformed (see ``_ROW``) or whose
    mass is not a positive multiple of ``mass_per_unit``, and a
    ``mass_per_unit`` that is not finite and positive, raise DataError naming
    the path and line.  Indices are not checked against a grid.
    """
    with open(path, encoding="utf-8") as fh:
        lines = list(enumerate(fh.read().splitlines(), 1))
    meta = {}
    for lineno, line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            try:
                meta[key.strip()] = float(value)
            except ValueError:
                raise DataError(f"{path}, line {lineno}: bad value {value!r}") from None
    mpu = meta.get("mass_per_unit", 1.0)
    if not (math.isfinite(mpu) and mpu > 0):
        raise DataError(f"{path}: mass_per_unit must be finite and positive")
    body = [(lineno, line) for lineno, line in lines if not line.startswith("#")]
    if not body or body[0][1] != _HEADER:
        raise DataError(f"{path}: not a transport solution CSV")
    rows = body[1:]
    text = "\n".join(line for _, line in rows)
    if not _ROWS.fullmatch(text):
        lineno, line = next(row for row in rows if not _ROW.fullmatch(row[1]))
        raise DataError(f"{path}, line {lineno}: malformed row {line!r}")
    for kind, label in enumerate(_KIND_LABELS):
        text = text.replace(f"{label},", f"{kind},")
    fields = text.replace(",,", ",-1,").replace("\n", ",").split(",") if text else []
    kind, src, tgt, mass = np.array(fields, dtype=np.float64).reshape(-1, 4).T
    units = np.rint(mass / mpu)
    bad = ~((units >= 1) & (units < 2**53) & (units * mpu == mass))
    if bad.any():
        lineno, line = rows[np.flatnonzero(bad)[0]]
        raise DataError(f"{path}, line {lineno}: the mass in {line!r} is not a "
                        "positive multiple of mass_per_unit")
    return TransportSolution.from_rows(
        np.column_stack((kind, src, tgt, units)).astype(np.int64),
        objective=meta.get("objective", 0.0),
        delta=meta.get("delta", 0.0),
        mass_per_unit=mpu,
    )

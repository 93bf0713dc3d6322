"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
SolverError -> 4.
"""


def is_integer(value) -> bool:
    """Whether a config value is an integer; ``True`` and ``False`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a config value is a number; ``True``, ``False`` and strings are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class UotmorphError(Exception):
    """Base class for all package errors."""


class ConfigError(UotmorphError):
    """Invalid configuration: bad JSON, unknown keys, out-of-range values."""


class DataError(UotmorphError):
    """Invalid input data: malformed files, inconsistent manifests, domain mismatches."""


class OTFGFormatError(DataError):
    """Malformed OTFG file. Carries the byte offset where the problem was found."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SolverError(UotmorphError):
    """Solver-level failure."""


class InfeasibleError(SolverError):
    """The flow problem admits no feasible solution (e.g. both measures empty)."""


class BarycenterDivergenceError(SolverError):
    """Barycenter objective increased between iterations, indicating a solver bug."""

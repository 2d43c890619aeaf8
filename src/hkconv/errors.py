"""Exception taxonomy shared by all hkconv modules, and the JSON reader."""

import json
from pathlib import Path


class HkconvError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(HkconvError, ValueError):
    """Vector or matrix shapes do not line up."""


class DomainError(HkconvError, ValueError):
    """Input lies outside an operation's geometric domain.

    Raised for off-manifold points, tangency violations beyond tolerance,
    and parallel transport between antipodal directions.
    """


class ParameterError(HkconvError, ValueError):
    """Invalid configuration or parameter values (non-PSD covariance,
    nonpositive weights, out-of-range hyperparameters)."""


class DegenerateGeometryError(HkconvError, ValueError):
    """A configuration collapsed: coincident kernel points, or a linear
    layer direction with vanishing norm."""


class SolverFailureError(HkconvError, RuntimeError):
    """Kernel placement cannot start: its starting ring is too tight.
    Carries solver diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NumericError(HkconvError, ArithmeticError):
    """NaN or overflow detected during a differentiation pass.

    ``op_path`` names the primitive whose adjoint produced the bad value.
    """

    def __init__(self, message: str, op_path: str = ""):
        super().__init__(message)
        self.op_path = op_path


class BuildError(HkconvError, TypeError):
    """A computation graph or model was assembled from incompatible parts
    (unregistered primitive operand, inconsistent layer/kernel dims)."""


class DataFormatError(HkconvError, ValueError):
    """A dataset, kernel, or checkpoint file violates its schema."""


def read_json(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at path; any other file raises
    DataFormatError naming what it was to hold (dataset, checkpoint...)."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{what} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise DataFormatError(f"{what} must be a JSON object")
    return record

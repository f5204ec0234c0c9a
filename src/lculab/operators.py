"""Dense linear algebra: Hermitian operators and density matrices.

Everything here routes through the eigendecomposition of a Hermitian matrix,
which is computed once per operator and cached: the pipelines read their
filters off its spectrum, and `matrix_function` applies a scalar function
through it. Values are immutable after construction and safe to share across
workers.

A matrix keeps the type of its data. Real input (bool, integer or float), and
complex input whose imaginary parts are all exactly 0, is held in float64, so
its eigendecomposition runs the real symmetric LAPACK driver; any other input
is held in complex128. The TFIM, Pauli sets whose words all have an even Y
count, real matrix configs and every walk Hamiltonian H_U are real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import SingularityError, ValidationError

HERMITICITY_ATOL = 1e-12
DENSITY_ATOL = 1e-12
DIMENSION_CAP = 4096
# Elements per panel of `symmetrize`: its temporaries stay at a few panels,
# never the size of the matrix.
_PANEL_ELEMENTS = 1 << 16


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def as_square_matrix(values) -> np.ndarray:
    """A new finite, non-empty square ndarray of the numbers in `values`.

    It is float64 when the input is real-typed (bool, integer or float), or
    complex-typed with every imaginary part exactly 0, and complex128
    otherwise. The shape and the dimension cap are checked before any
    conversion copy (`np.asarray` copies no ndarray); ragged, non-numeric
    (strings, None, objects) or non-finite input is a ValidationError.
    """
    try:
        a = np.asarray(values)
    except ValueError as exc:  # a ragged list
        raise ValidationError(f"matrix rows are not of one length: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValidationError(f"expected a non-empty square matrix, got shape {a.shape}")
    if a.shape[0] > DIMENSION_CAP:
        raise ValidationError(f"dimension {a.shape[0]} exceeds cap {DIMENSION_CAP}")
    if a.dtype.kind not in "biufc":
        raise ValidationError(f"matrix entries are not numbers (dtype {a.dtype})")
    if a.dtype.kind == "c" and not a.imag.any():
        a = a.real
    a = np.array(a, dtype=complex if a.dtype.kind == "c" else float)
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def symmetrize(a: np.ndarray) -> float:
    """Overwrite a square array with (A + A^dagger)/2 and return the max-entry
    defect |A - A^dagger| it removed.

    The work goes panel by panel, a strip of rows against the matching strip
    of columns, so no temporary is the size of the matrix. Both strips are
    computed from the entries as they were, each entry as (a_ij + conj(a_ji))/2,
    so the result equals (a + a.conj().T) / 2 bit for bit. (Writing the column
    strip as the conjugate of the row strip would turn an imaginary part that
    cancels exactly, +0.0, into -0.0.)
    """
    n = a.shape[0]
    step = max(1, _PANEL_ELEMENTS // n)
    defect = 0.0
    for i in range(0, n, step):
        rows, cols = a[i : i + step, i:], a[i:, i : i + step]
        rows_adjoint = cols.conj().T
        defect = max(defect, float(np.abs(rows - rows_adjoint).max()))
        new_rows = (rows + rows_adjoint) / 2
        cols[...] = (cols + rows.conj().T) / 2
        rows[...] = new_rows
    return defect


@dataclass(frozen=True)
class HermitianOperator:
    """A dense Hermitian matrix with a cached eigendecomposition.

    The matrix is one frozen copy of the input, float64 or complex128 by the
    rule of `as_square_matrix`, so a real symmetric input gets a real `eigh`
    and real eigenvectors. Inputs within 1e-12 of Hermitian (max-entry norm)
    are symmetrized to (A + A^dagger)/2 in place; anything farther is
    rejected rather than silently repaired.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = as_square_matrix(self.matrix)
        defect = symmetrize(a)
        if defect > HERMITICITY_ATOL:
            raise ValidationError(
                f"matrix is not Hermitian: max-entry defect {defect:.3e} > {HERMITICITY_ATOL:g}"
            )
        object.__setattr__(self, "matrix", _freeze(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues in ascending order and the matching unitary of eigenvectors."""
        w, v = np.linalg.eigh(self.matrix)
        return _freeze(w), _freeze(v)

    @cached_property
    def spectral_norm(self) -> float:
        w, _ = self.eigensystem
        return float(np.max(np.abs(w))) if w.size else 0.0


def matrix_function(h: HermitianOperator, f: Callable[[float], complex]) -> np.ndarray:
    """Apply a scalar function to a Hermitian operator through its spectrum.

    Returns V diag(f(E)) V^dagger. Raises SingularityError if f is undefined
    or non-finite at any eigenvalue (for example 1/x on a singular operator).
    """
    w, v = h.eigensystem
    values = np.empty(len(w), dtype=complex)
    for i, x in enumerate(w):
        try:
            values[i] = complex(f(float(x)))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise SingularityError(f"function undefined at eigenvalue {x!r}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        bad = w[~np.isfinite(values)]
        raise SingularityError(f"function non-finite at eigenvalues {bad}")
    return (v * values) @ v.conj().T


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Held as one frozen copy of the input, float64 or complex128 by the rule of
    `as_square_matrix`, and symmetrized in place like `HermitianOperator`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = as_square_matrix(self.matrix)
        if symmetrize(a) > HERMITICITY_ATOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = float(np.trace(a).real)
        if abs(tr - 1.0) > DENSITY_ATOL * max(1, a.shape[0]):
            raise ValidationError(f"density matrix trace {tr!r} deviates from 1")
        w = np.linalg.eigvalsh(a)
        if float(w.min()) < -DENSITY_ATOL:
            raise ValidationError(f"density matrix has negative eigenvalue {w.min():.3e}")
        object.__setattr__(self, "matrix", _freeze(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": n, "re": [...], "im": [...]} in row-major order.
# Double-precision values round-trip exactly (json uses shortest repr).

_NUMBERS = (int, float, np.integer, np.floating)


def is_number(x) -> bool:
    """A Python or numpy integer or float; never a bool."""
    return isinstance(x, _NUMBERS) and type(x) is not bool


def is_integer(x) -> bool:
    """A number with no fractional part: an integer, a numpy integer or an integral float."""
    return is_number(x) and x % 1 == 0


def check_numbers(values, name: str) -> None:
    """Raise ValidationError unless `values` is a list, tuple or 1-D array of numbers."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not (isinstance(values, (list, tuple)) and all(map(is_number, values))):
        raise ValidationError(f"malformed matrix JSON: {name} is not a list of numbers")


class MatrixJson(NamedTuple):
    """The JSON wire format of a matrix as `read_matrix` types it."""

    dim: int
    re: list
    im: list


def read_matrix(obj) -> MatrixJson:
    """Type a {"dim", "re", "im"} object: dim an integer >= 1, re and im lists of
    numbers; `matrix_from_json` checks their lengths."""
    if not (isinstance(obj, dict) and obj.keys() == {"dim", "re", "im"}):
        raise ValidationError("malformed matrix JSON: the fields are not dim, re and im")
    dim = obj["dim"]
    if not (is_integer(dim) and dim >= 1):
        raise ValidationError(f"malformed matrix JSON: dim {dim!r} is not a positive integer")
    check_numbers(obj["re"], "re")
    check_numbers(obj["im"], "im")
    return MatrixJson(int(dim), obj["re"], obj["im"])


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of a JSON object, or of a `MatrixJson` already read from one:
    float64 when every `im` entry is 0, with no complex array built, and
    complex128 otherwise."""
    dim, re, im = obj if isinstance(obj, MatrixJson) else read_matrix(obj)
    if len(re) != dim * dim or len(im) != dim * dim:
        raise ValidationError("matrix JSON entry count does not match dim*dim")
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except OverflowError:
        raise ValidationError("malformed matrix JSON: an entry is too large for a double") from None
    a = re + 1j * im if im.any() else re
    return as_square_matrix(a.reshape(dim, dim))

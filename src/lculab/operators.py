"""Dense linear algebra: the Hermitian operator.

Everything here routes through the eigendecomposition of a Hermitian matrix,
which is computed once per operator and cached: the Gibbs pipeline and
`lemma2-sweep` read their filters off its spectrum, and `matrix_function`
applies a scalar function through it. Values are immutable after
construction, so every point of a sweep can read one operator's cached
eigensystem. A prepared thermal state is one too; the test oracle
`DensityMatrix` holds it to a unit trace and a nonnegative spectrum. H_U is a
plain array, decomposed once by `MarkedPartition.spectral_measure`.

A matrix keeps the type of its data. Real input (bool, integer or float), and
complex input whose imaginary parts are all exactly 0, is held in float64, so
its eigendecomposition runs the real symmetric LAPACK driver; any other input
is held in complex128. The TFIM, Pauli sets whose words all have an even Y
count and real matrix configs are real.
`matrix_from_json` lays out the matrix wire format {dim, re, im}, which the
CLI types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import SingularityError, ValidationError

HERMITICITY_ATOL = 1e-12
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


# ---------------------------------------------------------------------------
# JSON numbers, and the matrix wire format {"dim": n, "re": [...], "im": [...]}.
# Double-precision values round-trip exactly (json uses shortest repr).

_NUMBERS = (int, float, np.integer, np.floating)


def is_number(x) -> bool:
    """A Python or numpy integer or float; never a bool."""
    return isinstance(x, _NUMBERS) and type(x) is not bool


def is_integer(x) -> bool:
    """A number with no fractional part: an integer, a numpy integer or an integral float."""
    return is_number(x) and x % 1 == 0


def matrix_from_json(obj) -> np.ndarray:
    """The row-major dim x dim matrix of a {"dim", "re", "im"} object as the CLI
    types it: float64 when every `im` entry is 0, with no complex array built,
    and complex128 otherwise. `HermitianOperator` checks and copies it."""
    dim, re, im = obj["dim"], np.asarray(obj["re"], dtype=float), np.asarray(obj["im"], dtype=float)
    if re.size != dim * dim or im.size != dim * dim:
        raise ValidationError("matrix JSON entry count does not match dim*dim")
    return (re + 1j * im if im.any() else re).reshape(dim, dim)

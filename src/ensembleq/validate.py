"""Shared input-validation helpers and error types.

Inputs that break an invariant are rejected, never silently repaired:
probability vectors are not renormalised, norms are not rescaled.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import reprlib

import numpy as np

# Tolerances. Each roundoff window the package allows is named once, here.
# The tolerance a check writes into a report (``Check.tolerance``) is part of
# that report and stays in its check row.

# An identity or bound that holds in exact arithmetic (a unit norm, a
# probability total or range, the Bloch bound, hermiticity, orthogonality,
# positivity, a +-1 spectrum) may be off by this much after a few float
# operations. Within it a value meets the identity, and a value this close to
# an exact case (a coordinate or dot product of 0 or +-1) is taken as that
# case; beyond it the input is rejected, never repaired.
INVARIANT_TOL = 1e-12

# A weight, probability, squared norm or length at or below this is zero.
ZERO_TOL = 1e-15

# A state that went through many float steps (an integrated trajectory, a
# renormalised distribution, an eigensolver's output) may miss the purity
# bound 1 by this much: purity up to 1 + PURITY_TOL has not left the physical
# region, purity from 1 - PURITY_TOL counts as pure, and the wave function and
# exchange class read off such a state are resolved to the same accuracy.
PURITY_TOL = 1e-9

# Canonical directions closer than this in every coordinate name the same
# observable. Two unit vectors that pass check_unit_vector and point the same
# way differ by under 5e-13. The window must stay this narrow: the pair
# correlator takes its coincident value inside it, and a window of width w
# lets the Bell inequality fail by up to w / 2.
SAME_DIRECTION_TOL = 1e-12

# The determinant of a matrix that passed the orthogonality check is +-1 to a
# few INVARIANT_TOL; this window tells a rotation (+1) from a reflection (-1).
DET_TOL = 1e-10

# Two flow rates closer than this are degenerate: the closed form divides by
# their difference.
RATE_GAP_TOL = 1e-14

# Added to |reference| under a relative error, so that a reference passing
# through zero gives a finite ratio.
RELATIVE_ERROR_FLOOR = 1e-12

# check_probabilities feeds fsum this many entries at a time, so its exact
# total holds at most this many Python floats (about 128 KiB) at once,
# whatever the length of the vector
_FSUM_CHUNK = 4096

# _dot adds a batch of up to this many rows by one prefix sum (about 8 ns an entry), a longer one column by
# column (about 1 us a component); timed on 2 vCPUs with numpy 2.4, they cross near 45 rows of 3 and 185 of 15
_PREFIX_SUM_ROWS = 128


class ConstraintViolation(ValueError):
    """A numerical invariant (normalisation, purity bound, positivity) is broken."""


class DimensionMismatch(ValueError):
    """Operands live in different state spaces (e.g. 3- vs 15-component)."""


class Record:
    """Base of the package's immutable records; equality is identity.

    A record lists its fields in ``__slots__`` and sets them once, in
    ``__init__``, through ``_set``; assigning or deleting an attribute
    afterwards raises AttributeError. Every slot is a field, shown by ``repr``.
    """

    __slots__ = ()

    def _set(self, *values):
        """Set the fields, in ``__slots__`` order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce_ex__(self, protocol):
        # the default slot-state restore would assign each field and fail on
        # load, so pickle and copy refuse a record at once
        raise TypeError(f"{type(self).__name__} records cannot be pickled or copied")


class ValueRecord(Record):
    """An immutable record that equals another of its class with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())


def real_array(x, name: str, complex_ok: bool = False) -> np.ndarray:
    """x as a finite float array, or with ``complex_ok`` (Hermitian matrices, wave functions) a finite float or
    complex one; an object array of real numbers (int, Fraction) is converted. Anything else is a ValueError naming
    ``name``: strings, bytes, None, records, ragged nesting, non-finite entries, bools (also one in a list of
    numbers, which numpy reads as 0 or 1), entries beyond the float range and complex entries unless allowed,
    whose imaginary part a cast drops."""
    try:
        arr = np.asarray(x)
    except ValueError:   # ragged nesting
        arr = np.asarray(None)
    dtype = arr.dtype
    kind = dtype.kind
    if kind == "O" and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in arr.flat):
        kind = "f"   # converted below
    if kind == "c" and not complex_ok:
        raise ValueError(f"{name} has complex entries")
    if kind not in "iufc" or isinstance(x, (list, tuple)) and _holds_bool(x):
        raise ValueError(f"{name} must be an array of numbers, got {reprlib.repr(x)}")
    if dtype != (want := complex if kind == "c" else float):
        try:
            arr = arr.astype(want)
        except OverflowError:   # an int or Fraction entry beyond the float range
            raise ValueError(f"{name} has an entry beyond the float range") from None
    # a short real vector is checked as Python floats, which costs less than a ufunc
    if not (all(map(math.isfinite, arr.tolist())) if arr.size <= 16 and arr.ndim == 1 and kind != "c"
            else np.isfinite(arr).all()):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _holds_bool(seq) -> bool:
    """Whether a list or tuple, or a list, tuple or array inside it, holds a bool; read without a copy."""
    types = set(map(type, seq))
    nested = tuple(t for t in types if issubclass(t, (list, tuple, np.ndarray)))
    return not types.isdisjoint((bool, np.bool_)) or any(
        _holds_bool(np.ravel(v).tolist() if isinstance(v, np.ndarray) else v) for v in seq if isinstance(v, nested))


def freeze(x, copy: bool = True) -> np.ndarray:
    """Read-only array with the values of x that no other reference can change.

    A caller's array is copied. An array that is already read-only and owns
    its memory is returned as it is, so frozen arrays are shared, not copied
    again. copy=False seals x in place; it is for an array the module has
    just built and holds the only reference to.
    """
    arr = np.asarray(x)
    if copy and (arr.flags.writeable or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def check_components(x, name: str) -> np.ndarray:
    """x as a frozen (see ``freeze``), real, finite vector of 3 or 15 components;
    any other input is a ValueError naming ``name``."""
    arr = real_array(x, name)
    if arr.shape not in ((3,), (15,)):
        raise ValueError(f"{name} must have 3 or 15 components, got shape {arr.shape}")
    return freeze(arr)


def _check_dim(x: np.ndarray, n: int, name: str, against: str) -> np.ndarray:
    """x if its last axis has n components: the length of what it is paired with, or the 3 or 15
    a reader requires. Anything else is a DimensionMismatch naming ``name`` and both lengths."""
    if x.shape[-1:] != (n,):
        raise DimensionMismatch(f"{name} must be {n}-component to match {against}, "
                                f"got {x.shape[-1] if x.ndim else 0} components")
    return x


def _dot(x, y):
    """sum_k x[..., k] y[..., k], added in k order from the first product: the one reading of every mean and
    sum of squares, so a row has the same bits at any batch size and in any memory layout. Two vectors give
    a Python float (an overflow is inf, without a warning; -0.0 for empty ones), arrays one value per row."""
    if x.ndim == 1 and y.ndim == 1:   # Python floats cost less than a ufunc on 3 or 15 components
        # -0.0 + p is p bit for bit: the start moves no sum, and two empty vectors give -0.0
        return functools.reduce(operator.add, map(operator.mul, x.tolist(), y.tolist()), -0.0)
    if max(x.size, y.size) <= _PREFIX_SUM_ROWS * x.shape[-1]:
        return np.add.accumulate(x * y, axis=-1)[..., -1]
    total = x[..., 0] * y[..., 0]   # one column of products at a time
    for k in range(1, x.shape[-1]):
        total += x[..., k] * y[..., k]
    return total


def _outcome_probabilities(mean):
    """(P(+1), P(-1)) = (1 +- mean)/2, a pair for a float mean, else along a new last axis: one outside [0, 1]
    by over INVARIANT_TOL is a ConstraintViolation, one at or below ZERO_TOL is 0.0 and one above 1 is 1.0."""
    if isinstance(mean, float):   # two Python floats: an array would cost about 3x as much per call
        probs = plus, minus = 0.5 * (1.0 + mean), 0.5 * (1.0 - mean)
        if -INVARIANT_TOL <= plus <= 1.0 + INVARIANT_TOL and -INVARIANT_TOL <= minus <= 1.0 + INVARIANT_TOL:
            return (min(plus, 1.0) if plus > ZERO_TOL else 0.0), (min(minus, 1.0) if minus > ZERO_TOL else 0.0)
    else:
        probs = 0.5 * (1.0 + mean[..., None] * (1.0, -1.0))
        if -INVARIANT_TOL <= probs.min() and probs.max() <= 1.0 + INVARIANT_TOL:
            return np.where(probs > ZERO_TOL, np.minimum(probs, 1.0), 0.0)
    first = next(p for p in np.ravel(probs).tolist() if not -INVARIANT_TOL <= p <= 1.0 + INVARIANT_TOL)
    raise ConstraintViolation(f"outcome probability outside [0, 1] by over {INVARIANT_TOL}: {first!r}")


def _check_hermitian(x, name: str) -> np.ndarray:
    """x as a finite Hermitian 2x2 or 4x4 matrix; any other input is an error naming ``name``."""
    mat = real_array(x, name, complex_ok=True)
    if mat.shape not in ((2, 2), (4, 4)):
        raise DimensionMismatch(f"{name} must be 2x2 or 4x4, got shape {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > INVARIANT_TOL:
        raise ConstraintViolation(f"{name} is not Hermitian")
    return mat


def check_unit_vector(v, name: str = "e") -> np.ndarray:
    arr = real_array(v, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    nrm2 = _dot(arr, arr)
    if abs(nrm2 - 1.0) > INVARIANT_TOL:
        raise ConstraintViolation(f"{name} is not unit norm: |{name}|^2 = {nrm2!r}")
    return arr


def check_probabilities(p) -> np.ndarray:
    """Validate a probability vector: entries >= 0 and an (fsum-)exact total of 1."""
    arr = real_array(p, "probabilities")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("probabilities must be a non-empty 1-d vector")
    return _check_distribution(arr)


def _check_distribution(arr: np.ndarray) -> np.ndarray:
    """``arr``, a vector already read by ``real_array``, if it is >= 0 with an (fsum-)exact total of 1."""
    if np.any(arr < -INVARIANT_TOL):
        raise ConstraintViolation(f"negative probability: min = {arr.min()!r}")
    chunks = (arr[i:i + _FSUM_CHUNK].tolist() for i in range(0, arr.size, _FSUM_CHUNK))
    total = math.fsum(itertools.chain.from_iterable(chunks))
    if abs(total - 1.0) > INVARIANT_TOL:
        raise ConstraintViolation(f"probabilities sum to {total!r}, not 1")
    return arr


def check_rotation(m) -> np.ndarray:
    arr = real_array(m, "rotation")
    if arr.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    if np.abs(arr.T @ arr - np.eye(3)).max() > INVARIANT_TOL:
        raise ConstraintViolation("matrix is not orthogonal")
    if abs(np.linalg.det(arr) - 1.0) > DET_TOL:
        raise ConstraintViolation("matrix is orthogonal but not a proper rotation (det != +1)")
    return arr


def check_count(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """A count as an int in [lo, hi]; a bool or a non-integral value is a ValueError.
    A whole float such as 1e4 (how JSON may write a count) is the int it equals."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        raise ValueError(f"{name} = {n}; the limit is {hi}")
    return n


def _real_number(value, name: str, lo: float = -math.inf) -> float:
    """A finite real number >= lo as a float; a bool, a string, a list, a number beyond the float range
    or a non-finite value (NaN passes any "> tol" test) is a ValueError naming ``name``."""
    # a float skips the abstract-class test, which costs more than the rest of the check
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:   # an int or Fraction beyond the float range
        raise ValueError(f"{name} must be within the float range, got {reprlib.repr(value)}") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} is non-finite: {x!r}")
    if x < lo:
        raise ValueError(f"{name} = {x!r} outside [{lo}, inf]")
    return x

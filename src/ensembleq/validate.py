"""Shared input-validation helpers and error types.

Inputs that break an invariant are rejected, never silently repaired:
probability vectors are not renormalised, norms are not rescaled.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-12

# check_probabilities feeds fsum this many entries at a time, so its exact
# total holds at most this many Python floats (about 128 KiB) at once,
# whatever the length of the vector
_FSUM_CHUNK = 4096


class ConstraintViolation(ValueError):
    """A numerical invariant (normalisation, purity bound, positivity) is broken."""


class DimensionMismatch(ValueError):
    """Operands live in different state spaces (e.g. 3- vs 15-component)."""


def as_float_array(x, name: str = "array") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_finite(values, name: str):
    """The values of a short sequence of Python numbers, checked finite.

    For a handful of entries this costs less than a ufunc call on an array.
    """
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} contains non-finite entries")
    return values


def freeze(x, dtype=None, copy: bool = True) -> np.ndarray:
    """Read-only array with the values of x that no other reference can change.

    A caller's array is copied. An array that is already read-only and owns
    its memory is returned as it is, so frozen arrays are shared, not copied
    again. copy=False seals x in place; it is for an array the module has
    just built and holds the only reference to.
    """
    arr = np.asarray(x, dtype=dtype)
    if copy and (arr.flags.writeable or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def check_unit_vector(v, name: str = "e", tol: float = TOL) -> np.ndarray:
    arr = as_float_array(v, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    nrm2 = float(arr @ arr)
    if abs(nrm2 - 1.0) > tol:
        raise ConstraintViolation(f"{name} is not unit norm: |{name}|^2 = {nrm2!r}")
    return arr


def check_probabilities(p, tol: float = TOL) -> np.ndarray:
    """Validate a probability vector: entries >= 0 and an (fsum-)exact total of 1."""
    arr = as_float_array(p, "probabilities")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("probabilities must be a non-empty 1-d vector")
    if np.any(arr < -tol):
        raise ConstraintViolation(f"negative probability: min = {arr.min()!r}")
    chunks = (arr[i:i + _FSUM_CHUNK].tolist() for i in range(0, arr.size, _FSUM_CHUNK))
    total = math.fsum(itertools.chain.from_iterable(chunks))
    if abs(total - 1.0) > tol:
        raise ConstraintViolation(f"probabilities sum to {total!r}, not 1")
    return arr


def check_rotation(m, tol: float = 1e-12) -> np.ndarray:
    arr = as_float_array(m, "rotation")
    if arr.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    if np.abs(arr.T @ arr - np.eye(3)).max() > tol:
        raise ConstraintViolation("matrix is not orthogonal")
    if abs(np.linalg.det(arr) - 1.0) > 1e-10:
        raise ConstraintViolation("matrix is orthogonal but not a proper rotation (det != +1)")
    return arr


def check_in_range(x: float, lo: float, hi: float, name: str) -> float:
    x = float(x)
    if not (lo <= x <= hi):
        raise ValueError(f"{name} = {x!r} outside [{lo}, {hi}]")
    return x

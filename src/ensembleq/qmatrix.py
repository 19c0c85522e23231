"""Matrix oracle for the two- and four-state systems.

Everything the classical-ensemble side of the package computes is cross-checked
against plain Hermitian matrix algebra living here:

  * the Pauli basis tau_1..tau_3 and the fifteen 4x4 basis matrices L_1..L_15
    (L_k^2 = 1, tr L_k = 0, tr(L_k L_l) = 4 delta_kl), built as matrices, apart
    from the Pauli words whose products give the classical side's algebra
    (``manifolds.STRUCTURE``),
  * density matrices rho = (1 + rho_k tau_k)/2 and rho = (1 + rho_k L_k)/4
    built from a vector of basis-observable expectation values,
  * expectation values tr(A rho) and anticommutator expectations.

The oracle functions (``qm_expectation``, ``anticommutator`` and the
``anticommutator_expectation`` and ``nested_anticommutator_expectation``
values) are the reference the classical side is checked against, so only this
module, ``experiments`` and ``acceptance`` call them; a test of the package's
imports enforces it.

Functions here take and return bare numpy arrays so that the module has no
dependency on the rest of the package; a state may also be an object exposing
its Bloch vector as ``.rho``. Observables reach this module only as direction
arrays, through ``observables.operator_of``.
"""
from __future__ import annotations

import numpy as np

from .validate import (INVARIANT_TOL, ConstraintViolation, _check_dim, _check_hermitian, _real_number,
                       check_components, check_count)

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
PAULI.setflags(write=False)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = a
    m[2:, 2:] = b
    return m


def _exchange(m: np.ndarray, i: int, j: int) -> np.ndarray:
    out = m.copy()
    out[[i, j]] = out[[j, i]]
    out[:, [i, j]] = out[:, [j, i]]
    return out


def _build_l_basis() -> np.ndarray:
    t1, t2 = PAULI[0], PAULI[1]
    basis = np.zeros((15, 4, 4), dtype=complex)
    basis[0] = np.diag([1, 1, -1, -1])
    basis[1] = np.diag([1, -1, 1, -1])
    basis[2] = np.diag([1, -1, -1, 1])
    basis[3] = _block_diag(t1, t1)
    basis[4] = _block_diag(t2, t2)
    basis[5] = _block_diag(t1, -t1)
    basis[6] = _block_diag(t2, -t2)
    # L_8..L_11: second and third rows/columns of L_4..L_7 exchanged,
    # L_12..L_15: second and fourth rows/columns exchanged.
    for k in range(4):
        basis[7 + k] = _exchange(basis[3 + k], 1, 2)
        basis[11 + k] = _exchange(basis[3 + k], 1, 3)
    return basis


L_BASIS = _build_l_basis()
L_BASIS.setflags(write=False)


def l_operator(k: int) -> np.ndarray:
    """Return L_k by its conventional 1-based index."""
    return L_BASIS[check_count(k, "k", lo=1, hi=15) - 1]


def basis_identity_error() -> float:
    """Largest deviation of L_BASIS from L_k^2 = 1, tr L_k = 0, tr(L_k L_l) = 4 delta_kl
    and hermiticity; exactly zero for the built-in basis."""
    eye = np.eye(4)
    worst = 0.0
    for k, b in enumerate(L_BASIS):
        worst = max(worst, float(np.abs(b @ b - eye).max()))
        worst = max(worst, abs(complex(np.trace(b))))
        worst = max(worst, float(np.abs(b - b.conj().T).max()))
        for l in range(15):
            want = 4.0 if k == l else 0.0
            worst = max(worst, abs(complex(np.trace(b @ L_BASIS[l])) - want))
    return worst


def operator_from_direction(e, e0: float = 0.0) -> np.ndarray:
    """Hermitian operator e_k tau_k + e0 (3 components) or e_k L_k + e0 (15).

    The 2x2 matrix is written entry by entry, [[e0 + z, x - iy], [x + iy, e0 - z]]:
    the values of the basis sum, without its call overhead.
    """
    vec, e0 = check_components(e, "direction"), _real_number(e0, "e0")
    if vec.shape == (3,):
        x, y, z = vec.tolist()
        return np.array([[e0 + z, complex(x, -y)], [complex(x, y), e0 - z]])
    return np.einsum("k,kij->ij", vec, L_BASIS) + e0 * np.eye(4)


def density_from_bloch(state) -> np.ndarray:
    """Density matrix (1 + rho_k tau_k)/2 or (1 + rho_k L_k)/4 from a Bloch vector.

    Rejects non-finite vectors, and vectors violating the purity bound or
    positivity beyond INVARIANT_TOL. The 2x2 matrix is written entry by entry.
    """
    rho_vec = check_components(getattr(state, "rho", state), "Bloch vector")
    if rho_vec.shape == (3,):
        x, y, z = rho_vec.tolist()
        if x * x + y * y + z * z > 1.0 + INVARIANT_TOL:   # Python floats overflow to inf without a warning
            raise ConstraintViolation("two-state purity bound exceeded: sum rho_k^2 > 1")
        return np.array([[0.5 * (1.0 + z), complex(0.5 * x, -0.5 * y)],
                         [complex(0.5 * x, 0.5 * y), 0.5 * (1.0 - z)]])
    if sum(v * v for v in rho_vec.tolist()) > 3.0 + INVARIANT_TOL:
        raise ConstraintViolation("four-state purity bound exceeded: sum rho_k^2 > 3")
    mat = 0.25 * (np.eye(4) + np.einsum("k,kij->ij", rho_vec, L_BASIS))
    if np.linalg.eigvalsh(mat).min() < -INVARIANT_TOL:
        raise ConstraintViolation("Bloch vector maps to a non-positive matrix")
    return mat


def check_density_matrix(rho) -> np.ndarray:
    mat = _check_hermitian(rho, "density matrix")
    if abs(np.trace(mat).real - 1.0) > INVARIANT_TOL or abs(np.trace(mat).imag) > INVARIANT_TOL:
        raise ConstraintViolation("density matrix trace is not 1")
    ev = np.linalg.eigvalsh(mat)
    if ev.min() < -INVARIANT_TOL:
        raise ConstraintViolation(f"density matrix has a negative eigenvalue {float(ev.min())!r}")
    if float(np.trace(mat @ mat).real) > 1.0 + INVARIANT_TOL:
        raise ConstraintViolation("tr rho^2 exceeds 1")
    return mat


def qm_expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """tr(A rho); the imaginary part must vanish for Hermitian A."""
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    _check_dim(op, len(rho) if rho.ndim else 0, "op", "rho")
    _check_dim(rho, len(op), "rho", "op")
    val = complex(np.trace(op @ rho))
    if np.abs(op - op.conj().T).max() <= INVARIANT_TOL and abs(val.imag) > INVARIANT_TOL:
        raise ConstraintViolation(f"expectation of Hermitian operator not real: {val!r}")
    return val.real


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def anticommutator_expectation(a, b, rho) -> float:
    """tr({A, B} rho)/2, the matrix-side value of the conditional 2-point correlation."""
    return float(np.trace(anticommutator(a, b) @ rho).real) / 2.0


def nested_anticommutator_expectation(a, b, c, rho) -> float:
    """tr({{A, B}, C} rho)/4, the matrix-side value of the conditional 3-point correlation."""
    return float(np.trace(anticommutator(anticommutator(a, b), c) @ rho).real) / 4.0

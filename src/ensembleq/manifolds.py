"""Micro-state manifolds, finite weighted ensembles, and their reductions.

A micro-state is a point f on one of three manifolds:

  * ``s1``   unit vector (f1, f2, 0), stored embedded in the 1-2 plane,
  * ``s2``   unit 3-vector,
  * ``four`` the 15 basis-observable values f_k = psi^dagger L_k psi of a
             normalised complex 4-vector psi, so |f|^2 = 3.

An Ensemble is a finite weighted point set over one manifold, one micro-state
per row of its ``points``. Reduction maps
it onto the vector of basis-observable expectation values rho_k = sum_s p_s
f_k(s), the state actually needed to predict any system observable. The
substate extension realises each two-level observable as a sharp-valued
classical variable on a finer state space.
"""
from __future__ import annotations

import math

import numpy as np

from . import qmatrix
from .validate import (
    INVARIANT_TOL,
    SAME_DIRECTION_TOL,
    ZERO_TOL,
    ConstraintViolation,
    Record,
    _check_distribution,
    _dot,
    _outcome_probabilities,
    check_components,
    check_count,
    check_probabilities,
    check_unit_vector,
    freeze,
    real_array,
)

MANIFOLDS = ("s1", "s2", "four")

_DIM = {"s1": 3, "s2": 3, "four": 15}

# Largest substate table extend_to_substates builds: n * 2^m rows of 8 bytes,
# a 32 MiB table and about 36 MiB at the peak of the build.
MAX_SUBSTATE_ROWS = 2**22

# Most points grid_ensemble builds, 2 resolution^2 (resolution 1448 at most):
# 96 MiB of coordinates and 32 MiB of weights, checked before either exists.
MAX_GRID_POINTS = 2**22

# The basis observables as signed Pauli words: tau_1..tau_3 on one bit, L_1..L_15 on two (bit 1 first)
BASIS_WORDS = {3: ("X", "Y", "Z"),
               15: ("ZI", "IZ", "ZZ", "IX", "IY", "ZX", "ZY", "XI", "YI", "XZ", "YZ", "XX", "XY", "-YY", "YX")}


def _structure_constants(words) -> tuple[np.ndarray, np.ndarray]:
    """(d, f) with B_k B_l = delta_kl + (d_klm + i f_klm) B_m, multiplying the
    words letter by letter under the one-bit rule XY = iZ (cyclic)."""
    bare, n = [w.lstrip("-") for w in words], len(words)
    signs = [-1 if w[0] == "-" else 1 for w in words]
    d, f = np.zeros((n, n, n)), np.zeros((n, n, n))
    for k in range(n):
        for l in range(n):
            power, letters = 0, ""   # the product of the bare words is i^power times ``letters``
            for x, y in zip(bare[k], bare[l]):
                if x == y or "I" in (x, y):
                    letters += "I" if x == y else (x + y).replace("I", "")
                else:
                    letters += ({"X", "Y", "Z"} - {x, y}).pop()
                    power += 1 if x + y in ("XY", "YZ", "ZX") else 3
            if k != l:   # i^power = (-1)^(power // 2) i^(power % 2)
                m = bare.index(letters)
                (f if power % 2 else d)[k, l, m] = signs[k] * signs[l] * signs[m] * (-1) ** (power // 2)
    return freeze(d, copy=False), freeze(f, copy=False)


# (d, f) of the Pauli (3) and L (15) bases: symmetric d, antisymmetric f, entries 0 and +-1
STRUCTURE = {n: _structure_constants(words) for n, words in BASIS_WORDS.items()}


class BlochState(Record):
    """Reduced state: the vector of basis-observable expectation values.

    Two-state vectors satisfy sum rho_k^2 <= 1; four-state vectors satisfy
    sum rho_k^2 <= 3 and map to a positive matrix. Both checks run at
    construction with tolerance INVARIANT_TOL.
    """

    __slots__ = ("rho",)

    def __init__(self, rho: np.ndarray):
        vec = check_components(rho, "rho")
        if len(vec) == 15:
            qmatrix.density_from_bloch(vec)  # checks the bound and positivity
        elif _dot(vec, vec) > 1.0 + INVARIANT_TOL:   # an overflow is inf, without a warning
            raise ConstraintViolation("purity bound violated: sum rho_k^2 > 1")
        self._set(vec)


def _components(mat: np.ndarray) -> np.ndarray:
    """tr(B_k M) of a 2x2 or 4x4 matrix M in the Pauli or L basis."""
    return np.einsum("kij,ji->k", qmatrix.PAULI if len(mat) == 2 else qmatrix.L_BASIS, mat).real


def bloch_vector(state) -> np.ndarray:
    """The checked Bloch vector of a state, the classical side's one state reader: a BlochState's
    own ``rho`` (checked when built), a 3- or 15-vector through BlochState, and a 2x2 or 4x4
    density matrix through ``qmatrix.check_density_matrix``, read as rho_k = tr(B_k rho)."""
    if isinstance(state, BlochState):
        return state.rho
    arr = real_array(state, "state", complex_ok=True)
    if arr.ndim == 2:
        return _components(qmatrix.check_density_matrix(arr))
    return BlochState(real_array(arr, "Bloch vector")).rho


class Ensemble(Record):
    """Finite weighted set of micro-states on one manifold.

    ``points`` holds the coordinate vectors f (embedded, shape (n, 3) or
    (n, 15)); ``probs`` the probabilities, validated to be nonnegative with
    sum 1 within INVARIANT_TOL. Inputs outside tolerance are rejected, not rescaled.
    The arrays are stored read-only; a caller's arrays are copied.
    """

    __slots__ = ("manifold", "points", "probs")

    def __init__(self, manifold: str, points: np.ndarray, probs: np.ndarray):
        if manifold not in MANIFOLDS:
            raise ValueError(f"unknown manifold {manifold!r}")
        pts = real_array(points, "points")
        if pts.ndim != 2 or pts.shape[1] != _DIM[manifold]:
            raise ValueError(f"points must have shape (n, {_DIM[manifold]})")
        probs = check_probabilities(probs)
        if probs.shape[0] != pts.shape[0]:
            raise ValueError("points and probs lengths differ")
        norms = np.einsum("ij,ij->i", pts, pts)
        norms -= 3.0 if manifold == "four" else 1.0
        if np.abs(norms, out=norms).max() > INVARIANT_TOL:
            raise ConstraintViolation("a point violates the manifold norm constraint")
        if manifold == "s1" and np.abs(pts[:, 2]).max() > INVARIANT_TOL:
            raise ConstraintViolation("s1 points must lie in the 1-2 plane")
        # psi psi^dagger is a projector: with |f|^2 = 3, rho^2 = rho reads d_klm f_k f_l = 2 f_m
        if manifold == "four" and np.abs(np.einsum("ik,il,klm->im", pts, pts, STRUCTURE[15][0])
                                         - 2.0 * pts).max() > INVARIANT_TOL:
            raise ConstraintViolation("a four-state point is not a pure state: d_klm f_k f_l != 2 f_m")
        self._set(manifold, freeze(pts), freeze(probs))

    def __len__(self) -> int:
        return self.points.shape[0]


def weighted_sum(weights: np.ndarray, values: np.ndarray):
    """sum_i weights[i] values[i]: a float for a vector of values, one per column for a matrix.

    Each sum is numpy's pairwise summation of the products, whose order of
    additions, unlike a BLAS dot product's, does not depend on the number of
    BLAS threads, so outputs built from it are the same bytes under any
    thread setting. A matrix is summed one column at a time, so the working
    memory is one vector of products.
    """
    if values.ndim == 1:
        return float(np.add.reduce(weights * values))
    return np.array([np.add.reduce(weights * column) for column in values.T])


def reduce_ensemble(ensemble: Ensemble) -> BlochState:
    """Effective probabilities rho_k = sum_s p_s f_k(s) of an ensemble.

    Raises ConstraintViolation if the result breaks the purity bound beyond
    tolerance, which signals a malformed input ensemble.
    """
    return BlochState(weighted_sum(ensemble.probs, ensemble.points))


# ---------------------------------------------------------------------------
# substate (hidden-variable) extension
# ---------------------------------------------------------------------------

def canonical_direction(g) -> tuple[np.ndarray, int]:
    """Map g to the hemisphere representative (first nonzero coordinate > 0).

    Returns (canonical vector, flip) with flip = +-1 so that g = flip * canonical.
    Sign assignments obey gamma(-g) = -gamma(g), so a flipped lookup negates
    the stored sign column.
    """
    vec = check_unit_vector(g, "direction")
    for c in vec:
        if abs(c) > INVARIANT_TOL:
            if c < 0:
                return freeze(-vec), -1
            return freeze(vec), 1
    raise ValueError("zero direction vector")


def _check_directions(directions: np.ndarray) -> None:
    """Stored substate directions: unit (else ConstraintViolation), canonical and no two
    within SAME_DIRECTION_TOL (else ValueError; canonical antipodes coincide)."""
    for j, g in enumerate(directions):
        if canonical_direction(g)[1] < 0:
            raise ValueError(f"direction {g.tolist()} is not canonical: its first nonzero coordinate is < 0")
        if j and np.abs(directions[:j] - g).max(axis=1).min() < SAME_DIRECTION_TOL:
            raise ValueError("directions contain an antipodal or duplicate pair")


class SubstateEnsemble(Record):
    """Finite classical ensemble on which listed observables have sharp values.

    A substate is a micro-state together with one sign per stored direction.
    The ensemble stores an (n, 2^m) probability ``table`` over the n base
    micro-states times all 2^m sign patterns of its m ``directions``, which
    the constructor checks to be unit, canonical (first nonzero coordinate
    > 0) and pairwise distinct beyond SAME_DIRECTION_TOL. Column k is pattern k of
    ``itertools.product((1, -1), repeat=m)``: direction j has the sign -1
    where bit m-1-j of k is set. A support without some pattern has a zero
    column there. The table is validated like any probability vector (nonnegative and an exact
    total of 1, each within INVARIANT_TOL); one built by ``extend_to_substates`` has no negative cell.

    Rows are the cells of the table, micro-state by micro-state, each with
    the 2^m patterns in order. ``probs`` is the flattened table (a read-only
    view); ``state_index`` builds the matching micro-state column as a new
    array on each call. A row costs 8 bytes.
    """

    __slots__ = ("directions", "table")

    def __init__(self, directions: np.ndarray, table: np.ndarray):   # (m, 3) canonical; (n, 2^m)
        directions = freeze(real_array(directions, "directions"))
        table = real_array(table, "table")
        if directions.shape[1:] != (3,) or table.shape[1:] != (2 ** len(directions),):
            raise ValueError("directions must have shape (m, 3) and the table shape (micro-states, 2^m)")
        _check_directions(directions)
        _check_distribution(table.reshape(-1))   # real_array checked the entries finite, once
        self._set(directions, freeze(table))

    def __len__(self) -> int:
        return self.table.size

    @property
    def probs(self) -> np.ndarray:
        """(rows,) substate probabilities."""
        return self.table.reshape(-1)

    @property
    def state_index(self) -> np.ndarray:
        """(rows,) micro-state index of each substate."""
        return np.repeat(np.arange(self.table.shape[0]), self.table.shape[1])

    def column(self, direction) -> tuple[int, int]:
        """Index of a stored direction plus the hemisphere flip of the query."""
        canon, flip = canonical_direction(direction)
        diffs = np.abs(self.directions - canon[None, :]).max(axis=1)
        j = int(np.argmin(diffs))
        if diffs[j] > SAME_DIRECTION_TOL:
            raise ValueError("direction is not among the substate directions")
        return j, flip

    def _pattern_values(self, direction) -> np.ndarray:
        """(2^m,) sign of the direction in each pattern: -flip where bit m-1-j is set."""
        j, flip = self.column(direction)
        bits = (np.arange(self.table.shape[1]) >> (len(self.directions) - 1 - j)) & 1
        return flip * (1 - 2 * bits)

    def marginal_micro_probs(self) -> np.ndarray:
        """Marginalise the sign variables; recovers the base micro-state weights."""
        return self.table.sum(axis=1)

    def mean_sign(self, direction) -> np.ndarray:
        """Per-micro-state conditional mean of gamma(direction); equals f . e.

        Each row is summed by numpy's pairwise summation, not a BLAS product,
        so the means do not depend on the number of BLAS threads."""
        num = np.add.reduce(self.table * self._pattern_values(direction), axis=1)
        den = self.marginal_micro_probs()
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def extend_to_substates(ensemble: Ensemble, directions) -> SubstateEnsemble:
    """Product-form hidden-variable extension of an ensemble on the sphere.

    Each micro-state f splits into 2^m substates labelled by signs
    gamma(g_j) = +-1, one per direction, with probabilities

        p(f, {gamma}) = p(f) * prod_j (1 + gamma_j f.g_j) / 2,

    each factor read by ``validate._outcome_probabilities``, so no cell is
    negative. Directions are canonicalised to one hemisphere first; a list
    containing an antipodal pair (or a duplicate) is invalid input. The table's
    columns are the 2^m sign patterns in ``itertools.product((1, -1),
    repeat=m)`` order.

    The (n, 2^m) table is built by Kronecker doubling inside the result, one
    direction at a time, and is not copied afterwards. The result keeps
    8 bytes per row; validating it adds a 1-byte mask per row, about 9 bytes
    per row at peak. Inputs with m > 16 or n * 2^m > MAX_SUBSTATE_ROWS are
    rejected before any of it is allocated.
    """
    if ensemble.manifold not in ("s1", "s2"):
        raise ValueError("substate extension is defined for sphere ensembles")
    canon = np.array([canonical_direction(g)[0] for g in directions])
    if not len(canon):
        raise ValueError("need at least one direction")
    if len(canon) > 16:
        raise ValueError("more than 16 directions would create 2^m > 65536 substates")
    _check_directions(canon)
    n, m = len(ensemble), len(canon)
    rows = n * 2**m
    if rows > MAX_SUBSTATE_ROWS:
        raise ValueError(
            f"substate extension at (n, m) = ({n}, {m}) has n * 2^m = {rows} rows, "
            f"over the limit of {MAX_SUBSTATE_ROWS}"
        )
    table = np.empty((n, 2**m))
    table[:, 0] = 1.0
    # Pattern i has -1 for direction j where bit m-1-j of i is set, the
    # itertools.product((1, -1), repeat=m) order. The table is built by
    # Kronecker doubling in place: level j keeps its 2^(j+1) products 2^(m-j-1)
    # columns apart, so cell (k, s) of level j sits on cell k of level j-1
    # (s = +) or next to it (s = -), out[:, k, s] = prev[:, k] * half_j[:, s].
    # Every cell multiplies 1.0 by its factors (1 + gamma_j f.g_j)/2 in direction
    # order, then p(f); f.g_j is read by ``validate._dot``, as every mean is.
    for j in range(m):
        half = _outcome_probabilities(_dot(ensemble.points, canon[j]))
        level = table.reshape(n, 2**j, 2, -1)[:, :, :, 0]
        np.multiply(level[:, :, 0], half[:, 1, None], out=level[:, :, 1])
        level[:, :, 0] *= half[:, 0, None]
    table *= ensemble.probs[:, None]
    return SubstateEnsemble(canon, freeze(table, copy=False))


# ---------------------------------------------------------------------------
# quadrature ensembles on S^2
# ---------------------------------------------------------------------------

def grid_ensemble(resolution: int, density) -> Ensemble:
    """Equal-area quadrature ensemble on S^2 for a nonnegative density.

    The sphere is partitioned into ``resolution`` bands uniform in z and
    ``2 * resolution`` sectors uniform in azimuth; every cell has the exact
    area 4 pi / (2 resolution^2), so cell-centre weights are
    density * cell_area, normalised. reduce() of the result converges to the
    continuum integral of f_k density at second order in 1/resolution.
    ``density`` is called once with the (n, 3) array of cell centres and
    must return n values. A grid of more than MAX_GRID_POINTS points is
    rejected before allocating.
    """
    nz = check_count(resolution, "resolution", lo=2)
    nphi = 2 * nz
    if nz * nphi > MAX_GRID_POINTS:
        raise ValueError(f"a resolution of {nz} gives {nz * nphi} grid points; "
                         f"the limit is {MAX_GRID_POINTS}")
    z = -1.0 + (2.0 * np.arange(nz) + 1.0) / nz
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    r = np.sqrt(np.maximum(0.0, 1.0 - z ** 2))
    # embedded points are unit by construction up to roundoff
    points = np.empty((nz * nphi, 3))
    cells = points.reshape(nz, nphi, 3)
    np.multiply(r[:, None], np.cos(phi), out=cells[:, :, 0])
    np.multiply(r[:, None], np.sin(phi), out=cells[:, :, 1])
    cells[:, :, 2] = z[:, None]
    points = freeze(points, copy=False)
    cell_area = 4.0 * math.pi / (nz * nphi)
    weights = real_array(density(points), "density") * cell_area
    if weights.shape != (len(points),):
        raise ValueError(f"density must return one value per point, shape ({len(points)},), "
                         f"got shape {weights.shape}")
    if np.any(weights < -ZERO_TOL):
        raise ValueError("density takes negative values")
    np.maximum(weights, 0.0, out=weights)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("density has zero total mass on the grid")
    weights /= total
    return Ensemble("s2", points, freeze(weights, copy=False))

"""Micro-state manifolds, finite weighted ensembles, and their reductions.

A micro-state is a point on one of three manifolds:

  * ``s1``   unit vector (f1, f2, 0), stored embedded in the 1-2 plane,
  * ``s2``   unit 3-vector,
  * ``four`` normalised complex 4-vector psi, with the 15 basis-observable
             values f_k = psi^dagger L_k psi derived from it (so manifold
             membership holds by construction).

An Ensemble is a finite weighted point set over one manifold. Reduction maps
it onto the vector of basis-observable expectation values rho_k = sum_s p_s
f_k(s), the state actually needed to predict any system observable. The
substate extension realises each two-level observable as a sharp-valued
classical variable on a finer state space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qmatrix
from .validate import (
    ConstraintViolation,
    as_float_array,
    check_count,
    check_probabilities,
    check_unit_vector,
    freeze,
)

MANIFOLDS = ("s1", "s2", "four")

_DIM = {"s1": 3, "s2": 3, "four": 15}

# Largest substate table extend_to_substates builds: n * 2^m rows of 8 bytes,
# a 32 MiB table and about 36 MiB at the peak of the build.
MAX_SUBSTATE_ROWS = 2**22

# Most points grid_ensemble builds, 2 resolution^2 (resolution 1448 at most):
# 96 MiB of coordinates and 32 MiB of weights, checked before either exists.
MAX_GRID_POINTS = 2**22

# Canonical directions closer than this in every coordinate name the same
# observable. Two unit vectors that pass check_unit_vector and point the same
# way differ by under 5e-13. The window must stay this narrow: the pair
# correlator takes its coincident value inside it, and a window of width w
# lets the Bell inequality fail by up to w / 2.
SAME_DIRECTION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MicroState:
    """A point on a micro-state manifold; immutable."""

    manifold: str
    f: np.ndarray
    psi: np.ndarray | None = None

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise ValueError(f"unknown manifold {self.manifold!r}")
        object.__setattr__(self, "f", freeze(self.f))
        if self.psi is not None:
            object.__setattr__(self, "psi", freeze(self.psi))


def microstate_s1(angle: float | None = None, f=None) -> MicroState:
    """Circle point, either by angle or by a unit 2-vector (f1, f2)."""
    if (angle is None) == (f is None):
        raise ValueError("give exactly one of angle or f")
    if angle is not None:
        vec = np.array([math.cos(angle), math.sin(angle), 0.0])
    else:
        two = check_unit_vector(f, "f")
        if two.shape != (2,):
            raise ValueError("s1 coordinates must have 2 components")
        vec = np.array([two[0], two[1], 0.0])
    return MicroState("s1", vec)


def microstate_s2(f) -> MicroState:
    vec = check_unit_vector(f, "f")
    if vec.shape != (3,):
        raise ValueError("s2 coordinates must have 3 components")
    return MicroState("s2", vec)


def microstate_four(psi) -> MicroState:
    """Four-state micro-state from a normalised complex 4-vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("four-state wave function must have 4 components")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-12:
        raise ConstraintViolation(f"wave function not normalised: |psi| = {nrm!r}")
    return MicroState("four", qmatrix.bloch_from_psi(psi), psi=psi)


@dataclass(frozen=True, eq=False)
class BlochState:
    """Reduced state: the vector of basis-observable expectation values.

    Two-state vectors satisfy sum rho_k^2 <= 1; four-state vectors satisfy
    sum rho_k^2 <= 3 and map to a positive matrix. Both checks run at
    construction with tolerance 1e-12.
    """

    rho: np.ndarray

    def __post_init__(self):
        vec = as_float_array(self.rho, "rho")
        if vec.shape == (3,):
            if float(vec @ vec) > 1.0 + 1e-12:
                raise ConstraintViolation("purity bound violated: sum rho_k^2 > 1")
        elif vec.shape == (15,):
            qmatrix.density_from_bloch(vec)  # checks the bound and positivity
        else:
            raise ValueError("Bloch vector must have 3 or 15 components")
        object.__setattr__(self, "rho", freeze(vec))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def purity(self) -> float:
        return float(self.rho @ self.rho)


def purity(state) -> float:
    """sum_k rho_k^2 of a BlochState or bare vector."""
    vec = as_float_array(getattr(state, "rho", state), "rho")
    return float(vec @ vec)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite weighted set of micro-states on one manifold.

    ``points`` holds the coordinate vectors f (embedded, shape (n, 3) or
    (n, 15)); ``probs`` the probabilities, validated to be nonnegative with
    sum 1 within 1e-12. Inputs outside tolerance are rejected, not rescaled.
    The arrays are stored read-only; a caller's arrays are copied.
    """

    manifold: str
    points: np.ndarray
    probs: np.ndarray
    psis: np.ndarray | None = None

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise ValueError(f"unknown manifold {self.manifold!r}")
        pts = as_float_array(self.points, "points")
        if pts.ndim != 2 or pts.shape[1] != _DIM[self.manifold]:
            raise ValueError(f"points must have shape (n, {_DIM[self.manifold]})")
        probs = check_probabilities(self.probs)
        if probs.shape[0] != pts.shape[0]:
            raise ValueError("points and probs lengths differ")
        norms = np.einsum("ij,ij->i", pts, pts)
        norms -= 3.0 if self.manifold == "four" else 1.0
        if np.abs(norms, out=norms).max() > 1e-12:
            raise ConstraintViolation("a point violates the manifold norm constraint")
        if self.manifold == "s1" and np.abs(pts[:, 2]).max() > 1e-12:
            raise ConstraintViolation("s1 points must lie in the 1-2 plane")
        object.__setattr__(self, "points", freeze(pts))
        object.__setattr__(self, "probs", freeze(probs))
        if self.psis is not None:
            object.__setattr__(self, "psis", freeze(self.psis, complex))

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_states(cls, states, probs) -> "Ensemble":
        states = list(states)
        if not states:
            raise ValueError("empty ensemble")
        manifold = states[0].manifold
        if any(s.manifold != manifold for s in states):
            raise ValueError("all micro-states must live on the same manifold")
        pts = np.array([s.f for s in states])
        psis = None
        if manifold == "four":
            psis = np.array([s.psi for s in states])
        return cls(manifold, pts, np.asarray(probs, dtype=float), psis)

    @classmethod
    def point_mass(cls, state: MicroState) -> "Ensemble":
        return cls.from_states([state], [1.0])

    def states(self) -> list[tuple[MicroState, float]]:
        out = []
        for i in range(len(self)):
            psi = None if self.psis is None else self.psis[i]
            out.append((MicroState(self.manifold, self.points[i], psi=psi), float(self.probs[i])))
        return out


def reduce_ensemble(ensemble: Ensemble) -> BlochState:
    """Effective probabilities rho_k = sum_s p_s f_k(s) of an ensemble.

    Raises ConstraintViolation if the result breaks the purity bound beyond
    tolerance, which signals a malformed input ensemble.
    """
    return BlochState(ensemble.probs @ ensemble.points)


def mix(a: Ensemble, b: Ensemble, alpha: float) -> Ensemble:
    """Convex combination alpha*a + (1-alpha)*b as a single point set."""
    if a.manifold != b.manifold:
        raise ValueError("cannot mix ensembles on different manifolds")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    pts = np.vstack([a.points, b.points])
    probs = np.concatenate([alpha * a.probs, (1.0 - alpha) * b.probs])
    psis = None
    if a.manifold == "four":
        psis = np.vstack([a.psis, b.psis])
    return Ensemble(a.manifold, pts, probs, psis)


# ---------------------------------------------------------------------------
# substate (hidden-variable) extension
# ---------------------------------------------------------------------------

def canonical_direction(g, tol: float = 1e-12) -> tuple[np.ndarray, int]:
    """Map g to the hemisphere representative (first nonzero coordinate > 0).

    Returns (canonical vector, flip) with flip = +-1 so that g = flip * canonical.
    Sign assignments obey gamma(-g) = -gamma(g), so a flipped lookup negates
    the stored sign column.
    """
    vec = check_unit_vector(g, "direction")
    for c in vec:
        if abs(c) > tol:
            if c < 0:
                return freeze(-vec), -1
            return freeze(vec), 1
    raise ValueError("zero direction vector")


@dataclass(frozen=True, eq=False)
class SubstateEnsemble:
    """Finite classical ensemble on which listed observables have sharp values.

    A substate is a micro-state together with one sign per stored direction.
    The ensemble stores an (n, P) probability ``table`` over the n base
    micro-states times P distinct sign ``patterns``, the rows of one shared
    (P, m) int8 table with entries +1 or -1. Directions are stored
    canonicalised to a hemisphere. The table is validated like any
    probability vector (nonnegative, exact total 1 within 1e-12).

    Rows are the cells of the table, micro-state by micro-state, each with
    the P patterns in order. ``probs`` is the flattened table (a read-only
    view); ``state_index``, ``signs`` and ``sign_values`` build the matching
    per-row columns as new arrays on each call. A row costs 8 bytes, plus the
    pattern table shared by all micro-states.
    """

    directions: np.ndarray   # (m, 3), canonical
    base_points: np.ndarray  # (n, 3)
    table: np.ndarray        # (n, P) probabilities
    patterns: np.ndarray     # (P, m), int8 entries +-1
    base_probs: np.ndarray | None = field(default=None)

    def __post_init__(self):
        directions = freeze(as_float_array(self.directions))
        base_points = freeze(as_float_array(self.base_points))
        patterns = np.asarray(self.patterns)
        if patterns.ndim != 2 or patterns.shape[1] != directions.shape[0]:
            raise ValueError("sign patterns must have one column per direction")
        if not np.all(np.abs(patterns) == 1):
            raise ConstraintViolation("substate signs must be +1 or -1")
        table = np.asarray(self.table, dtype=float)
        if table.shape != (base_points.shape[0], patterns.shape[0]):
            raise ValueError("probability table must have shape (micro-states, patterns)")
        check_probabilities(table.reshape(-1))
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "base_points", base_points)
        object.__setattr__(self, "patterns", freeze(patterns, np.int8))
        object.__setattr__(self, "table", freeze(table))
        if self.base_probs is not None:
            object.__setattr__(self, "base_probs", freeze(as_float_array(self.base_probs)))

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

    @property
    def signs(self) -> np.ndarray:
        """(rows, m) int8 signs of each substate."""
        return np.tile(self.patterns, (self.table.shape[0], 1))

    def column(self, direction) -> tuple[int, int]:
        """Index of a stored direction plus the hemisphere flip of the query."""
        canon, flip = canonical_direction(direction)
        diffs = np.abs(self.directions - canon[None, :]).max(axis=1)
        j = int(np.argmin(diffs))
        if diffs[j] > SAME_DIRECTION_TOL:
            raise ValueError("direction is not among the substate directions")
        return j, flip

    def _pattern_values(self, direction) -> np.ndarray:
        """(P,) int8 sign of the direction in each pattern."""
        j, flip = self.column(direction)
        return flip * self.patterns[:, j]

    def sign_values(self, direction) -> np.ndarray:
        """(rows,) int8 sign of the direction in each substate."""
        return np.tile(self._pattern_values(direction), self.table.shape[0])

    def marginal_micro_probs(self) -> np.ndarray:
        """Marginalise the sign variables; recovers the base micro-state weights."""
        return self.table.sum(axis=1)

    def mean_sign(self, direction) -> np.ndarray:
        """Per-micro-state conditional mean of gamma(direction); equals f . e."""
        num = self.table @ self._pattern_values(direction)
        den = self.marginal_micro_probs()
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    @classmethod
    def from_rows(cls, directions, rows, base_points=None) -> "SubstateEnsemble":
        """Hand-built ensemble from (micro-state f, signs, probability) rows.

        Directions are canonicalised; sign columns of flipped directions are
        negated so stored signs always refer to the canonical representative.
        Sign patterns keep the order in which they first appear; table cells
        no row names get probability 0, and two rows naming the same
        (micro-state, pattern) cell raise ValueError. With ``base_points``,
        each row's f must equal one base point exactly (same width, every
        coordinate equal); any other f raises ValueError.
        """
        canon, flips = [], []
        for g in directions:
            c, fl = canonical_direction(g)
            canon.append(c)
            flips.append(fl)
        canon = np.array(canon)
        flips = np.array(flips)
        fs, cols, ps = [], [], []
        column_of = {}   # sign pattern -> table column
        for f, signs, p in rows:
            fs.append(np.asarray(f, dtype=float))
            pattern = tuple((flips * np.asarray(signs, dtype=int)).tolist())
            cols.append(column_of.setdefault(pattern, len(column_of)))
            ps.append(float(p))
        points = base_points
        if points is None:
            points, index = np.unique(np.array(fs), axis=0, return_inverse=True)
        else:
            points = np.asarray(points, dtype=float)
            position = {}
            for i, point in enumerate(points.tolist()):
                position.setdefault(tuple(point), i)
            try:
                index = [position[tuple(f.tolist())] for f in fs]
            except KeyError as exc:
                raise ValueError(
                    f"row micro-state {list(exc.args[0])} is not one of the base points"
                ) from None
        cells = np.asarray(index).reshape(-1) * len(column_of) + np.asarray(cols, dtype=int)
        if np.unique(cells).size < cells.size:
            raise ValueError("two rows name the same (micro-state, sign pattern) substate")
        table = np.zeros((len(points), len(column_of)))
        table.reshape(-1)[cells] = ps
        return cls(canon, points, table, np.array(list(column_of)))


def extend_to_substates(ensemble: Ensemble, directions) -> SubstateEnsemble:
    """Product-form hidden-variable extension of an ensemble on the sphere.

    Each micro-state f splits into 2^m substates labelled by signs
    gamma(g_j) = +-1, one per direction, with probabilities

        p(f, {gamma}) = p(f) * prod_j (1 + gamma_j f.g_j) / 2.

    Directions are canonicalised to one hemisphere first; a list containing an
    antipodal pair (or an exact duplicate) is invalid input. The patterns are
    all 2^m sign patterns in ``itertools.product((1, -1), repeat=m)`` order.

    The (n, 2^m) table is built by Kronecker doubling inside the result, one
    direction at a time, and is not copied afterwards. The result keeps
    8 bytes per row plus the shared (2^m, m) int8 pattern table; validating
    it adds a 1-byte mask per row, about 9 bytes per row at peak. Inputs with
    m > 16 or n * 2^m > MAX_SUBSTATE_ROWS are rejected before any of it is
    allocated.
    """
    if ensemble.manifold not in ("s1", "s2"):
        raise ValueError("substate extension is defined for sphere ensembles")
    canon = []
    for g in directions:
        c, _ = canonical_direction(g)
        for prev in canon:
            if np.abs(prev - c).max() < SAME_DIRECTION_TOL:
                raise ValueError("directions contain an antipodal or duplicate pair")
        canon.append(c)
    if not canon:
        raise ValueError("need at least one direction")
    if len(canon) > 16:
        raise ValueError("more than 16 directions would create 2^m > 65536 substates")
    n, m = len(ensemble), len(canon)
    rows = n * 2**m
    if rows > MAX_SUBSTATE_ROWS:
        raise ValueError(
            f"substate extension at (n, m) = ({n}, {m}) has n * 2^m = {rows} rows, "
            f"over the limit of {MAX_SUBSTATE_ROWS}"
        )
    canon = np.array(canon)
    dots = ensemble.points @ canon.T   # (n, m)
    pm = np.array([1.0, -1.0])
    table = np.empty((n, 2**m))
    patterns = np.ones((2**m, m), dtype=np.int8)
    # Pattern i has -1 for direction j where bit m-1-j of i is set, the
    # itertools.product((1, -1), repeat=m) order. The table is built by
    # Kronecker doubling in place: level j keeps its 2^(j+1) products 2^(m-j-1)
    # columns apart, so cell (k, s) of level j sits on cell k of level j-1
    # (s = +) or next to it (s = -), out[:, k, s] = prev[:, k] * half_j[:, s].
    # Every cell multiplies its factors (1 + gamma_j f.g_j)/2 in direction
    # order, then p(f).
    for j in range(m):
        patterns.reshape(2**j, 2, -1, m)[:, 1, :, j] = -1
        half = 0.5 * (1.0 + pm * dots[:, j, None])
        level = table.reshape(n, 2**j, 2, -1)[:, :, :, 0]
        if j == 0:
            level[:, 0, :] = half
        else:
            np.multiply(level[:, :, 0], half[:, 1, None], out=level[:, :, 1])
            level[:, :, 0] *= half[:, 0, None]
    table *= ensemble.probs[:, None]
    return SubstateEnsemble(canon, ensemble.points, freeze(table, copy=False), patterns,
                            base_probs=ensemble.probs)


# ---------------------------------------------------------------------------
# quadrature ensembles on S^2
# ---------------------------------------------------------------------------

def uniform_density(points: np.ndarray) -> np.ndarray:
    return np.full(points.shape[0], 1.0 / (4.0 * math.pi))


def _eval_density(density, points: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(density(points), dtype=float)
        if vals.shape == (points.shape[0],):
            return vals
    except (TypeError, ValueError):
        pass  # a scalar-only density; evaluate it point by point
    return np.array([float(density(p)) for p in points])


def grid_ensemble(resolution: int, density=uniform_density) -> Ensemble:
    """Equal-area quadrature ensemble on S^2 for a nonnegative density.

    The sphere is partitioned into ``resolution`` bands uniform in z and
    ``2 * resolution`` sectors uniform in azimuth; every cell has the exact
    area 4 pi / (2 resolution^2), so cell-centre weights are
    density * cell_area, normalised. reduce() of the result converges to the
    continuum integral of f_k density at second order in 1/resolution.
    A grid of more than MAX_GRID_POINTS points is rejected before allocating.
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
    weights = _eval_density(density, points) * cell_area
    if np.any(weights < -1e-15):
        raise ValueError("density takes negative values")
    np.maximum(weights, 0.0, out=weights)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("density has zero total mass on the grid")
    weights /= total
    return Ensemble("s2", points, freeze(weights, copy=False))

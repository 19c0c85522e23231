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

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import qmatrix
from .validate import (
    ConstraintViolation,
    as_float_array,
    check_probabilities,
    check_unit_vector,
)

MANIFOLDS = ("s1", "s2", "four")

_DIM = {"s1": 3, "s2": 3, "four": 15}

# Largest substate table extend_to_substates builds: n * 2^m rows, at most
# about 256 MiB at m = 16.
MAX_SUBSTATE_ROWS = 2**22


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MicroState:
    """A point on a micro-state manifold; immutable."""

    manifold: str
    f: np.ndarray
    psi: np.ndarray | None = None

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise ValueError(f"unknown manifold {self.manifold!r}")
        object.__setattr__(self, "f", _freeze(self.f))
        if self.psi is not None:
            object.__setattr__(self, "psi", _freeze(self.psi))


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
        object.__setattr__(self, "rho", _freeze(vec))

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
        target = 3.0 if self.manifold == "four" else 1.0
        if np.abs(norms - target).max() > 1e-12:
            raise ConstraintViolation("a point violates the manifold norm constraint")
        if self.manifold == "s1" and np.abs(pts[:, 2]).max() > 1e-12:
            raise ConstraintViolation("s1 points must lie in the 1-2 plane")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "probs", _freeze(probs))
        if self.psis is not None:
            object.__setattr__(self, "psis", _freeze(np.asarray(self.psis, dtype=complex)))

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

    def to_json(self) -> str:
        """Serialise as {"manifold": ..., "points": [{"f": [...], "p": ...}]}."""
        payload = {
            "manifold": self.manifold,
            "points": [
                {"f": [float(x) for x in self.points[i]], "p": float(self.probs[i])}
                for i in range(len(self))
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Ensemble":
        payload = json.loads(text)
        manifold = payload["manifold"]
        pts = np.array([entry["f"] for entry in payload["points"]], dtype=float)
        probs = np.array([entry["p"] for entry in payload["points"]], dtype=float)
        psis = None
        if manifold == "four":
            psis = np.array(
                [
                    qmatrix.wavefunction_from_pure(
                        0.25 * (np.eye(4) + np.einsum("k,kij->ij", f, qmatrix.L_BASIS))
                    )
                    for f in pts
                ]
            )
        return cls(manifold, pts, probs, psis)


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
                return _freeze(-vec), -1
            return _freeze(vec), 1
    raise ValueError("zero direction vector")


@dataclass(frozen=True, eq=False)
class SubstateEnsemble:
    """Finite classical ensemble on which listed observables have sharp values.

    Rows are substates (micro-state index, one sign per stored direction,
    probability). Directions are stored canonicalised to a hemisphere. Signs
    must be +1 or -1 and are stored as int8; probabilities are validated like
    any probability vector (nonnegative, exact total 1 within 1e-12).
    """

    directions: np.ndarray   # (m, 3), canonical
    base_points: np.ndarray  # (n, 3)
    state_index: np.ndarray  # (K,)
    signs: np.ndarray        # (K, m), int8 entries +-1
    probs: np.ndarray        # (K,)
    base_probs: np.ndarray | None = field(default=None)

    def __post_init__(self):
        signs = np.asarray(self.signs)
        if not np.all(np.abs(signs) == 1):
            raise ConstraintViolation("substate signs must be +1 or -1")
        object.__setattr__(self, "signs", _freeze(signs.astype(np.int8, copy=False)))
        object.__setattr__(self, "directions", _freeze(as_float_array(self.directions)))
        object.__setattr__(self, "base_points", _freeze(as_float_array(self.base_points)))
        object.__setattr__(self, "state_index", _freeze(np.asarray(self.state_index, dtype=int)))
        object.__setattr__(self, "probs", _freeze(check_probabilities(self.probs)))
        if self.base_probs is not None:
            object.__setattr__(self, "base_probs", _freeze(as_float_array(self.base_probs)))

    def __len__(self) -> int:
        return self.probs.shape[0]

    def column(self, direction) -> tuple[int, int]:
        """Index of a stored direction plus the hemisphere flip of the query."""
        canon, flip = canonical_direction(direction)
        diffs = np.abs(self.directions - canon[None, :]).max(axis=1)
        j = int(np.argmin(diffs))
        if diffs[j] > 1e-9:
            raise ValueError("direction is not among the substate directions")
        return j, flip

    def sign_values(self, direction) -> np.ndarray:
        j, flip = self.column(direction)
        return flip * self.signs[:, j]

    def marginal_micro_probs(self) -> np.ndarray:
        """Marginalise the sign variables; recovers the base micro-state weights."""
        n = self.base_points.shape[0]
        out = np.zeros(n)
        np.add.at(out, self.state_index, self.probs)
        return out

    def mean_sign(self, direction) -> np.ndarray:
        """Per-micro-state conditional mean of gamma(direction); equals f . e."""
        vals = self.sign_values(direction)
        n = self.base_points.shape[0]
        num = np.zeros(n)
        np.add.at(num, self.state_index, self.probs * vals)
        den = self.marginal_micro_probs()
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    @classmethod
    def from_rows(cls, directions, rows, base_points=None) -> "SubstateEnsemble":
        """Hand-built ensemble from (micro-state f, signs, probability) rows.

        Directions are canonicalised; sign columns of flipped directions are
        negated so stored signs always refer to the canonical representative.
        """
        canon, flips = [], []
        for g in directions:
            c, fl = canonical_direction(g)
            canon.append(c)
            flips.append(fl)
        canon = np.array(canon)
        flips = np.array(flips)
        fs, sgs, ps = [], [], []
        for f, signs, p in rows:
            fs.append(np.asarray(f, dtype=float))
            sgs.append(flips * np.asarray(signs, dtype=int))
            ps.append(float(p))
        points = base_points
        if points is None:
            points, index = np.unique(np.array(fs), axis=0, return_inverse=True)
        else:
            points = np.asarray(points, dtype=float)
            index = [int(np.argmin(np.abs(points - f).max(axis=1))) for f in fs]
        return cls(canon, points, np.asarray(index, dtype=int), np.array(sgs), np.array(ps))


def extend_to_substates(ensemble: Ensemble, directions) -> SubstateEnsemble:
    """Product-form hidden-variable extension of an ensemble on the sphere.

    Each micro-state f splits into 2^m substates labelled by signs
    gamma(g_j) = +-1, one per direction, with probabilities

        p(f, {gamma}) = p(f) * prod_j (1 + gamma_j f.g_j) / 2.

    Directions are canonicalised to one hemisphere first; a list containing an
    antipodal pair (or an exact duplicate) is invalid input. Rows run over the
    micro-states in order, each with its 2^m sign patterns in
    ``itertools.product((1, -1), repeat=m)`` order; signs are int8.

    The table is built in place over (n, 2^m), so peak memory is about
    32 + 2m bytes per row: the float64 probabilities and int64 state indices,
    each with its frozen copy, and the int8 signs with theirs. Inputs with
    m > 16 or n * 2^m > MAX_SUBSTATE_ROWS are rejected before any of it is
    allocated.
    """
    if ensemble.manifold not in ("s1", "s2"):
        raise ValueError("substate extension is defined for sphere ensembles")
    canon = []
    for g in directions:
        c, _ = canonical_direction(g)
        for prev in canon:
            if np.abs(prev - c).max() < 1e-9:
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
    signs = np.array(list(itertools.product((1, -1), repeat=m)), dtype=np.int8)  # (2^m, m)
    dots = ensemble.points @ canon.T                                              # (n, m)
    # one (n, 2^m) factor per direction, multiplied in direction order, then p(f)
    table = 0.5 * (1.0 + signs[None, :, 0] * dots[:, 0, None])
    for j in range(1, m):
        table *= 0.5 * (1.0 + signs[None, :, j] * dots[:, j, None])
    table *= ensemble.probs[:, None]
    return SubstateEnsemble(
        canon,
        ensemble.points,
        np.repeat(np.arange(n), 2**m),
        np.tile(signs, (n, 1)),
        table.reshape(-1),
        base_probs=ensemble.probs,
    )


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
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    nz, nphi = int(resolution), 2 * int(resolution)
    z = -1.0 + (2.0 * np.arange(nz) + 1.0) / nz
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    r = np.sqrt(np.maximum(0.0, 1.0 - zz ** 2))
    points = np.column_stack([(r * np.cos(pp)).ravel(), (r * np.sin(pp)).ravel(), zz.ravel()])
    # embedded points are unit by construction up to roundoff
    cell_area = 4.0 * math.pi / (nz * nphi)
    weights = _eval_density(density, points) * cell_area
    if np.any(weights < -1e-15):
        raise ValueError("density takes negative values")
    weights = np.maximum(weights, 0.0)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("density has zero total mass on the grid")
    return Ensemble("s2", points, weights / total)

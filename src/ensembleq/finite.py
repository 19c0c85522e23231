"""Finite classical spin systems: Z_N micro-state sets and cartesian spins.

These systems have finitely many micro-states, so continuous rotations are
unavailable; instead a Z_N subgroup acts by cyclic permutation of the states.
Coarse graining ("integrating out" states while preserving all observable
expectations) can force negative effective weights; such signed systems are a
separate type so they cannot be mistaken for true ensembles.

All mean-value tables for N in {4, 8} live in the field Q(sqrt 2), so the
module supports exact arithmetic, decided by the numbers: a system whose
probabilities are all int, Fraction or Q2 is evaluated without any rounding
(one float entry makes it a float system), and the cartesian-spin functions
are exact on int and Fraction inputs.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .validate import (PURITY_TOL, ZERO_TOL, ConstraintViolation, Record, ValueRecord, check_count,
                       check_finite, check_probabilities)


class Q2(Record):
    """Exact element a + b*sqrt(2) of the field Q(sqrt 2)."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0)):
        self._set(Fraction(a), Fraction(b))

    @staticmethod
    def of(x) -> "Q2":
        if isinstance(x, Q2):
            return x
        if isinstance(x, str):   # Fraction would parse it
            raise TypeError(f"not a number: {x!r}")
        return Q2(Fraction(x))

    def __add__(self, other):
        o = Q2.of(other)
        return Q2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Q2(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-Q2.of(other))

    def __mul__(self, other):
        o = Q2.of(other)
        return Q2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = Q2.of(other)
        except (TypeError, ValueError, OverflowError):   # not a finite number
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # a rational element equals its Fraction, int or float, so it hashes as one
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def sign(self) -> int:
        if self.a == 0 and self.b == 0:
            return 0
        if self.a >= 0 and self.b >= 0:
            return 1
        if self.a <= 0 and self.b <= 0:
            return -1
        # mixed signs: compare a^2 with 2 b^2; the larger magnitude wins
        if self.a > 0:
            return 1 if self.a * self.a > 2 * self.b * self.b else -1
        return -1 if self.a * self.a > 2 * self.b * self.b else 1

    def __lt__(self, other):
        return (self - Q2.of(other)).sign() < 0

    def __gt__(self, other):
        return (self - Q2.of(other)).sign() > 0

    def __ge__(self, other):
        return (self - Q2.of(other)).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __repr__(self):
        return f"Q2({self.a}, {self.b})"


HALF_SQRT2 = Q2(0, Fraction(1, 2))  # 1/sqrt(2)

# cos(j * pi/4) for j = 0..7, exact
_COS_PI4 = (
    Q2(1),
    HALF_SQRT2,
    Q2(0),
    -HALF_SQRT2,
    Q2(-1),
    -HALF_SQRT2,
    Q2(0),
    HALF_SQRT2,
)


def _cos_index(j: int, n: int, exact: bool):
    """cos(2 pi j / n), exactly in Q(sqrt 2) (n must then divide 8) or as a float."""
    j = j % n
    if exact:
        return _COS_PI4[(j * (8 // n)) % 8]
    return math.cos(2.0 * math.pi * j / n)


def _sum(values):
    total = None
    for v in values:
        total = v if total is None else total + v
    return total


def _is_exact_seq(p, kinds=(int, Fraction, Q2)) -> bool:
    if isinstance(p, np.ndarray) and p.dtype != object:
        return False   # numpy scalars and rows are never int, Fraction or Q2
    try:
        return all(isinstance(x, kinds) for x in list(p))
    except TypeError:
        return False


def _check_probs(probs, exact: bool) -> None:
    """Entries >= 0 with a total of 1: exactly for exact entries, else through check_probabilities."""
    if not exact:
        check_probabilities([float(p) for p in probs])
    elif any(Q2.of(p) < 0 for p in probs) or sum(map(Q2.of, probs), Q2(0)) != 1:
        raise ConstraintViolation(f"invalid exact probability vector {tuple(probs)}")


class FiniteSpinSystem(ValueRecord):
    """N micro-states on the circle with spin observables at fixed directions.

    Angles are stored as integer multiples of 2 pi / n_positions; the mean of
    the observable at index o in the micro-state at index s is
    cos(2 pi (o - s) / N). The system is ``exact`` when every probability is
    an int, Fraction or Q2: its means are then in Q(sqrt 2) (N must divide 8).
    A ``signed`` system waives nonnegativity and the total, not finiteness.
    """

    __slots__ = ("n_positions", "state_angles", "probs", "observable_angles", "exact", "signed")

    def __init__(self, n_positions: int, state_angles: tuple, probs: tuple, observable_angles: tuple,
                 signed: bool = False):
        n_positions = check_count(n_positions, "n_positions", lo=1)
        state_angles, observable_angles = (   # whole indices, reduced mod N
            tuple(check_count(a, name, lo=-math.inf) % n_positions for a in angles)
            for name, angles in (("state_angles", state_angles), ("observable_angles", observable_angles)))
        probs = tuple(probs)
        self._set(n_positions, state_angles, probs, observable_angles, _is_exact_seq(probs), signed)
        if len(self.probs) != len(self.state_angles):
            raise ValueError("probs and state_angles lengths differ")
        if self.exact and 8 % n_positions:
            raise ValueError(f"exact probabilities need N dividing 8, got N = {n_positions}")
        if not signed:
            _check_probs(probs, self.exact)
        elif not self.exact:
            check_finite([float(p) for p in probs], "probs")

    @property
    def n_states(self) -> int:
        return len(self.state_angles)

    def mean(self, obs_index: int, state_pos: int):
        """Mean value of observable ``obs_index`` in the state at list position ``state_pos``."""
        o = self.observable_angles[obs_index]
        s = self.state_angles[state_pos]
        return _cos_index(o - s, self.n_positions, self.exact)

    def mean_table(self):
        """Rows: observables, columns: micro-states (list order)."""
        return [
            [self.mean(i, j) for j in range(self.n_states)]
            for i in range(len(self.observable_angles))
        ]

    def expectations(self):
        return [
            _sum(self.mean(i, j) * self.probs[j] for j in range(self.n_states))
            for i in range(len(self.observable_angles))
        ]


_TABLE_ORDER_8 = (0, 4, 2, 6, 1, 7, 3, 5)   # (0),(pi),(pi/2),(-pi/2),(pi/4),(-pi/4),(3pi/4),(-3pi/4)
_TABLE_ORDER_4 = (0, 2, 1, 3)               # (0),(pi),(pi/2),(-pi/2)


def zn_system(n: int, probs=None) -> FiniteSpinSystem:
    """Z_N system with micro-states at angles 2 pi j / N.

    For N = 8 the state order follows the conventional table layout (the four
    axis states first, the four diagonal states after) and the observables are
    the two axis spins plus the two diagonal spins; for other N the states are
    in natural order with the two axis spins. ``probs`` defaults to the
    uniform float distribution; exact probabilities make an exact system.
    """
    n = check_count(n, "n", lo=2)
    if n == 8:
        order = _TABLE_ORDER_8
        observable_angles = (0, 2, 1, 7)   # directions 0, pi/2, pi/4, -pi/4
    elif n == 4:
        order = _TABLE_ORDER_4
        observable_angles = (0, 1)
    else:
        order = tuple(range(n))
        observable_angles = (0, n // 4) if n % 4 == 0 else (0, 1)
    if probs is None:
        probs = (1.0 / n,) * n
    return FiniteSpinSystem(n, order, tuple(probs), observable_angles)


def pure_system(n: int, angle_index: int) -> FiniteSpinSystem:
    """Point mass on the micro-state at angle 2 pi * angle_index / n. Its
    weights are the ints 1 and 0, so the system is exact and N must divide 8."""
    base = zn_system(n)
    probs = tuple(1 if a == angle_index % n else 0 for a in base.state_angles)
    return FiniteSpinSystem(n, base.state_angles, probs, base.observable_angles)


# ---------------------------------------------------------------------------
# realizable-region geometry (vertex enumeration)
# ---------------------------------------------------------------------------

class RegionDiagnostics(ValueRecord):
    """Geometry of the reachable (A1, A2) expectation region: a polygon.

    ``vertices`` holds the (A1, A2) of each micro-state, in hull order.
    ``max_mean_sum`` is the maximum of the summed observable expectations over
    the probability simplex; linear objectives peak at simplex vertices, so it
    is computed by exact vertex enumeration.
    """

    __slots__ = ("vertices", "max_mean_sum", "inradius")

    def __init__(self, vertices: tuple, max_mean_sum, inradius: float):
        self._set(vertices, max_mean_sum, inradius)


def realizable_region_check(system: FiniteSpinSystem) -> RegionDiagnostics:
    """Vertex-enumeration diagnostics of the reachable expectation region.

    Uses the first two observables as plot axes.
    """
    table = system.mean_table()
    sums = [_sum(table[i][j] for i in range(len(table))) for j in range(system.n_states)]
    max_sum = max(sums)
    pts = [(float(table[0][j]), float(table[1][j])) for j in range(system.n_states)]
    order = sorted(range(len(pts)), key=lambda j: math.atan2(pts[j][1], pts[j][0]))
    hull = [pts[j] for j in order]
    # distances from the origin to polygon edges; valid for these star-shaped hulls
    inr = math.inf
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        num = abs(x1 * y2 - x2 * y1)
        den = math.hypot(x2 - x1, y2 - y1)
        if den > ZERO_TOL:
            inr = min(inr, num / den)
    return RegionDiagnostics(vertices=tuple(hull), max_mean_sum=max_sum, inradius=inr)


# ---------------------------------------------------------------------------
# coarse graining of the 8-state system
# ---------------------------------------------------------------------------

def integrate_out(system: FiniteSpinSystem, alpha=Fraction(1, 2), beta=Fraction(1, 2)) -> FiniteSpinSystem:
    """Remove the four diagonal states of the Z_8 system, keeping all four
    observable expectations exactly.

    The weight of each diagonal state d with axis means (a1, a2) is
    redistributed onto the axis states as

        p'(0)     += alpha a1 p_d,   p'(pi)     += (alpha - 1) a1 p_d,
        p'(pi/2)  += beta  a2 p_d,   p'(-pi/2)  += (beta - 1)  a2 p_d,

    for any coefficients alpha, beta (default 1/2 each). The result can carry
    negative weights and is returned as a ``signed`` system; negativity is a
    reported feature, not an error; an exact system gives Q2 weights.
    """
    if system.n_positions != 8 or system.n_states != 8:
        raise ValueError("integrate_out expects the full Z_8 system")
    axis = (0, 4, 2, 6)
    pos = {a: i for i, a in enumerate(system.state_angles)}
    new = [system.probs[pos[a]] for a in axis]
    for ang in (1, 7, 3, 5):
        p_d = system.probs[pos[ang]]
        a1 = _cos_index(ang, 8, system.exact)
        a2 = _cos_index(ang - 2, 8, system.exact)   # sin = cos shifted by pi/2
        new[0] = new[0] + alpha * a1 * p_d
        new[1] = new[1] + (alpha - 1) * a1 * p_d
        new[2] = new[2] + beta * a2 * p_d
        new[3] = new[3] + (beta - 1) * a2 * p_d
    return FiniteSpinSystem(8, axis, tuple(new), system.observable_angles, signed=True)


def zn_step_evolution(system: FiniteSpinSystem, steps: int) -> FiniteSpinSystem:
    """Rotate the distribution by ``steps`` units of 2 pi / N.

    Pure states map to pure states and the reduced state rotates by the same
    angle; purity at step boundaries is unchanged. ``steps`` may be negative.
    """
    steps = check_count(steps, "steps", lo=-math.inf)
    n = system.n_positions
    pos = {a: i for i, a in enumerate(system.state_angles)}
    new = list(system.probs)
    for i, ang in enumerate(system.state_angles):
        src = (ang - steps) % n
        if src not in pos:
            raise ValueError("state set is not closed under Z_N steps")
        new[i] = system.probs[pos[src]]
    return FiniteSpinSystem(n, system.state_angles, tuple(new), system.observable_angles, signed=system.signed)


# ---------------------------------------------------------------------------
# cartesian spins: eight substates carrying three sharp spin values
# ---------------------------------------------------------------------------

# substate order tau = 1..8 = (+++), (++-), (+-+), (+--), (-++), (-+-), (--+), (---)
# read as (S_z, S_y, S_x) triples matching the value table below
SPIN_VALUES = (
    (1, -1, 1, -1, 1, -1, 1, -1),   # S_x
    (1, 1, -1, -1, 1, 1, -1, -1),   # S_y
    (1, 1, 1, 1, -1, -1, -1, -1),   # S_z
)

def _check_cartesian_probs(p):
    p = list(p)
    if len(p) != 8:
        raise ValueError("cartesian spin ensembles have eight substates")
    exact = _is_exact_seq(p, (int, Fraction))   # a Q2 entry is read as a float
    _check_probs(p, exact)
    return [Fraction(x) for x in p] if exact else [float(x) for x in p]


def cartesian_purity(p):
    """Purity of the spin subsystem directly from the substate probabilities.

    Polynomial in p_1..p_7 (p_8 eliminated by normalisation); identical to
    sum_k <S_k>^2. Works elementwise on an (..., 8) float array, and exactly
    on Fraction inputs.
    """
    arr = np.asarray(p, dtype=object if _is_exact_seq(p, (int, Fraction)) else float)
    if arr.shape[-1] != 8:
        raise ValueError("expected eight substate probabilities")
    p1, p2, p3, p4 = arr[..., 0], arr[..., 1], arr[..., 2], arr[..., 3]
    p5, p6, p7 = arr[..., 4], arr[..., 5], arr[..., 6]
    lin = 3 * p1 + 2 * p2 + 2 * p3 + p4 + 2 * p5 + p6 + p7
    quad = 3 * p1 ** 2 + 2 * p2 ** 2 + 2 * p3 ** 2 + p4 ** 2 + 2 * p5 ** 2 + p6 ** 2 + p7 ** 2
    cross = (
        2 * p1 * p2 + 2 * p1 * p3 + p1 * p4 + 2 * p1 * p5 + p1 * p6 + p1 * p7
        + p2 * p3 + p2 * p4 + p2 * p5 + p2 * p6
        + p3 * p4 + p3 * p5 + p3 * p7
        + p5 * p6 + p5 * p7
    )
    return 3 - 4 * lin + 4 * quad + 8 * cross


class MeasurementOutcome(ValueRecord):
    """Result of updating the cartesian ensemble after measuring S_z = +1."""

    __slots__ = ("probs", "purity_after", "constraint_violated", "pair_sums")

    def __init__(self, probs: tuple, purity_after, constraint_violated: bool, pair_sums: tuple | None = None):
        self._set(probs, purity_after, constraint_violated, pair_sums)


def cartesian_measure_sz(p, rule: str, free_p1=None) -> MeasurementOutcome:
    """State update after measuring S_z with the outcome +1.

    rule="classical" renormalises the four compatible substates, keeping their
    relative weights; this uses environment information and can push the spin
    purity above 1 (flagged, not raised). rule="quantum" keeps only the
    subsystem information: the new state has rho = (0, 0, 1), purity 1,
    with substate weights p2 = p3 = 1/2 - p1 and p4 = p1; the leftover
    parameter p1 in [0, 1/2] concerns the environment alone and defaults to
    its midpoint 1/4.
    """
    probs = _check_cartesian_probs(p)
    exact = _is_exact_seq(probs)
    sector = probs[:4]
    total = _sum(sector)
    zero = Fraction(0) if exact else 0.0
    if (total == 0) if exact else (float(total) <= 0.0):
        raise ValueError("the measured outcome has zero probability")
    if rule == "classical":
        new = [v / total if exact else float(v) / float(total) for v in sector] + [zero] * 4
        purity_after = cartesian_purity(new)
        violated = (purity_after > 1) if exact else (float(purity_after) > 1.0 + PURITY_TOL)
        return MeasurementOutcome(tuple(new), purity_after, violated)
    if rule == "quantum":
        half = Fraction(1, 2) if exact else 0.5
        q = (Fraction(1, 4) if exact else 0.25) if free_p1 is None else free_p1
        if not (0 <= (Fraction(q) if exact else float(q)) <= half):
            raise ValueError("free parameter p1 must lie in [0, 1/2]")
        new = [q, half - q, half - q, q] + [zero] * 4
        purity_after = cartesian_purity(new)
        pair_sums = (new[0] + new[1], new[0] + new[2], new[1] + new[3], new[2] + new[3])
        return MeasurementOutcome(tuple(new), purity_after, False, pair_sums)
    raise ValueError("rule must be 'classical' or 'quantum'")

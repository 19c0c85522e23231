"""Finite classical spin systems: Z_N micro-state sets and cartesian spins.

These systems have finitely many micro-states, so continuous rotations are
unavailable; instead a Z_N subgroup acts by cyclic permutation of the states.
Coarse graining ("integrating out" states while preserving all observable
expectations) can force negative effective weights; such signed systems are a
separate type so they cannot be mistaken for true ensembles.

All mean-value tables for N in {4, 8} live in the field Q(sqrt 2), so the
module supports exact arithmetic: pass Fraction (or Q2) probabilities and the
reductions, region checks and purity polynomials are evaluated without any
floating-point rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .manifolds import BlochState
from .validate import ConstraintViolation, check_count, check_probabilities


@dataclass(frozen=True)
class Q2:
    """Exact element a + b*sqrt(2) of the field Q(sqrt 2)."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @staticmethod
    def of(x) -> "Q2":
        if isinstance(x, Q2):
            return x
        return Q2(Fraction(x))

    def __add__(self, other):
        o = Q2.of(other)
        return Q2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Q2(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-Q2.of(other))

    def __rsub__(self, other):
        return Q2.of(other) + (-self)

    def __mul__(self, other):
        o = Q2.of(other)
        return Q2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = Q2.of(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

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

    def __le__(self, other):
        return (self - Q2.of(other)).sign() <= 0

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
    """cos(2 pi j / n), exactly in Q(sqrt 2) when n divides 8."""
    j = j % n
    if exact:
        if 8 % n != 0:
            raise ValueError("exact tables exist only for N dividing 8")
        return _COS_PI4[(j * (8 // n)) % 8]
    return math.cos(2.0 * math.pi * j / n)


def _sum(values):
    total = None
    for v in values:
        total = v if total is None else total + v
    return total


def _check_exact_probabilities(probs) -> None:
    """Exact probabilities (int, Fraction or Q2): each >= 0 and a total of exactly 1."""
    if any(Q2.of(p) < 0 for p in probs) or sum(map(Q2.of, probs), Q2(0)) != 1:
        raise ConstraintViolation(f"invalid exact probability vector {tuple(probs)}")


@dataclass(frozen=True)
class FiniteSpinSystem:
    """N micro-states on the circle with spin observables at fixed directions.

    Angles are stored as integer multiples of 2 pi / n_positions; the mean of
    the observable at index o in the micro-state at index s is
    cos(2 pi (o - s) / N). ``exact=True`` keeps all table entries in Q(sqrt 2)
    (N must divide 8) so that expectation values of Fraction-valued
    probabilities are exact.
    """

    n_positions: int
    state_angles: tuple
    probs: tuple
    observable_angles: tuple
    exact: bool = False
    signed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "state_angles", tuple(int(a) % self.n_positions for a in self.state_angles))
        object.__setattr__(self, "observable_angles", tuple(int(a) % self.n_positions for a in self.observable_angles))
        object.__setattr__(self, "probs", tuple(self.probs))
        if len(self.probs) != len(self.state_angles):
            raise ValueError("probs and state_angles lengths differ")
        if not self.signed:
            if self.exact:
                _check_exact_probabilities(self.probs)
            else:
                check_probabilities([float(p) for p in self.probs])

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


def zn_system(n: int, probs=None, observable_angles=None, exact: bool = False) -> FiniteSpinSystem:
    """Z_N system with micro-states at angles 2 pi j / N.

    For N = 8 the state order follows the conventional table layout (the four
    axis states first, the four diagonal states after) and the default
    observables are the two axis spins plus the two diagonal spins; for other
    N the states are in natural order with the two axis spins.
    """
    n = check_count(n, "n", lo=2)
    if n == 8:
        order = _TABLE_ORDER_8
        default_obs = (0, 2, 1, 7)   # directions 0, pi/2, pi/4, -pi/4
    elif n == 4:
        order = _TABLE_ORDER_4
        default_obs = (0, 1)
    else:
        order = tuple(range(n))
        default_obs = (0, n // 4) if n % 4 == 0 else (0, 1)
    if observable_angles is None:
        observable_angles = default_obs
    if probs is None:
        one = Fraction(1, n) if exact else 1.0 / n
        probs = (one,) * n
    return FiniteSpinSystem(n, order, tuple(probs), tuple(observable_angles), exact=exact)


def pure_system(n: int, angle_index: int, exact: bool = False, **kw) -> FiniteSpinSystem:
    """Point mass on the micro-state at angle 2 pi * angle_index / n."""
    base = zn_system(n, exact=exact, **kw)
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    probs = tuple(one if a == angle_index % n else zero for a in base.state_angles)
    return FiniteSpinSystem(n, base.state_angles, probs, base.observable_angles, exact=exact)


# ---------------------------------------------------------------------------
# realizable-region geometry (vertex enumeration)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionDiagnostics:
    """Geometry of the reachable (A1, A2) expectation region: a polygon.

    ``max_mean_sum`` is the maximum of the summed observable expectations over
    the probability simplex; linear objectives peak at simplex vertices, so it
    is computed by exact vertex enumeration.
    """

    vertices: tuple            # (A1, A2) per micro-state, hull order
    max_mean_sum: object
    inradius: float
    inradius_squared: object
    target: tuple | None = None
    target_realizable: bool | None = None


def realizable_region_check(system: FiniteSpinSystem, target=None) -> RegionDiagnostics:
    """Vertex-enumeration diagnostics of the reachable expectation region.

    Uses the first two observables as plot axes. ``target_realizable`` tests
    membership of a requested (A1, A2) pair in the convex hull of the
    micro-state mean vectors.
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
        if den > 1e-15:
            inr = min(inr, num / den)
    n = system.n_positions
    if system.exact and len(system.state_angles) == n:
        inr_sq = (Q2(1) + _cos_index(1, n, True)) * Fraction(1, 2)
    else:
        inr_sq = inr * inr
    realizable = None
    if target is not None:
        tx, ty = float(target[0]), float(target[1])
        realizable = True
        for i in range(len(hull)):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % len(hull)]
            cross = (x2 - x1) * (ty - y1) - (y2 - y1) * (tx - x1)
            if cross < -1e-12:
                realizable = False
                break
    return RegionDiagnostics(
        vertices=tuple(hull),
        max_mean_sum=max_sum,
        inradius=inr,
        inradius_squared=inr_sq,
        target=None if target is None else (float(target[0]), float(target[1])),
        target_realizable=realizable,
    )


# ---------------------------------------------------------------------------
# coarse graining of the 8-state system
# ---------------------------------------------------------------------------

def _half(exact: bool):
    return Fraction(1, 2) if exact else 0.5


def integrate_out(system: FiniteSpinSystem, alpha=None, beta=None) -> FiniteSpinSystem:
    """Remove the four diagonal states of the Z_8 system, keeping all four
    observable expectations exactly.

    The weight of each diagonal state d with axis means (a1, a2) is
    redistributed onto the axis states as

        p'(0)     += alpha a1 p_d,   p'(pi)     += (alpha - 1) a1 p_d,
        p'(pi/2)  += beta  a2 p_d,   p'(-pi/2)  += (beta - 1)  a2 p_d,

    for any coefficients alpha, beta (default 1/2 each). The result can carry
    negative weights and is returned as a ``signed`` system; negativity is a
    reported feature, not an error.
    """
    if system.n_positions != 8 or system.n_states != 8:
        raise ValueError("integrate_out expects the full Z_8 system")
    exact = system.exact
    if alpha is None:
        alpha = _half(exact)
    if beta is None:
        beta = _half(exact)
    axis = (0, 4, 2, 6)
    pos = {a: i for i, a in enumerate(system.state_angles)}
    new = [system.probs[pos[a]] for a in axis]
    for ang in (1, 7, 3, 5):
        p_d = system.probs[pos[ang]]
        a1 = _cos_index(ang, 8, exact)
        a2 = _cos_index(ang - 2, 8, exact)   # sin = cos shifted by pi/2
        new[0] = new[0] + alpha * a1 * p_d
        new[1] = new[1] + (alpha - 1) * a1 * p_d
        new[2] = new[2] + beta * a2 * p_d
        new[3] = new[3] + (beta - 1) * a2 * p_d
    return FiniteSpinSystem(
        8, axis, tuple(new), system.observable_angles, exact=exact, signed=True
    )


def rho_components(system: FiniteSpinSystem):
    """The two effective probabilities (rho_1, rho_2), in the system's arithmetic.

    rho_1 = sum_s p_s cos(phi_s), rho_2 = sum_s p_s sin(phi_s). They are
    independent of the coefficients used in any earlier coarse-graining step.
    """
    n = system.n_positions
    if system.exact:
        r1 = _sum(
            _cos_index(-s, n, True) * p for s, p in zip(system.state_angles, system.probs)
        )
        r2 = _sum(
            _cos_index(n // 4 - s, n, True) * p
            for s, p in zip(system.state_angles, system.probs)
        )
        return r1, r2
    angles = np.array([2.0 * math.pi * s / n for s in system.state_angles])
    probs = np.array([float(p) for p in system.probs])
    return float(probs @ np.cos(angles)), float(probs @ np.sin(angles))


def reduce_to_rho(system: FiniteSpinSystem) -> BlochState:
    """Reduced state of a circle system, embedded as (rho_1, rho_2, 0)."""
    r1, r2 = rho_components(system)
    return BlochState(np.array([float(r1), float(r2), 0.0]))


def zn_step_evolution(system: FiniteSpinSystem, steps: int) -> FiniteSpinSystem:
    """Rotate the distribution by ``steps`` units of 2 pi / N.

    Pure states map to pure states and the reduced state rotates by the same
    angle; purity at step boundaries is unchanged.
    """
    n = system.n_positions
    pos = {a: i for i, a in enumerate(system.state_angles)}
    new = list(system.probs)
    for i, ang in enumerate(system.state_angles):
        src = (ang - steps) % n
        if src not in pos:
            raise ValueError("state set is not closed under Z_N steps")
        new[i] = system.probs[pos[src]]
    return FiniteSpinSystem(
        n, system.state_angles, tuple(new), system.observable_angles,
        exact=system.exact, signed=system.signed,
    )


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

ENVIRONMENT_VALUES = tuple(
    tuple(
        {
            0: SPIN_VALUES[1][t] * SPIN_VALUES[2][t],
            1: SPIN_VALUES[0][t] * SPIN_VALUES[2][t],
            2: SPIN_VALUES[0][t] * SPIN_VALUES[1][t],
            3: SPIN_VALUES[0][t] * SPIN_VALUES[1][t] * SPIN_VALUES[2][t],
        }[i]
        for t in range(8)
    )
    for i in range(4)
)


def _check_cartesian_probs(p):
    p = list(p)
    if len(p) != 8:
        raise ValueError("cartesian spin ensembles have eight substates")
    if _is_exact_seq(p):
        _check_exact_probabilities(p)
        return [Fraction(x) for x in p]
    return check_probabilities([float(x) for x in p]).tolist()


@dataclass(frozen=True)
class CartesianSpinEnsemble:
    """Complete eight-substate ensemble for three cartesian spins."""

    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(_check_cartesian_probs(self.probs)))

    def spin_expectations(self):
        return [
            _sum(v * p for v, p in zip(SPIN_VALUES[k], self.probs)) for k in range(3)
        ]

    def joint_probabilities(self, values_a, values_b) -> dict:
        """Joint outcome weights for two sharp observables; the system is complete."""
        out = {}
        for va, vb, p in zip(values_a, values_b, self.probs):
            out[(va, vb)] = out.get((va, vb), 0) + p
        return out


def cartesian_purity(p):
    """Purity of the spin subsystem directly from the substate probabilities.

    Polynomial in p_1..p_7 (p_8 eliminated by normalisation); identical to
    sum_k <S_k>^2. Works elementwise on an (..., 8) float array, and exactly
    on Fraction inputs.
    """
    arr = np.asarray(p, dtype=object if _is_exact_seq(p) else float)
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
    out = 3 - 4 * lin + 4 * quad + 8 * cross
    if isinstance(out, np.ndarray):
        if out.shape:
            return out
        return out.item() if out.dtype == object else float(out)
    return out


def _is_exact_seq(p) -> bool:
    if isinstance(p, np.ndarray) and p.dtype != object:
        return False   # numpy scalars and rows are never int or Fraction
    try:
        return all(isinstance(x, (int, Fraction)) for x in list(p))
    except TypeError:
        return False


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of updating the cartesian ensemble after measuring S_z."""

    rule: str
    outcome: int
    probs: tuple
    purity_before: object
    purity_after: object
    constraint_violated: bool
    pair_sums: tuple | None = None


def cartesian_measure_sz(p, rule: str, outcome: int = 1, free_p1=None) -> MeasurementOutcome:
    """State update after measuring S_z with the given outcome.

    rule="classical" renormalises the four compatible substates, keeping their
    relative weights; this uses environment information and can push the spin
    purity above 1 (flagged, not raised). rule="quantum" keeps only the
    subsystem information: the new state has rho = (0, 0, outcome), purity 1,
    with substate weights p2 = p3 = 1/2 - p1 and p4 = p1; the leftover
    parameter p1 in [0, 1/2] concerns the environment alone and defaults to
    its midpoint 1/4.
    """
    probs = _check_cartesian_probs(p)
    exact = _is_exact_seq(probs)
    if outcome not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    keep = slice(0, 4) if outcome == 1 else slice(4, 8)
    sector = probs[keep]
    total = _sum(sector)
    purity_before = cartesian_purity(probs)
    zero = Fraction(0) if exact else 0.0
    if (total == 0) if exact else (float(total) <= 0.0):
        raise ValueError("the measured outcome has zero probability")
    if rule == "classical":
        new = [zero] * 8
        for i, v in zip(range(8)[keep], sector):
            new[i] = v / total if exact else float(v) / float(total)
        purity_after = cartesian_purity(new)
        violated = (purity_after > 1) if exact else (float(purity_after) > 1.0 + 1e-9)
        return MeasurementOutcome(rule, outcome, tuple(new), purity_before, purity_after, violated)
    if rule == "quantum":
        half = Fraction(1, 2) if exact else 0.5
        q = (Fraction(1, 4) if exact else 0.25) if free_p1 is None else free_p1
        if not (0 <= (Fraction(q) if exact else float(q)) <= half):
            raise ValueError("free parameter p1 must lie in [0, 1/2]")
        block = [q, half - q, half - q, q]
        new = [zero] * 8
        for i, v in zip(range(8)[keep], block):
            new[i] = v
        purity_after = cartesian_purity(new)
        base = 0 if outcome == 1 else 4
        pair_sums = (
            new[base + 0] + new[base + 1],
            new[base + 0] + new[base + 2],
            new[base + 1] + new[base + 3],
            new[base + 2] + new[base + 3],
        )
        return MeasurementOutcome(
            rule, outcome, tuple(new), purity_before, purity_after, False, pair_sums
        )
    raise ValueError("rule must be 'classical' or 'quantum'")

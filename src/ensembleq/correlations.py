"""Products of observables and measurement sequences.

Three product structures coexist on a classical ensemble and none is singled
out as the default:

  * classical product: multiply sharp substate values, then average; needs the
    joint probabilities of a substate extension,
  * pointwise product: multiply per-micro-state means; models measurements
    with no memory between them,
  * conditional product A o B: a first measurement of B reduces the state to
    an eigenstate of B, and A is evaluated there; its expectation equals the
    matrix-side anticommutator value tr({A, B} rho)/2.

The conditional three-point function follows the same pattern with the inner
pair measured first; it equals tr({{A, B}, C} rho)/4 and is symmetric only in
the first two slots. ``measurement_chain`` realises the same numbers as a
series of state-reduction operations, and ``simulate_sequences`` is a seeded
Monte Carlo of the record/reduction/evaluation protocol.

Measurement order convention: in ``[A, B, C]`` the rightmost observable is
measured first, so the list reads like the product A o B o C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmatrix
from .manifolds import BlochState, Ensemble, SubstateEnsemble
from .observables import (
    NoEigenstateError,
    ProductObservable,
    RANDOM,
    RandomObservable,
    TwoLevelObservable,
    has_eigenstates,
    operator_of,
)
from .validate import ConstraintViolation, DimensionMismatch, as_float_array, check_count

_SNAP = 1e-12
# measurement_chain enumerates 2^m branches, and four-state level i keeps up to
# 2^i reduced states; either count above this is rejected before building
MAX_CHAIN_SIZE = 1 << 20
# simulate_sequences runs at most this many worker threads; more is rejected
MAX_JOBS = 64
# simulate_sequences draws at most this many samples: 4295 times the 10^6 of
# c4 and the README, about five minutes on one core at 1.5e7 samples/s (m = 2)
MAX_SAMPLES = 1 << 32
# simulate_sequences draws and walks this many rows of uniforms at a time:
# 4096 x m float64, 320 KiB at m = 10
_TILE_ROWS = 4096


def _require_unit_spin(obs, name: str) -> TwoLevelObservable:
    if isinstance(obs, RandomObservable):
        raise NoEigenstateError(f"{name} is the random observable: it has no eigenstates")
    if not isinstance(obs, TwoLevelObservable) or not obs.is_unit:
        raise ValueError(f"{name} must be a unit-direction observable with zero offset")
    return obs


def _as_bloch(state, dim: int) -> np.ndarray:
    vec = as_float_array(getattr(state, "rho", state), "state")
    if vec.shape != (dim,):
        raise DimensionMismatch(f"state must have {dim} components")
    return vec


def _check_chain_dims(seq, mat) -> None:
    want = 3 if mat.shape[0] == 2 else 15
    for obs in seq:
        if isinstance(obs, TwoLevelObservable) and obs.dim != want:
            raise DimensionMismatch("observable dimension does not match the state")


def eigenstate_bloch(obs: TwoLevelObservable, sign: int) -> BlochState:
    """The unique two-state eigenstate of a spin: rho = sign * e."""
    _require_unit_spin(obs, "observable")
    if obs.dim != 3:
        raise DimensionMismatch("only two-state eigenstates are unique")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return BlochState(sign * obs.e)


def conditional_expectation_in_eigenstate(a, b) -> float:
    """<A>_{+B}: mean of A in the +1 eigenstate of B; equals tr(A B)/2."""
    a = _require_unit_spin(a, "A")
    b = _require_unit_spin(b, "B")
    if a.dim != 3 or b.dim != 3:
        raise DimensionMismatch("defined for the two-state system")
    return float(a.e @ b.e)


def conditional_correlation_2pt(a, b, state) -> float:
    """<A o B>: measure B first, then A in the eigenstate selected by B.

    Evaluated through the expectation-value construction

        (1 + <B>)/2 * <A>_{+B}  -  (1 - <B>)/2 * <A>_{-B};

    for the four-state system the eigenstates are degenerate and the value is
    produced by the projective reduction chain instead. Either path agrees
    with tr({A, B} rho)/2 and is symmetric under A <-> B.
    """
    a = _require_unit_spin(a, "A")
    b = _require_unit_spin(b, "B")
    if a.dim != b.dim:
        raise DimensionMismatch("A and B dimensions differ")
    if a.dim == 3:
        rho = _as_bloch(state, 3)
        a_plus_b = float(a.e @ b.e)
        a_minus_b = float(a.e @ (-b.e))
        mean_b = float(b.e @ rho)
        return 0.5 * (1.0 + mean_b) * a_plus_b - 0.5 * (1.0 - mean_b) * a_minus_b
    _, value = measurement_chain([a, b], state)
    return value


def conditional_correlation_3pt(a, b, c, state) -> float:
    """<A o B o C>: C first, then B, then A, with eigenstate reduction between.

    Two-state path: the explicit expectation-value expression built from
    <A>_{+-B}, <B>_{+-C} and <C>. Four-state path: projective reduction chain.
    Equals tr({{A, B}, C} rho)/4; invariant under A <-> B but not B <-> C.
    """
    if isinstance(a, RandomObservable):
        # R o X = R for every X, so the correlation vanishes identically.
        _require_unit_spin(b, "B")
        _require_unit_spin(c, "C")
        return 0.0
    a = _require_unit_spin(a, "A")
    b = _require_unit_spin(b, "B")
    c = _require_unit_spin(c, "C")
    if not (a.dim == b.dim == c.dim):
        raise DimensionMismatch("A, B, C dimensions differ")
    if a.dim == 3:
        rho = _as_bloch(state, 3)
        a_pb = float(a.e @ b.e)
        a_mb = float(a.e @ (-b.e))
        b_pc = float(b.e @ c.e)
        b_mc = float(b.e @ (-c.e))
        mean_c = float(c.e @ rho)
        return 0.25 * (
            a_pb * ((1.0 + b_pc) * (1.0 + mean_c) - (1.0 + b_mc) * (1.0 - mean_c))
            + a_mb * ((1.0 - b_mc) * (1.0 - mean_c) - (1.0 - b_pc) * (1.0 + mean_c))
        )
    _, value = measurement_chain([a, b, c], state)
    return value


def conditional_product(x, y):
    """The observable A o B (B measured first), two-state only.

    The result is again a +-1-valued observable, with one of three shapes:
    the unit observable when the directions coincide, the random observable R
    when they are orthogonal, and in general a mean function constant + spin
    part. Left association (A o B) o C is supported by passing the returned
    object back in; the right factor must always admit eigenstates, so
    A o R raises ``NoEigenstateError``. Directions within 1e-12 of the exact
    parallel/orthogonal cases are snapped onto them.
    """
    if isinstance(y, RandomObservable) or not has_eigenstates(y):
        raise NoEigenstateError(
            "the right factor has no eigenstates, so the conditional product is undefined"
        )
    if isinstance(x, RandomObservable):
        return RANDOM
    y = _require_unit_spin(y, "right factor")
    if y.dim != 3:
        raise DimensionMismatch("conditional products are implemented for the two-state system")
    if isinstance(x, ProductObservable):
        u, d = x.coeff, x.const
    else:
        u, d = x.e, x.e0
    if u.shape != y.e.shape:
        raise DimensionMismatch("factor dimensions differ")
    const = float(u @ y.e)   # mean of x in the +1 eigenstate of y, offset removed
    if abs(d) <= _SNAP:
        if abs(const - 1.0) <= _SNAP:
            return TwoLevelObservable(np.zeros(3), 1.0)
        if abs(const + 1.0) <= _SNAP:
            return TwoLevelObservable(np.zeros(3), -1.0)
        if abs(const) <= _SNAP:
            return RANDOM
        return ProductObservable(np.zeros(3), const)
    if abs(const) <= _SNAP and abs(abs(d) - 1.0) <= _SNAP:
        return TwoLevelObservable(math.copysign(1.0, d) * y.e)
    return ProductObservable(d * y.e, const)


def _two_level_projectors(obs) -> np.ndarray:
    """The eigenprojectors (P+, P-) of a +-1 observable, stacked."""
    op = operator_of(obs)
    eye = np.eye(op.shape[0])
    if np.abs(op @ op - eye).max() > 1e-12:
        raise ValueError("observable operator does not square to 1 (spectrum is not +-1)")
    return 0.5 * np.stack([eye + op, eye - op])


def sequence_probabilities(a, b, state) -> dict[str, float]:
    """Probabilities W_{s_A s_B} for measuring B first, then A.

    Keys "++", "+-", "-+", "--" give the A outcome first. The four entries sum
    to one, and W_{++} + W_{--} is independent of the measurement order.
    """
    _require_unit_spin(a, "A")
    _require_unit_spin(b, "B")
    (probs_b, succ_b), (probs_a, _) = _chain([a, b], state, terms=False)[0]
    out = {}
    for o_b, key_b in enumerate("+-"):
        for o_a, key_a in enumerate("+-"):
            out[key_a + key_b] = float(probs_a[succ_b[o_b], o_a]) * float(probs_b[0, o_b])
    return out


@dataclass(frozen=True)
class WeightedEigenstateSum:
    """Signed combination of eigenstate density matrices from a measurement chain.

    The trace of the signed sum equals the conditional correlation of the
    measured sequence.
    """

    terms: tuple

    def signed_sum(self) -> np.ndarray:
        if not self.terms:
            return np.zeros((2, 2), dtype=complex)
        out = np.zeros_like(self.terms[0][1], dtype=complex)
        for w, mat in self.terms:
            out = out + w * mat
        return out

    def trace(self) -> float:
        return float(np.trace(self.signed_sum()).real)


def _chain(observables, state, terms: bool):
    """Levels of a measurement chain, and its final states when ``terms`` is set.

    Level i is a pair (probs, succ) over the distinct reduced states before
    measurement i: probs[j] holds the (+1, -1) outcome probabilities in state
    j, and succ[2 j + o] the state index after outcome o (0 for +1). A rank-1
    projector (every two-state spin) reduces any state to its own eigenstate,
    so two-state levels hold at most 2 states: a Markov chain. Four-state
    level i keeps up to 2^i states. The random observable (legal only when
    measured last) gives outcomes +-1 with probability 1/2 and no final states.
    """
    seq = list(reversed(list(observables)))
    if not seq:
        raise ValueError("empty measurement sequence")
    for obs in seq[:-1]:
        if isinstance(obs, RandomObservable) or not has_eigenstates(obs):
            raise NoEigenstateError(
                "an inner observable has no eigenstates: the sequence is undefined"
            )
    rho = qmatrix.density_matrix(state)
    _check_chain_dims(seq, rho)
    m, rank1 = len(seq), rho.shape[0] == 2
    size = 2**m if terms else (2 if rank1 else 2 ** (m - 1))
    if size > MAX_CHAIN_SIZE:
        raise ValueError(f"a chain of {m} measurements needs {size} "
                         f"{'branches' if terms else 'reduced states'}, over {MAX_CHAIN_SIZE}")
    states, levels = rho[None], []
    for i, obs in enumerate(seq):
        k = len(states)
        if isinstance(obs, RandomObservable):
            levels.append((np.full((k, 2), 0.5), np.zeros(2 * k, dtype=np.intp)))
            return levels, None
        _require_unit_spin(obs, "observable")
        projs = _two_level_projectors(obs)
        left = projs @ states[:, None]                  # (k, 2, d, d): P_o rho_j
        probs = np.trace(left, axis1=2, axis2=3).real
        if np.any((probs < -_SNAP) | (probs > 1.0 + _SNAP)):
            raise ConstraintViolation(f"outcome probability outside [0, 1] by over {_SNAP}")
        probs = np.where(probs > 1e-15, np.minimum(probs, 1.0), 0.0)
        eigen = projs / np.trace(projs, axis1=1, axis2=2).real[:, None, None]
        succ = np.arange(2 * k)
        if rank1:
            succ %= 2
            states = eigen
        elif i < m - 1 or terms:
            # P rho P / p, or the canonical eigenspace state P / tr P for p = 0
            live = (probs > 0.0)[..., None, None]
            reduced = left @ projs / np.where(live, probs[..., None, None], 1.0)
            states = np.where(live, reduced, eigen).reshape((2 * k,) + rho.shape)
        levels.append((probs, succ))
    return levels, states


def measurement_chain(observables, state) -> tuple[WeightedEigenstateSum, float]:
    """Apply the state-reduction maps of a measurement sequence.

    ``observables`` is ordered like the product, rightmost measured first.
    Each measurement splits every branch into the two outcomes, weighting by
    sign times outcome probability and reducing the branch state projectively
    (for the two-state system this is the unique eigenstate, shared by every
    branch). A branch hit with probability exactly zero is kept, carrying
    weight 0 and the canonical eigenspace state. The random observable is
    legal only in the leftmost (last measured) position and contributes an
    empty sum with value 0. A chain of more than MAX_CHAIN_SIZE branches is
    rejected before any is built.
    """
    levels, final = _chain(observables, state, terms=True)
    if final is None:
        # Outcomes +-1 with probability 1/2 each cancel exactly.
        return WeightedEigenstateSum(()), 0.0
    weights, sid = np.ones(1), np.zeros(1, dtype=np.intp)
    for probs, succ in levels:
        weights = (weights[:, None] * (probs * (1.0, -1.0))[sid]).ravel()
        sid = succ[(2 * sid[:, None] + (0, 1)).ravel()]
    mats = list(final)
    terms = tuple(zip(weights.tolist(), [mats[j] for j in sid.tolist()]))
    return WeightedEigenstateSum(terms), math.fsum(weights.tolist())


def pointwise_correlation(a, b, ensemble: Ensemble) -> float:
    """<A x B> = sum_s p_s  mean_A(s) mean_B(s); memoryless repeated measurement."""
    def _means(obs):
        if isinstance(obs, RandomObservable):
            return np.zeros(len(ensemble))
        if isinstance(obs, ProductObservable):
            return ensemble.points @ obs.coeff + obs.const
        return ensemble.points @ obs.e + obs.e0
    return float(ensemble.probs @ (_means(a) * _means(b)))


def classical_correlation(dir_a, dir_b, substates: SubstateEnsemble) -> float:
    """<A . B> = sum_tau p_tau gamma_tau(a) gamma_tau(b) on a substate ensemble.

    Both directions must be among the ensemble's stored directions (up to the
    hemisphere convention gamma(-g) = -gamma(g)).
    """
    vals_a = substates.sign_values(dir_a)
    vals_b = substates.sign_values(dir_b)
    return float(substates.probs @ (vals_a * vals_b))


# ---------------------------------------------------------------------------
# Monte Carlo simulation of measurement sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceEstimate:
    value: float
    stderr: float
    n: int
    seed: int


def _walk(levels, u) -> np.ndarray:
    """Outcomes for rows of uniforms u (rows, m): an (m, rows) mask, True for -1.

    Measurement i gives +1 where u[:, i] is below the +1 probability of the
    row's current state, then the row moves to that outcome's successor.
    """
    minus = np.empty((len(levels), len(u)), dtype=bool)
    sid = np.zeros(len(u), dtype=np.intp)
    for i, (probs, succ) in enumerate(levels):
        np.greater_equal(u[:, i], probs[sid, 0], out=minus[i])
        sid = succ[2 * sid + minus[i]]
    return minus


def simulate_sequences(
    observables,
    state,
    n_samples: int,
    seed: int,
    n_jobs: int = 1,
    block_size: int = 1 << 16,
) -> SequenceEstimate:
    """Monte Carlo estimate of a conditional correlation from sampled sequences.

    Reproducibility contract: sample s belongs to block j = s // block_size,
    and block j draws its uniforms from the stream ``default_rng([seed, j])``
    in row-major order, one row of m uniforms per sample, column i feeding
    measurement i (rightmost measured first). So the result is bit-identical
    for a given (seed, n_samples, block_size) whatever ``n_jobs`` is. Workers
    draw and walk a block _TILE_ROWS rows at a time; successive draws continue
    the stream, so the tile size never changes a result, and a worker's
    working set stays near _TILE_ROWS * m * 8 bytes whatever ``block_size``
    is. The mean converges to ``measurement_chain``'s closed form at the
    n^(-1/2) rate; the standard error is the sample std. dev. over sqrt(n).
    More than MAX_SAMPLES samples or MAX_JOBS workers are rejected before drawing.
    """
    n_samples = check_count(n_samples, "n_samples", lo=1, hi=MAX_SAMPLES)
    seed = check_count(seed, "seed")
    block_size = check_count(block_size, "block_size", lo=1)
    n_jobs = check_count(n_jobs, "n_jobs", lo=1, hi=MAX_JOBS)
    levels, _ = _chain(observables, state, terms=False)
    n_blocks = (n_samples + block_size - 1) // block_size

    def run_block(j: int) -> int:
        """Sum of the +-1 sequence values in block j, drawn _TILE_ROWS rows at a time."""
        rng = np.random.default_rng([seed, j])
        count, total = min(block_size, n_samples - j * block_size), 0
        for start in range(0, count, _TILE_ROWS):
            rows = min(_TILE_ROWS, count - start)
            minus = _walk(levels, rng.random((rows, len(levels))))
            total += rows - 2 * int(np.count_nonzero(np.logical_xor.reduce(minus, axis=0)))
        return total

    if n_jobs > 1 and n_blocks > 1:
        # imported here, so that importing the package loads no concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            sums = list(pool.map(run_block, range(n_blocks)))
    else:
        sums = [run_block(j) for j in range(n_blocks)]
    mean = sum(sums) / n_samples
    if n_samples > 1:
        var = max(0.0, 1.0 - mean * mean) * n_samples / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    else:
        stderr = float("nan")
    return SequenceEstimate(value=mean, stderr=stderr, n=n_samples, seed=seed)


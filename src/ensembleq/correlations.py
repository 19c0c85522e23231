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
import threading

import numpy as np

from .manifolds import STRUCTURE, Ensemble, SubstateEnsemble, bloch_vector, weighted_sum
from .observables import RANDOM, ProductObservable, TwoLevelObservable, _mean, _require_spin
from .validate import INVARIANT_TOL, Record, ValueRecord, _check_dim, _dot, _outcome_probabilities, check_count

# measurement_chain enumerates 2^m branches, and four-state level i keeps up to
# 2^i reduced states; either count above this is rejected before building
MAX_CHAIN_SIZE = 1 << 20
# simulate_sequences splits its blocks into at most this many shares, one run by
# the calling thread and the rest by MAX_JOBS - 1 threads; more is rejected
MAX_JOBS = 64
# simulate_sequences draws at most this many samples: 4295 times the 10^6 of
# c4 and the README, about five minutes on one core at 1.5e7 samples/s (m = 2)
MAX_SAMPLES = 1 << 32
# simulate_sequences splits its samples into blocks of this many, block j drawing
# from the stream default_rng([seed, j]); a result is fixed per (seed, n_samples)
_BLOCK_SIZE = 1 << 16
# simulate_sequences draws and walks this many rows of uniforms at a time:
# 4096 x m float64, 320 KiB at m = 10
_TILE_ROWS = 4096


def _factors(observables, state) -> tuple[list, np.ndarray]:
    """The factors of A o B o ... (rightmost measured first) and the state's Bloch vector, read
    by ``manifolds.bloch_vector``. The one factor rule: the leftmost factor, measured last, may
    be R (R o X = R); every other passes the spin rule ``observables._require_spin``
    (NoEigenstateError if it has no eigenstates); every factor has the state's dimension
    (``validate._check_dim``)."""
    factors = list(observables)
    if not factors:
        raise ValueError("empty measurement sequence")
    rho = bloch_vector(state)
    for i, obs in enumerate(factors):
        name = f"factor {i + 1} of the product"
        if i or obs is not RANDOM:
            _require_spin(obs, name)
        _check_dim(obs.e, len(rho), name, "the state")
    return factors, rho


def conditional_correlation_2pt(a, b, state) -> float:
    """<A o B>: measure B first, then A in the eigenstate selected by B.

    Evaluated through the expectation-value construction

        (1 + <B>)/2 * <A>_{+B}  -  (1 - <B>)/2 * <A>_{-B};

    for the four-state system the eigenstates are degenerate and the value is
    produced by the projective reduction chain instead. Either path agrees
    with tr({A, B} rho)/2 and is symmetric under A <-> B. A may be R (value 0).
    """
    (a, b), rho = _factors((a, b), state)
    if len(rho) == 15:
        return _branch_sum([a, b], rho)[1]
    a_plus_b = _dot(a.e, b.e)
    a_minus_b = _dot(a.e, -b.e)
    mean_b = _mean(b, rho, "state")
    return 0.5 * (1.0 + mean_b) * a_plus_b - 0.5 * (1.0 - mean_b) * a_minus_b


def conditional_correlation_3pt(a, b, c, state) -> float:
    """<A o B o C>: C first, then B, then A, with eigenstate reduction between.

    Two-state path: the explicit expectation-value expression built from
    <A>_{+-B}, <B>_{+-C} and <C>. Four-state path: projective reduction chain.
    Equals tr({{A, B}, C} rho)/4; invariant under A <-> B but not B <-> C. A may be R (value 0).
    """
    (a, b, c), rho = _factors((a, b, c), state)
    if len(rho) == 15:
        return _branch_sum([a, b, c], rho)[1]
    a_pb = _dot(a.e, b.e)
    a_mb = _dot(a.e, -b.e)
    b_pc = _dot(b.e, c.e)
    b_mc = _dot(b.e, -c.e)
    mean_c = _mean(c, rho, "state")
    return 0.25 * (
        a_pb * ((1.0 + b_pc) * (1.0 + mean_c) - (1.0 + b_mc) * (1.0 - mean_c))
        + a_mb * ((1.0 - b_mc) * (1.0 - mean_c) - (1.0 - b_pc) * (1.0 + mean_c))
    )


def conditional_product(x, y):
    """The observable A o B (B measured first), two-state only.

    The result is again a +-1-valued observable, with one of three shapes:
    the unit observable when the directions coincide, the random observable R
    when they are orthogonal, and in general a mean function constant + spin
    part. Left association (A o B) o C is supported by passing the returned
    object back in (R o B is R); the right factor must be a spin
    (``_require_spin``), so A o R raises ``NoEigenstateError``. Directions
    within INVARIANT_TOL of the exact parallel/orthogonal cases are snapped
    onto them.
    """
    y = _require_spin(y, "the right factor")
    _check_dim(y.e, 3, "the right factor", "the two-state system")
    _check_dim(x.e, 3, "the left factor", "the right factor")
    const, d = _dot(x.e, y.e), x.e0   # const: mean of x in the +1 eigenstate of y, offset removed
    if abs(d) <= INVARIANT_TOL:
        if abs(const - 1.0) <= INVARIANT_TOL:
            return TwoLevelObservable(np.zeros(3), 1.0)
        if abs(const + 1.0) <= INVARIANT_TOL:
            return TwoLevelObservable(np.zeros(3), -1.0)
        if abs(const) <= INVARIANT_TOL:
            return RANDOM
        return ProductObservable(np.zeros(3), const)
    if abs(const) <= INVARIANT_TOL and abs(abs(d) - 1.0) <= INVARIANT_TOL:
        return TwoLevelObservable(math.copysign(1.0, d) * y.e)
    return ProductObservable(d * y.e, const)


class WeightedEigenstateSum(Record):
    """Signed combination of reduced states from a measurement chain.

    ``terms`` holds (weight, Bloch vector) pairs, one per branch; the weights
    sum to the conditional correlation of the measured sequence, and
    sum_i w_i (1, rho_i) is the component vector of the composed Lueders maps
    applied to the initial state. Two sums are equal only when they are the
    same object: the terms hold arrays, which have no single truth value to
    compare by.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self._set(terms)


def _chain(factors, rho: np.ndarray, terms: bool):
    """Levels of the chain of ``_factors``-checked factors on rho, and its final states if ``terms``.

    Level i is a pair (probs, succ) over the distinct reduced states before
    measurement i: probs[j] holds the (+1, -1) outcome probabilities in state j,
    and succ[2 j + o] the state index after outcome o (0 for +1). A state is a
    row (1, rho) of real components. Measuring A = e_k B_k gives +-1 with
    probability (1 +- e.rho)/2 (e.rho read by ``validate._dot``, as everywhere)
    and, by the Lueders map P+- X P+-, the state (D^2 +- D)(1, rho)/2 over that
    probability, where D = {A, .}/2 has row and column 0 equal to (0, e) and
    block e_k d_klm. A rank-1 projector (every two-state spin, d = 0) reduces
    any state to its own eigenstate (1, +-e), so two-state levels hold at most 2
    states: a Markov chain. Four-state level i keeps up to 2^i states. The
    random observable (legal only when measured last) gives outcomes +-1 with
    probability 1/2 and no final states.
    """
    seq = factors[::-1]
    (n,), m = rho.shape, len(seq)
    size = 2**m if terms else (2 if n == 3 else 2 ** (m - 1))
    if size > MAX_CHAIN_SIZE:
        raise ValueError(f"a chain of {m} measurements needs {size} "
                         f"{'branches' if terms else 'reduced states'}, over {MAX_CHAIN_SIZE}")
    states, levels, sign = np.concatenate(([1.0], rho))[None], [], np.array([1.0, -1.0])
    for i, obs in enumerate(seq):
        k = len(states)
        if obs is RANDOM:
            levels.append((np.full((k, 2), 0.5), np.zeros(2 * k, dtype=np.intp)))
            return levels, None
        e = obs.e
        probs = _outcome_probabilities(_dot(states[:, 1:], e))   # (1 +- e.rho_j)/2
        eigen = np.concatenate((np.ones((2, 1)), np.outer(sign, e)), axis=1)   # (1, +-e)
        succ = np.arange(2 * k)
        if n == 3:   # d = 0: every state reduces to (1, +-e)
            succ %= 2
            states = eigen
        elif i < m - 1 or terms:
            # (D^2 +- D)(1, rho)/2 over p, or the eigenspace state (1, +-e) for p = 0
            dmat = np.zeros((n + 1, n + 1))
            dmat[0, 1:] = dmat[1:, 0] = e
            dmat[1:, 1:] = e @ STRUCTURE[n][0]
            once = states @ dmat   # (k, n + 1): D (1, rho_j), D symmetric
            live = (probs > 0.0)[..., None]
            reduced = 0.5 * ((once @ dmat)[:, None] + sign[:, None] * once[:, None])
            reduced[..., 0] = probs
            reduced /= np.where(live, probs[..., None], 1.0)
            np.copyto(reduced, eigen, where=~live)
            states = reduced.reshape(2 * k, n + 1)
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
    return _branch_sum(*_factors(observables, state))


def _branch_sum(factors, rho: np.ndarray) -> tuple[WeightedEigenstateSum, float]:
    """``measurement_chain`` of factors that passed ``_factors`` on the Bloch vector rho."""
    levels, final = _chain(factors, rho, terms=True)
    if final is None:
        # Outcomes +-1 with probability 1/2 each cancel exactly.
        return WeightedEigenstateSum(()), 0.0
    weights, sid = np.ones(1), np.zeros(1, dtype=np.intp)
    for probs, succ in levels:
        weights = (weights[:, None] * (probs * (1.0, -1.0))[sid]).ravel()
        sid = succ[(2 * sid[:, None] + (0, 1)).ravel()]
    vecs, weights = list(final[:, 1:]), weights.tolist()
    terms = tuple(zip(weights, [vecs[j] for j in sid.tolist()]))
    return WeightedEigenstateSum(terms), math.fsum(weights)


def pointwise_correlation(a, b, ensemble: Ensemble) -> float:
    """<A x B> = sum_s p_s  mean_A(s) mean_B(s); memoryless repeated measurement."""
    pts = ensemble.points
    return weighted_sum(ensemble.probs, _mean(a, pts, "ensemble") * _mean(b, pts, "ensemble"))


def classical_correlation(dir_a, dir_b, substates: SubstateEnsemble) -> float:
    """<A . B> = sum_tau p_tau gamma_tau(a) gamma_tau(b) on a substate ensemble.

    Both directions must be among the ensemble's stored directions (up to the
    hemisphere convention gamma(-g) = -gamma(g)). The sum runs over the sign
    patterns, each weighted by its column total of the table, so it needs
    O(n + 2^m) memory, not a value per substate.
    """
    products = substates._pattern_values(dir_a) * substates._pattern_values(dir_b)
    return weighted_sum(np.add.reduce(substates.table, axis=0), products)


# ---------------------------------------------------------------------------
# Monte Carlo simulation of measurement sequences
# ---------------------------------------------------------------------------

class SequenceEstimate(ValueRecord):
    __slots__ = ("value", "stderr", "n", "seed")

    def __init__(self, value: float, stderr: float, n: int, seed: int):
        self._set(value, stderr, n, seed)


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
) -> SequenceEstimate:
    """Monte Carlo estimate of a conditional correlation from sampled sequences.

    Reproducibility contract: sample s belongs to block j = s // _BLOCK_SIZE
    (65,536), and block j draws its uniforms from the stream
    ``default_rng([seed, j])`` in row-major order, one row of m uniforms per
    sample, column i feeding measurement i (rightmost measured first). So the
    result is bit-identical for a given (seed, n_samples) whatever ``n_jobs`` is.

    The blocks are dealt into min(n_jobs, n_blocks) shares, share w taking
    blocks w, w + shares, ...; the calling thread runs share 0 and one thread
    each runs the others, so ``n_jobs=1`` starts no thread. An error in any
    share is raised in the caller once every thread has ended. A share draws
    and walks a block _TILE_ROWS rows at a time; successive draws continue
    the stream, so the tile size never changes a result, and a share's
    working set stays near _TILE_ROWS * m * 8 bytes whatever _BLOCK_SIZE
    is. The mean converges to ``measurement_chain``'s closed form at the
    n^(-1/2) rate; the standard error is the sample std. dev. over sqrt(n).
    More than MAX_SAMPLES samples or MAX_JOBS shares are rejected before drawing.
    """
    n_samples = check_count(n_samples, "n_samples", lo=1, hi=MAX_SAMPLES)
    seed = check_count(seed, "seed")
    n_jobs = check_count(n_jobs, "n_jobs", lo=1, hi=MAX_JOBS)
    levels, _ = _chain(*_factors(observables, state), terms=False)
    n_blocks = (n_samples + _BLOCK_SIZE - 1) // _BLOCK_SIZE

    def run_block(j: int) -> int:
        """Sum of the +-1 sequence values in block j, drawn _TILE_ROWS rows at a time."""
        rng = np.random.default_rng([seed, j])
        count, total = min(_BLOCK_SIZE, n_samples - j * _BLOCK_SIZE), 0
        for start in range(0, count, _TILE_ROWS):
            rows = min(_TILE_ROWS, count - start)
            minus = _walk(levels, rng.random((rows, len(levels))))
            total += rows - 2 * int(np.count_nonzero(np.logical_xor.reduce(minus, axis=0)))
        return total

    shares = min(n_jobs, n_blocks)
    sums, errors = [0] * shares, [None] * shares

    def run_share(w: int) -> None:
        """Sum blocks w, w + shares, ... into sums[w], or keep the error for the caller."""
        try:
            sums[w] = sum(run_block(j) for j in range(w, n_blocks, shares))
        except Exception as exc:
            errors[w] = exc

    threads = [threading.Thread(target=run_share, args=(w,)) for w in range(1, shares)]
    for thread in threads:
        thread.start()
    try:
        run_share(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    mean = sum(sums) / n_samples
    if n_samples > 1:
        var = max(0.0, 1.0 - mean * mean) * n_samples / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    else:
        stderr = float("nan")
    return SequenceEstimate(value=mean, stderr=stderr, n=n_samples, seed=seed)


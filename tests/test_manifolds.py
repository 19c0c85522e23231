import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleq import manifolds, qmatrix
from ensembleq.correlations import classical_correlation, pointwise_correlation
from ensembleq.manifolds import (
    MAX_GRID_POINTS,
    MAX_SUBSTATE_ROWS,
    STRUCTURE,
    BlochState,
    Ensemble,
    SubstateEnsemble,
    canonical_direction,
    extend_to_substates,
    grid_ensemble,
    reduce_ensemble,
)
from ensembleq.observables import TwoLevelObservable
from ensembleq.validate import ConstraintViolation, check_probabilities


def octagon_ensemble(probs=None):
    """Eight pure states at multiples of pi/4 in the 1-2 plane."""
    points = [[math.cos(k * math.pi / 4.0), math.sin(k * math.pi / 4.0), 0.0] for k in range(8)]
    if probs is None:
        probs = [1.0 / 8.0] * 8
    return Ensemble("s1", points, probs)


def _circle_point_mass(angle) -> Ensemble:
    with np.errstate(invalid="ignore"):   # cos and sin of inf are NaN
        return Ensemble("s1", [[np.cos(angle), np.sin(angle), 0.0]], [1.0])


def _four_point(psi) -> np.ndarray:
    """The coordinates f_k = psi^dagger L_k psi of a four-state micro-state."""
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("i,kij,j->k", psi.conj(), qmatrix.L_BASIS, psi).real


def _purity(state) -> float:
    return float(state.rho @ state.rho)


def _uniform(points):
    return np.ones(len(points))


def _table_product(a, b) -> tuple[float, np.ndarray]:
    """A B = (a.b) + (d_klm + i f_klm) a_k b_l B_m for A = a_k B_k, B = b_l B_l, read off the
    table: (scalar part, complex component vector)."""
    d, f = STRUCTURE[len(a)]
    return float(a @ b), np.einsum("k,l,klm->m", a, b, d + 1j * f)


class TestStructureConstants:
    @pytest.mark.parametrize("size, nonzero", [(3, (0, 6)), (15, (90, 120))], ids=["pauli", "l-basis"])
    def test_table_gives_every_product(self, size, nonzero):
        # B_k B_l = delta_kl + (d_klm + i f_klm) B_m, exactly, against the oracle's own matrices
        basis, (d, f) = qmatrix.PAULI if size == 3 else qmatrix.L_BASIS, STRUCTURE[size]
        assert not d.flags.writeable and not f.flags.writeable
        assert all(np.array_equal(d, d.transpose(p)) for p in itertools.permutations(range(3)))
        assert np.array_equal(f, -f.transpose(1, 0, 2)) and np.array_equal(f, -f.transpose(0, 2, 1))
        assert (np.count_nonzero(d), np.count_nonzero(f)) == nonzero
        assert set(np.unique(d)) | set(np.unique(f)) <= {-1.0, 0.0, 1.0}
        eye = np.eye(len(basis[0]))
        for k in range(size):
            for l in range(size):
                want = (k == l) * eye + np.einsum("m,mij->ij", d[k, l] + 1j * f[k, l], basis)
                assert np.array_equal(basis[k] @ basis[l], want), (k, l)

    def test_same_direction_squares_to_one(self):
        e0, evec = _table_product(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert e0 == 1.0
        np.testing.assert_array_equal(evec, np.zeros(3))

    def test_orthogonal_pair_gives_i_tau3(self):
        e0, evec = _table_product(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert e0 == 0.0
        np.testing.assert_array_equal(evec, [0.0, 0.0, 1.0j])

    def test_reversed_pair_gives_minus_i_tau3(self):
        e0, evec = _table_product(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(evec, [0.0, 0.0, -1.0j])

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(10)
        for size in (3, 15):
            basis = qmatrix.PAULI if size == 3 else qmatrix.L_BASIS
            for _ in range(50):
                ea, eb = (v / np.linalg.norm(v) for v in rng.normal(size=(2, size)))
                e0, evec = _table_product(ea, eb)
                mat = qmatrix.operator_from_direction(ea) @ qmatrix.operator_from_direction(eb)
                want = e0 * np.eye(len(basis[0])) + np.einsum("k,kij->ij", evec, basis)
                np.testing.assert_allclose(mat, want, atol=1e-12)


class TestReduce:
    def test_point_mass(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        state = reduce_ensemble(ens)
        assert np.array_equal(state.rho, [0.0, 0.0, 1.0])
        assert _purity(state) == 1.0

    def test_uniform_octagon_cancels(self):
        state = reduce_ensemble(octagon_ensemble())
        assert np.abs(state.rho).max() < 1e-15

    def test_two_point_equal_mixture(self):
        ens = Ensemble("s2", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.5, 0.5])
        state = reduce_ensemble(ens)
        np.testing.assert_array_equal(state.rho, [0.5, 0.5, 0.0])
        assert _purity(state) == 0.5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_linear_in_probabilities(self, seed, alpha):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p1 = rng.random(6)
        p1 /= p1.sum()
        p2 = rng.random(6)
        p2 /= p2.sum()
        e1 = Ensemble("s2", pts, p1)
        e2 = Ensemble("s2", pts, p2)
        mixed = reduce_ensemble(Ensemble("s2", np.vstack([pts, pts]),
                                         np.concatenate([alpha * p1, (1 - alpha) * p2]))).rho
        direct = alpha * reduce_ensemble(e1).rho + (1 - alpha) * reduce_ensemble(e2).rho
        np.testing.assert_allclose(mixed, direct, atol=1e-14)

    def test_purity_bound_random_ensembles(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            pts = rng.normal(size=(n, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            p = rng.random(n)
            p /= p.sum()
            assert _purity(reduce_ensemble(Ensemble("s2", pts, p))) <= 1.0 + 1e-12

    def test_pure_iff_unit_purity_on_grids(self):
        # a point mass reduces to unit norm; conversely purity near 1 forces
        # the weight to concentrate at the reduced direction (Markov bound:
        # mass outside the cap f.d > 1-delta is at most (1 - rho.d)/delta)
        ens = grid_ensemble(600, lambda pts: np.exp(200.0 * (pts[:, 2] - 1.0)))
        state = reduce_ensemble(ens)
        assert 0.98 < _purity(state) < 1.0
        direction = state.rho / np.linalg.norm(state.rho)
        delta = 0.05
        inside = float(ens.probs[ens.points @ direction > 1.0 - delta].sum())
        assert inside >= 1.0 - (1.0 - float(state.rho @ direction)) / delta
        assert inside > 0.99


class TestValidation:
    def test_probabilities_not_renormalised(self):
        points = [[0, 0, 1.0], [1.0, 0, 0]]
        with pytest.raises(ConstraintViolation):
            Ensemble("s2", points, [0.6, 0.5])
        with pytest.raises(ConstraintViolation):
            Ensemble("s2", points, [1.2, -0.2])

    def test_norm_constraint(self):
        with pytest.raises(ConstraintViolation):
            Ensemble("s2", [[0.0, 0.0, 1.1]], [1.0])
        with pytest.raises(ConstraintViolation):
            Ensemble("four", [_four_point(np.array([1.0, 1.0, 0.0, 0.0]))], [1.0])

    @pytest.mark.parametrize("build", [
        lambda: _circle_point_mass(math.nan),
        lambda: _circle_point_mass(math.inf),
        lambda: Ensemble("four", [_four_point([math.nan, 0.0, 0.0, 1.0])], [1.0]),
    ], ids=["s1-nan-angle", "s1-inf-angle", "four-nan-entry"])
    def test_non_finite_micro_state_rejected_at_construction(self, build):
        # a micro-state enters the package only through an Ensemble, which
        # rejects non-finite coordinates (a NaN norm passes a "> tol" test)
        _circle_point_mass(0.5)   # control: a finite angle passes
        with pytest.raises(ValueError, match="non-finite"):
            build()

    def test_four_state_points_must_be_pure(self):
        # |f|^2 = 3 holds for +-sqrt(3) e1, and their even mix reduces to the valid state 0,
        # but neither point is a psi^dagger L psi: d_klm f_k f_l = 0, not 2 f_m
        point = math.sqrt(3.0) * np.eye(15)[0]
        with pytest.raises(ConstraintViolation, match="not a pure state"):
            Ensemble("four", [point, -point], [0.5, 0.5])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 8), min_size=1, max_size=6))
    def test_points_built_from_wave_functions_are_accepted(self, raw):
        psis = np.array([np.array(r[:4]) + 1j * np.array(r[4:]) for r in raw])
        norms = np.linalg.norm(psis, axis=1)
        psis = psis[norms > 0.1] / norms[norms > 0.1, None]
        if len(psis):
            ens = Ensemble("four", [_four_point(psi) for psi in psis], [1.0 / len(psis)] * len(psis))
            assert len(ens) == len(psis)

    def test_bloch_state_bounds(self):
        with pytest.raises(ConstraintViolation):
            BlochState(np.array([1.0, 0.5, 0.0]))
        vec = np.zeros(15)
        vec[0] = 2.0   # norm ok for 15 components but matrix not positive
        with pytest.raises(ConstraintViolation):
            BlochState(vec)

    def test_probability_total_exact_across_chunks(self):
        # 200000 entries of 1e-17 vanish one by one in a running float sum
        # onto 1.0, but their exact total of 2e-12 breaks the 1e-12 tolerance
        arr = np.full(200_001, 1e-17)
        arr[0] = 1.0
        with pytest.raises(ConstraintViolation):
            check_probabilities(arr)
        arr[0] = 1.0 - 2e-12
        assert check_probabilities(arr) is not None

    def test_probability_total_working_set(self):
        # the exact total sees the vector a chunk at a time: 2^20 entries cost
        # the 1 MiB sign test and one chunk of Python floats, not a 2 MiB chunk
        arr = np.full(2**20, 2.0**-20)
        tracemalloc.start()
        try:
            check_probabilities(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    def test_caller_arrays_copied_and_stored_read_only(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        p = np.array([0.25, 0.75])
        ens = Ensemble("s2", pts, p)
        g, table = np.array([[1.0, 0.0, 0.0]]), np.array([[0.5, 0.5]])
        sub = SubstateEnsemble(g, table)
        want = (ens.points.copy(), ens.probs.copy(), sub.table.copy(), sub.directions.copy())
        for arr in (pts, p, g, table):
            arr[...] = 7
        got = (ens.points, ens.probs, sub.table, sub.directions)
        for stored, before in zip(got, want):
            np.testing.assert_array_equal(stored, before)
        for stored in got + (sub.probs,):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 0

    def test_purity_values(self):
        assert _purity(BlochState(np.zeros(3))) == 0.0
        assert _purity(BlochState(np.array([0.0, 0.0, 1.0]))) == 1.0


class TestFourStateStates:
    def test_micro_state_norm_is_three(self):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        f = _four_point(psi)
        assert abs(f @ f - 3.0) < 1e-12

    def test_reduce_respects_four_state_bound(self):
        rng = np.random.default_rng(4)
        states = []
        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            states.append(_four_point(psi))
        p = rng.random(5)
        p /= p.sum()
        state = reduce_ensemble(Ensemble("four", np.array(states), p))
        assert _purity(state) <= 3.0 + 1e-12


class TestSubstates:
    def test_aligned_direction(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        sub = extend_to_substates(ens, [[0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(sub.probs, [1.0, 0.0])

    def test_orthogonal_direction(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        sub = extend_to_substates(ens, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(sub.probs, [0.5, 0.5])

    def test_two_directions_product_form(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        sub = extend_to_substates(ens, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        # sign order (+,+), (+,-), (-,+), (-,-) on (z, x)
        np.testing.assert_array_equal(sub._pattern_values([0.0, 0.0, 1.0]), [1, 1, -1, -1])
        np.testing.assert_array_equal(sub._pattern_values([1.0, 0.0, 0.0]), [1, -1, 1, -1])
        np.testing.assert_array_equal(sub.probs, [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_array_equal(sub.mean_sign([0.0, 0.0, 1.0]), [1.0])

    def test_antipodal_pair_rejected(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        with pytest.raises(ValueError):
            extend_to_substates(ens, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

    def test_marginal_recovers_ensemble(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(7, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(7)
        p /= p.sum()
        ens = Ensemble("s2", pts, p)
        dirs = rng.normal(size=(3, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sub = extend_to_substates(ens, dirs)
        np.testing.assert_allclose(sub.marginal_micro_probs(), p, atol=1e-15)

    def test_per_state_mean_equals_dot(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(5, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        p = rng.random(5)
        p /= p.sum()
        ens = Ensemble("s2", pts, p)
        g = rng.normal(size=3)
        g /= np.linalg.norm(g)
        sub = extend_to_substates(ens, [g, [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(sub.mean_sign(g), pts @ g, atol=1e-12)

    def test_flip_convention(self):
        # gamma(-g) = -gamma(g): querying the antipode negates the signs
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        dirs = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        sub = extend_to_substates(ens, dirs)
        for j, g in enumerate(dirs):
            want = [pattern[j] for pattern in itertools.product((1, -1), repeat=len(dirs))]
            np.testing.assert_array_equal(sub._pattern_values(g), want)
            np.testing.assert_array_equal(sub._pattern_values(-np.array(g)), [-s for s in want])
        np.testing.assert_array_equal(sub.mean_sign([0.0, 0.0, -1.0]), -sub.mean_sign([0.0, 0.0, 1.0]))

    def test_canonical_direction(self):
        canon, flip = canonical_direction([-1.0, 0.0, 0.0])
        np.testing.assert_array_equal(canon, [1.0, 0.0, 0.0])
        assert flip == -1
        canon, flip = canonical_direction([0.0, 1.0, 0.0])
        assert flip == 1

    def test_hand_built_rows(self):
        dirs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        sub = SubstateEnsemble(dirs, [[0.25] * 4])
        assert len(sub) == 4
        assert sub.marginal_micro_probs()[0] == 1.0
        with pytest.raises(ValueError, match="shape"):
            SubstateEnsemble(dirs, [[0.5, 0.5]])   # two directions need 2^2 pattern columns
        with pytest.raises(ValueError, match="shape"):
            SubstateEnsemble(dirs[0], [[0.125] * 8])   # one direction, not three coordinates

    @pytest.mark.parametrize("dirs, table, error, match", [
        ([[-1.0, 0.0, 0.0]], [[0.5, 0.5]], ValueError, "not canonical"),
        ([[0.0, -0.6, 0.8]], [[0.5, 0.5]], ValueError, "not canonical"),
        ([[3.0, 0.0, 0.0]], [[0.5, 0.5]], ConstraintViolation, "not unit norm"),
        ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.25] * 4], ValueError, "duplicate"),
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1e-13]], [[0.125] * 8], ValueError, "duplicate"),
    ], ids=["antipode", "antipode-y", "non-unit", "duplicate", "near-duplicate"])
    def test_hand_built_directions_checked(self, dirs, table, error, match):
        # no query can match a stored direction that is not canonical or not unit,
        # and a duplicate would give one observable two columns
        with pytest.raises(error, match=match):
            SubstateEnsemble(dirs, table)

    def test_hand_built_rows_absent_cells_are_zero(self):
        # each micro-state puts all its weight on one pattern, (-,+) or (+,+);
        # the patterns it leaves out are zero columns
        sub = SubstateEnsemble([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                               [[0.0, 0.0, 0.5, 0.0], [0.5, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(sub.table, [[0.0, 0.0, 0.5, 0.0], [0.5, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(sub.mean_sign([0.0, 0.0, 1.0]), [-1.0, 1.0])
        np.testing.assert_array_equal(sub.mean_sign([1.0, 0.0, 0.0]), [1.0, 1.0])

    def test_extension_working_set_bounded(self):
        # (n, m) = (512, 12): a 16 MiB table built in place and kept uncopied
        ens = grid_ensemble(16, _uniform)
        rng = np.random.default_rng(12)
        dirs = rng.normal(size=(12, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            sub = extend_to_substates(ens, dirs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sub) == 512 * 2**12
        assert peak < 32 * 2**20

    def test_oversized_extension_rejected_before_allocating(self):
        ens = grid_ensemble(64, _uniform)   # 8192 points
        rng = np.random.default_rng(10)
        dirs = rng.normal(size=(16, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert len(ens) * 2**16 > MAX_SUBSTATE_ROWS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="8192"):
                extend_to_substates(ens, dirs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_row_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(manifolds, "MAX_SUBSTATE_ROWS", 32)
        ens = octagon_ensemble()
        dirs = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert len(extend_to_substates(ens, dirs[:2])) == 32   # 8 * 2^2, at the limit
        with pytest.raises(ValueError, match="64 rows"):
            extend_to_substates(ens, dirs)

    def test_sixteen_directions(self):
        ens = Ensemble("s2", [[0.0, 0.0, 1.0]], [1.0])
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(16, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sub = extend_to_substates(ens, dirs)
        assert sub.table.shape == (1, 2**16)
        # the last pattern has every sign -1
        for g in dirs:
            assert sub._pattern_values(g)[-1] == -canonical_direction(g)[1]


def _unit_vectors():
    return (
        st.tuples(*[st.floats(-1.0, 1.0)] * 3)
        .filter(lambda v: math.fsum(x * x for x in v) > 1e-2)
        .map(lambda v: np.array(v) / np.linalg.norm(v))
    )


def _distinct_axes(dirs):
    canon = [canonical_direction(g)[0] for g in dirs]
    return all(
        np.abs(canon[i] - canon[k]).max() >= 1e-9
        for i in range(len(canon))
        for k in range(i)
    )


@st.composite
def s2_extensions(draw):
    """A small s2 ensemble plus 1-5 pairwise non-antipodal directions."""
    n = draw(st.integers(1, 6))
    pts = np.array(draw(st.lists(_unit_vectors(), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    dirs = draw(st.lists(_unit_vectors(), min_size=1, max_size=5).filter(_distinct_axes))
    return Ensemble("s2", pts, weights / weights.sum()), dirs


@st.composite
def hand_built_tables(draw):
    """1-4 pairwise non-antipodal directions and a probability table over 1-3
    micro-states times their 2^m sign patterns, some cells exactly zero."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dirs = draw(st.lists(_unit_vectors(), min_size=m, max_size=m).filter(_distinct_axes))
    cells = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = np.array(draw(st.lists(cells, min_size=n * 2**m, max_size=n * 2**m).filter(any)))
    return dirs, (weights / weights.sum()).reshape(n, 2**m)


class TestSubstateProperties:
    @settings(max_examples=60, deadline=None)
    @given(hand_built_tables())
    def test_columns_follow_the_product_order(self, case):
        # column k of the table is pattern k of itertools.product((1, -1), repeat=m),
        # whose signs belong to the canonical directions: gamma(-g) = -gamma(g)
        dirs, table = case
        sub = SubstateEnsemble([canonical_direction(g)[0] for g in dirs], table)
        patterns = list(itertools.product((1, -1), repeat=len(dirs)))
        signs = [[canonical_direction(g)[1] * p[j] for p in patterns] for j, g in enumerate(dirs)]
        for j, g in enumerate(dirs):
            for row, got in zip(table, sub.mean_sign(g)):
                total = math.fsum(row)
                want = math.fsum(row * signs[j]) / total if total > 0 else 0.0
                assert abs(got - want) <= 1e-12
            for k, h in enumerate(dirs):
                want = math.fsum((table * signs[j] * signs[k]).ravel())
                assert abs(classical_correlation(g, h, sub) - want) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(s2_extensions())
    def test_marginals_recover_ensemble(self, case):
        ens, dirs = case
        sub = extend_to_substates(ens, dirs)
        np.testing.assert_allclose(sub.marginal_micro_probs(), ens.probs, rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(s2_extensions())
    def test_rows_follow_product_form(self, case):
        # recomputed row by row from the given (uncanonicalised) directions:
        # gamma(-g) = -gamma(g) leaves each factor (1 + gamma f.g)/2 unchanged
        ens, dirs = case
        sub = extend_to_substates(ens, dirs)
        # the patterns of each micro-state, enumerated in itertools.product order;
        # pattern signs belong to the canonical directions
        patterns = list(itertools.product((1, -1), repeat=len(dirs)))
        flips = [canonical_direction(g)[1] for g in dirs]
        assert len(sub) == len(ens) * len(patterns)
        for r in range(len(sub)):
            i, signs = int(sub.state_index[r]), patterns[r % len(patterns)]
            f = ens.points[i]
            want = float(ens.probs[i]) * math.prod(
                (1.0 + flip * gamma * math.fsum(f * g)) / 2.0
                for gamma, flip, g in zip(signs, flips, dirs)
            )
            assert abs(float(sub.probs[r]) - want) <= 1e-15
        # every micro-state carries every pattern: one table row of 2^m patterns each
        assert sub.table.shape == (len(ens), len(patterns))

    @settings(max_examples=60, deadline=None)
    @given(s2_extensions())
    def test_classical_pair_correlation_is_pointwise(self, case):
        ens, dirs = case
        sub = extend_to_substates(ens, dirs)
        for j, a in enumerate(dirs):
            for k, b in enumerate(dirs):
                got = classical_correlation(a, b, sub)
                if j == k:
                    want = 1.0   # gamma^2 = 1 on every substate
                else:
                    want = pointwise_correlation(TwoLevelObservable(a), TwoLevelObservable(b), ens)
                assert abs(got - want) < 1e-12



class TestGridEnsemble:
    def test_working_set_bounded(self):
        # 524288 points: the 12 MiB point buffer, one density vector and the
        # weights, with no second copy of either
        tracemalloc.start()
        try:
            ens = grid_ensemble(512, _uniform)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ens) == 512 * 1024
        assert peak < 24 * 2**20

    def test_uniform_density_reduces_to_zero(self):
        state = reduce_ensemble(grid_ensemble(16, _uniform))
        assert np.abs(state.rho).max() < 1e-13

    def test_concentrated_density_points_north(self):
        # narrow bell around the north pole; reference from the exact
        # 1-d integral of the z marginal
        kappa = 1000.0
        ens = grid_ensemble(600, lambda pts: np.exp(kappa * (pts[:, 2] - 1.0)))
        state = reduce_ensemble(ens)
        ref = 1.0 / math.tanh(kappa) - 1.0 / kappa
        assert abs(state.rho[2] - ref) < 2e-3
        assert state.rho[2] > 0.99
        assert np.abs(state.rho[:2]).max() < 1e-12

    def test_linear_density_third(self):
        # density (1 + f3)/(4 pi): the f3 moment integrates to exactly 1/3
        def density(pts):
            return (1.0 + pts[:, 2]) / (4.0 * math.pi)

        errors = []
        for res in (16, 64, 256):
            state = reduce_ensemble(grid_ensemble(res, density))
            errors.append(abs(state.rho[2] - 1.0 / 3.0))
        assert errors[2] < 1e-4
        assert errors[2] < errors[1] < errors[0]   # second-order convergence

    def test_quadrature_against_brute_force(self):
        # independent oracle: dense midpoint rule on the z marginal
        def density(pts):
            return np.exp(0.7 * pts[:, 2])

        z = -1.0 + (2.0 * np.arange(200000) + 1.0) / 200000
        w = np.exp(0.7 * z)
        oracle = float((w * z).sum() / w.sum())
        state = reduce_ensemble(grid_ensemble(256, density))
        assert abs(state.rho[2] - oracle) < 1e-5

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            grid_ensemble(8, lambda pts: np.zeros(pts.shape[0]))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            grid_ensemble(8, lambda pts: pts[:, 2])

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            grid_ensemble(1, _uniform)

    @pytest.mark.parametrize("resolution", [1449, 100_000])
    def test_oversized_grid_rejected_before_allocating(self, resolution):
        # resolution 100000 would be 2e10 points, hundreds of GiB
        assert 2 * resolution**2 > MAX_GRID_POINTS >= 2 * 1448**2
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid points"):
                grid_ensemble(resolution, _uniform)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    @pytest.mark.parametrize("density, error", [
        (lambda p: math.exp(p[2]), TypeError),   # scalar-only: math.exp gets a row of the array
        (lambda pts: 1.0, ValueError),           # one value for the whole grid
        (lambda pts: np.exp(pts[:, 2:]), ValueError),   # shape (n, 1)
    ], ids=["scalar-only", "constant", "column"])
    def test_density_must_return_one_value_per_point(self, density, error):
        # the density is called once on the whole (n, 3) array, never point by point
        with pytest.raises(error):
            grid_ensemble(8, density)

    def test_density_error_propagates(self):
        calls = []

        def density(pts):
            calls.append(pts.shape)
            raise RuntimeError("broken density")

        with pytest.raises(RuntimeError, match="broken density"):
            grid_ensemble(8, density)
        assert calls == [(128, 3)]   # one vectorised call, no per-point retry

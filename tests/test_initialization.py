import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folomin import InsufficientSimpleStructureError, ParamPair, align, similarity_matrix
from folomin.exceptions import CollinearAxesError
from folomin.initialization import MIN_SET_SIZE, axes_from_sets, candidate_sets


def _orthonormal_scores(rng, n, r):
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    return np.sqrt(n) * U @ Vt


def _simple_construction(rng, q=30, r=3, n=200, per_dim=10):
    A_star = np.zeros((q, r))
    for l in range(r):
        A_star[l * per_dim : (l + 1) * per_dim, l] = rng.uniform(1, 2, per_dim)
    Z_star = _orthonormal_scores(rng, n, r)
    return Z_star, A_star


def _random_orthogonal(rng, r):
    return np.linalg.qr(rng.standard_normal((r, r)))[0]


def _init(start, delta_prime):
    """The initial rotation from the disjoint clusters at one slack."""
    sims = similarity_matrix(start, 0.01)
    return axes_from_sets(start, candidate_sets(sims, delta_prime, start.r))


def test_similarity_examples():
    rng = np.random.default_rng(0)
    Z_star, A_star = _simple_construction(rng)
    sims = similarity_matrix(ParamPair(Z_star, A_star), delta=0.01)
    assert sims.shape == (30, 30)
    assert sims[0, 0] == pytest.approx(1.0)
    # same-dimension simple rows are exactly parallel
    assert sims[0, 1] == pytest.approx(1.0, abs=1e-12)
    # rows of different dimensions are orthogonal images
    assert sims[0, 12] == pytest.approx(0.0, abs=1e-12)
    # zero row floors to zero
    A_zero = A_star.copy()
    A_zero[5] = 0.0
    sims = similarity_matrix(ParamPair(Z_star, A_zero), delta=0.01)
    assert sims[5, 0] == sims[0, 5] == 0.0


def test_similarity_rotation_invariance():
    rng = np.random.default_rng(1)
    Z_star, A_star = _simple_construction(rng)
    params = ParamPair(Z_star, A_star)
    G = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    rotated = ParamPair(Z_star @ G.T, A_star @ np.linalg.inv(G))
    sims = similarity_matrix(params, 0.01)
    assert np.abs(similarity_matrix(rotated, 0.01) - sims).max() <= 1e-10


def test_noiseless_exact_recovery():
    rng = np.random.default_rng(2)
    Z_star, A_star = _simple_construction(rng)
    R = _random_orthogonal(rng, 3)
    start = ParamPair(Z_star @ R, A_star @ R)
    res = _init(start, 0.05)
    _, _, aligned = align(res.params.A, A_star)
    assert np.abs(aligned - A_star).max() <= 1e-8
    # selected sets recover the planted blocks exactly
    blocks = {frozenset(range(l * 10, (l + 1) * 10)) for l in range(3)}
    assert set(res.selected_sets) == blocks
    # the fitted product is untouched and the latent scores stay unit-variance
    np.testing.assert_allclose(res.params.theta(), start.theta(), atol=1e-10)
    assert np.abs(np.diag(res.params.gram()) - 1).max() <= 1e-8


def test_rotation_invariance_of_whole_procedure():
    rng = np.random.default_rng(3)
    Z_star, A_star = _simple_construction(rng)
    base = _init(ParamPair(Z_star, A_star), 0.05)
    R = _random_orthogonal(rng, 3)
    other = _init(ParamPair(Z_star @ R, A_star @ R), 0.05)
    _, _, aligned = align(other.params.A, base.params.A)
    np.testing.assert_allclose(aligned, base.params.A, atol=1e-8)


def test_pathological_slack_errors():
    # with generic loadings every cosine clears the near-zero threshold,
    # so all candidate sets overlap and selection cannot find 3 disjoint ones
    rng = np.random.default_rng(4)
    Z_star, A_star = _simple_construction(rng)
    noisy = A_star + 0.01 * rng.standard_normal(A_star.shape)
    start = ParamPair(Z_star, noisy)
    with pytest.raises(InsufficientSimpleStructureError) as info:
        _init(start, 0.999)
    assert info.value.found < 3


def test_insufficient_structure_reports_count():
    # two informative dimensions only: rows of the third dimension removed
    rng = np.random.default_rng(5)
    Z_star, A_star = _simple_construction(rng)
    A_flat = A_star.copy()
    A_flat[20:30] = 0.0
    with pytest.raises(InsufficientSimpleStructureError) as info:
        _init(ParamPair(Z_star, A_flat), 0.05)
    assert info.value.found == 2


def test_axes_from_sets_rejects_collinear_axes():
    # two sets of antiparallel rows leave the same null vector to both axes
    rng = np.random.default_rng(8)
    A = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    params = ParamPair(_orthonormal_scores(rng, 40, 2), A)
    with pytest.raises(CollinearAxesError, match="exceeds 1e8"):
        axes_from_sets(params, [frozenset({0, 1}), frozenset({2, 3})])
    with pytest.raises(ValueError, match="need exactly 2 sets, got 1"):
        axes_from_sets(params, [frozenset({0, 1})])
    res = axes_from_sets(params, [frozenset({0, 1}), frozenset({4, 5})])
    np.testing.assert_allclose(res.params.A[[0, 1, 4, 5]], [[1, 0], [2, 0], [0, 1], [0, 2]], atol=1e-12)



# ------------------------------------------------------------------ #
# the similarity from the r x r latent Gram, against its definition


def _reference_similarity(params, delta):
    """``cos(Z a_j1, Z a_j2)`` from the ``n x q`` images ``U = Z A'``, with
    the norm floor; also returns the floored quantity ``||U_j1|| ||U_j2|| / n``."""
    U = params.Z @ params.A.T
    norms = np.linalg.norm(U, axis=0)
    outer = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = (U.T @ U) / np.where(outer > 0, outer, 1.0)
    cos = np.clip(cos, -1.0, 1.0)
    cos[outer / params.n <= delta] = 0.0
    return cos, outer / params.n


@st.composite
def _pairs(draw):
    """A pair with clusters of parallel rows, zero rows, and optionally a
    rank-deficient ``Z`` (a zero column or a column combining others) with
    rows of ``A`` in its null space."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, q, r = draw(st.integers(2, 40)), draw(st.integers(1, 30)), draw(st.integers(1, 5))
    Z = rng.standard_normal((n, r)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    A = rng.standard_normal((q, r)) * draw(st.sampled_from([0.01, 1.0, 5.0]))
    # rows proportional to an earlier row form clusters of similarity one
    for j in range(1, q):
        if rng.random() < 0.3:
            A[j] = rng.uniform(-3.0, 3.0) * A[rng.integers(j)]
    A[rng.random(q) < 0.1] = 0.0
    deficiency = draw(st.sampled_from(["none", "zero", "combination"]))
    if r >= 2 and deficiency != "none":
        null = np.zeros(r)
        if deficiency == "zero":
            Z[:, -1] = 0.0
            null[-1] = 1.0
        else:
            c = rng.standard_normal(r - 1)
            Z[:, -1] = Z[:, :-1] @ c
            null[:-1], null[-1] = c, -1.0
        A[rng.random(q) < 0.2] = null
    delta = draw(st.sampled_from([1e-3, 0.01, 0.5]))
    return ParamPair(Z, A), delta


def _off_the_floor(floored, delta):
    # entries whose floored quantity sits at delta to rounding may fall
    # either way under any other evaluation order
    return np.abs(floored - delta) > 1e-9 * delta


@settings(max_examples=300, deadline=None)
@given(case=_pairs())
def test_similarity_is_exactly_symmetric(case):
    sims = similarity_matrix(*case)
    assert np.array_equal(sims, sims.T)


@settings(max_examples=300, deadline=None)
@given(case=_pairs())
def test_similarity_matches_its_definition(case):
    params, delta = case
    sims = similarity_matrix(params, delta)
    reference, floored = _reference_similarity(params, delta)
    keep = _off_the_floor(floored, delta)
    assert np.isfinite(sims).all()
    np.testing.assert_array_equal(sims[keep] == 0.0, reference[keep] == 0.0)
    assert np.abs(sims - reference)[keep].max(initial=0.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(case=_pairs(), seed=st.integers(0, 2**32 - 1))
def test_similarity_is_rotation_invariant(case, seed):
    params, delta = case
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((params.r, params.r)) + 3.0 * np.eye(params.r)
    sims = similarity_matrix(params, delta)
    rotated = similarity_matrix(params.rotate(G), delta)
    keep = _off_the_floor(_reference_similarity(params, delta)[1], delta)
    assert np.abs(rotated - sims)[keep].max(initial=0.0) <= 1e-10


def test_similarity_accepts_a_rank_deficient_z():
    # Z'Z is singular, so it has no Cholesky factor
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((50, 3))
    Z[:, 2] = Z[:, 0] - Z[:, 1]
    A = rng.standard_normal((12, 3))
    A[4] = [1.0, -1.0, -1.0]  # Z a_4 = 0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(Z.T @ Z)
    params = ParamPair(Z, A)
    sims = similarity_matrix(params, 0.01)
    assert np.abs(sims - _reference_similarity(params, 0.01)[0]).max() <= 1e-12
    assert not sims[4].any() and not sims[:, 4].any()


def test_similarity_of_rows_near_the_null_space_of_a_rank_one_z():
    # every image is a multiple of z, so every cosine is +-1; an eigenvalue
    # of Z'Z left at rounding level would tilt the small images off that
    # line (on some seeds, where its rounding comes out positive)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(50)
        Z = np.column_stack([z, 0.7 * z])
        A = np.array([[0.7, -1.0]]) + 1e-3 * rng.standard_normal((8, 2))
        params = ParamPair(Z, A)
        reference, floored = _reference_similarity(params, 1e-9)
        keep = floored > 1e-9
        sims = similarity_matrix(params, 1e-9)
        assert np.abs(sims - reference)[keep].max() <= 1e-12, seed
        assert not sims[~keep].any(), seed


# ------------------------------------------------------------------ #
# the greedy set pick, against the set-based reference


def _reference_candidate_sets(sims, delta_prime, r, extra=0):
    """One Python set per row, ordered by size then anchor, each accepted
    iff disjoint from those accepted before; ``(sets, None)``, or
    ``(None, found)`` when fewer than ``r`` are found."""
    candidate = sims > 1.0 - delta_prime
    sets = [set(np.flatnonzero(row).tolist()) for row in candidate]
    order = sorted(
        (j for j, s in enumerate(sets) if len(s) >= MIN_SET_SIZE),
        key=lambda j: (-len(sets[j]), j),
    )
    chosen = []
    used = set()
    for j in order:
        if sets[j].isdisjoint(used):
            chosen.append(frozenset(sets[j]))
            used |= sets[j]
            if len(chosen) == r + extra:
                break
    if len(chosen) < r:
        return None, len(chosen)
    return chosen, None


@st.composite
def _similarities(draw):
    """Small similarity matrices whose values sit on either side of the
    thresholds, so candidate sets overlap and tie in size; some are not
    symmetric."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(0, 16))
    sims = rng.choice([0.0, 0.5, 0.97, 0.995, 1.0], size=(q, q), p=[0.4, 0.1, 0.2, 0.1, 0.2])
    if draw(st.booleans()):
        sims = np.triu(sims) + np.triu(sims, 1).T
    np.fill_diagonal(sims, 1.0)
    return sims


@settings(max_examples=500, deadline=None)
@given(
    sims=_similarities(),
    delta_prime=st.sampled_from([0.001, 0.01, 0.1, 0.6]),
    r=st.integers(1, 4),
    extra=st.integers(0, 2),
)
def test_candidate_sets_match_the_set_based_greedy(sims, delta_prime, r, extra):
    expected, found = _reference_candidate_sets(sims, delta_prime, r, extra)
    if expected is None:
        with pytest.raises(InsufficientSimpleStructureError) as info:
            candidate_sets(sims, delta_prime, r, extra)
        assert info.value.found == found
    else:
        assert candidate_sets(sims, delta_prime, r, extra) == expected


def test_candidate_sets_break_size_ties_by_anchor():
    # anchors 0, 2 and 4 tie at three rows and overlap pairwise, so the
    # smallest anchor wins and the next disjoint set is anchor 3's pair
    sims = np.eye(6)
    for a, b in ((0, 1), (2, 3), (4, 0), (4, 2)):
        sims[a, b] = sims[b, a] = 1.0
    expected, _ = _reference_candidate_sets(sims, 0.01, 2, extra=1)
    chosen = candidate_sets(sims, 0.01, 2, extra=1)
    assert chosen == expected
    assert chosen == [frozenset({0, 1, 4}), frozenset({2, 3})]

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modelwatch import _geometry, concept, outcome, quality
from modelwatch._geometry import (
    complete_matrix,
    exact_sq_dists,
    nearest,
    row_blocks,
    sq_dists,
    standardize,
    top_k,
)
from modelwatch.data import FeatureFrame
from modelwatch.errors import SchemaError

from conftest import make_frame


# few distinct values, so rows tie often, including at the k-th place
TIE_VALUES = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 0.5, np.inf, -np.inf, np.nan])


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(
        dist=arrays(
            np.float64,
            st.tuples(st.integers(0, 8), st.integers(1, 12)),
            elements=TIE_VALUES | st.floats(allow_nan=True, allow_infinity=True),
        ),
        repeats=st.integers(1, 3),
        data=st.data(),
    )
    def test_equals_the_stable_argsort(self, dist, repeats, data):
        dist = np.repeat(dist, repeats, axis=0)  # duplicate rows
        k = data.draw(st.integers(1, dist.shape[1]), label="k")
        expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(top_k(dist, k), expected)

    @pytest.mark.parametrize(
        "row, k, expected",
        [
            ([3.0, 1.0, 2.0, 2.0], 2, [1, 2]),  # a tie at the k-th place: the lower column
            ([2.0, 1.0, 2.0, 0.0], 3, [3, 1, 0]),
            ([np.nan, 1.0, 0.0], 2, [2, 1]),  # NaN comes last
            ([np.nan, 1.0, np.nan], 2, [1, 0]),  # a NaN at the k-th place
            ([np.inf, -np.inf, np.inf], 3, [1, 0, 2]),
        ],
    )
    def test_ties_and_nan(self, row, k, expected):
        assert top_k(np.array([row]), k).tolist() == [expected]


class TestRowBlocks:
    @pytest.mark.parametrize(
        "n, block_cells, row_cells, expected",
        [
            (7, 1, 10, [(0, 2), (2, 4), (4, 7)]),  # at least 2 rows; the last row joins its block
            (7, 30, 10, [(0, 3), (3, 7)]),
            (9, 30, 10, [(0, 3), (3, 6), (6, 9)]),
            (9, 100, 10, [(0, 9)]),
            (1, 1, 10, [(0, 1)]),
            (0, 1, 10, [(0, 0)]),
            (5, 1, 0, [(0, 2), (2, 5)]),
        ],
    )
    def test_bounds(self, n, block_cells, row_cells, expected, monkeypatch):
        monkeypatch.setattr(_geometry, "_BLOCK_CELLS", block_cells)
        assert row_blocks(n, row_cells) == expected


class TestNearest:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_equals_full_stable_argsort(self, k):
        # small integer coordinates: many exact ties, and every squared
        # distance is an exact integer in either form
        rng = np.random.default_rng(k)
        Zq = rng.integers(-2, 3, size=(40, 3)).astype(float)
        Zd = rng.integers(-2, 3, size=(25, 3)).astype(float)
        exact = np.sqrt(((Zq[:, None, :] - Zd[None, :, :]) ** 2).sum(axis=2))
        expected = np.argsort(exact, axis=1, kind="stable")[:, :k]
        indices, distances = nearest(Zq, Zd, k)
        np.testing.assert_array_equal(indices, expected)
        np.testing.assert_array_equal(distances, np.take_along_axis(exact, expected, axis=1))

    @settings(max_examples=150, deadline=None)
    @given(
        block_rows=st.integers(2, 6),
        full_blocks=st.integers(0, 4),
        remainder=st.integers(0, 5),
        m=st.integers(1, 12),
        d=st.integers(1, 4),
        k=st.sampled_from([1, 2, 5, "m"]),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_equals_one_block_and_stable_argsort(
        self, block_rows, full_blocks, remainder, m, d, k, ties, seed
    ):
        # no full block (n < block), an exact multiple, or a ragged last block
        n = full_blocks * block_rows + remainder % block_rows
        k = m if k == "m" else k
        assume(n >= 1 and k <= m)
        rng = np.random.default_rng(seed)
        if ties:
            Zq, Zd = (rng.integers(-2, 3, size=(rows, d)).astype(float) for rows in (n, m))
        else:
            # continuous values on a 2**-12 grid: every product and sum in the
            # distance is exact, so any BLAS call shape gives the same bits
            Zq, Zd = (rng.integers(-(2**15), 2**15, size=(rows, d)) / 2.0**12 for rows in (n, m))
        one_block = nearest(Zq, Zd, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_geometry, "_BLOCK_CELLS", block_rows * m)
            blocked = nearest(Zq, Zd, k)
        expected_indices, expected_distances = dense_nearest(Zq, Zd, k)
        for indices, distances in (one_block, blocked):
            np.testing.assert_array_equal(indices, expected_indices)
            np.testing.assert_array_equal(distances, expected_distances)

    def test_nan_distances_come_last_as_in_a_stable_argsort(self):
        # an infinite coordinate gives NaN and inf distances in one row;
        # argmin alone would pick the first NaN
        Zq = np.array([[np.inf, 0.0], [0.0, 0.0]])
        Zd = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            for k in (1, 2, 3):
                indices, distances = nearest(Zq, Zd, k)
                expected_indices, expected_distances = dense_nearest(Zq, Zd, k)
                np.testing.assert_array_equal(indices, expected_indices)
                np.testing.assert_array_equal(distances, expected_distances)
            assert nearest(Zq, Zd, 1)[0].tolist() == [[2], [0]]

    @pytest.mark.parametrize("m", [2000, 1500])
    @pytest.mark.parametrize("n", [1201, 1049])
    @pytest.mark.parametrize("k", [1, 3, 1500])
    def test_blocks_agree_with_the_dense_kernel_to_rounding(self, m, n, k):
        # 2000 reference rows give 524-row blocks: 1201 rows end in a ragged
        # block, 1049 in a one-row remainder that joins the block before it;
        # 1500 rows (not a multiple of 8) give 699-row blocks. Beyond one
        # block the BLAS may round a cell differently from the one-product
        # kernel, so what may differ is pinned: distances to rounding, and a
        # pick only between rows whose distances tie to rounding.
        rng = np.random.default_rng(n)
        Zq = rng.normal(size=(n, 24))
        Zd = rng.normal(size=(m, 24))
        indices, distances = nearest(Zq, Zd, k)
        _, expected_distances = dense_nearest(Zq, Zd, k)
        np.testing.assert_allclose(distances, expected_distances, rtol=0, atol=1e-9)
        dense = np.sqrt(sq_dists(Zq, Zd))
        np.testing.assert_allclose(
            np.take_along_axis(dense, indices, axis=1), expected_distances, rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("block_cells", [1, 30, 60])
    @pytest.mark.parametrize("n", [2, 7, 13])
    def test_no_block_has_one_row(self, block_cells, n, monkeypatch):
        # a one-row product takes the BLAS matrix-vector path, whose bits
        # differ from the matrix-matrix path a larger block takes
        rows = []

        def recording(A, B):
            rows.append(len(A))
            return sq_dists(A, B)

        monkeypatch.setattr(_geometry, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(_geometry, "sq_dists", recording)
        rng = np.random.default_rng(n)
        nearest(rng.normal(size=(n, 2)), rng.normal(size=(10, 2)), 1)
        assert sum(rows) == n and min(rows) >= 2

    def test_memory_stays_at_one_block(self):
        rng = np.random.default_rng(0)
        Zq = rng.normal(size=(4000, 10))
        Zd = rng.normal(size=(4000, 10))
        tracemalloc.start()
        try:
            nearest(Zq, Zd, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # the dense 4000 x 4000 matrix alone is 128 MB


def dense_nearest(Zq, Zd, k):
    """The one-matrix kernel: every distance, then a full stable argsort."""
    dist = np.sqrt(sq_dists(Zq, Zd))
    indices = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return indices, np.take_along_axis(dist, indices, axis=1)


class TestExactSqDists:
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("grid", [False, True])
    def test_equals_the_in_order_sum(self, rng, d, grid):
        Z = rng.integers(-2, 3, size=(60, d)).astype(float) if grid else rng.normal(size=(60, d))
        C = Z[rng.choice(60, size=7)] + (0.0 if grid else rng.normal(size=(7, d)))
        for A, B in [(C, Z), (Z, Z), (Z[:13], np.asfortranarray(Z))]:  # centroids x rows, rows x rows
            expected = np.zeros((len(A), len(B)))
            for j in range(d):  # features added in order, as the docstring says
                expected += (A[:, j, None] - B[None, :, j]) ** 2
            got = exact_sq_dists(A, B)
            assert got.shape == (len(A), len(B))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_duplicate_rows_are_exactly_zero_apart(self, rng, d):
        Z = rng.normal(size=(40, d)) * 1e3 + 1e6
        Z = np.vstack([Z, Z[::3]])
        same = np.all(Z[:, None, :] == Z[None, :, :], axis=2)
        dist = exact_sq_dists(Z, Z)
        assert np.all(dist[same] == 0.0)
        assert np.all(dist[~same] > 0.0)


def parent_sq_dists(A, B):
    """The form LOF's blocks and k-means++ seeding summed before
    exact_sq_dists: a rows x rows x d difference tensor, squared in place
    and reduced over its last axis by np.sum."""
    diff = A[:, None, :] - B[None, :, :]
    diff *= diff
    return np.sum(diff, axis=2)


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("grid", [False, True])
def test_lof_and_kmeans_keep_their_bits_up_to_7_features(d, grid, monkeypatch):
    # up to 7 features np.sum adds in feature order, so the exact kernel
    # changes no LOF score, cluster or centroid bit on these inputs
    rng = np.random.default_rng(d)
    X = rng.integers(0, 4, size=(150, d)).astype(float) if grid else rng.normal(size=(150, d))
    frame = FeatureFrame.from_numeric(X)

    def run():
        lof = quality.outliers_lof(frame, k=9)
        km = outcome.kmeans(frame, k=6, seed=d)
        return lof.scores, lof.flags, km.segment_ids, km.centroids, km.inertia, km.n_iter

    ours = run()
    monkeypatch.setattr(quality, "exact_sq_dists", parent_sq_dists)
    monkeypatch.setattr(outcome, "exact_sq_dists", parent_sq_dists)
    for got, expected in zip(ours, run(), strict=True):
        assert np.array_equal(got, expected)


def test_sq_dists_matches_difference_form_and_is_never_negative():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 4))
    B = np.vstack([A[:5], rng.normal(size=(20, 4))])  # exact duplicates give 0, not -tiny
    sq = sq_dists(A, B)
    np.testing.assert_allclose(sq, ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2), atol=1e-12)
    assert (sq >= 0).all()


@pytest.mark.parametrize("grid", [False, True])
def test_sq_dists_keeps_the_expansion_bits_with_one_full_size_array(grid):
    # 300 x 700 cells span four 2**16-cell slices of the |a|^2 + |b|^2 term
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(300, 5)) * 3, rng.normal(size=(700, 5)) * 3
    if grid:  # exact products and sums: duplicate rows are exactly 0 apart
        A, B = np.round(A), np.vstack([np.round(A[:200]), np.round(B[200:])])
    expansion = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
    expected = np.maximum(expansion, 0.0)
    tracemalloc.start()
    try:
        got = sq_dists(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))  # +0.0, never -0.0
    assert peak < 1.5 * got.nbytes  # the expansion written out takes two such arrays


def test_standardize_gives_constant_column_scale_one():
    X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
    mean, scale = standardize(X)
    np.testing.assert_array_equal(mean, [3.0, 2.0])
    np.testing.assert_array_equal(scale, [1.0, np.sqrt(2.0)])


def test_complete_matrix_rejects_a_missing_cell():
    frame = make_frame(a=[1.0, np.nan, 3.0], b=[1.0, 2.0, 3.0])
    with pytest.raises(SchemaError, match="^LOF requires a frame with no missing values; impute first$"):
        complete_matrix(frame, "LOF")
    complete = make_frame(b=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(complete_matrix(complete, "LOF"), [[1.0], [2.0], [3.0]])


def test_complete_matrix_rejects_a_frame_with_no_numeric_column():
    # every distance would be 0, so each caller reported a clean result
    frame = make_frame(grade=["a", "b", "a", "c"])
    with pytest.raises(SchemaError, match="^LOF needs at least one numeric feature$"):
        complete_matrix(frame, "LOF")


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_complete_matrix_rejects_an_infinite_cell(bad):
    frame = make_frame(a=[1.0, bad, 3.0], b=[1.0, 2.0, 3.0])
    with pytest.raises(SchemaError, match="^kmeans requires a frame with no infinite values$"):
        complete_matrix(frame, "kmeans")
    # a missing cell is named first, as it is the one to impute
    mixed = make_frame(a=[1.0, bad, 3.0], b=[1.0, 2.0, np.nan])
    with pytest.raises(SchemaError, match="no missing values; impute first$"):
        complete_matrix(mixed, "kmeans")


class TestPowerOfTwoScaling:
    # multiplying a feature by +-2^j scales its mean, deviations and standard
    # deviation exactly, so the z-standardised matrix keeps its bits up to
    # the column's sign, and every distance built on it is the same float
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        d=st.integers(1, 4),
        grid=st.booleans(),
        k=st.integers(1, 6),
        data=st.data(),
    )
    def test_standardised_kernels_keep_their_bits(self, seed, n, d, grid, k, data):
        X = np.random.default_rng(seed).normal(size=(2 * n, d))
        if grid:  # few distinct values: duplicate rows and tied distances
            X = np.round(X)
        powers = data.draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
        factor = np.array(signs) * np.ldexp(1.0, powers)
        new = [FeatureFrame.from_numeric(M) for M in (X[:n], X[:n] * factor)]
        dev = [FeatureFrame.from_numeric(M) for M in (X[n:], X[n:] * factor)]

        k = min(k, n - 1)
        a, b = (outcome.kmeans(frame, k, seed=seed) for frame in new)
        assert np.array_equal(a.segment_ids, b.segment_ids) and a.inertia == b.inertia
        a, b = (quality.outliers_lof(frame, k=k) for frame in new)
        assert np.array_equal(a.scores, b.scores)
        a, b = (concept.nn_match(*pair, 1, "euclidean_standardized") for pair in zip(new, dev))
        assert np.array_equal(a.matched_dev_indices, b.matched_dev_indices)
        assert a.mean_match_distance == b.mean_match_distance

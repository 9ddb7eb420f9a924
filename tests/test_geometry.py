import numpy as np
import pytest

from modelwatch._geometry import complete_matrix, nearest, sq_dists, standardize
from modelwatch.errors import SchemaError

from conftest import make_frame


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


def test_sq_dists_matches_difference_form_and_is_never_negative():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 4))
    B = np.vstack([A[:5], rng.normal(size=(20, 4))])  # exact duplicates give 0, not -tiny
    sq = sq_dists(A, B)
    np.testing.assert_allclose(sq, ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2), atol=1e-12)
    assert (sq >= 0).all()


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

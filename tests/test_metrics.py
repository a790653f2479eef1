import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treefront import (
    Hyperrectangle,
    PSCloud,
    SourcedBox,
    avg_dist,
    coverage,
    dist_point_to_set,
    ps_cloud_to_points,
)


def brute_avg_dist(A, B):
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    total = 0.0
    for a in A:
        total += min(np.linalg.norm(a - b) for b in B)
    return total / len(A)


def test_dist_point_in_set_is_zero():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert dist_point_to_set([3.0, 4.0], B) == 0.0


def test_dist_pythagorean():
    assert dist_point_to_set([0.0, 0.0], [[3.0, 4.0]]) == 5.0


def test_dist_matches_linear_scan():
    rng = np.random.default_rng(0)
    B = rng.random((1000, 3))
    for _ in range(20):
        a = rng.random(3)
        assert dist_point_to_set(a, B) == pytest.approx(
            min(np.linalg.norm(a - b) for b in B), rel=1e-12
        )


def test_dist_empty_reference_raises():
    with pytest.raises(ValueError):
        dist_point_to_set([0.0], np.empty((0, 1)))


def test_avg_dist_identical_sets_zero():
    A = np.random.default_rng(1).random((50, 2))
    assert avg_dist(A, A) == 0.0


def test_avg_dist_small_example():
    A = [[0.0, 0.0], [2.0, 0.0]]
    B = [[0.0, 0.0]]
    assert avg_dist(A, B) == 1.0
    assert avg_dist(B, A) == 0.0  # asymmetry


def test_avg_dist_decreases_in_second_argument():
    rng = np.random.default_rng(2)
    A = rng.random((40, 2))
    B2 = rng.random((60, 2))
    for k in (5, 20, 40):
        B1 = B2[:k]  # B1 subset of B2
        assert avg_dist(A, B1) >= avg_dist(A, B2)


def test_avg_dist_matches_double_loop():
    rng = np.random.default_rng(3)
    A = rng.random((30, 3))
    B = rng.random((17, 3))
    assert avg_dist(A, B) == pytest.approx(brute_avg_dist(A, B), rel=1e-12)


def test_coverage_equal_sets():
    A = np.random.default_rng(4).random((20, 2))
    assert coverage(A, A) == (0.0, 0.0)


def test_coverage_single_point_cloud_underscovers():
    truth = np.column_stack([np.linspace(0, 1, 100), np.linspace(1, 0, 100)])
    cloud = truth[[50]]
    over, under = coverage(cloud, truth)
    assert over == 0.0
    assert under > 0.0


def test_coverage_matches_oracle():
    rng = np.random.default_rng(5)
    cloud = rng.random((25, 2))
    truth = rng.random((40, 2))
    over, under = coverage(cloud, truth)
    assert over == pytest.approx(brute_avg_dist(cloud, truth), rel=1e-12)
    assert under == pytest.approx(brute_avg_dist(truth, cloud), rel=1e-12)


@given(
    hnp.arrays(float, st.tuples(st.integers(1, 15), st.just(2)), elements=st.floats(-5, 5)),
    hnp.arrays(float, st.tuples(st.integers(1, 15), st.just(2)), elements=st.floats(-5, 5)),
    st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
)
@settings(max_examples=100, deadline=None)
def test_coverage_shift_invariant(A, B, shift):
    shift = np.array(shift)
    base = coverage(A, B)
    moved = coverage(A + shift, B + shift)
    assert moved[0] == pytest.approx(base[0], abs=1e-9)
    assert moved[1] == pytest.approx(base[1], abs=1e-9)


def test_appending_far_point_never_decreases_overcoverage():
    rng = np.random.default_rng(6)
    for _ in range(50):
        A = rng.random((10, 2))
        B = rng.random((8, 2))
        d = avg_dist(A, B)
        far = rng.random(2) + 10.0  # beyond every B point
        assert dist_point_to_set(far, B) >= d
        assert avg_dist(np.vstack([A, far]), B) >= d


def test_zero_distance_iff_subset():
    rng = np.random.default_rng(7)
    B = rng.random((30, 2))
    A = B[[3, 7, 11]]
    assert avg_dist(A, B) == 0.0
    A2 = np.vstack([A, [[2.0, 2.0]]])
    assert avg_dist(A2, B) > 0.0


def _boxes(*bounds):
    return PSCloud(
        tuple(SourcedBox(Hyperrectangle(tuple(lo), tuple(hi)), i) for i, (lo, hi) in enumerate(bounds))
    )


def test_ps_points_unit_box_centroid():
    ps = _boxes(((0.0, 0.0), (1.0, 1.0)))
    pts = ps_cloud_to_points(ps)
    assert pts.tolist() == [[0.5, 0.5]]


def test_ps_points_one_centroid_per_box():
    ps = _boxes(((0.0, 0.0), (0.5, 0.5)), ((0.5, 0.5), (1.0, 1.0)))
    pts = ps_cloud_to_points(ps)
    assert pts.tolist() == [[0.25, 0.25], [0.75, 0.75]]

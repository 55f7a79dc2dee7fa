import numpy as np
import pytest

from hpdg._kernels import legendre_table
from hpdg.refelem import gauss_rule, legendre_l2_norms_sq


def test_one_point_rule():
    r = gauss_rule(1)
    assert r.points == pytest.approx([0.0], abs=0)
    assert r.weights == pytest.approx([2.0], abs=0)


def test_two_point_rule():
    r = gauss_rule(2)
    assert r.points == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
    assert r.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_three_point_rule_integrates_x4():
    r = gauss_rule(3)
    assert r.weights @ r.points**4 == pytest.approx(2 / 5, abs=1e-14)


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        gauss_rule(0)


@pytest.mark.parametrize("n", range(1, 21))
def test_weights_sum_and_symmetry(n):
    r = gauss_rule(n)
    assert abs(r.weights.sum() - 2.0) < 1e-14
    assert np.all(np.diff(r.points) > 0)
    assert r.points == pytest.approx(-r.points[::-1], abs=0)
    assert np.all(r.weights > 0)


@pytest.mark.parametrize("n", range(1, 21))
def test_monomial_exactness(n):
    r = gauss_rule(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = r.weights @ r.points**k
        assert got == pytest.approx(exact, abs=1e-13, rel=1e-13)


def test_legendre_low_degrees():
    vals, _ = legendre_table(np.array([0.7]), 1)
    assert vals[0] == pytest.approx([1.0, 0.7], abs=0)
    vals, _ = legendre_table(np.array([0.5, 1.0]), 2)
    assert vals[0, 2] == pytest.approx(-0.125, abs=1e-15)
    assert vals[1] == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("p", range(1, 13))
def test_orthogonality(p):
    r = gauss_rule(p + 1)
    vals, _ = legendre_table(r.points, p)
    gram = vals.T @ (r.weights[:, None] * vals)
    expected = np.diag(legendre_l2_norms_sq(p))
    assert np.max(np.abs(gram - expected)) < 1e-12


@pytest.mark.parametrize("p", [1, 3, 6, 10])
def test_derivative_matches_finite_differences(p):
    r = gauss_rule(p + 2)
    h = 1e-6
    _, ders = legendre_table(r.points, p)
    up, _ = legendre_table(r.points + h, p)
    dn, _ = legendre_table(r.points - h, p)
    fd = (up - dn) / (2 * h)
    assert np.max(np.abs(ders - fd)) < 1e-6

import numpy as np
import pytest

from hpdg.analysis import ConvergenceRecord, error_norms, fit_exponential
from hpdg.hpspace import DiscreteField, MeshNestingError, build_space, constant_field, inject
from hpdg.mesh import GradedMesh, build_faces, build_graded_mesh
from oracles import projected


def box_mesh(lo, lengths):
    lo = np.array(lo)
    hi = lo + np.array(lengths)
    return GradedMesh(2, 0.5, 0, lo, hi, np.zeros(len(lo), dtype=int), build_faces(lo, hi))


def two_element_mesh():
    """Two half-by-one boxes sharing the face x = 0."""
    return box_mesh([[-0.5, -0.5], [0.0, -0.5]], [[0.5, 1.0], [0.5, 1.0]])


def one_element_mesh():
    return box_mesh([[-0.5, -0.5]], [[1.0, 1.0]])


def test_identical_fields_have_zero_error():
    space = build_space(build_graded_mesh(2, 0.5, 2), 2, 0.25)
    rng = np.random.default_rng(2)
    f = DiscreteField(space, rng.standard_normal(space.N))
    errs = error_norms(f, f)
    assert errs["l2"] < 1e-12 and errs["dg"] < 1e-12 and errs["linf"] < 1e-12


def test_injected_field_has_zero_error():
    coarse = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.25)
    fine = build_space(build_graded_mesh(2, 0.5, 3), 2, 0.25)
    rng = np.random.default_rng(4)
    f = DiscreteField(coarse, rng.standard_normal(coarse.N))
    g = inject(f, fine)
    assert error_norms(f, g)["dg"] < 1e-12


def test_continuous_error_has_no_jump_part():
    """For a globally continuous difference the DG norm is the broken H1 norm:
    with e(x, y) = 2x, ||e||_dg^2 = 1/3 + 4."""
    mesh = two_element_mesh()
    space = build_space(mesh, 1, 0.0)
    f = projected(space, lambda p: 2.0 * p[:, 0])
    zero = DiscreteField(space, np.zeros(space.N))
    assert error_norms(zero, f)["dg"] ** 2 == pytest.approx(1.0 / 3.0 + 4.0, abs=1e-13)


def test_indicator_jump_penalty_is_exact():
    """A unit discontinuity across one interior face of area 1 adds exactly
    p_e^2 / h_e to the squared DG norm."""
    mesh = two_element_mesh()
    space = build_space(mesh, 1, 0.0)
    c = np.zeros(space.N)
    c[space.offsets[0]] = 1.0  # constant 1 on element 0, 0 on element 1
    ind = DiscreteField(space, c)
    zero = DiscreteField(space, np.zeros(space.N))
    errs = error_norms(ind, zero)
    dg2, l22 = errs["dg"] ** 2, errs["l2"] ** 2
    (face,) = np.flatnonzero(mesh.faces.interior)
    p_e, h_e, area = 1, mesh.faces.h_e[face], mesh.faces.lengths[face, 1]
    assert l22 == pytest.approx(0.5, abs=1e-14)  # measure of element 0
    assert dg2 - l22 == pytest.approx(p_e**2 / h_e * area, abs=1e-13)


def test_zero_versus_one_on_unit_domain():
    space = build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0)
    zero = DiscreteField(space, np.zeros(space.N))
    one = constant_field(space, 1.0)
    errs = error_norms(zero, one)
    assert errs["l2"] == pytest.approx(1.0, abs=1e-13)
    assert errs["linf"] == pytest.approx(1.0, abs=1e-13)


def test_p1_error_closed_form():
    """Reference P_1 in x on the single-element unit domain: the reference
    coordinate is 2x, so ||P_1||_L2^2 = int (2x)^2 = 1/3."""
    mesh = one_element_mesh()
    space = build_space(mesh, 1, 0.0)
    c = np.zeros(space.N)
    c[space.offsets[0] + 2] = 1.0  # mode (1, 0): P_1(xi_x)
    ref = DiscreteField(space, c)
    zero = DiscreteField(space, np.zeros(space.N))
    assert error_norms(zero, ref)["l2"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_requires_nested_meshes():
    coarse = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    finer = build_space(build_graded_mesh(2, 0.5, 0), 2, 0.0)
    f = DiscreteField(coarse, np.zeros(coarse.N))
    g = DiscreteField(finer, np.zeros(finer.N))
    with pytest.raises(MeshNestingError):
        error_norms(f, g)


def test_norm_ordering_on_random_fields():
    coarse = build_space(build_graded_mesh(2, 0.5, 1), 2, 0.0)
    fine = build_space(build_graded_mesh(2, 0.5, 2), 2, 0.25)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = DiscreteField(coarse, rng.standard_normal(coarse.N))
        g = DiscreteField(fine, rng.standard_normal(fine.N) * 0.1)
        errs = error_norms(f, g)
        assert errs["l2"] <= errs["dg"] + 1e-14
        assert errs["l2"] <= errs["linf"] + 1e-14  # unit-measure domain


def test_triangle_inequality_on_common_mesh():
    space = build_space(build_graded_mesh(2, 0.5, 2), 2, 0.0)
    rng = np.random.default_rng(6)
    a, b, c = (DiscreteField(space, rng.standard_normal(space.N)) for _ in range(3))
    assert error_norms(a, c)["dg"] <= error_norms(a, b)["dg"] + error_norms(b, c)["dg"] + 1e-10


def rec(ell, err):
    return ConvergenceRecord(ell, 10 * ell, 1.0, err, err, err, err)


def test_fit_exact_log_linear_data():
    records = [rec(ell, 3.0 * np.exp(-0.7 * ell)) for ell in range(1, 7)]
    fit = fit_exponential(records, "dg", "ell")
    assert fit.b == pytest.approx(0.7, abs=1e-10)
    assert fit.C == pytest.approx(3.0, abs=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-10)


def test_fit_constant_errors():
    records = [rec(ell, 0.125) for ell in range(1, 6)]
    fit = fit_exponential(records, "l2", "ell")
    assert fit.b == pytest.approx(0.0, abs=1e-12)


def test_fit_with_multiplicative_noise():
    rng = np.random.default_rng(123)
    b_true, c_true = 0.9, 2.0
    records = [
        rec(ell, c_true * np.exp(-b_true * ell) * (1.0 + 0.01 * rng.standard_normal()))
        for ell in range(1, 9)
    ]
    fit = fit_exponential(records, "linf", "ell")
    assert abs(fit.b - b_true) < 0.05
    assert fit.r2 >= 0.99


def test_fit_scale_invariance():
    records = [rec(ell, 2.0 * np.exp(-0.5 * ell) * (1 + 0.02 * np.sin(ell)))
               for ell in range(1, 8)]
    scaled = [rec(r.ell, r.err_dg * 37.0) for r in records]
    f1 = fit_exponential(records, "dg", "ell")
    f2 = fit_exponential(scaled, "dg", "ell")
    assert f2.b == pytest.approx(f1.b, abs=1e-12)
    assert f2.r2 == pytest.approx(f1.r2, abs=1e-12)
    assert f2.C == pytest.approx(37.0 * f1.C, rel=1e-12)


def test_fit_needs_three_usable_rows():
    records = [rec(1, 1e-3), rec(2, 1e-13), rec(3, 1e-14)]
    with pytest.raises(ValueError):
        fit_exponential(records, "dg", "ell")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_refuses_non_finite_errors(bad):
    """A NaN error would drop out of the fit silently and an infinite one
    would give b = C = r2 = nan: both are refused, naming the column and ell."""
    records = [rec(ell, np.exp(-ell)) for ell in range(1, 6)]
    records[3] = rec(4, bad)
    for column in ("l2", "lambda"):
        with pytest.raises(ValueError, match=f"err_{column} is not finite at ell=4"):
            fit_exponential(records, column, "ell")


def test_fit_excludes_plateau_rows():
    clean = [rec(ell, np.exp(-ell)) for ell in range(1, 6)]
    with_floor = clean + [rec(6, 1e-14), rec(7, 1e-15)]
    f1 = fit_exponential(clean, "dg", "ell")
    f2 = fit_exponential(with_floor, "dg", "ell")
    assert f2.b == pytest.approx(f1.b, abs=1e-12)


def test_fit_ndof_abscissa_needs_dim():
    records = [rec(ell, np.exp(-ell)) for ell in range(1, 6)]
    with pytest.raises(ValueError):
        fit_exponential(records, "dg", "ndof_root")
    fit = fit_exponential(records, "dg", "ndof_root", dim=2)
    assert fit.abscissa == "ndof_root" and fit.b > 0

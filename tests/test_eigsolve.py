import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp

from hpdg import eigsolve
from hpdg.assembly import PenaltyConfig, Potential, SipAssembler
from hpdg.eigsolve import EigenSolveError, smallest_eigenpair
from hpdg.hpspace import build_space, constant_field
from hpdg.mesh import build_graded_mesh
from hpdg.scf import _coarse_start
from oracles import factor_input, full_cube_mesh


def tridiag(n, scale=1.0):
    main = 2.0 * np.ones(n) * scale
    off = -1.0 * np.ones(n - 1) * scale
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_diagonal_example():
    a = sp.diags([3.0, 1.0, 2.0]).tocsr()
    m = sp.identity(3, format="csr")
    res = smallest_eigenpair(a, m, x0=np.ones(3))
    assert res.lam == pytest.approx(1.0, abs=1e-12)
    assert np.abs(res.x) == pytest.approx([0, 1, 0], abs=1e-8)


def test_identity_pencil():
    m = sp.diags(np.random.default_rng(1).uniform(0.5, 6.0, 6)).tocsr()
    res = smallest_eigenpair(m, m, x0=np.ones(6))
    assert res.lam == pytest.approx(1.0, abs=1e-12)


def test_non_diagonal_mass_is_refused():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((6, 6))
    m = b @ b.T + 6 * np.eye(6)
    for mass in (sp.csr_matrix(m), m):
        with pytest.raises(ValueError, match="mass matrix M must be diagonal"):
            smallest_eigenpair(sp.identity(6, format="csr"), mass, x0=np.ones(6))


def graded_pencil(n, seed, graded):
    """A random SPD A and a diagonal M with entries from 1e-6 to 1e6, in random
    order.  ``graded`` scales A by the same D^1/2 on both sides, as the
    stiffness of a graded hp mesh scales with its mass: then the pencil is as
    well conditioned as the random factor."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    d = np.geomspace(1e-6, 1e6, n)
    rng.shuffle(d)
    a = b @ b.T + n * np.eye(n)
    if graded:
        a = np.sqrt(d)[:, None] * a * np.sqrt(d)
    return a, d


def near(v, rel=1e-3):
    """``v`` with every entry off by about ``rel`` relative: a start near the
    ground state at every scale of a graded pencil, as the SCF loop's are."""
    return v * (1.0 + rel * np.random.default_rng(0).standard_normal(v.shape))


@pytest.mark.parametrize("n,seed", [(40, 0), (300, 1)])
def test_dense_path_matches_the_generalized_solve_on_a_graded_pencil(n, seed):
    """LOBPCG on a dense graded pencil agrees with LAPACK's generalized solve."""
    a, d = graded_pencil(n, seed, graded=True)
    vals, vecs = dla.eigh(a, np.diag(d), subset_by_index=[0, 0])
    res = smallest_eigenpair(sp.csr_matrix(a), sp.diags(d), x0=near(vecs[:, 0]))
    assert res.lam == pytest.approx(vals[0], rel=1e-12)
    assert abs(res.x @ (d * vecs[:, 0])) == pytest.approx(1.0, abs=1e-10)


def test_dense_path_is_accurate_on_an_ungraded_pencil():
    # A unscaled: D^-1/2 A D^-1/2 has a condition number near 1e12, so any
    # LAPACK eigenvalue is off by about eps * ||D^-1/2 A D^-1/2|| (the
    # generalized eigh's by 9e-5 relative here); LOBPCG, started near that
    # eigh's vector, never forms the scaled operator, and its eigenvalue is
    # checked against 40-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    a, d = graded_pencil(40, 1, graded=False)
    start = dla.eigh(a, np.diag(d), subset_by_index=[0, 0])[1][:, 0]
    res = smallest_eigenpair(sp.csr_matrix(a), sp.diags(d), x0=near(start))
    with mpmath.workdps(40):
        s = [1 / mpmath.sqrt(mpmath.mpf(v)) for v in d]
        scaled = mpmath.matrix([[s[i] * mpmath.mpf(a[i, j]) * s[j] for j in range(40)]
                                for i in range(40)])
        exact = float(min(mpmath.eigsy(scaled, eigvals_only=True)))
    assert res.lam == pytest.approx(exact, rel=1e-10, abs=0.0)
    assert res.x @ (d * res.x) == pytest.approx(1.0, abs=1e-10)


def test_rayleigh_consistency_and_normalization():
    n = 1200
    a = tridiag(n)
    m = sp.diags(np.full(n, 0.5)).tocsr()
    res = smallest_eigenpair(a, m, x0=sine(n))
    assert res.x @ (m @ res.x) == pytest.approx(1.0, abs=1e-12)
    rq = (res.x @ (a @ res.x)) / (res.x @ (m @ res.x))
    assert res.lam == pytest.approx(rq, abs=1e-12)


def test_sparse_path_matches_analytic():
    n = 3000
    a = tridiag(n)
    m = sp.identity(n, format="csr")
    i = np.arange(1, n + 1)
    x0 = np.sin(np.pi * i / (n + 1))
    res = smallest_eigenpair(a, m, x0=x0)
    lam_exact = 2.0 * (1.0 - np.cos(np.pi / (n + 1)))
    assert res.lam == pytest.approx(lam_exact, rel=1e-10)
    assert res.residual <= 1e-10


def test_sign_canonicalization():
    n = 500
    a = tridiag(n)
    m = sp.identity(n, format="csr")
    orient = np.ones(n)
    res = smallest_eigenpair(a, m, x0=sine(n), orient=orient)
    assert res.x @ (m @ orient) >= 0
    res2 = smallest_eigenpair(a, m, x0=sine(n), orient=-orient)
    assert res2.x @ (m @ -orient) >= 0


def test_shift_invariance():
    # scaled so the smallest eigenvalues are pi^2, 4 pi^2, ...: an O(1) gap
    # is needed for eigenvector agreement at the 1e-10 level
    n = 2500
    a = tridiag(n, scale=(n + 1) ** 2)
    m = sp.identity(n, format="csr")
    x0 = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    res = smallest_eigenpair(a, m, x0=x0)
    res5 = smallest_eigenpair(a + 5.0 * m, m, x0=x0)
    assert res5.lam == pytest.approx(res.lam + 5.0, abs=1e-10)
    assert np.max(np.abs(res5.x - res.x)) < 1e-10


def test_nonconvergence_carries_best_iterate(monkeypatch):
    n = 2500
    a = tridiag(n)
    m = sp.identity(n, format="csr")
    monkeypatch.setattr(eigsolve, "MAX_ITER", 1)
    with pytest.raises(EigenSolveError, match="after 1 iterations") as err:
        smallest_eigenpair(a, m, tol=1e-14, x0=np.ones(n))
    assert err.value.best is not None
    assert err.value.best.x.shape == (n,)


def test_mass_must_be_positive_definite():
    a = sp.identity(4, format="csr")
    m = sp.diags([1.0, -1.0, 1.0, 1.0]).tocsr()
    with pytest.raises(ValueError):
        smallest_eigenpair(a, m, x0=np.ones(4))


def test_rejects_bad_tolerance():
    a = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        smallest_eigenpair(a, a, x0=np.ones(3), tol=0.0)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_bad_tolerance_is_refused_before_anything_is_factored(monkeypatch, tol):
    def splu(*args, **kwargs):
        raise AssertionError("factored")

    monkeypatch.setattr(eigsolve.sla, "splu", splu)
    n = 400
    with pytest.raises(ValueError, match="tolerance"):
        smallest_eigenpair(tridiag(n), sp.identity(n, format="csr"), tol=tol, x0=sine(n))


@pytest.mark.parametrize("bad", ["nan", "inf", "short", "column"])
def test_bad_start_vector_is_refused_before_anything_is_factored(monkeypatch, bad):
    def splu(*args, **kwargs):
        raise AssertionError("factored")

    monkeypatch.setattr(eigsolve.sla, "splu", splu)
    n = 400
    x0 = sine(n)
    x0 = {"nan": np.where(np.arange(n) == 7, np.nan, x0),
          "inf": np.where(np.arange(n) == 7, np.inf, x0),
          "short": x0[:-1], "column": x0[:, None]}[bad]
    with pytest.raises(ValueError, match="x0"):
        smallest_eigenpair(tridiag(n), sp.identity(n, format="csr"), x0=x0)


def test_cold_sparse_start_never_returns_an_excited_state():
    # the smallest eigenvalue is pi^2 up to O(h^2); random starts have their
    # Rayleigh quotients deep inside the spectrum, so the shift lies far above
    # lambda_1 and the preconditioner is indefinite
    n = 3000
    a = tridiag(n, scale=(n + 1) ** 2)
    m = sp.identity(n, format="csr")
    lam1 = 2.0 * (n + 1) ** 2 * (1.0 - np.cos(np.pi / (n + 1)))
    assert lam1 == pytest.approx(np.pi**2, rel=1e-6)
    rng = np.random.default_rng(0)
    for x0 in [rng.standard_normal(n) for _ in range(3)]:
        try:
            res = smallest_eigenpair(a, m, x0=x0)
        except EigenSolveError:
            continue
        assert res.lam == pytest.approx(lam1, rel=1e-8)


def sine(n):
    return np.sin(np.pi * np.arange(1, n + 1) / (n + 1))


def perturbed_pencils(n=600):
    rng = np.random.default_rng(3)
    a = tridiag(n, scale=(n + 1) ** 2) + sp.diags(rng.uniform(-1.0, 1.0, n))
    m = sp.diags(rng.uniform(0.5, 1.5, n)).tocsr()
    return a.tocsr(), (a + sp.diags(rng.uniform(0.0, 0.1, n))).tocsr(), m


def test_factorization_reused_on_perturbed_pencil():
    a, b, m = perturbed_pencils()
    first = smallest_eigenpair(a, m, x0=sine(a.shape[0]))
    assert first.precond is not None
    res = smallest_eigenpair(b, m, x0=first.x, precond=first.precond)
    assert res.precond is first.precond
    vals, vecs = dla.eigh(b.toarray(), m.toarray(), subset_by_index=[0, 0])
    assert res.lam == pytest.approx(vals[0], rel=1e-10)
    assert res.residual <= 1e-10
    assert abs(res.x @ (m @ vecs[:, 0])) == pytest.approx(1.0, abs=1e-10)


def test_rejects_factorization_of_another_size():
    a, _, m = perturbed_pencils()
    lu = smallest_eigenpair(a, m, x0=sine(a.shape[0])).precond
    b, _, m2 = perturbed_pencils(n=700)
    with pytest.raises(ValueError):
        smallest_eigenpair(b, m2, x0=sine(700), precond=lu)


@pytest.mark.parametrize("scale", [1e45, 1e-45])
def test_sparse_path_survives_pencils_outside_float32_range(scale):
    # the pencil of test_sparse_path_matches_analytic with both matrices
    # scaled: the same eigenvalues, but A - tau M overflows (1e45) or
    # underflows (1e-45) float32 unless the factor is scaled before the cast
    n = 3000
    a = tridiag(n, scale=scale)
    m = sp.identity(n, format="csr") * scale
    res = smallest_eigenpair(a, m, x0=sine(n))
    lam_exact = 2.0 * (1.0 - np.cos(np.pi / (n + 1)))
    assert res.lam == pytest.approx(lam_exact, rel=1e-10)
    assert res.residual <= 1e-10


def test_pencil_beyond_float32_dynamic_range_is_refused():
    n = 501
    d = np.geomspace(1e-40, 1e40, n)
    d[n // 2] = 10.0
    x0 = np.zeros(n)
    x0[n // 2] = 1.0  # rho(x0) = 10, so tau = 0 and A - tau M is A itself
    with pytest.raises(EigenSolveError, match=r"tau=0\.0 .*1\.000e-40 to 1\.000e\+40"):
        smallest_eigenpair(sp.diags(d).tocsr(), sp.identity(n, format="csr"), x0=x0)


def test_exact_eigenvector_start_returns_at_the_first_step():
    # the residual of the start is exactly zero: nothing to precondition
    n = 500
    a = sp.diags(np.arange(1.0, n + 1.0)).tocsr()
    x0 = np.zeros(n)
    x0[0] = 1.0
    res = smallest_eigenpair(a, sp.identity(n, format="csr"), x0=x0)
    assert res.iterations == 1
    assert res.lam == 1.0 and res.residual == 0.0
    assert np.array_equal(res.x, x0)  # no NaN from the zero residual


def test_preconditioner_is_factored_in_single_precision(monkeypatch):
    dtypes = []
    raw_splu = eigsolve.sla.splu

    def splu(matrix, **kwargs):
        dtypes.append(matrix.dtype)
        return raw_splu(matrix, **kwargs)

    monkeypatch.setattr(eigsolve.sla, "splu", splu)
    a, _, m = perturbed_pencils()
    res = smallest_eigenpair(a, m, x0=sine(a.shape[0]))
    assert dtypes == [np.float32]
    assert res.residual <= 1e-10


def counting(a):
    """``a`` as a CSR matrix that records the shape of each right-hand side
    it multiplies."""
    shapes = []

    class Counted(sp.csr_matrix):
        def __matmul__(self, other):
            shapes.append(np.shape(other))
            return super().__matmul__(other)

    return Counted(a), shapes


def test_one_product_with_a_per_step():
    a, _, m = perturbed_pencils()
    n = a.shape[0]
    counted, shapes = counting(a)
    res = smallest_eigenpair(counted, m, x0=sine(n))
    assert res.iterations > 2
    assert len(shapes) == res.iterations + 1
    assert shapes[0] == (n,)  # the start's A x
    assert shapes[1] == (n, 2) and set(shapes[2:]) == {(n, 3)}


def fresh_residual(a, m, res):
    ax, mx = a @ res.x, m @ res.x
    return np.linalg.norm(ax - res.lam * mx) / (np.linalg.norm(ax) + abs(res.lam) * np.linalg.norm(mx))


def lobpcg_pencils():
    n = 3000
    a, m = tridiag(n), sp.identity(n, format="csr")
    yield a, m, sine(n)
    yield tridiag(2500, scale=2501**2), sp.identity(2500, format="csr"), sine(2500)
    pa, _, pm = perturbed_pencils()
    yield pa, pm, sine(600)
    for scale in (1e45, 1e-45):
        yield tridiag(n, scale=scale), m * scale, sine(n)


def test_reported_residual_holds_for_a_fresh_product():
    # the residual is computed from (A Q) c, not from A x; the residual of a
    # fresh product must still meet the tolerance
    for a, m, x0 in lobpcg_pencils():
        res = smallest_eigenpair(a, m, x0=x0)
        assert res.precond is not None and res.residual <= eigsolve.DEFAULT_TOL
        assert fresh_residual(a, m, res) <= eigsolve.DEFAULT_TOL


def linear_pencil(ell, p0, slope):
    """The linear SCF pencil (A_sip, M) of a 2D octant, alpha = 1 attractive,
    and the cold solve's coarse start on it."""
    space = build_space(build_graded_mesh(2, 0.5, ell), p0, slope)
    asm = SipAssembler(space, Potential(1.0, -1), PenaltyConfig())
    a, m = asm.sip(), asm.mass()
    return a, m, _coarse_start(space, a, m.diagonal())


def test_returned_pair_meets_a_tolerance_below_1e_12():
    """On a graded pencil of 148 unknowns, 12 levels deep, LOBPCG reaches
    1e-13 (a LAPACK eigh of D^-1/2 A D^-1/2 there has a residual of 9e-9):
    the pair returned meets the tolerance as reported and for a fresh product."""
    a, m, x0 = linear_pencil(12, 1, 0.0)
    assert a.shape == (148, 148)
    res = smallest_eigenpair(a, m, x0=x0, tol=1e-13)
    assert res.residual <= 1e-13
    assert fresh_residual(a, m, res) <= 1e-13


def roundoff_floor(a, m, pair):
    """eps ||A| |x|| / (||Ax|| + |lam| ||Mx||): one product's rounding error
    relative to the residual's scale, recomputed from the dense arrays."""
    ad, x = a.toarray(), pair.x
    scale = np.linalg.norm(ad @ x) + abs(pair.lam) * np.linalg.norm(m @ x)
    return np.finfo(float).eps * np.linalg.norm(np.abs(ad) @ np.abs(x)) / scale


def test_nonconvergence_names_the_roundoff_floor():
    """A tolerance below the residual's roundoff floor stalls; the error
    gives the best residual and the floor estimated at the best iterate."""
    a, m, x0 = linear_pencil(8, 2, 0.125)
    with pytest.raises(EigenSolveError) as err:
        smallest_eigenpair(a, m, x0=x0, tol=1e-13)
    best = err.value.best
    floor = roundoff_floor(a, m, best)
    assert 1e-13 < best.residual < floor
    said = re.search(r"best residual (\S+), roundoff floor about (\S+)\)", str(err.value))
    assert said is not None, str(err.value)
    assert float(said[1]) == pytest.approx(best.residual, rel=1e-3)
    assert float(said[2]) == pytest.approx(floor, rel=1e-3)


def scf_pencil(dim, ell, p0, slope, alpha, build=build_graded_mesh):
    """A_sip + N(u) at the constant state, written into A_sip's data as the
    SCF loop writes it (A_sip's pattern, its exact zeros kept), M's diagonal,
    and tau = rho(u) - 10, on the mesh that ``build`` makes."""
    space = build_space(build(dim, 0.5, ell), p0, slope)
    asm = SipAssembler(space, Potential(alpha, -1), PenaltyConfig())
    u = constant_field(space)
    a = asm.sip()
    for s, g in zip(asm.slots, asm.nonlinear_blocks(u, 3)):
        a.data[s] += g
    d = asm.mass().diagonal()
    x = u.coeffs / np.sqrt(u.coeffs @ (d * u.coeffs))
    return a, d, float(x @ (a @ x)) - 10.0


def factor_pencils():
    """(A, d, tau): the SCF operators of both dimensions, which store exact
    zeros, and pencils whose diagonal cancels, is not all stored, is stored
    twice or needs the scaled cast."""
    yield pytest.param(*scf_pencil(2, 4, 2, 0.125, 1.0), id="scf2d")
    yield pytest.param(*scf_pencil(3, 2, 1, 0.25, 0.5), id="scf3d")
    a, _, m = perturbed_pencils()
    yield pytest.param(a, m.diagonal(), -3.5, id="perturbed")
    for scale in (1e45, 1e-45):
        yield pytest.param(tridiag(3000, scale=scale), np.full(3000, scale), -10.0,
                           id=f"scaled{scale:g}")
    # the diagonal cancels: SuperLU still gets it, stored as zeros
    yield pytest.param(tridiag(600), np.ones(600), 2.0, id="zero_after_shift")
    gap = tridiag(600)
    gap.data[gap.indices == np.repeat(np.arange(600), np.diff(gap.indptr))] *= np.arange(600) % 3
    gap.eliminate_zeros()  # every third diagonal entry is not stored
    yield pytest.param(gap, np.linspace(1.0, 2.0, 600), 0.75, id="missing_diagonal")
    dup = tridiag(600)
    dup = sp.csr_matrix((np.repeat(0.5 * dup.data, 2), np.repeat(dup.indices, 2),
                         2 * dup.indptr), shape=dup.shape)
    dup.has_canonical_format = False  # every entry stored as two halves
    yield pytest.param(dup, np.ones(600), -1.0, id="duplicates")


@pytest.mark.parametrize("a,d,tau", factor_pencils())
def test_factor_hands_superlu_the_shifted_copy_bitwise(monkeypatch, a, d, tau):
    """SuperLU gets bitwise the float32 values of A - tau M on A's own
    pattern, its explicit zeros and every diagonal entry stored, and A itself
    is left as it was."""
    given = []
    monkeypatch.setattr(eigsolve.sla, "splu", lambda lhs, **kwargs: given.append(lhs))
    before = a.copy()
    eigsolve._factor(a, d, tau)
    want, (got,) = factor_input(a, d, tau), given
    assert sp.isspmatrix_csc(got) and got.dtype == np.float32 and got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))
    for arr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, arr), getattr(before, arr)), arr


def test_factor_peak_memory_per_stored_entry():
    """The float32 pencil is cast straight from A's storage: the traced peak
    of a 3D factorization stays within 12 bytes per stored entry of A (a
    shifted CSC copy alone takes 12, its float32 values 4 more).  The pencil
    is the SCF's operator, which stores A_sip's exact zeros, so no copy
    drops them either."""
    a, d, tau = scf_pencil(3, 4, 1, 0.25, 0.5, full_cube_mesh)
    assert (a.shape[0], a.nnz) == (3984, 630240) and np.count_nonzero(a.data) < a.nnz
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        eigsolve._factor(a, d, tau)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 12 * a.nnz


def test_singular_pencil_is_refused():
    n = 600
    x0 = np.zeros(n)
    x0[19] = 1.0  # rho(x0) = 20, so tau = 10 and row 9 of A - tau M is zero
    with pytest.raises(EigenSolveError, match=r"A - tau M is singular at tau=10\.0"):
        smallest_eigenpair(sp.diags(np.arange(1.0, n + 1.0)).tocsr(),
                           sp.identity(n, format="csr"), x0=x0)

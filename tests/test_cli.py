import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from hpdg import cli
from hpdg.assembly import PenaltyConfig, Potential, SipAssembler, assemble_mass
from hpdg.cli import (CSV_HEADER, ConfigError, StudyConfig, StudyError,
                      build_parser, load_config_file, main, run_study)
from hpdg.eigsolve import EigenSolveError
from hpdg.hpspace import DiscreteField
from hpdg.scf import solve_ground_state


def tiny_linear_config(out, **kw):
    defaults = dict(dim=2, ell_min=1, ell_max=3, p0=2, slope=0.0, alpha=None,
                    delta=None, ref_extra_levels=1, ref_extra_degree=1,
                    out=str(out))
    defaults.update(kw)
    return StudyConfig(**defaults)


def test_sigma_validation_names_the_key():
    cfg = StudyConfig(sigma=0.6)
    with pytest.raises(ConfigError, match="sigma"):
        cfg.validate()


@pytest.mark.parametrize("field,value,key", [
    ("dim", 4, "dim"),
    ("p0", 0, "p0"),
    ("slope", -1.0, "slope"),
    ("slope", float("nan"), "slope"),
    ("slope", float("inf"), "slope"),
    ("alpha", 0.7, "alpha"),
    ("pot_sign", 2, "pot_sign"),
    ("delta", 7, "delta"),
    ("penalty", 0.0, "penalty"),
    ("penalty", float("nan"), "penalty"),
    ("penalty", float("inf"), "penalty"),
    ("tol", float("nan"), "tol"),
    ("tol", float("inf"), "tol"),
    ("theta", 0.0, "theta"),
    ("max_iter", 0, "max_iter"),
    # the integer keys refuse floats and bools
    ("dim", 2.0, "dim"),
    ("ell_min", 1.0, "ell_min"),
    ("ell_max", 3.0, "ell_max"),
    ("p0", True, "p0"),
    ("p0", 2.0, "p0"),
    ("max_iter", 2.5, "max_iter"),
    ("max_iter", False, "max_iter"),
    ("ref_extra_levels", 1.5, "ref_extra_levels"),
    ("ref_extra_degree", 0.5, "ref_extra_degree"),
    # pot_sign and delta are integers too, and no numeric key takes a bool
    ("pot_sign", True, "pot_sign"),
    ("pot_sign", 1.0, "pot_sign"),
    ("pot_sign", -1.0, "pot_sign"),
    ("delta", 3.0, "delta"),
    ("delta", True, "delta"),
    ("sigma", True, "sigma"),
    ("slope", True, "slope"),
    ("alpha", True, "alpha"),
    ("penalty", True, "penalty"),
    ("tol", True, "tol"),
    ("theta", True, "theta"),
    # nor a string or another non-number
    ("sigma", "0.5", "sigma"),
    ("slope", "0", "slope"),
    ("alpha", "1.0", "alpha"),
    ("penalty", "10", "penalty"),
    ("tol", "1e-7", "tol"),
    ("theta", [1.0], "theta"),
    # a number means that number: alpha 0 is V = -1, not V = 0, and delta 0 is not linear
    ("alpha", 0.0, "alpha"),
    ("delta", 0, "delta"),
])
def test_validation_messages_name_keys(field, value, key):
    cfg = StudyConfig(**{field: value})
    with pytest.raises(ConfigError, match=key):
        cfg.validate()


def test_linear_study_lambda_converges_to_dirichlet_laplacian(tmp_path):
    cfg = tiny_linear_config(tmp_path / "out", p0=3, ell_max=3)
    records = run_study(cfg)
    lams = [r.lam for r in records]
    assert all(a >= b for a, b in zip(lams, lams[1:]))  # monotone from above
    assert lams[-1] == pytest.approx(2 * np.pi**2, rel=1e-5)


def test_csv_schema_and_fit_file(tmp_path):
    out = tmp_path / "out"
    run_study(tiny_linear_config(out))
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + ell 1..3
    for ln in lines[1:]:
        parts = ln.split(",")
        assert len(parts) == 7
        int(parts[0]), int(parts[1])
        [float(p) for p in parts[2:]]
    fits = (out / "fits.txt").read_text().splitlines()
    assert len(fits) == 8  # 4 columns x 2 abscissae
    for ln in fits:
        parts = ln.split()
        assert len(parts) == 5
        assert parts[1] in ("ell", "ndof_root")


def test_iteration_logs_written(tmp_path):
    out = tmp_path / "out"
    run_study(tiny_linear_config(out))
    logs = sorted(out.glob("iters_p2_ell*.log"))
    assert len(logs) == 3
    ref_logs = sorted(f.name for f in out.glob("iters_p3_ell*.log"))
    assert ref_logs == ["iters_p3_ell4.log"]  # the reference is one solve


def check_solves_study_chain_then_reference(tmp_path, monkeypatch, capsys, **kw):
    """The study chain ell = 1..ell_max at p0, then one reference solve."""
    solved = []

    def counting_solve(space, *args, **kwargs):
        solved.append((space.p0, space.mesh.ell))
        return solve_ground_state(space, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_ground_state", counting_solve)
    out = tmp_path / "out"
    cfg = tiny_linear_config(out, **kw)
    records = run_study(cfg)
    ell_ref = cfg.ell_max + cfg.ref_extra_levels
    expected = [(cfg.p0, ell) for ell in range(1, cfg.ell_max + 1)]
    expected += [(cfg.p0 + cfg.ref_extra_degree, ell_ref)]
    assert len(solved) == cfg.ell_max + 1
    assert solved == expected
    assert sorted(f.name for f in out.glob("iters_p*_ell*.log")) == sorted(
        f"iters_p{p}_ell{ell}.log" for p, ell in expected)
    progress = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("level ")]
    assert [ln.split()[1:3] for ln in progress] == [[f"p0={p}", f"ell={ell}"]
                                                    for p, ell in expected]
    assert [r.ell for r in records] == list(range(cfg.ell_min, cfg.ell_max + 1))


@pytest.mark.parametrize("extra_degree", [0, 1])
def test_study_solves_each_level_once(tmp_path, monkeypatch, capsys, extra_degree):
    check_solves_study_chain_then_reference(tmp_path, monkeypatch, capsys,
                                            ref_extra_degree=extra_degree)


def test_reference_jumps_two_levels_at_the_same_degree(tmp_path, monkeypatch, capsys):
    # ell_max = 3: no solve at ell = 4, the reference at ell = 5 starts from ell = 3
    check_solves_study_chain_then_reference(tmp_path, monkeypatch, capsys,
                                            ref_extra_levels=2, ref_extra_degree=0)


def _fail_the_reference(how):
    """A solve_ground_state that fails as ``how`` says on the reference level
    (base degree 3) of a tiny_linear_config study, and solves the others."""
    def solve(space, *args, **kwargs):
        if space.p0 != 3:
            return solve_ground_state(space, *args, **kwargs)
        if how == "stall":
            raise EigenSolveError("no convergence (best residual 4.300e-01)", None)
        u, rep = solve_ground_state(space, *args, **kwargs)
        if how == "no convergence":
            rep.converged = False
            return u, rep
        # "excited": a field M-orthogonal to the injected start
        start, m = kwargs["u0"].coeffs, assemble_mass(space)
        c = np.cos(np.arange(space.N))
        c -= (c @ (m @ start)) / (start @ (m @ start)) * start
        return DiscreteField(space, c / np.sqrt(c @ (m @ c))), rep
    return solve


@pytest.mark.parametrize("how,message", [
    ("stall", "eigensolve failed at p0=3 ell=4 N=832"),
    ("no convergence", "SCF did not converge at p0=3 ell=4 N=832"),
    ("excited", "excited state at p0=3 ell=4 N=832: M-overlap"),
])
def test_failed_reference_names_its_level(tmp_path, monkeypatch, how, message):
    monkeypatch.setattr(cli, "solve_ground_state", _fail_the_reference(how))
    with pytest.raises(StudyError, match=message):
        run_study(tiny_linear_config(tmp_path / "out"))


def test_jumped_reference_is_the_ground_state(tmp_path, monkeypatch):
    """Sylvester's law of inertia: at the reference, jumped from ell_max to
    ell_max + 2 and one degree up, A_sip + N(u) - (lambda + 1e-6) M has
    exactly one negative eigenvalue, so lambda is the smallest."""
    solved = []

    def keep(space, *args, **kwargs):
        solved.append(solve_ground_state(space, *args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_ground_state", keep)
    cfg = StudyConfig(dim=2, ell_min=1, ell_max=3, p0=2, slope=0.125, alpha=1.0,
                      pot_sign=-1, delta=3, ref_extra_levels=2, ref_extra_degree=1,
                      out=str(tmp_path / "out"))
    run_study(cfg)
    u, rep = solved[-1]
    assert (u.space.p0, u.space.mesh.ell) == (3, 5)
    asm = SipAssembler(u.space, Potential(cfg.alpha, cfg.pot_sign), PenaltyConfig(cfg.penalty))
    shifted = asm.sip() + asm.nonlinear_mass(u, cfg.delta) - (rep.lam + 1e-6) * asm.mass()
    lu = splu(shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
              options=dict(SymmetricMode=True))
    assert np.array_equal(lu.perm_r, lu.perm_c)  # a symmetric permutation: U = D L^T
    assert np.count_nonzero(lu.U.diagonal() < 0) == 1


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_study(tiny_linear_config(out1))
    run_study(tiny_linear_config(out2))
    assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
    assert (out1 / "fits.txt").read_bytes() == (out2 / "fits.txt").read_bytes()


def test_nonconvergence_aborts_with_level(tmp_path):
    cfg = StudyConfig(dim=2, ell_max=2, p0=2, slope=0.0, alpha=1.0, delta=3,
                      max_iter=1, ref_extra_levels=1, ref_extra_degree=0,
                      out=str(tmp_path / "out"))
    with pytest.raises(StudyError, match="ell="):
        run_study(cfg)


def test_stalled_eigensolve_reports_the_level(tmp_path, monkeypatch, capsys):
    from hpdg import scf
    from hpdg.eigsolve import EigenSolveError, EigResult

    def stalled(a, m, **kwargs):
        best = EigResult(1.0, np.ones(a.shape[0]), 0.43, 200)
        raise EigenSolveError("no convergence (best residual 4.300e-01)", best)

    monkeypatch.setattr(scf, "smallest_eigenpair", stalled)
    rc = main(["--dim", "2", "--levels", "2", "--p0", "2", "--slope", "0",
               "--ref-extra-levels", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = err.strip().splitlines()[-1]
    assert line.startswith("error: eigensolve failed at p0=2 ell=1 N=144")
    assert "best residual 4.300e-01" in line


def test_config_file_parsing(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        "# comment line\n"
        "dim = 2\n"
        "sigma = 0.5\n"
        "alpha = none\n"
        "delta = linear\n"
        "slope = 0.25   # trailing comment\n"
    )
    values = load_config_file(path)
    assert values == {"dim": 2, "sigma": 0.5, "alpha": None, "delta": None,
                      "slope": 0.25}


def test_config_file_rejects_unknown_keys(tmp_path):
    """A misspelt key, and ``gnuplot`` (a removed option), are named."""
    path = tmp_path / "study.cfg"
    for text, key in (("sigmas = 0.5\n", "sigmas"), ("gnuplot = 1\n", "gnuplot")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config_file(path)


def test_config_file_rejects_repeated_keys(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("ell_max = 2\n# finer\nell-max = 3\n")
    with pytest.raises(ConfigError, match=r"study\.cfg:3: key 'ell_max' is set twice"):
        load_config_file(path)


def test_main_with_config_and_overrides(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text("dim = 2\np0 = 2\nslope = 0\nalpha = none\ndelta = linear\n"
                    "ell_min = 1\nref_extra_levels = 1\n")
    out = tmp_path / "results"
    rc = main([str(path), "--levels", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "study.csv").exists()
    captured = capsys.readouterr()
    assert f"wrote 2 levels to {out / 'study.csv'}\n" in captured.out


@pytest.mark.parametrize("key,value", [("ref_extra_levels", 1.5), ("ref_extra_degree", 0.5),
                                       ("max_iter", 2.5), ("p0", True), ("pot_sign", 1.0),
                                       ("delta", 3.0)])
def test_non_integer_key_fails_before_any_level_is_solved(tmp_path, monkeypatch, key, value):
    monkeypatch.setattr(cli, "_level_solve", lambda *a: pytest.fail("a level was solved"))
    with pytest.raises(ConfigError, match=f"{key} must be an integer, got {value!r}"):
        run_study(tiny_linear_config(tmp_path / "x", **{key: value}))
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("with_file", [False, True])
def test_flags_given_on_the_command_line_win(tmp_path, monkeypatch, with_file):
    """``--alpha none`` and ``--delta linear`` parse to None; they still
    override the defaults and a config file's values."""
    seen = []
    monkeypatch.setattr(cli, "run_study", lambda cfg: seen.append(cfg) or [])
    path = tmp_path / "study.cfg"
    path.write_text("alpha = 1\ndelta = 3\np0 = 3\n")
    argv = [str(path)] if with_file else []
    assert main(argv + ["--alpha", "none", "--delta", "linear", "--out", str(tmp_path)]) == 0
    (cfg,) = seen
    assert (cfg.alpha, cfg.delta, cfg.p0) == (None, None, 3 if with_file else 2)


@pytest.mark.parametrize("key", ["alpha", "delta"])
@pytest.mark.parametrize("with_file", [False, True])
def test_zero_is_a_number_not_none(tmp_path, capsys, monkeypatch, key, with_file):
    """``0`` parses to the number 0 for ``alpha`` and ``delta``, on the command
    line and in a config file, and is refused by ``validate`` naming the key
    before any level is solved; only the words mean "none" and "linear"."""
    monkeypatch.setattr(cli, "_level_solve", lambda *a: pytest.fail("a level was solved"))
    path = tmp_path / "study.cfg"
    path.write_text(f"{key} = 0\n")
    assert load_config_file(path) == {key: 0}
    out = tmp_path / "x"
    argv = [str(path)] if with_file else [f"--{key}", "0"]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be one of ")
    assert not out.exists()


def test_empty_out_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--levels", "2", "--out", ""]) == 1
    assert capsys.readouterr().err.startswith("error: out: ")
    assert not any(tmp_path.iterdir())


def test_unbuildable_level_is_an_error_line(tmp_path, capsys):
    # at sigma = 1e-200 the level-1 corner elements are 5e-201 wide, too
    # small for float64 arithmetic: the SIP matrix gets non-finite entries
    rc = main(["--dim", "2", "--sigma", "1e-200", "--levels", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["error: level p0=2 ell=1 N=144 failed: "
                                "assembled SIP matrix contains non-finite entries"]


def test_deep_sigma_study_completes(tmp_path):
    """At sigma = 0.15 the level-16 reference has elements 0.5 * 0.15^16 ~ 3e-14
    wide; its mesh, injection and error norms must keep their planes apart."""
    out = tmp_path / "out"
    assert main(["--dim", "2", "--sigma", "0.15", "--levels", "14", "--ell-min", "10",
                 "--p0", "2", "--slope", "0.25", "--ref-extra-degree", "0",
                 "--out", str(out)]) == 0
    rows = (out / "study.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(10, 15))


def test_main_rejects_bad_config(tmp_path, capsys):
    rc = main(["--sigma", "0.9", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("name,reason", [("missing.cfg", "No such file"), ("", "Is a directory")])
def test_unreadable_config_file_names_the_path(tmp_path, capsys, name, reason):
    path = tmp_path / name
    with pytest.raises(ConfigError, match=reason):
        load_config_file(path)
    assert main([str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {str(path)!r}: {reason}")
    assert "Traceback" not in err


def test_main_rejects_bad_pot_sign_like_any_bad_key(tmp_path, capsys):
    rc = main(["--pot-sign", "2", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: pot_sign must be -1 or +1")


def test_module_entry_point_runs_without_warnings(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-W", "error", "-m", "hpdg.cli", "--penalty", "nan"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error: penalty ")
    assert "Warning" not in out.stderr


@pytest.mark.parametrize("child", [False, True])
def test_unusable_out_names_the_key(tmp_path, capsys, child):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    out = blocker / "x" if child else blocker
    rc = main(["--levels", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: out: cannot create directory {str(out)!r}")
    with pytest.raises(ConfigError, match="out"):
        run_study(tiny_linear_config(out))


def test_parser_flags_cover_spec():
    parser = build_parser()
    args = parser.parse_args([
        "--dim", "3", "--sigma", "0.5", "--levels", "4", "--p0", "1",
        "--slope", "0.25", "--alpha", "0.5", "--pot-sign", "-1",
        "--delta", "3", "--penalty", "10", "--tol", "1e-7",
        "--max-iter", "50", "--theta", "0.8", "--ref-extra-levels", "2",
        "--ref-extra-degree", "1", "--out", "x",
    ])
    assert args.dim == 3 and args.ell_max == 4 and args.pot_sign == -1
    assert args.alpha == 0.5 and args.delta == 3


def test_every_config_key_has_a_flag():
    """Each key of the configuration file is one flag that sets the key's
    field: ``--levels`` for ell_max, ``--<key>`` with dashes otherwise."""
    raw = {"dim": "3", "sigma": "0.25", "ell_min": "2", "ell_max": "4", "p0": "1",
           "slope": "0.25", "alpha": "1.5", "pot_sign": "1", "delta": "2",
           "penalty": "12", "tol": "1e-7", "max_iter": "50", "theta": "0.8",
           "ref_extra_levels": "3", "ref_extra_degree": "0", "out": "x"}
    assert set(raw) == set(cli._PARSERS)
    parser = build_parser()
    for key, text in raw.items():
        flag = "--levels" if key == "ell_max" else "--" + key.replace("_", "-")
        args = vars(parser.parse_args([flag, text]))
        assert {k: v for k, v in args.items() if v is not None} == {key: cli._PARSERS[key](text)}

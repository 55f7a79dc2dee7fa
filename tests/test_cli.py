import numpy as np
import pytest

from hpdg.cli import (CSV_HEADER, ConfigError, StudyConfig, StudyError,
                      build_parser, load_config_file, main, run_study)


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
    ("alpha", 0.7, "alpha"),
    ("pot_sign", 2, "pot_sign"),
    ("delta", 7, "delta"),
    ("penalty", 0.0, "penalty"),
    ("theta", 0.0, "theta"),
    ("max_iter", 0, "max_iter"),
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
    logs = sorted(out.glob("iters_study_ell*.log"))
    assert len(logs) == 3
    ref_logs = sorted(out.glob("iters_ref_ell*.log"))
    assert len(ref_logs) == 4


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_study(tiny_linear_config(out1))
    run_study(tiny_linear_config(out2))
    assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
    assert (out1 / "fits.txt").read_bytes() == (out2 / "fits.txt").read_bytes()


def test_gnuplot_files(tmp_path):
    out = tmp_path / "out"
    run_study(tiny_linear_config(out, gnuplot=True))
    for col in ("l2", "dg", "linf", "lambda"):
        rows = (out / f"err_{col}.dat").read_text().splitlines()
        assert len(rows) == 3
        assert all(len(r.split()) == 2 for r in rows)


def test_nonconvergence_aborts_with_level(tmp_path):
    cfg = StudyConfig(dim=2, ell_max=2, p0=2, slope=0.0, alpha=1.0, delta=3,
                      max_iter=1, ref_extra_levels=1, ref_extra_degree=0,
                      out=str(tmp_path / "out"))
    with pytest.raises(StudyError, match="ell="):
        run_study(cfg)


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


@pytest.mark.parametrize("raw,value", [("1", True), ("Yes", True), ("0", False),
                                       ("FALSE", False)])
def test_config_file_gnuplot_values(tmp_path, raw, value):
    path = tmp_path / "study.cfg"
    path.write_text(f"gnuplot = {raw}\n")
    assert load_config_file(path) == {"gnuplot": value}


@pytest.mark.parametrize("raw", ["ture", "on", ""])
def test_config_file_rejects_bad_gnuplot_value(tmp_path, raw):
    path = tmp_path / "study.cfg"
    path.write_text(f"dim = 2\ngnuplot = {raw}\n")
    with pytest.raises(ConfigError, match=r"study\.cfg:2: bad value for gnuplot"):
        load_config_file(path)


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("sigmas = 0.5\n")
    with pytest.raises(ConfigError, match="sigmas"):
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
    assert "wrote 2 levels" in captured.out


def test_main_rejects_bad_config(tmp_path, capsys):
    rc = main(["--sigma", "0.9", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


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

"""The per-layer benchmark (studybench/layers.py) times hpdg by rebinding its
module-level functions from outside.  A solver path that stops calling them
through a module attribute would silently zero that layer's counts; these
tests keep the hooks the assembly and the eigensolver rely on visible."""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hpdg import assembly, eigsolve
from hpdg.assembly import PenaltyConfig, Potential, SipAssembler
from hpdg.cli import StudyConfig, run_study
from hpdg.hpspace import build_space, constant_field
from hpdg.mesh import build_graded_mesh

STUDYBENCH = Path(__file__).resolve().parents[1] / "studybench"


@pytest.fixture
def layers(monkeypatch):
    """studybench/layers.py, its ``install`` first clearing the assembler's
    corner-Gram cache: a Gram cached before install is never integrated
    again, so its rule and basis calls would be missed."""
    monkeypatch.syspath_prepend(str(STUDYBENCH))
    import layers as mod

    install = mod.install

    def clearing_install(tracer):
        assembly._corner_gram.cache_clear()
        return install(tracer)

    monkeypatch.setattr(mod, "install", clearing_install)
    yield mod
    sys.modules.pop("layers", None)


def test_layer_hooks_see_assembly_calls(layers):
    space = build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0)
    asm = SipAssembler(space, Potential(1.0), PenaltyConfig())
    asm.sip()  # caches the corner Gram: install must clear it to see it integrated
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        asm.sip()
        asm.nonlinear_mass(constant_field(space), 3)
    finally:
        uninstall()
    # no "kernels.gram": the corner Gram is sum-factorized, not a weighted_gram call
    for kind in ("quadrature.rule", "hpspace.basis", "assembly.sip", "assembly.nonlinear"):
        assert tracer.calls[kind] > 0, kind


def test_layer_hooks_see_the_sparse_factorization(layers):
    n = 600
    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        eigsolve.smallest_eigenpair(a.tocsr(), sp.identity(n, format="csr"),
                                    x0=np.sin(np.pi * np.arange(1, n + 1) / (n + 1)))
    finally:
        uninstall()
    assert tracer.calls["eigsolve.factor"] == 1
    assert tracer.maxima["eigsolve.lu_fill"] > 0


def test_layer_hooks_see_error_norms_and_injection(layers, tmp_path):
    """A tiny2d-sized study: one error_norms span for all its recorded levels
    and one inject span per warm-started level: the study chain and the
    reference."""
    cfg = StudyConfig(dim=2, ell_min=1, ell_max=2, p0=2, slope=0.125, alpha=1.0, pot_sign=-1,
                      delta=3, tol=1e-10, ref_extra_levels=2, ref_extra_degree=1, out=str(tmp_path))
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        records = run_study(cfg)
    finally:
        uninstall()
    warm_started = (cfg.ell_max - 1) + 1
    assert len(records) == cfg.ell_max - cfg.ell_min + 1 > 1
    assert tracer.calls["analysis.error_norms"] == 1
    assert tracer.calls["hpspace.inject"] == warm_started

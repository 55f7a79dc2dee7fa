"""The per-layer benchmark (studybench/layers.py) times hpdg by rebinding its
module-level functions from outside.  A solver path that stops calling them
through a module attribute would silently zero that layer's counts; this test
keeps the hooks the assembly relies on visible."""

import sys
from pathlib import Path

import pytest

from hpdg.assembly import PenaltyConfig, Potential, SipAssembler
from hpdg.hpspace import build_space, constant_field
from hpdg.mesh import build_graded_mesh

STUDYBENCH = Path(__file__).resolve().parents[1] / "studybench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(STUDYBENCH))
    import layers as mod

    yield mod
    sys.modules.pop("layers", None)


def test_layer_hooks_see_assembly_calls(layers):
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        space = build_space(build_graded_mesh(2, 0.5, 1), 1, 0.0)
        asm = SipAssembler(space, Potential(1.0), PenaltyConfig())
        asm.sip()
        asm.nonlinear_mass(constant_field(space), 3)
    finally:
        uninstall()
    for kind in ("kernels.gram", "quadrature.rule", "hpspace.basis",
                 "assembly.sip", "assembly.nonlinear"):
        assert tracer.calls[kind] > 0, kind

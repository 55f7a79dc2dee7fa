"""Fingerprints of the assembled matrices, projections and error norms.

Each value is a bilinear form x @ A @ y (or x @ c for a coefficient vector)
with seeded random vectors, recorded once and hard-coded below.  A change that
keeps the discretization keeps every value to roundoff; a change in the
quadrature, the basis tables or the assembly order shows up here first.  The
values were recorded on the whole cube, so they run on the oracle's
whole-cube mesh, whose 2^d corner elements each integrate the singular rule
reflected onto their own corner.
"""

import numpy as np
import pytest

from hpdg.analysis import error_norms
from hpdg.assembly import PenaltyConfig, Potential, SipAssembler
from hpdg.hpspace import build_space, inject
from oracles import full_cube_mesh, projected

RTOL = 1e-13

EXPECTED = {
    2: {
        "sip": 4243.195358199572,
        "mass": -0.04810162638053073,
        "nonlinear": -0.01672527606459142,
        "project": -0.10446922529042352,
        "inject": 3.9068189448066697,
        "err_l2": 0.0010172993834472,
        "err_dg": 0.08321594185942384,
        "err_linf": 0.005780728124153756,
    },
    3: {
        "sip": -232.625830555402,
        "mass": -0.22486584216231278,
        "nonlinear": -0.026209651588355788,
        "project": -3.0379868376412182,
        "inject": 12.1536857606328,
        "err_l2": 0.0009557643116760338,
        "err_dg": 0.07319942524538554,
        "err_linf": 0.007056640648215318,
    },
}


def _smooth(pts):
    """A smooth state vanishing on the boundary, without mirror symmetry."""
    vals = 1.0 + 0.5 * pts[:, 0]
    for m in range(pts.shape[1]):
        vals = vals * np.cos(np.pi * pts[:, m])
    return vals


def _bilinear(a, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, a.shape[0]))
    return float(x @ (a @ y))


def _linear(c, seed):
    return float(np.random.default_rng(seed).standard_normal(c.shape[0]) @ c)


def _assembler(d):
    if d == 2:
        space = build_space(full_cube_mesh(2, 0.5, 3), 2, 1 / 8)
        return SipAssembler(space, Potential(1.0, -1.0), PenaltyConfig())
    space = build_space(full_cube_mesh(3, 0.5, 2), 1, 1 / 4)
    return SipAssembler(space, Potential(0.5, -1.0), PenaltyConfig())


def fingerprints(d):
    asm = _assembler(d)
    u = projected(asm.space, _smooth)
    out = {
        "sip": _bilinear(asm.sip(), 1),
        "mass": _bilinear(asm.mass(), 2),
        "nonlinear": _bilinear(asm.nonlinear_mass(u, 3), 3),
    }
    coarse_mesh = full_cube_mesh(d, 0.5, 1 if d == 3 else 2)
    fine_mesh = full_cube_mesh(d, 0.5, 2 if d == 3 else 3)
    coarse = projected(build_space(coarse_mesh, 2, 1 / 4), _smooth)
    fine_space = build_space(fine_mesh, 3, 1 / 4)
    out["project"] = _linear(coarse.coeffs, 4)
    out["inject"] = _linear(inject(coarse, fine_space).coeffs, 5)
    norms = error_norms(coarse, projected(fine_space, _smooth))
    for key in ("l2", "dg", "linf"):
        out[f"err_{key}"] = norms[key]
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_fingerprints_match_recorded_values(d):
    """All keys are compared before the test fails, and a failure lists every
    key's recorded and computed value, so one run shows the whole drift."""
    got, want = fingerprints(d), EXPECTED[d]
    assert sorted(got) == sorted(want)
    bad = [key for key, value in want.items()
           if got[key] != pytest.approx(value, rel=RTOL, abs=0.0)]
    lines = [f"{'*' if key in bad else ' '} {key}: recorded {value!r}, computed {got[key]!r}, "
             f"rel {abs(got[key] - value) / abs(value):.1e}" for key, value in want.items()]
    assert not bad, f"{bad} moved beyond rel {RTOL}:\n" + "\n".join(lines)

"""Per-layer timing of an hpdg study, taken from outside the package.

``install`` rebinds the public functions at each layer boundary of hpdg (and
the two scipy solvers that ``hpdg.eigsolve`` calls) to timing wrappers, in
every hpdg module that holds a reference to them.  Nothing under ``src/`` is
edited.  Each wrapper opens a span; a span's self time is its duration minus
the time covered by the spans it opened.  A call made from inside a span of
the same kind (``volume_rule`` calling ``element_rule``) opens no new span, so
``*_calls`` counts calls into a layer from outside it.

Spans are aggregated in memory per kind (self time, calls, smallest self
time); ``Tracer.metrics`` turns them into the per-layer metrics of the
benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class _Factorization:
    """SuperLU handle whose triangular solves are timed as their own span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [kind, time covered by child spans]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.min_self_s = {}
        self.counts = Counter()  # counters read from results (iterations, ...)
        self.maxima = defaultdict(float)

    def wrap(self, kind, fn, observe=None):
        """Return ``fn`` timed as a span of ``kind``; ``observe(result)`` runs
        after each call made under a new span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][0] == kind:
                return fn(*args, **kwargs)
            frame = [kind, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                own = dur - frame[1]
                self.self_s[kind] += own
                self.calls[kind] += 1
                self.min_self_s[kind] = min(own, self.min_self_s.get(kind, own))
                if self._stack:
                    self._stack[-1][1] += dur
            if observe is not None:
                observe(result)
            return result

        return traced

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        s, n, c, mx = self.self_s, self.calls, self.counts, self.maxima
        sweeps = c["scf.sweeps"]
        return {
            "mesh.build_s": (s["mesh.build"], "s"),
            "mesh.builds": (n["mesh.build"], "count"),
            "hpspace.build_s": (s["hpspace.build"], "s"),
            "hpspace.inject_s": (s["hpspace.inject"], "s"),
            "hpspace.basis_s": (s["hpspace.basis"], "s"),
            "hpspace.basis_calls": (n["hpspace.basis"], "count"),
            "hpspace.N_max": (int(mx["hpspace.N"]), "count"),
            "quadrature.rule_s": (s["quadrature.rule"], "s"),
            "quadrature.rule_calls": (n["quadrature.rule"], "count"),
            "kernels.gram_s": (s["kernels.gram"], "s"),
            "kernels.gram_calls": (n["kernels.gram"], "count"),
            "assembly.sip_s": (s["assembly.sip"], "s"),
            "assembly.sip_nnz_max": (int(mx["assembly.sip_nnz"]), "count"),
            "assembly.mass_nonlinear_s": (s["assembly.mass"] + s["assembly.nonlinear"], "s"),
            "assembly.nonlinear_calls": (n["assembly.nonlinear"], "count"),
            "eigsolve.self_s": (s["eigsolve"], "s"),
            "eigsolve.calls": (n["eigsolve"], "count"),
            "eigsolve.dense_calls": (n["eigsolve.dense"], "count"),
            "eigsolve.sparse_calls": (n["eigsolve"] - n["eigsolve.dense"], "count"),
            "eigsolve.dense_s": (s["eigsolve.dense"], "s"),
            "eigsolve.iterations": (c["eigsolve.iterations"], "count"),
            "eigsolve.factor_s": (s["eigsolve.factor"], "s"),
            "eigsolve.factorizations": (n["eigsolve.factor"], "count"),
            "eigsolve.factorizations_per_sweep": (
                n["eigsolve.factor"] / sweeps if sweeps else 0.0, "ratio"),
            "eigsolve.lu_fill_max": (int(mx["eigsolve.lu_fill"]), "count"),
            "eigsolve.trisolve_s": (s["eigsolve.trisolve"], "s"),
            "scf.self_s": (s["scf"], "s"),
            "scf.solves": (n["scf"], "count"),
            "scf.sweeps": (sweeps, "count"),
            "scf.residual_max": (mx["scf.residual"], "abs"),
            "analysis.error_norms_s": (s["analysis.error_norms"], "s"),
            "analysis.fit_s": (s["analysis.fit"], "s"),
            "cli.self_s": (s["cli"], "s"),
        }


def _rebind(orig, replacement):
    """Point every hpdg module attribute that holds ``orig`` at ``replacement``."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "hpdg" and not name.startswith("hpdg."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, orig))
    return undo


def install(tracer: Tracer):
    """Wrap hpdg's layer boundaries for ``tracer``; returns an undo callable."""
    import scipy.linalg
    import scipy.sparse.linalg

    from hpdg import analysis, assembly, cli, eigsolve, hpspace, mesh, quadrature, scf
    from hpdg import _kernels

    def on_space(space):
        tracer.maxima["hpspace.N"] = max(tracer.maxima["hpspace.N"], space.N)

    def on_sip(a):
        tracer.maxima["assembly.sip_nnz"] = max(tracer.maxima["assembly.sip_nnz"], a.nnz)

    def on_eig(res):
        tracer.counts["eigsolve.iterations"] += res.iterations

    def on_scf(result):
        _, report = result
        tracer.counts["scf.sweeps"] += report.iterations
        tracer.maxima["scf.residual"] = max(tracer.maxima["scf.residual"], report.residuals[-1])

    trisolve = tracer.wrap("eigsolve.trisolve", lambda lu, rhs: lu.solve(rhs))
    raw_splu = scipy.sparse.linalg.splu

    def splu(*args, **kwargs):
        lu = raw_splu(*args, **kwargs)
        tracer.maxima["eigsolve.lu_fill"] = max(tracer.maxima["eigsolve.lu_fill"], lu.nnz)
        return _Factorization(lu, functools.partial(trisolve, lu))

    functions = [
        ("mesh.build", mesh.build_graded_mesh, None),
        ("hpspace.build", hpspace.build_space, on_space),
        ("hpspace.inject", hpspace.inject, None),
        ("hpspace.basis", hpspace.basis_matrix, None),
        ("hpspace.basis", hpspace.basis_matrices, None),
        ("quadrature.rule", quadrature.element_rule, None),
        ("quadrature.rule", quadrature.singular_rule, None),
        ("quadrature.rule", quadrature.volume_rule, None),
        ("kernels.gram", _kernels.weighted_gram, None),
        ("eigsolve", eigsolve.smallest_eigenpair, on_eig),
        ("scf", scf.solve_ground_state, on_scf),
        ("analysis.error_norms", analysis.error_norms, None),
        ("analysis.fit", analysis.fit_exponential, None),
        ("cli", cli.run_study, None),
    ]
    undo = []
    for kind, fn, observe in functions:
        undo += _rebind(fn, tracer.wrap(kind, fn, observe))

    # Methods, and the scipy solvers that hpdg.eigsolve looks up on its module
    # aliases (sla.splu, dla.eigh) at call time.
    attrs = [
        (assembly.SipAssembler, "sip", "assembly.sip", None, on_sip),
        (assembly.SipAssembler, "mass", "assembly.mass", None, None),
        (assembly.SipAssembler, "nonlinear_mass", "assembly.nonlinear", None, None),
        (scipy.sparse.linalg, "splu", "eigsolve.factor", splu, None),
        (scipy.linalg, "eigh", "eigsolve.dense", None, None),
    ]
    for owner, attr, kind, fn, observe in attrs:
        orig = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(kind, fn or orig, observe))
        undo.append((owner, attr, orig))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall

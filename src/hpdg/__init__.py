"""hp discontinuous Galerkin (SIP) ground states of singular Schrodinger operators.

Solves -Delta u + V u + |u|^(delta-1) u = lambda u on the unit cube with
homogeneous Dirichlet boundary conditions, for potentials with a point
singularity at the center, on geometrically graded meshes with linearly
sloped polynomial degrees.  The ground state is even in every coordinate, so
it is computed on one octant of the cube (see :mod:`hpdg.mesh`).
"""

from .analysis import ConvergenceRecord, FitResult, error_norms, fit_exponential
from .assembly import PenaltyConfig, Potential, assemble_mass
from .eigsolve import EigenSolveError, EigResult, smallest_eigenpair
from .hpspace import DiscreteField, HpSpace, build_space, constant_field, inject
from .mesh import GradedMesh, build_graded_mesh
from .scf import ScfConfig, ScfReport, solve_ground_state

__version__ = "0.1.0"


def __getattr__(name):
    # hpdg.cli is imported on first use, not with the package: ``python -m
    # hpdg.cli`` would otherwise find it in sys.modules before running it
    if name in ("StudyConfig", "run_study"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""hp discontinuous Galerkin (SIP) ground states of singular Schrodinger operators.

Solves -Delta u + V u + |u|^(delta-1) u = lambda u on the unit cube with
homogeneous Dirichlet boundary conditions, for potentials with a point
singularity at the center, on geometrically graded meshes with linearly
sloped polynomial degrees.
"""

from .analysis import (ConvergenceRecord, FitResult, error_norms,
                       fit_exponential, full_dg_norm)
from .assembly import (PenaltyConfig, Potential, assemble_mass,
                       assemble_nonlinear_mass, assemble_sip)
from .cli import StudyConfig, run_study
from .eigsolve import EigenSolveError, EigResult, smallest_eigenpair
from .hpspace import (DiscreteField, HpSpace, build_space, constant_field,
                      evaluate, inject, load_field, locate_point, project,
                      save_field)
from .mesh import Element, Face, GradedMesh, build_graded_mesh, enumerate_faces
from .quadrature import (ElementRule, element_rule, face_rule, singular_rule,
                         volume_rule)
from .refelem import QuadRule1D, gauss_rule
from .scf import ScfConfig, ScfReport, discrete_energy, solve_ground_state

__version__ = "0.1.0"

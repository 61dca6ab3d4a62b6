"""Hard 2-D instances for constrained second-order stationarity.

The package compiles ITER instances into smooth piecewise-polynomial
objectives on [0, N]^2 (optionally rescaled to [0, 1]^2) whose approximate
second-order stationary points encode ITER solutions.  It also provides a
constrained-SOSP verifier, a SNAP-style solver, lattice rounding over
polytopes, and the local-search (potential/neighbor) reduction.
"""

from sospgrid.iter_problems import (IterInstance, iter_is_solution,
                                    iter_solve_brute, load_instance,
                                    save_instance)
from sospgrid.hard_instance import HardInstance, ScaleMode, build
from sospgrid.color_field import ColorField, Color, Direction
from sospgrid.biquintic import BoxPatch, patch_from_corners, solve_coefficients
from sospgrid.stationarity import Polytope, SospReport, verify_sosp
from sospgrid.snap_solver import SnapTrace, snap_run
from sospgrid.box_certifier import (certify_no_sosp, certify_cell,
                                    classify_all, classify_cell,
                                    boundary_prox_check, certification_report)
from sospgrid.polytope_lattice import map_to_grid, lattice_cardinality_bound
from sospgrid.localopt_reduction import ReductionInstance, Verdict

__all__ = [
    "IterInstance",
    "iter_is_solution",
    "iter_solve_brute",
    "load_instance",
    "save_instance",
    "HardInstance",
    "ScaleMode",
    "build",
    "ColorField",
    "Color",
    "Direction",
    "BoxPatch",
    "patch_from_corners",
    "solve_coefficients",
    "Polytope",
    "SospReport",
    "verify_sosp",
    "SnapTrace",
    "snap_run",
    "certify_no_sosp",
    "certify_cell",
    "classify_all",
    "classify_cell",
    "boundary_prox_check",
    "certification_report",
    "map_to_grid",
    "lattice_cardinality_bound",
    "ReductionInstance",
    "Verdict",
]

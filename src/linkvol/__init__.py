"""Volume and Chern-Simons invariants of link exteriors, computed from a
potential function attached to an oriented link diagram.

The pipeline: parse a PD code (:func:`load_diagram`), complete a couple of
generator matrices to a full representation
(:func:`complete_representation`), transport a seed vector into a region
coloring (:func:`propagate` / :func:`random_generic_coloring`), assemble the
region weights (:func:`assemble_solution`), and evaluate the corrected
potential (:func:`W0` or :func:`vol_cs`); :func:`from_representation` runs
the steps from a coloring to the invariants of a filling.  Without a
representation, :func:`multi_start` searches for critical weight vectors
numerically at fixed meridian eigenvalues.
"""

from .coloring import (ColoringError, RegionColoring, assemble_solution,
                       propagate, random_generic_coloring)
from .diagram import (DiagramError, LinkDiagram, load_diagram, longitude_word,
                      parse_pd, wirtinger, writhe)
from .engine import (EngineError, GluingReport, NewtonFailure, SolveConfig,
                     cross_ratios, from_representation, gluing_check,
                     multi_start, newton_solve, solution_report, vol_cs)
from .potential import (PotentialError, Solution, VolumeResult, W0,
                        critical_residuals, critical_value, is_nondegenerate,
                        total_potential, wdW_all)
from .representation import (FillingSpec, Representation,
                             RepresentationError, complete_representation,
                             longitude_eigenvalue, meridian_eigenvalue,
                             representation_from_json, solve_uv)

__version__ = "0.1.0"

__all__ = [
    "ColoringError", "DiagramError", "EngineError", "FillingSpec",
    "GluingReport", "LinkDiagram", "NewtonFailure", "PotentialError",
    "RegionColoring", "Representation", "RepresentationError", "Solution",
    "SolveConfig", "VolumeResult", "W0", "assemble_solution",
    "complete_representation", "critical_residuals", "critical_value",
    "cross_ratios", "from_representation", "gluing_check",
    "is_nondegenerate", "load_diagram", "longitude_eigenvalue",
    "longitude_word", "meridian_eigenvalue", "multi_start", "newton_solve", "parse_pd", "propagate",
    "random_generic_coloring", "representation_from_json",
    "solution_report", "solve_uv", "total_potential", "vol_cs", "wdW_all",
    "wirtinger", "writhe",
]

"""Volume and Chern-Simons invariants of link exteriors, computed from a
potential function attached to an oriented link diagram.

The pipeline: parse a PD code (:func:`load_diagram`), complete a couple of
generator matrices to a full representation
(:func:`complete_representation`), transport a seed vector into a region
coloring (:func:`propagate` / :func:`random_generic_coloring`), assemble the
region weights (:func:`assemble_solution`), evaluate the potential at them
(:func:`evaluate`, one :class:`Evaluation` record for a whole stack of
points), and read the corrected potential off a row of it (:func:`W0`,
which first checks that the point is a non-degenerate critical point);
:func:`from_representation` runs the steps from a coloring to the
invariants of a filling.  Without a representation, :func:`multi_start`
searches for critical weight vectors numerically at fixed meridian
eigenvalues and returns their :class:`Evaluation`.
"""

from .coloring import (ColoringError, RegionColoring, assemble_solution,
                       propagate, random_generic_coloring)
from .diagram import (DiagramError, LinkDiagram, load_diagram, longitude_word,
                      parse_pd, wirtinger, writhe)
from .engine import (EngineError, SolveConfig, cross_ratios,
                     from_representation, multi_start, solution_report)
from .potential import (Evaluation, PotentialError, Solution, VolumeResult,
                        W0, evaluate)
from .representation import (FillingSpec, Representation,
                             RepresentationError, complete_representation,
                             longitude_eigenvalue, meridian_eigenvalue,
                             representation_from_json, solve_uv)

__version__ = "0.1.0"

__all__ = [
    "ColoringError", "DiagramError", "EngineError", "Evaluation",
    "FillingSpec", "LinkDiagram", "PotentialError", "RegionColoring",
    "Representation", "RepresentationError", "Solution", "SolveConfig",
    "VolumeResult", "W0", "assemble_solution", "complete_representation",
    "cross_ratios", "evaluate", "from_representation", "load_diagram",
    "longitude_eigenvalue", "longitude_word", "meridian_eigenvalue",
    "multi_start", "parse_pd", "propagate", "random_generic_coloring",
    "representation_from_json", "solution_report", "solve_uv", "wirtinger",
    "writhe",
]

"""Exact combinatorial membership tests for closures of double ramification loci.

The package decides, over exact rational arithmetic, whether a marked
stable curve given as a decorated dual graph lies in the closure of the
locus of curves carrying a rational function with prescribed zero/pole
orders.  The toolkit: level graphs and their enumeration, twistable
order decorations and their fully marked twists, evaluation systems on
relative graph homology, a brute-force Hurwitz existence oracle, and an
independent admissible-cover validator.
"""

from .closure import ClosureCertificate, SearchBounds, search, verify_certificate
from .covers import CombinatorialCover, closure_via_covers, validate_cover
from .decorations import (TwdrDecoration, TwrDecoration, validate_twdr,
                          validate_twr)
from .graphs import (LevelStructure, MarkedDualGraph,
                     enumerate_level_structures, isomorphic, validate)
from .homology import evaluate, evaluation_system, level_filtration, relative_h1
from .hurwitz import (HurwitzProblem, component_problem, exists,
                      realize_genus0, rh_check)
from .twisting import check_local_max, stabilize, twist

__version__ = "0.1.0"

__all__ = [
    "ClosureCertificate", "CombinatorialCover", "HurwitzProblem",
    "LevelStructure", "MarkedDualGraph", "SearchBounds", "TwdrDecoration",
    "TwrDecoration", "check_local_max", "closure_via_covers",
    "component_problem", "enumerate_level_structures", "evaluate",
    "evaluation_system", "exists", "isomorphic", "level_filtration",
    "realize_genus0", "relative_h1", "rh_check", "search", "stabilize",
    "twist", "validate", "validate_cover", "validate_twdr", "validate_twr",
    "verify_certificate",
]

"""Matching pursuit over abstract dictionaries and its worst-case analysis.

Library layout:

* linear_core       -- read-only dense coefficient vectors
* greedy_algorithms -- pga / pga_shrink / oga / rga over finite dictionaries
* constants         -- rate equation roots and closed-form quantities
* grid_functions    -- uniform-grid functions with the quadrature toolkit
* integral_equation -- monotone fixed-point solver for the profile equation
* phi_builder       -- mollification, normalization, condition certificates
* adversarial       -- the worst-case construction and its verification
* analysis          -- decay-rate fits and bound witnesses
* cli               -- command-line front end (``mpursuit ...``)
"""

__version__ = "0.1.0"

from .linear_core import CoeffVector
from .greedy_algorithms import Dictionary, GreedyTrace, run, select_atom
from .constants import (ClosedFormBundle, RateConstants, bundle,
                        operating_point, solve_beta_star, solve_gamma,
                        tau_star)
from .grid_functions import GridFunction, scaled_selfconv
from .integral_equation import apply_T, bracket_sequence, solve_f
from .phi_builder import PhiProfile, build_profile, check_conditions, mollify, normalize
from .adversarial import (AdversarialInstance, ConstructionParams, build_instance,
                          choose_epsilon, finalize, init_state, q_of, step, verify)
from .analysis import check_bounds, fit_decay
from .instance_io import load_instance, save_instance

__all__ = [
    "__version__",
    "CoeffVector",
    "Dictionary", "GreedyTrace", "run", "select_atom",
    "ClosedFormBundle", "RateConstants", "bundle", "operating_point",
    "solve_beta_star", "solve_gamma", "tau_star",
    "GridFunction", "scaled_selfconv",
    "apply_T", "bracket_sequence", "solve_f",
    "PhiProfile", "build_profile", "check_conditions", "mollify", "normalize",
    "AdversarialInstance", "ConstructionParams", "build_instance",
    "choose_epsilon", "finalize", "init_state", "q_of", "step", "verify",
    "check_bounds", "fit_decay",
    "load_instance", "save_instance",
]

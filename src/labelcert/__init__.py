"""Certify linear regression predictions against bounded training-label perturbations.

The exact certifier computes the closed interval of predictions reachable
when at most a budgeted number of training labels move within per-label
intervals, together with witness label vectors; the approximate certifier
bounds the reachable coefficient set once and certifies any test point by
its prediction range over that box.  Both judge predictions by one `Decision`: a
band of radius epsilon (regression) or the 0.5 threshold (classification).
"""

from .approx import decide_approx_rows, load_hull, model_hull
from .bias import BiasSpec, TargetPredicate, apply_targeting, classification_delta, uniform_delta
from .data import synth_classification, synth_demographic, with_bias_column
from .exact import Decision, decide_exact, min_flips_from_influence
from .harness import certify_grid, group_rates, robustness_rate
from .linalg import Dataset, fit, influence_vector

__version__ = "0.1.0"

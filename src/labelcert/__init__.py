"""Certify linear regression predictions against bounded training-label perturbations.

The exact certifier computes the closed interval of predictions reachable
when at most a budgeted number of training labels move within per-label
intervals, together with witness label vectors; the approximate certifier
bounds the reachable coefficient set once and certifies any test point by
its prediction range over that box.  Both judge predictions by one `Decision`: a
band of radius epsilon (regression) or the 0.5 threshold (classification).
"""

from .approx import certify_approx, certify_approx_classification, load_hull, model_hull
from .bias import BiasSpec, TargetPredicate, apply_targeting, classification_delta, uniform_delta
from .data import synth_classification, synth_demographic, with_bias_column
from .exact import Decision, certify_classification, certify_regression, min_flips
from .harness import certify_grid, group_rates, robustness_rate, timing_report
from .linalg import Dataset, fit

__version__ = "0.1.0"

"""Helpers shared by the tests; not part of the library."""

import numpy as np

from kinrelax.artifacts import CHUNK_VALUES

PASS_ROWS = CHUNK_VALUES // 5  # rows of a dispersion table's 5 JSON keys per formatter pass


def fit_convergence_order(steps, errors) -> float:
    """Least-squares slope of log(error) against log(step)."""
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if steps.shape != errors.shape or len(steps) < 2:
        raise ValueError("need at least two (step, error) pairs")
    if np.any(steps <= 0) or np.any(errors <= 0):
        raise ValueError("steps and errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])

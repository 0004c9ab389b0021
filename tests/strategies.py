"""Hypothesis strategies and file edits shared by the property tests, and their example counts."""

import csv
import os

import numpy as np
from hypothesis import strategies as st

# every finite float64, with signed zero, subnormals and the extremes drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, np.finfo(float).max, np.finfo(float).min]
)

# ids that survive the loaders' strip(), with the characters csv must quote
PATCH_IDS = st.text(st.sampled_from('ab1 ,"'), min_size=1, max_size=6).filter(lambda s: s == s.strip())

NON_FINITE_TEXT = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])

# the hypothesis profile the suite runs under (tests/conftest.py loads it)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")


def max_examples(n: int) -> int:
    """A property test's example count: n under the tier1 profile, 10 n under explore."""
    return 10 * n if PROFILE == "explore" else n


def set_non_finite_field(path, draw, columns):
    """Replace one field (a drawn data row, a drawn column) by a non-finite text; returns its line number."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    r = draw(st.integers(1, len(rows) - 1))
    rows[r][draw(st.sampled_from(columns))] = draw(NON_FINITE_TEXT)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return r + 1

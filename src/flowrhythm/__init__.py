"""Interval usage, day profiles, and periodicity tracking for water meters.

The pipeline turns cumulative household meter readings into 15-minute
interval usage, day-of-week usage profiles, and sliding-window periodicity
intensity at target periods (24 h and 12 h by default), with explicit
handling of missing data and excluded days throughout.

The command line (`flowrhythm`, or `python -m flowrhythm`) is the supported
interface; Python callers import from the submodules, such as
`flowrhythm.binning` (readings to days) and `flowrhythm.tracking`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

# The defaults and choices the command line offers. They live here, where
# importing them loads no numpy, so `flowrhythm --help` builds its parser
# without a stage module; each stage module imports the ones it owns.
# A day kept for analysis needs at least this many observed slots (binning).
DEFAULT_MIN_VALID_SLOTS = 92
# Sliding-window geometry, in days (tracking).
DEFAULT_WINDOW_DAYS = 10
DEFAULT_STRIDE_DAYS = 1
DEFAULT_MIN_VALID_DAYS = 8
# The two behavioural periodicities tracked by default (spectral).
TARGET_PERIODS_HOURS = (12.0, 24.0)
# The first normalization and the first estimator are the defaults.
NORMALIZATIONS = ("raw", "variance")
# The names of spectral.ESTIMATORS, Lomb-Scargle's first.
ESTIMATOR_NAMES = ("ls", "classic")

"""Interval usage, day profiles, and periodicity tracking for water meters.

The pipeline turns cumulative household meter readings into 15-minute
interval usage, day-of-week usage profiles, and sliding-window periodicity
intensity at target periods (24 h and 12 h by default), with explicit
handling of missing data and excluded days throughout.

The command line (`flowrhythm`, or `python -m flowrhythm`) is the supported
interface; Python callers import from the submodules, such as
`flowrhythm.pipeline` and `flowrhythm.tracking`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

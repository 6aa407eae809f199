"""Run one flowrhythm CLI command with spans around its calls into each layer.

Usage: python3 perfbench/tracecli.py SPANS_JSON RUN_ID -- <flowrhythm arguments>

Before the command runs, module attributes are wrapped at their import
sites (``flowrhythm.cli.readings_to_days``, ``flowrhythm.tracking.lomb_scargle``
and so on), so the program's source is untouched. Each wrapped call records a
span (name, start, end, parent, run id) in memory, plus counts taken from its
arguments and result. The spans are written to SPANS_JSON when the command
ends. A target that no longer exists is listed as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

# (import site, attribute, span name). A span's layer is the part of its
# name before the dot.
SPAN_TARGETS = (
    ("flowrhythm.cli", "main", "cli.main"),
    ("flowrhythm.cli", "generate", "synth.generate"),
    ("flowrhythm.cli", "read_stream", "readings.parse"),
    ("flowrhythm.cli", "write_stream_csv", "readings.write"),
    ("flowrhythm.cli", "write_stream_jsonl", "readings.write"),
    ("flowrhythm.cli", "readings_to_days", "pipeline.readings_to_days"),
    ("flowrhythm.pipeline", "clean_intervals", "pipeline.clean_intervals"),
    ("flowrhythm.pipeline", "split_on_counter_decrease", "readings.split"),
    ("flowrhythm.pipeline", "difference_cumulative", "readings.difference"),
    ("flowrhythm.pipeline", "drop_long_gaps", "readings.drop_gaps"),
    ("flowrhythm.pipeline", "bin_intervals", "binning.bin"),
    ("flowrhythm.cli", "profile", "binning.profile"),
    ("flowrhythm.cli", "write_profile_csv", "binning.write_profile"),
    ("flowrhythm.cli", "load_calendar", "exclusions.load"),
    ("flowrhythm.cli", "track_intensity", "tracking.track_intensity"),
    ("flowrhythm.cli", "compute_window_periodograms", "tracking.compute_window_periodograms"),
    ("flowrhythm.tracking", "compute_window_periodograms", "tracking.compute_window_periodograms"),
    ("flowrhythm.tracking", "make_windows", "tracking.make_windows"),
    ("flowrhythm.tracking", "window_samples", "tracking.window_samples"),
    ("flowrhythm.tracking", "lomb_scargle", "spectral.lomb_scargle"),
    ("flowrhythm.tracking", "classic_periodogram", "spectral.classic"),
    ("flowrhythm.cli", "write_intensity_csv", "tracking.write_intensity"),
    ("flowrhythm.cli", "write_overlay_csv", "tracking.write_overlay"),
    ("flowrhythm.cli", "write_periodogram_csv", "spectral.write_periodogram"),
)

# Called too often for a span each; only their calls are counted.
COUNT_TARGETS = (
    ("flowrhythm.exclusions", "ExclusionCalendar.classify", "exclusions.classify_calls"),
    ("flowrhythm.binning", "bin_day", "binning.days_considered"),
)

# cos/sin tables of shape (n_freq, n_samples) each estimator call builds:
# omega*t, cos, sin and, for Lomb-Scargle, the cos*cos, sin*sin and cos*sin
# products.
LS_TABLES = 6
CLASSIC_TABLES = 3


def _estimator(tables):
    def count(t, args, result):
        work = len(args[1]) * args[0].n
        t.add("spectral.trig_evals", 2 * work)
        t.add("spectral.table_bytes", tables * work * 8)
    return count


def _write_overlay(t, args, result):
    t.written.update(w.start_date.isoformat() for w, pg in args[0] if pg is not None)
    t.add("tracking.overlay_bytes", os.path.getsize(args[1]))


def _windows(t, args, result):
    t.add("tracking.windows", len(result))
    t.add("tracking.windows_skipped", sum(1 for _, pg in result if pg is None))


# Counts taken from a successful call's arguments and result, by span name.
COUNTERS = {
    "synth.generate": lambda t, a, r: t.add("synth.readings_out", len(r)),
    "readings.parse": lambda t, a, r: t.add("readings.rows_in", len(r)),
    "readings.write": lambda t, a, r: t.add("readings.bytes_written", os.path.getsize(a[1])),
    "readings.split": lambda t, a, r: t.add("readings.segments", len(r)),
    "readings.difference": lambda t, a, r: t.add("readings.intervals_out", len(r)),
    "readings.drop_gaps": lambda t, a, r: t.add("readings.intervals_dropped", len(a[0]) - len(r)),
    "binning.bin": lambda t, a, r: t.add("binning.days_out", len(r)),
    "tracking.compute_window_periodograms": _windows,
    "tracking.window_samples": lambda t, a, r: t.add("tracking.samples_out", r.n),
    "spectral.lomb_scargle": _estimator(LS_TABLES),
    "spectral.classic": _estimator(CLASSIC_TABLES),
    "tracking.write_intensity": lambda t, a, r: t.written.update(
        p.window_start.isoformat() for p in a[0].points if not p.skipped),
    "tracking.write_overlay": _write_overlay,
    "spectral.write_periodogram": lambda t, a, r: t.written.add(a[0].window_start),
}


class Tracer:
    """Spans and counts of one process, kept in memory until dump()."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.written: set[str] = set()
        self.absent: list[str] = []
        self.uncounted: set[str] = set()

    def add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _resolve(self, module: str, attr: str):
        """(owner, leaf name, attribute) for a dotted attribute, or None if gone."""
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            return owner, leaf, getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return None

    def wrap_span(self, module: str, attr: str, name: str) -> None:
        found = self._resolve(module, attr)
        if found is None:
            return
        owner, leaf, original = found
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self.stack[-1] if self.stack else None,
                    "run": self.run_id, "ok": False}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
                span["ok"] = True
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                try:
                    counter(self, args, result)
                except (IndexError, AttributeError, TypeError, OSError):
                    # The call no longer has the shape the counter reads.
                    self.uncounted.add(name)
            return result

        setattr(owner, leaf, traced)

    def wrap_count(self, module: str, attr: str, key: str) -> None:
        found = self._resolve(module, attr)
        if found is None:
            return
        owner, leaf, original = found

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, leaf, counted)

    def dump(self, path: str, command: list[str], rc: int) -> None:
        """Write the spans, with times in seconds since the tracer started."""
        spans = [dict(s, start=s["start"] - self.t0, end=s["end"] - self.t0) for s in self.spans]
        record = {
            "run": self.run_id,
            "command": command,
            "rc": rc,
            "spans": spans,
            "counts": dict(self.counts),
            "windows_written": len(self.written),
            "absent": self.absent,
            "uncounted": sorted(self.uncounted),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, run_id, command = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    for module, attr, name in SPAN_TARGETS:
        tracer.wrap_span(module, attr, name)
    for module, attr, key in COUNT_TARGETS:
        tracer.wrap_count(module, attr, key)
    import flowrhythm.cli

    rc = 1
    try:
        rc = flowrhythm.cli.main(command)
    finally:
        tracer.dump(spans_path, command, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Output checks: invariants every correct version of the CLI keeps.

Each check returns a list of (command, message) failures, so a failure is
charged to the subcommand whose output broke the invariant. None of them
compares against today's output bytes except the demo readings digest,
which tests/test_cli.py pins too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from datetime import date, datetime, timedelta
from functools import lru_cache
from pathlib import Path
from zoneinfo import ZoneInfo

from workloads import Workload

PROFILE_GROUPS = ("weekday", "saturday", "sunday")
PROFILE_HEADER = ["bin_index", "local_time", "mean_litres", "std_litres", "n_days"]
INTENSITY_HEADER = ["window_start", "period_hours", "power", "valid_days", "skipped"]
OVERLAY_HEADER = ["window_start", "frequency_cph", "period_hours", "power"]
PERIODOGRAM_HEADER = ["frequency_cph", "period_hours", "power"]
SLOTS_PER_DAY = 96
# Mirrors the CLI defaults the workloads run with.
MIN_VALID_SLOTS = 92
MIN_VALID_DAYS = 8
MAX_GAP_S = 45 * 60
WINDOW_DAYS = 10
PERIODS = (12.0, 24.0)

Failures = list[tuple[str, str]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _same_float(a: str, b: str) -> bool:
    return math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0)


# --- readings files -------------------------------------------------------------


def _parse_ts(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def _reading(line: str, jsonl: bool) -> tuple[float, float]:
    if jsonl:
        obj = json.loads(line)
        return _parse_ts(obj["ts"]).timestamp(), float(obj["litres_total"])
    ts, litres = line.split(",")
    return _parse_ts(ts).timestamp(), float(litres)


@lru_cache(maxsize=2)
def _readings(path: str, digest: str) -> tuple[tuple[float, float], ...]:
    # digest keys the cache, so a rewritten file is read again.
    jsonl = path.endswith(".jsonl")
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not jsonl:
        lines = lines[1:]
    return tuple(_reading(ln, jsonl) for ln in lines)


def readings(path: Path) -> tuple[tuple[float, float], ...]:
    """All (epoch seconds, cumulative litres) pairs of a CSV or JSONL file."""
    return _readings(str(path), sha256(path))


def segment_litres(rows) -> float:
    """Litres consumed, summed within the segments between counter decreases."""
    total = 0.0
    for (_, a), (_, b) in zip(rows, rows[1:]):
        if b >= a:
            total += b - a
    return total


def binned_day_span(rows, tz: ZoneInfo) -> tuple[date, date]:
    """First and last local day with at least MIN_VALID_SLOTS observed slots.

    An independent oracle for the window count: each interval closes in the
    local (day, slot) of its closing reading; outage-length intervals and
    counter decreases observe nothing.
    """
    slots: dict[date, set[int]] = defaultdict(set)
    for (t0, a), (t1, b) in zip(rows, rows[1:]):
        if b < a or t1 - t0 > MAX_GAP_S:
            continue
        local = datetime.fromtimestamp(t1, tz)
        slots[local.date()].add((local.hour * 3600 + local.minute * 60 + local.second) // 900)
    kept = [d for d, s in slots.items() if len(s) >= MIN_VALID_SLOTS]
    return min(kept), max(kept)


# --- per-command checks -----------------------------------------------------------


def check_simulate(wl: Workload, seq: Path) -> Failures:
    sim = seq / "sim"
    name = "readings.jsonl" if wl.input_file.endswith(".jsonl") else "readings.csv"
    path = sim / name
    if not path.is_file():
        return [("simulate", f"missing {path.name}")]
    if wl.golden_digest is not None:
        if sha256(path) != wl.golden_digest:
            return [("simulate", "demo readings.csv digest differs from the golden digest")]
        if not (sim / "calendar.txt").is_file():
            return [("simulate", "demo calendar.txt missing")]
    rows = readings(path)
    if len(rows) < 2 or any(b[0] <= a[0] or b[1] < a[1] for a, b in zip(rows, rows[1:])):
        return [("simulate", "generated readings are not strictly timed and monotone")]
    return []


def check_ingest(wl: Workload, seq: Path) -> Failures:
    rows = readings(seq / wl.input_file)
    try:
        summary = json.loads((seq / "ingest" / "summary.json").read_text(encoding="utf-8"))
        written = readings(seq / "ingest" / "readings.csv")
    except (OSError, ValueError) as exc:
        return [("ingest", f"unreadable output: {exc}")]
    fails = []
    if summary.get("n_readings") != len(rows):
        fails.append(f"n_readings {summary.get('n_readings')} != {len(rows)} in the input")
    if (_parse_ts(summary["first"]).timestamp(), _parse_ts(summary["last"]).timestamp()) != (rows[0][0], rows[-1][0]):
        fails.append("first/last timestamps differ from the input")
    # Today total_litres is last minus first, even across a counter reset.
    # summary_note reports that defect; a fix that sums within segments passes.
    total = summary.get("total_litres")
    if total != rows[-1][1] - rows[0][1] and not math.isclose(total, segment_litres(rows), rel_tol=1e-9):
        fails.append(f"total_litres {total} is neither last - first nor the sum within segments")
    if not summary.get("n_binned_days"):
        fails.append("no binned days")
    if written != rows:
        fails.append("ingest/readings.csv does not hold the input readings")
    return [("ingest", f) for f in fails]


def check_profile(wl: Workload, seq: Path) -> Failures:
    fails = []
    for group in PROFILE_GROUPS:
        path = seq / "profile" / f"profile_{group}.csv"
        if not path.is_file():
            fails.append(f"missing {path.name}")
            continue
        rows = _read_csv(path)
        if rows[0] != PROFILE_HEADER or len(rows) != SLOTS_PER_DAY + 1:
            fails.append(f"{path.name}: bad header or {len(rows) - 1} rows, want {SLOTS_PER_DAY}")
            continue
        for k, (index, clock, mean, std, n_days) in enumerate(rows[1:]):
            if int(index) != k or clock != f"{k * 15 // 60:02d}:{k * 15 % 60:02d}":
                fails.append(f"{path.name}: slot {k} mislabelled")
                break
            empty = mean == "" and std == ""
            if empty != (int(n_days) == 0):
                fails.append(f"{path.name}: slot {k} mean/std empty={empty} but n_days={n_days}")
                break
            if not empty and not (float(mean) >= 0 and float(std) >= 0):
                fails.append(f"{path.name}: slot {k} negative or NaN statistics")
                break
    return [("profile", f) for f in fails]


def _overlay_by_window(path: Path) -> dict[str, list[list[str]]]:
    rows = _read_csv(path)
    if rows[0] != OVERLAY_HEADER:
        raise ValueError("overlay.csv header")
    out: dict[str, list[list[str]]] = defaultdict(list)
    for row in rows[1:]:
        out[row[0]].append(row[1:])
    return out


def _is_period(freq: str, period: float) -> bool:
    return abs(float(freq) * period - 1.0) <= 1e-9


def check_track(wl: Workload, seq: Path) -> Failures:
    track = seq / "track"
    try:
        intensity = _read_csv(track / "intensity.csv")
        overlay = _overlay_by_window(track / "overlay.csv")
    except (OSError, ValueError) as exc:
        return [("track", f"unreadable output: {exc}")]
    if intensity[0] != INTENSITY_HEADER:
        return [("track", "intensity.csv header")]
    fails = []
    first, last = binned_day_span(readings(seq / wl.input_file), ZoneInfo(wl.timezone))
    span = (last - first).days + 1
    n_windows = span - WINDOW_DAYS + 1
    want_rows = n_windows * len(PERIODS)
    if len(intensity) - 1 != want_rows:
        fails.append(f"{len(intensity) - 1} intensity rows, want (span {span} - W + 1) x periods = {want_rows}")
    starts = [first + timedelta(days=i) for i in range(n_windows)]
    expected_keys = [(d.isoformat(), p) for d in starts for p in PERIODS]
    got_keys = sorted((r[0], float(r[1])) for r in intensity[1:])
    if got_keys != expected_keys:
        fails.append("intensity windows are not one row per period for each stride-1 start")
    emitted: dict[str, str] = {}
    for start, period, power, valid_days, skipped in intensity[1:]:
        if (skipped == "true") != (power == ""):
            fails.append(f"{start} {period} h: skipped={skipped} with power {power!r}")
            break
        if skipped == "false":
            if int(valid_days) < MIN_VALID_DAYS or not float(power) >= 0:
                fails.append(f"{start}: emitted with {valid_days} valid days, power {power}")
                break
            if float(period) == 24.0:
                emitted[start] = power
        elif wl.tone_period_hours is not None:
            fails.append(f"{start}: skipped although every window is complete")
            break
    if set(overlay) != set(emitted):
        fails.append(f"overlay windows ({len(overlay)}) differ from emitted intensity windows ({len(emitted)})")
    for start, power in emitted.items():
        rows24 = [r for r in overlay.get(start, []) if _is_period(r[0], 24.0)]
        if len(rows24) != 1 or not _same_float(rows24[0][2], power):
            fails.append(f"{start}: overlay 24 h power differs from intensity.csv")
            break
    if wl.tone_period_hours is not None:
        for start, rows in overlay.items():
            peak = max(rows, key=lambda r: float(r[2]))
            if not _is_period(peak[0], wl.tone_period_hours):
                fails.append(f"{start}: periodogram peak at {peak[1]} h, not {wl.tone_period_hours} h")
                break
    return [("track", f) for f in fails]


def check_periodogram(wl: Workload, seq: Path) -> Failures:
    """The single-window periodogram equals the overlay rows of the first emitted window."""
    try:
        rows = _read_csv(seq / "periodogram" / "periodogram.csv")
        meta = json.loads((seq / "periodogram" / "periodogram.meta.json").read_text(encoding="utf-8"))
        overlay = _overlay_by_window(seq / "track" / "overlay.csv")
    except (OSError, ValueError) as exc:
        return [("periodogram", f"unreadable output: {exc}")]
    if rows[0] != PERIODOGRAM_HEADER or not overlay:
        return [("periodogram", "bad header or no emitted window")]
    first = min(overlay)
    if meta.get("window_start") != first:
        return [("periodogram", f"window {meta.get('window_start')} is not the first emitted window {first}")]
    want = overlay[first]
    if len(rows) - 1 != len(want) or meta.get("n_frequencies") != len(want):
        return [("periodogram", f"{len(rows) - 1} frequencies, overlay has {len(want)}")]
    for got, ref in zip(rows[1:], want):
        if not all(_same_float(a, b) for a, b in zip(got, ref)):
            return [("periodogram", f"row at {got[0]} cph differs from the overlay")]
    return []


CHECKS = {
    "simulate": check_simulate,
    "ingest": check_ingest,
    "profile": check_profile,
    "periodogram": check_periodogram,
    "track": check_track,
}


def check_sequence(wl: Workload, seq: Path, reference: dict[str, str]) -> Failures:
    """Run every check for the workload's commands.

    ``reference`` holds the track CSV digests of the run's first sequence;
    later sequences (same seed, same input) must reproduce them byte for byte.
    It is filled on first use.
    """
    fails: Failures = []
    for command in wl.commands:
        try:
            fails += CHECKS[command](wl, seq)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fails.append((command, f"malformed output: {exc!r}"))
    if "track" in wl.commands and not any(cmd == "track" for cmd, _ in fails):
        for name in ("intensity.csv", "overlay.csv"):
            digest = sha256(seq / "track" / name)
            if reference.setdefault(name, digest) != digest:
                fails.append(("track", f"{name} differs from the run's first track output"))
    return fails


def summary_note(wl: Workload, seq: Path) -> str | None:
    """When the input has a counter reset: ingest's total_litres beside the litres used."""
    rows = readings(seq / wl.input_file)
    resets = sum(1 for (_, a), (_, b) in zip(rows, rows[1:]) if b < a)
    if not resets:
        return None
    total = json.loads((seq / "ingest" / "summary.json").read_text(encoding="utf-8"))["total_litres"]
    return (
        f"across {resets} counter reset(s), ingest total_litres = {total:.3f} L; "
        f"last - first = {rows[-1][1] - rows[0][1]:.3f} L; "
        f"litres summed within segments = {segment_litres(rows):.3f} L"
    )

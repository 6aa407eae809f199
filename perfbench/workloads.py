"""Benchmark workloads: seeded inputs and the CLI command sequence of each.

A workload writes its inputs (scenario and calendar files) once per run
from the seed, then every sequence runs its subcommands in order, one fresh
process each, inside a fresh sequence directory. Paths in a step are
relative to that directory; ``{inputs}`` names the run's input directory.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Step:
    """One subcommand run; ``after`` is a benchmark action on its outputs."""

    command: str
    argv: tuple[str, ...]
    after: Callable[[Path, int], None] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    timezone: str
    # Readings file the analysis subcommands read, relative to the sequence dir.
    input_file: str
    steps: tuple[Step, ...]
    prepare: Callable[[Path, int], dict] = lambda inputs, seed: {}
    # Expectations the output checks use: the demo's pinned readings digest,
    # and, for a complete pure-tone input, the tone period every window peaks at.
    golden_digest: str | None = None
    tone_period_hours: float | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def commands(self) -> list[str]:
        return [s.command for s in self.steps]


# --- demo -------------------------------------------------------------------

# sha256 of readings.csv from the packaged demo scenario, as pinned by
# GOLDEN_DEMO_DIGEST in tests/test_cli.py.
DEMO_DIGEST = "c59eb6fda23d442bf399c7dc493dcc645e173c59a32aa3b4ee66e16f9eb0d037"

_DEMO_ANALYSIS = ("sim/readings.csv", "--timezone", "Europe/Dublin", "--calendar", "sim/calendar.txt")

DEMO = Workload(
    name="demo",
    timezone="Europe/Dublin",
    input_file="sim/readings.csv",
    steps=(
        Step("simulate", ("simulate", "--out", "sim")),
        Step("ingest", ("ingest", "sim/readings.csv", "--timezone", "Europe/Dublin", "--out", "ingest")),
        Step("profile", ("profile", *_DEMO_ANALYSIS, "--out", "profile")),
        Step("periodogram", ("periodogram", *_DEMO_ANALYSIS, "--out", "periodogram")),
        Step("track", ("track", *_DEMO_ANALYSIS, "--out", "track")),
    ),
    golden_digest=DEMO_DIGEST,
    notes=("the packaged demo is fixed; --seed does not change its input",),
)


# --- decade -----------------------------------------------------------------

DECADE_START = date(2010, 1, 1)
DECADE_END = date(2019, 12, 31)
DECADE_TZ = "America/New_York"
# Readings removed to make one outage: 24 readings, about six hours.
OUTAGE_READINGS = 24


def _decade_prepare(inputs: Path, seed: int) -> dict:
    rng = random.Random(seed)
    vacations = []
    for year in range(DECADE_START.year, DECADE_END.year + 1):
        first = date(year, 6, 1) + timedelta(days=rng.randrange(0, 80))
        vacations.append((first, first + timedelta(days=rng.randrange(6, 14))))
    scenario = {
        "start": DECADE_START.isoformat(),
        "end": DECADE_END.isoformat(),
        "timezone": DECADE_TZ,
        "seed": seed,
        "noise_sd": 0.8,
        "jitter": [1, 30],
        "dropout_rate": 0.0007,
        "vacations": [[a.isoformat(), b.isoformat()] for a, b in vacations],
    }
    (inputs / "scenario.json").write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
    lines = [f"{a.isoformat()}..{b.isoformat()},vacation" for a, b in vacations]
    lines += [f"{year}-12-25,holiday" for year in range(DECADE_START.year, DECADE_END.year + 1)]
    (inputs / "calendar.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"scenario": "scenario.json", "calendar": "calendar.txt"}


def inject_reset_and_outage(seq_dir: Path, seed: int) -> None:
    """Write input.csv: sim/readings.csv with one counter reset and one outage.

    The reset restarts the counter near zero at a seeded reading in the
    first half of the stream; the outage deletes OUTAGE_READINGS consecutive
    readings at a seeded point in the second half.
    """
    lines = (seq_dir / "sim" / "readings.csv").read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    rng = random.Random(seed ^ 0x5EED)
    n = len(rows)
    reset_at = rng.randrange(n // 8, n // 2)
    outage_at = rng.randrange(n // 2 + OUTAGE_READINGS, n - n // 8)
    offset = float(rows[reset_at].split(",", 1)[1]) - 1.0
    out = [header]
    for i, row in enumerate(rows):
        if outage_at <= i < outage_at + OUTAGE_READINGS:
            continue
        if i >= reset_at:
            ts, litres = row.split(",", 1)
            row = f"{ts},{float(litres) - offset!r}"
        out.append(row)
    (seq_dir / "input.csv").write_text("\n".join(out) + "\n", encoding="utf-8")


_DECADE_ANALYSIS = ("input.csv", "--timezone", DECADE_TZ)

DECADE = Workload(
    name="decade",
    timezone=DECADE_TZ,
    input_file="input.csv",
    steps=(
        Step("simulate", ("simulate", "--scenario", "{inputs}/scenario.json", "--out", "sim"),
             after=inject_reset_and_outage),
        Step("ingest", ("ingest", *_DECADE_ANALYSIS, "--out", "ingest")),
        Step("profile", ("profile", *_DECADE_ANALYSIS, "--calendar", "{inputs}/calendar.txt", "--out", "profile")),
    ),
    prepare=_decade_prepare,
    notes=("spring-forward days are dropped by binning each year (ROADMAP item 4)",),
)


# --- tone-complete ------------------------------------------------------------

TONE_START = date(2020, 1, 1)
TONE_END = date(2020, 12, 31)


def _tone_prepare(inputs: Path, seed: int) -> dict:
    scenario = {
        "start": TONE_START.isoformat(),
        "end": TONE_END.isoformat(),
        "timezone": "UTC",
        "seed": seed,
        "noise_sd": 0.5,
        "jitter": [0, 0],
        "dropout_rate": 0.0,
        "daily_pattern": {"period_hours": 24.0, "amplitude": 4.0},
    }
    (inputs / "scenario.json").write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
    return {"scenario": "scenario.json"}


TONE_COMPLETE = Workload(
    name="tone-complete",
    timezone="UTC",
    input_file="sim/readings.jsonl",
    steps=(
        Step("simulate", ("simulate", "--scenario", "{inputs}/scenario.json", "--format", "jsonl", "--out", "sim")),
        Step("ingest", ("ingest", "sim/readings.jsonl", "--timezone", "UTC", "--out", "ingest")),
        Step("track", ("track", "sim/readings.jsonl", "--timezone", "UTC", "--estimator", "classic", "--out", "track")),
    ),
    prepare=_tone_prepare,
    tone_period_hours=24.0,
)


WORKLOADS = {w.name: w for w in (DEMO, DECADE, TONE_COMPLETE)}

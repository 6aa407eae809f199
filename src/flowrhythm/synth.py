"""Deterministic synthetic household generator.

Produces cumulative meter readings with known daily structure so every
downstream stage can be checked against ground truth: weekday/weekend
usage templates, flat vacation stretches, reading-time jitter, dropout,
and an optional pure-tone override for spectral fixtures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .binning import SLOTS_PER_DAY, local_clock
from .errors import InvalidConfig
from .readings import BLOCK_ROWS, ReadingStream

_SCENARIO_KEYS = {
    "start",
    "end",
    "timezone",
    "seed",
    "initial_litres",
    "weekday_template",
    "saturday_template",
    "sunday_template",
    "noise_sd",
    "jitter",
    "dropout_rate",
    "vacations",
    "vacation_level",
    "daily_pattern",
}


# The first start and last end a scenario may have: a run spans local
# midnight of its start to local midnight after its end, and with a zone's
# offset under a day these dates keep it within the instants a stream may hold
# (0001-01-02T00:00:00Z to 9999-12-30T23:59:59Z, see readings.FIRST_EPOCH_S).
FIRST_DATE, LAST_DATE = date(1, 1, 3), date(9999, 12, 29)


@lru_cache(maxsize=1)
def default_templates() -> dict:
    """Load the packaged per-day-type usage templates.

    Returns
    -------
    dict
        Keys ``weekday``, ``saturday``, ``sunday`` (tuples of 96 litres
        per slot) and ``vacation_level`` (flat litres per slot).
    """
    text = resources.files("flowrhythm.data").joinpath("daily_templates.json").read_text()
    raw = json.loads(text)
    return {
        "weekday": tuple(raw["weekday"]),
        "saturday": tuple(raw["saturday"]),
        "sunday": tuple(raw["sunday"]),
        "vacation_level": float(raw["vacation_level"]),
    }


@dataclass(frozen=True)
class PureTone:
    """Pure-tone usage override: ``amplitude * (1 + cos(2*pi*t/period))``.

    The baseline equals the amplitude so the signal never goes negative
    and the zero floor cannot clip (and so distort) the tone.
    """

    period_hours: float
    amplitude: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period_hours) and self.period_hours > 0):
            raise InvalidConfig(f"tone period must be positive, got {self.period_hours}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InvalidConfig(f"tone amplitude must be >= 0, got {self.amplitude}")


def _check_template(name: str, values) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) != SLOTS_PER_DAY:
        raise InvalidConfig(f"{name} must have {SLOTS_PER_DAY} values, got {len(out)}")
    if not all(math.isfinite(v) and v >= 0 for v in out):
        raise InvalidConfig(f"{name} values must be finite and >= 0")
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic household run.

    Usage for each reading interval is ``max(0, base + Gaussian(0, noise_sd))``
    where ``base`` comes from, in order of precedence: the ``daily_pattern``
    tone override, the flat ``vacation_level`` on vacation dates, or the
    day-type template slot containing the reading. Templates default to the
    packaged fixtures. Same config and seed give bit-identical output.
    """

    start: date
    end: date
    timezone: str = "UTC"
    seed: int = 0
    initial_litres: float = 0.0
    weekday_template: tuple[float, ...] | None = None
    saturday_template: tuple[float, ...] | None = None
    sunday_template: tuple[float, ...] | None = None
    noise_sd: float = 0.0
    jitter: tuple[int, int] = (1, 30)
    dropout_rate: float = 0.0
    vacations: tuple[tuple[date, date], ...] = ()
    vacation_level: float | None = None
    daily_pattern: PureTone | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.start, date) and isinstance(self.end, date)):
            raise InvalidConfig("start and end must be dates")
        if self.end < self.start:
            raise InvalidConfig(f"end {self.end} precedes start {self.start}")
        if self.start < FIRST_DATE or self.end > LAST_DATE:
            raise InvalidConfig(f"start and end must lie within {FIRST_DATE} to {LAST_DATE}")
        try:
            ZoneInfo(self.timezone)
        except (ZoneInfoNotFoundError, ValueError) as exc:
            raise InvalidConfig(f"unknown timezone {self.timezone!r}") from exc
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidConfig(f"seed must be an integer in [0, 2**64), got {self.seed}")
        if not (math.isfinite(self.initial_litres) and self.initial_litres >= 0):
            raise InvalidConfig(f"initial_litres must be >= 0, got {self.initial_litres}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise InvalidConfig(f"noise_sd must be >= 0, got {self.noise_sd}")
        lo, hi = self.jitter
        if not (isinstance(lo, int) and isinstance(hi, int) and 0 <= lo <= hi):
            raise InvalidConfig(f"jitter must be integer seconds with 0 <= lo <= hi, got {self.jitter}")
        if hi - lo >= 2**32:
            raise InvalidConfig(f"jitter must have hi - lo < 2**32 seconds, got {self.jitter}")
        object.__setattr__(self, "jitter", (lo, hi))
        if not (math.isfinite(self.dropout_rate) and 0 <= self.dropout_rate < 1):
            raise InvalidConfig(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        defaults = default_templates()
        for name in ("weekday_template", "saturday_template", "sunday_template"):
            values = getattr(self, name)
            if values is None:
                values = defaults[name.removesuffix("_template")]
            object.__setattr__(self, name, _check_template(name, values))
        level = self.vacation_level
        if level is None:
            level = defaults["vacation_level"]
        if not (math.isfinite(level) and level >= 0):
            raise InvalidConfig(f"vacation_level must be >= 0, got {level}")
        object.__setattr__(self, "vacation_level", float(level))
        ranges = []
        for pair in self.vacations:
            first, last = pair
            if not (isinstance(first, date) and isinstance(last, date)):
                raise InvalidConfig("vacation ranges must be date pairs")
            if last < first:
                raise InvalidConfig(f"vacation range {first}..{last} is reversed")
            ranges.append((first, last))
        object.__setattr__(self, "vacations", tuple(ranges))

    @property
    def span_days(self) -> int:
        return (self.end - self.start).days + 1


def scenario_from_json(obj: dict) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from its JSON representation."""
    if not isinstance(obj, dict):
        raise InvalidConfig("scenario must be a JSON object")
    unknown = set(obj) - _SCENARIO_KEYS
    if unknown:
        raise InvalidConfig(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("start", "end"):
        if key not in obj:
            raise InvalidConfig(f"scenario is missing {key!r}")
    try:
        kwargs: dict = {
            "start": date.fromisoformat(obj["start"]),
            "end": date.fromisoformat(obj["end"]),
        }
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad scenario date: {exc}") from exc
    for key in ("timezone", "seed", "initial_litres", "noise_sd", "dropout_rate", "vacation_level"):
        if key in obj:
            kwargs[key] = obj[key]
    for key in ("weekday_template", "saturday_template", "sunday_template"):
        if key in obj:
            kwargs[key] = tuple(obj[key])
    if "jitter" in obj:
        raw = obj["jitter"]
        if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
            raise InvalidConfig(f"jitter must be a [lo, hi] pair, got {raw!r}")
        kwargs["jitter"] = (raw[0], raw[1])
    if "vacations" in obj:
        try:
            kwargs["vacations"] = tuple(
                (date.fromisoformat(a), date.fromisoformat(b)) for a, b in obj["vacations"]
            )
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad vacation range: {exc}") from exc
    if "daily_pattern" in obj and obj["daily_pattern"] is not None:
        tone = obj["daily_pattern"]
        if not isinstance(tone, dict) or set(tone) != {"period_hours", "amplitude"}:
            raise InvalidConfig("daily_pattern needs exactly period_hours and amplitude")
        kwargs["daily_pattern"] = PureTone(float(tone["period_hours"]), float(tone["amplitude"]))
    return ScenarioConfig(**kwargs)


def scenario_to_json(cfg: ScenarioConfig) -> dict:
    """Serialize a config to the JSON layout :func:`scenario_from_json` reads."""
    out: dict = {
        "start": cfg.start.isoformat(),
        "end": cfg.end.isoformat(),
        "timezone": cfg.timezone,
        "seed": cfg.seed,
        "initial_litres": cfg.initial_litres,
        "weekday_template": list(cfg.weekday_template),
        "saturday_template": list(cfg.saturday_template),
        "sunday_template": list(cfg.sunday_template),
        "noise_sd": cfg.noise_sd,
        "jitter": list(cfg.jitter),
        "dropout_rate": cfg.dropout_rate,
        "vacations": [[a.isoformat(), b.isoformat()] for a, b in cfg.vacations],
        "vacation_level": cfg.vacation_level,
    }
    if cfg.daily_pattern is not None:
        out["daily_pattern"] = {
            "period_hours": cfg.daily_pattern.period_hours,
            "amplitude": cfg.daily_pattern.amplitude,
        }
    return out


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfig(f"cannot read scenario file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_json(obj)


def demo_scenario() -> ScenarioConfig:
    """The packaged demo household: a 265-day span with two vacations."""
    text = resources.files("flowrhythm.data").joinpath("demo_scenario.json").read_text()
    return scenario_from_json(json.loads(text))


def generate(cfg: ScenarioConfig) -> ReadingStream:
    """Generate the cumulative reading stream for one scenario.

    An anchor reading at local midnight of ``cfg.start`` carries
    ``initial_litres``; subsequent readings follow at 15 minutes plus
    per-step jitter, up to and including local midnight after ``cfg.end``.
    Dropout suppresses the reading but never the volume, which accrues
    into the next surviving reading. Equal seeds give bit-identical streams.

    Each step draws, in this order and unconditionally, from one PCG64
    generator seeded with ``cfg.seed``, exactly the values of
    ``rng.integers(lo, hi + 1)``, ``rng.standard_normal()`` and
    ``rng.random()``:

    - the jitter, by Lemire's bounded-integer rule on 32-bit halves of raw
      outputs, low half first (no draw when ``lo == hi``);
    - the usage noise, by ``rng.standard_normal()`` itself;
    - the dropout uniform, from one raw output ``r`` as ``(r >> 11) * 2**-53``.

    Parameters
    ----------
    cfg : ScenarioConfig
        Validated scenario.

    Returns
    -------
    ReadingStream
        Monotone cumulative readings tagged ``synthetic:<seed>``.
    """
    tz = ZoneInfo(cfg.timezone)
    t_start = int(datetime.combine(cfg.start, time(0), tz).timestamp())
    t_end = int(datetime.combine(cfg.end + timedelta(days=1), time(0), tz).timestamp())
    lo, hi = cfg.jitter
    # Every step advances at least 900 + lo seconds, which bounds the count.
    most = 1 + (t_end - t_start) // (900 + lo)
    epochs, litres = np.empty(most, dtype=np.int64), np.empty(most)
    total = float(cfg.initial_litres)
    epochs[0], litres[0], n = t_start, total, 1
    to_local = local_clock(tz)
    templates = np.array((cfg.weekday_template,) * 5 + (cfg.saturday_template, cfg.sunday_template))
    vacations = [(_day_number(first), _day_number(last)) for first, last in cfg.vacations]
    for t, noises, draws in _draw_steps(cfg.seed, lo, hi, t_start, t_end):
        if cfg.daily_pattern is not None:
            tone = cfg.daily_pattern
            phase = 2.0 * math.pi * ((t - t_start) / 3600.0) / tone.period_hours
            # math.cos per step: np.cos need not round the same in the last bit.
            base = tone.amplitude * (1.0 + np.array([math.cos(p) for p in phase.tolist()]))
        else:
            local_day, second = np.divmod(to_local(t), 86400)
            # 1970-01-01 was a Thursday, weekday 3.
            base = templates[(local_day + 3) % 7, second // 900]
            vacation = np.zeros(len(t), dtype=bool)
            for first, last in vacations:
                vacation |= (local_day >= first) & (local_day <= last)
            base[vacation] = cfg.vacation_level
        usage = base + cfg.noise_sd * noises
        usage = np.where(usage > 0.0, usage, 0.0)  # as max(0.0, usage): -0.0 becomes 0.0
        # cumsum adds in sequence, exactly as a running counter += usage does.
        usage[0] += total
        counter = np.cumsum(usage, out=usage)
        total = counter[-1]
        kept = draws >= cfg.dropout_rate
        m = int(np.count_nonzero(kept))
        epochs[n : n + m], litres[n : n + m] = t[kept], counter[kept]
        n += m
    return ReadingStream(epochs[:n], litres[:n], source_id=f"synthetic:{cfg.seed}")


def _draw_steps(
    seed: int, lo: int, hi: int, t_start: int, t_end: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw 15-minute steps from ``t_start`` while they end by ``t_end``.

    Yields each step's end time (900 s plus its jitter after the previous
    one), its noise and its dropout uniform, drawn as :func:`generate`
    describes, in blocks of ``BLOCK_ROWS`` steps. The first step past
    ``t_end`` is drawn too, and discarded.
    """
    rng = np.random.default_rng(seed)
    raw, normal = rng.bit_generator.random_raw, rng.standard_normal
    # These draws reproduce numpy's own routines bit for bit from raw PCG64
    # output, at a fraction of the cost of a scalar rng.integers call:
    # buffered_bounded_lemire_uint32 over PCG64's next_uint32 (the low half of
    # a raw output first, the high half kept for the next call) for the
    # jitter, which numpy uses while hi - lo < 2**32 (ScenarioConfig's bound),
    # and next_double for the dropout uniform. The golden demo digest, the
    # per-step oracle test and the draw-level test pin them.
    span = hi - lo + 1
    threshold = (2**32 - span) % span
    high = -1  # the kept high half, or -1 when none is kept
    t = t_start
    while True:
        times, noises = np.empty(BLOCK_ROWS, dtype=np.int64), np.empty(BLOCK_ROWS)
        raws = np.empty(BLOCK_ROWS, dtype=np.uint64)
        for n in range(BLOCK_ROWS):
            step = lo
            if span > 1:
                while True:
                    if high < 0:
                        r = raw()
                        m, high = (r & 0xFFFFFFFF) * span, r >> 32
                    else:
                        m, high = high * span, -1
                    if m & 0xFFFFFFFF >= threshold:
                        break
                step += m >> 32
            noise = normal()
            drop = raw()
            t += 900 + step
            if t > t_end:
                if n:
                    yield times[:n], noises[:n], (raws[:n] >> 11) * 2.0**-53
                return
            times[n], noises[n], raws[n] = t, noise, drop
        yield times, noises, (raws >> 11) * 2.0**-53


def _day_number(d: date) -> int:
    """Days since 1970-01-01."""
    return int(np.datetime64(d, "D").astype(np.int64))

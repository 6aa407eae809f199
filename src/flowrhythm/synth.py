"""Deterministic synthetic household generator.

Produces cumulative meter readings with known daily structure so every
downstream stage can be checked against ground truth: weekday/weekend
usage templates, flat vacation stretches, reading-time jitter, dropout,
and an optional pure-tone override for spectral fixtures.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import date, datetime, time, timedelta
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator
from zoneinfo import ZoneInfo

import numpy as np

from .binning import SLOTS_PER_DAY, local_clock, zone_named
from .errors import InvalidConfig
from .readings import BLOCK_ROWS, ReadingStream

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
        period = _number("tone period", self.period_hours)
        if not (math.isfinite(period) and period > 0):
            raise InvalidConfig(f"tone period must be positive, got {self.period_hours}")
        amplitude = _number("tone amplitude", self.amplitude)
        if not (math.isfinite(amplitude) and amplitude >= 0):
            raise InvalidConfig(f"tone amplitude must be >= 0, got {self.amplitude}")
        object.__setattr__(self, "period_hours", period)
        object.__setattr__(self, "amplitude", amplitude)


def _number(name: str, value) -> float:
    """``value`` as a float; InvalidConfig unless it is a real number, which a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the largest float
        raise InvalidConfig(f"{name} must be finite, got {value}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_template(name: str, values) -> tuple[float, ...]:
    try:
        out = tuple(_number(name, v) for v in values)
    except TypeError as exc:
        raise InvalidConfig(f"{name} must be a list of {SLOTS_PER_DAY} numbers, got {values!r}") from exc
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
    Its fields are the JSON keys, and it checks every value, from Python or JSON.
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
        if not (_is_date(self.start) and _is_date(self.end)):
            raise InvalidConfig("start and end must be dates")
        if self.end < self.start:
            raise InvalidConfig(f"end {self.end} precedes start {self.start}")
        if self.start < FIRST_DATE or self.end > LAST_DATE:
            raise InvalidConfig(f"start and end must lie within {FIRST_DATE} to {LAST_DATE}")
        zone_named(self.timezone)
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise InvalidConfig(f"seed must be an integer in [0, 2**64), got {self.seed}")
        initial_litres = _number("initial_litres", self.initial_litres)
        if not (math.isfinite(initial_litres) and initial_litres >= 0):
            raise InvalidConfig(f"initial_litres must be >= 0, got {self.initial_litres}")
        noise_sd = _number("noise_sd", self.noise_sd)
        if not (math.isfinite(noise_sd) and noise_sd >= 0):
            raise InvalidConfig(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not _is_pair(self.jitter):
            raise InvalidConfig(f"jitter must be a [lo, hi] pair, got {self.jitter!r}")
        lo, hi = self.jitter
        if not (_is_int(lo) and _is_int(hi) and 0 <= lo <= hi):
            raise InvalidConfig(f"jitter must be integer seconds with 0 <= lo <= hi, got {self.jitter}")
        if hi - lo >= 2**32:
            raise InvalidConfig(f"jitter must have hi - lo < 2**32 seconds, got {self.jitter}")
        object.__setattr__(self, "jitter", (lo, hi))
        dropout_rate = _number("dropout_rate", self.dropout_rate)
        if not (math.isfinite(dropout_rate) and 0 <= dropout_rate < 1):
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
        level = _number("vacation_level", level)
        if not (math.isfinite(level) and level >= 0):
            raise InvalidConfig(f"vacation_level must be >= 0, got {level}")
        object.__setattr__(self, "vacation_level", level)
        if not isinstance(self.vacations, (list, tuple)):
            raise InvalidConfig(f"vacations must be a list of date pairs, got {self.vacations!r}")
        for pair in self.vacations:
            if not (_is_pair(pair) and all(isinstance(d, date) for d in pair)):
                raise InvalidConfig(f"vacation ranges must be date pairs, got {pair!r}")
            if pair[1] < pair[0]:
                raise InvalidConfig(f"vacation range {pair[0]}..{pair[1]} is reversed")
        object.__setattr__(self, "vacations", tuple(map(tuple, self.vacations)))
        if not (self.daily_pattern is None or isinstance(self.daily_pattern, PureTone)):
            raise InvalidConfig(f"daily_pattern must be a PureTone, got {self.daily_pattern!r}")


def _is_date(value) -> bool:
    return isinstance(value, date) and not isinstance(value, datetime)  # a datetime compares with no date


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2


def scenario_from_json(obj: dict) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from its JSON representation, converting
    only what JSON cannot hold: ISO dates and the ``daily_pattern`` object."""
    if not isinstance(obj, dict):
        raise InvalidConfig("scenario must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise InvalidConfig(f"unknown scenario keys: {sorted(unknown)}")
    for f in fields(ScenarioConfig):
        if f.default is MISSING and f.name not in obj:
            raise InvalidConfig(f"scenario is missing {f.name!r}")
    kwargs = dict(obj, start=_iso_date(obj["start"]), end=_iso_date(obj["end"]))
    if isinstance(obj.get("vacations"), list):
        kwargs["vacations"] = [
            [_iso_date(d) for d in pair] if isinstance(pair, list) else pair for pair in obj["vacations"]
        ]
    tone = obj.get("daily_pattern")
    if isinstance(tone, dict):
        if set(tone) != {f.name for f in fields(PureTone)}:
            raise InvalidConfig("daily_pattern needs exactly period_hours and amplitude")
        kwargs["daily_pattern"] = PureTone(**tone)
    return ScenarioConfig(**kwargs)


def _iso_date(value):
    """The date an ISO string names; any other value as it is, for ScenarioConfig to check."""
    if not isinstance(value, str):
        return value
    try:
        return date.fromisoformat(value)
    except ValueError as exc:
        raise InvalidConfig(f"bad scenario date: {exc}") from exc


def scenario_to_json(cfg: ScenarioConfig) -> dict:
    """Serialize a config to the JSON layout :func:`scenario_from_json` reads;
    every field is a key, but a ``daily_pattern`` of None."""
    return {k: _to_json(v) for k, v in asdict(cfg).items() if not (k == "daily_pattern" and v is None)}


def _to_json(value):
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value.isoformat() if isinstance(value, date) else value


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario JSON file, UTF-8 encoded."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidConfig(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"scenario file {path}: not UTF-8 text: {exc.reason}") from None
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's digit limit.
        raise InvalidConfig(f"scenario file {path} is not valid JSON: {exc}") from None
    return scenario_from_json(obj)


def demo_scenario() -> ScenarioConfig:
    """The packaged demo household: a 265-day span with two vacations."""
    text = resources.files("flowrhythm.data").joinpath("demo_scenario.json").read_text()
    return scenario_from_json(json.loads(text))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported once, at the end
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
    ``rng.random()``. The draws are worked out block by block from raw
    outputs read ahead with ``bit_generator.random_raw``:

    - the jitter, by Lemire's bounded-integer rule on 32-bit halves of raw
      outputs, low half first (no draw when ``lo == hi``);
    - the usage noise, on numpy's ziggurat fast path (about 98.5% of
      draws), from one raw output ``r`` as ``rabs * wi[idx]``, negated when
      ``r``'s sign bit is set, where ``rabs < ki[idx]`` and ``idx``, the sign
      and ``rabs`` are bits 0-7, 8 and 9-60 of ``r``; otherwise numpy's own
      ``rng.standard_normal()``, called with the generator moved to that raw;
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
    # The counter never decreases, so a finite last total means every one is.
    if not math.isfinite(total):
        raise InvalidConfig("the scenario's usage overflows the counter: litres reach infinity")
    return ReadingStream(epochs[:n], litres[:n], source_id=f"synthetic:{cfg.seed}")


def _draw_steps(
    seed: int, lo: int, hi: int, t_start: int, t_end: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw 15-minute steps from ``t_start`` while they end by ``t_end``.

    Yields each step's end time (900 s plus its jitter after the previous
    one), its noise and its dropout uniform, drawn as :func:`generate`
    describes, in blocks of ``BLOCK_ROWS`` steps. The jitter of the first
    step past ``t_end`` is drawn too, and the step discarded.
    """
    span = hi - lo + 1
    if 900 + lo > t_end - t_start:
        return  # even the shortest first step ends past t_end
    # Fast path: runs of whole units that _Lookahead finds free of events (see
    # there) are copied out of its buffer in one go. Fallback: any other step
    # is drawn one raw at a time by numpy's rules, in numpy's order. That is a
    # step holding a rejected jitter half or a slow-path normal, one that
    # starts on a kept high half, and one that crosses the end of a block or
    # of the buffer. A slow-path normal is numpy's own standard_normal() with
    # the generator moved to its raw. Either way each raw is read once, so the
    # cost does not grow with the rate of rejections. The jitter follows numpy's
    # buffered_bounded_lemire_uint32 over PCG64's next_uint32 (the low half of
    # a raw output first, the high half kept for the next call), which numpy
    # uses while hi - lo < 2**32 (ScenarioConfig's bound). The golden demo
    # digest, the per-step oracle test and the draw-level tests pin all this.
    ahead = _Lookahead(seed, lo, span)
    threshold = ahead.threshold
    at, high, t = 0, -1, t_start  # the next raw's position, the kept high half or -1
    done = False
    while not done:
        times, noises = np.empty(BLOCK_ROWS, dtype=np.int64), np.empty(BLOCK_ROWS)
        uniforms = np.empty(BLOCK_ROWS)
        n = 0
        while n < BLOCK_ROWS:
            room = (BLOCK_ROWS - n) // ahead.steps if high < 0 else 0
            if room and (units := ahead.copy(at, room, t, n, times, noises, uniforms)):
                m = n + units * ahead.steps
                at += units * ahead.per
                if times[m - 1] > t_end:
                    n += int(np.searchsorted(times[n:m], t_end, side="right"))
                    done = True
                    break
                t, n = int(times[m - 1]), m
                continue
            step = lo
            if span > 1:
                while True:
                    if high < 0:
                        r = ahead.raw(at)
                        at += 1
                        m, high = (r & 0xFFFFFFFF) * span, r >> 32
                    else:
                        m, high = high * span, -1
                    if m & 0xFFFFFFFF >= threshold:
                        break
                step += m >> 32
            t += 900 + step
            if t > t_end:
                done = True
                break
            noises[n], used = ahead.normal(at)
            times[n], uniforms[n] = t, (ahead.raw(at + used) >> 11) * 2.0**-53
            at += used + 1
            n += 1
        if n:
            yield times[:n], noises[:n], uniforms[:n]


# PCG64 steps its 128-bit state s to s * _PCG64_MULTIPLIER + inc per raw output.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class _Lookahead:
    """Raw PCG64 output read ahead in buffers, and numpy's draws from it.

    Positions count raw outputs from the seeded state. A buffer holds the
    raws from position ``base`` on and, at each of them, numpy's fast-path
    normal from that raw and whether numpy's normal takes its slow path
    there instead.

    Without events, steps read the raws in units. With a jitter draw, a
    unit of 5 raws makes 2 steps: the first takes its jitter from the low
    half of raw 0 and keeps the high half for the second; their normals are
    raws 1 and 3, their dropout uniforms raws 2 and 4. Without a jitter
    draw, a unit of 2 raws makes 1 step: its normal, then its uniform. An
    event is a jitter half that Lemire's rule rejects or a slow-path normal.
    """

    def __init__(self, seed: int, lo: int, span: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.inc = self.rng.bit_generator.state["state"]["inc"]
        self.lo, self.span = lo, span
        self.threshold = (2**32 - span) % span
        self.per, self.steps = (5, 2) if span > 1 else (2, 1)
        # One block of steps and a unit more.
        self.size = self.per * BLOCK_ROWS // self.steps + self.per
        self.head = 0  # the generator's next position
        self.base = -self.size  # nothing is buffered yet

    def _index(self, at: int) -> int:
        """The buffer index of position ``at``, read ahead from there if it lies past the end."""
        i = at - self.base
        if i >= self.size:
            self._read(at)
            i = 0
        return i

    def _read(self, at: int) -> None:
        bitgen = self.rng.bit_generator
        bitgen.advance(at - self.head)  # a negative delta wraps, so steps back
        raws = bitgen.random_raw(self.size)
        self.raws, self.base, self.head = raws, at, at + self.size
        # numpy's random_standard_normal reads one raw r as idx = r & 0xFF,
        # sign = (r >> 8) & 1 and rabs = (r >> 9) & (2**52 - 1), and returns
        # rabs * wi[idx], negated for the sign, when rabs < ki[idx].
        ki, wi = _ziggurat_tables()
        low = (raws & 0x1FF).astype(np.intp)
        rabs = (raws >> 9) & (2**52 - 1)
        self.slow, self.normals = rabs >= ki[low], rabs * wi[low]
        event = np.ones(self.size, dtype=bool)  # a unit from here holds an event or does not fit
        fit = self.size - self.per + 1
        if self.span > 1:
            event[:fit] = self.slow[1 : fit + 1] | self.slow[3 : fit + 3]
            lengths = []
            for half in (raws & 0xFFFFFFFF, raws >> 32):
                m = half * np.uint64(self.span)
                event[:fit] |= (m[:fit] & 0xFFFFFFFF) < self.threshold
                lengths.append((m >> 32).astype(np.int64) + (900 + self.lo))
            # Per step of a unit: its lengths and the offsets of its normal and uniform.
            self.layout = ((lengths[0], 1, 2), (lengths[1], 3, 4))
        else:
            event[:fit] = self.slow[:fit]
            self.layout = ((np.full(self.size, 900 + self.lo, dtype=np.int64), 0, 1),)
        # clear[i]: the first position from i on, in steps of a unit, where a
        # run of event-free units starting at i must stop.
        clear = np.where(event, np.arange(self.size), self.size)
        for k in range(self.per):
            clear[k :: self.per] = np.minimum.accumulate(clear[k :: self.per][::-1])[::-1]
        self.clear = clear

    def copy(self, at: int, most: int, t: int, n: int, times: np.ndarray, noises: np.ndarray,
             uniforms: np.ndarray) -> int:
        """Write the steps of up to ``most`` event-free units from ``at`` into rows ``n`` on.

        ``times`` gets each step's end, the first step starting at time ``t``.
        Returns the number of units written.
        """
        i = self._index(at)
        units = min((int(self.clear[i]) - i) // self.per, most)
        if not units:
            return 0
        stop, end = i + units * self.per, n + units * self.steps
        for k, (lengths, normal, uniform) in enumerate(self.layout):
            times[n + k : end : self.steps] = lengths[i : stop : self.per]
            noises[n + k : end : self.steps] = self.normals[i + normal : stop : self.per]
            uniforms[n + k : end : self.steps] = self.raws[i + uniform : stop : self.per] >> 11
        times[n] += t
        times[n:end].cumsum(out=times[n:end])
        uniforms[n:end] *= 2.0**-53
        return units

    def raw(self, at: int) -> int:
        """The raw output at position ``at``."""
        i = self._index(at)  # before self.raws is read: it may read ahead
        return int(self.raws[i])

    def normal(self, at: int) -> tuple[float, int]:
        """numpy's ``standard_normal()`` from position ``at``, and the raws it reads."""
        i = self._index(at)
        if not self.slow[i]:
            return self.normals[i], 1
        bitgen = self.rng.bit_generator
        bitgen.advance(at - self.head)
        state = bitgen.state["state"]["state"]
        noise = self.rng.standard_normal()
        end = bitgen.state["state"]["state"]
        used = 0
        while state != end:
            state = (state * _PCG64_MULTIPLIER + self.inc) % 2**128
            used += 1
        self.head = at + used
        return noise, used


@lru_cache(maxsize=1)
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables ``ki`` and ``wi`` for its standard normal.

    ``data/ziggurat_tables.json`` holds numpy's ``ki_double`` (uint64) and
    ``wi_double`` (float64) from
    numpy/random/src/distributions/ziggurat_constants.h, and
    ``tests/test_synth.py`` checks them against the installed numpy. Both
    come back twice over, ``wi`` negated the second time, so the low 9 bits
    of a raw output (``idx`` and the sign bit) index them directly.
    """
    text = resources.files("flowrhythm.data").joinpath("ziggurat_tables.json").read_text()
    raw = json.loads(text)
    ki, wi = np.array(raw["ki"], dtype=np.uint64), np.array(raw["wi"], dtype=np.float64)
    return np.concatenate([ki, ki]), np.concatenate([wi, -wi])


def _day_number(d: date) -> int:
    """Days since 1970-01-01."""
    return int(np.datetime64(d, "D").astype(np.int64))

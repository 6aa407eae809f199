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
from bisect import bisect_left
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
            if not (_is_pair(pair) and all(_is_date(d) for d in pair)):
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
    outputs read ahead with ``bit_generator.random_raw``, each block's in
    one gather (see ``_Lookahead``):

    - the jitter, by Lemire's bounded-integer rule on 32-bit halves of raw
      outputs, low half first (no draw when ``lo == hi``);
    - the usage noise, on numpy's ziggurat fast path (about 98.5% of
      draws), from one raw output ``r`` as ``rabs * wi[idx]``, negated when
      ``r``'s sign bit is set, where ``rabs < ki[idx]`` and ``idx``, the sign
      and ``rabs`` are bits 0-7, 8 and 9-60 of ``r``; otherwise by numpy's
      slow path, whose test on the next raw keeps that value or starts the
      draw over two raws on; the tail (``idx`` 0) and a test too close to
      call are numpy's own ``rng.standard_normal()``, called with the
      generator moved to that raw. The next draw starts past the raws read;
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
    describes, in blocks of ``BLOCK_ROWS`` steps from :class:`_Lookahead`.
    The last block's steps past ``t_end`` are drawn too, and discarded.
    """
    if 900 + lo > t_end - t_start:
        return  # even the shortest first step ends past t_end
    ahead = _Lookahead(seed, lo, hi - lo + 1)
    t = t_start
    while True:
        lengths, noises, uniforms = ahead.block()
        times = lengths.cumsum()
        times += t
        if times[-1] > t_end:
            n = int(np.searchsorted(times, t_end, side="right"))
            if n:
                yield times[:n], noises[:n], uniforms[:n]
            return
        t = int(times[-1])
        yield times, noises, uniforms


# PCG64 steps its 128-bit state s to s * _PCG64_MULTIPLIER + inc per raw output.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class _Lookahead:
    """numpy's steps, block by block, from raw PCG64 output read ahead.

    Positions count raw outputs from the seeded state. Each block reads a
    buffer of raws from its first step's first raw on, and notes at each
    raw how a normal starting there ends (``reads``) and whether Lemire's
    rule rejects either 32-bit half. It then walks the buffer, noting only
    where each step's jitter half, normal and uniform lie, and takes all the
    block's steps from the buffer in one gather.

    Without events, steps read the raws in units. With a jitter draw, a
    unit of 5 raws makes 2 steps: the first takes its jitter from the low
    half of raw 0 and keeps the high half for the second; their normals are
    raws 1 and 3, their dropout uniforms raws 2 and 4. Without a jitter
    draw, a unit of 2 raws makes 1 step: its normal, then its uniform. An
    event is a jitter half that Lemire's rule rejects or a slow-path normal.

    The walk takes each run of event-free units in one lookup of ``stops``.
    It places any other step alone, by numpy's rules and in numpy's order:
    a rejected half passes the jitter draw on to the next half, and a
    slow-path normal reads as many raws as ``reads`` says, or as numpy's own
    ``standard_normal()`` reads where ``reads`` leaves it to numpy. The walk
    then goes on from the raw after them, with the same lookup. A block that
    reaches past its buffer is walked again over twice the raws, and later
    blocks keep that room. Each raw is looked at once in a walk, so the cost
    does not grow with the rate of rejections. The jitter follows numpy's
    buffered_bounded_lemire_uint32 over PCG64's next_uint32 (the low half of
    a raw output first, the high half kept for the next call), which numpy
    uses while hi - lo < 2**32 (ScenarioConfig's bound). The golden demo and
    decade digests, the per-step oracle test and the draw-level tests pin
    all this.
    """

    def __init__(self, seed: int, lo: int, span: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.inc = self.rng.bit_generator.state["state"]["inc"]
        self.lo, self.span = lo, span
        self.threshold = (2**32 - span) % span
        self.per, self.steps = (5, 2) if span > 1 else (2, 1)
        # A block's units, one more, and room for the raws events add.
        units = BLOCK_ROWS // self.steps + 1
        self.room = self.per * (units + units // 32)
        self.head = 0  # the generator's next position
        self.at, self.high = 0, -1  # the next raw's position; the kept high half's raw or -1
        self.rejected = None  # whether Lemire's rule rejects each 32-bit half, with a jitter draw

    def block(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``BLOCK_ROWS`` steps: their lengths (900 s plus the jitter), noises and uniforms."""
        while not (walked := self._walk()):
            self.room *= 2  # the block reached past its buffer: walk it again over twice the raws
        return self._gather(*walked)

    def _walk(self) -> tuple[list, list, list] | None:
        """Read a buffer of raws for the next block and walk it; None if the block needs more.

        Returns the block's runs, single steps and slow-path noises, as ``_gather`` takes them,
        each flattened into one list.
        """
        base = self.at if self.high < 0 else self.high
        self._load(base, self._raws(base, self.room))
        size, per, steps, jitter, rows = self.room, self.per, self.steps, self.span > 1, BLOCK_ROWS
        # Indexing memoryviews gives Python ints, several times faster than numpy scalars.
        reads = memoryview(self.reads)
        rejected = memoryview(self.rejected) if jitter else None
        stops_by_residue = self.stops
        at, high = self.at - base, self.high - base if self.high >= 0 else -1  # buffer indices
        runs, singles, slow_noises = [], [], []
        n = 0
        while n < rows:
            if high < 0:
                if at >= size:
                    return None
                stops = stops_by_residue[at % per]
                units = min((stops[bisect_left(stops, at)] - at) // per, (rows - n) // steps)
                if units:
                    runs += at, units, n
                    at += units * per
                    n += units * steps
                    continue
            half = -1  # 2 * the jitter's raw, plus 1 for its high half
            if jitter:
                while True:
                    if high < 0:
                        if at >= size:
                            return None
                        half, high, at = 2 * at, at, at + 1
                    else:
                        half, high = 2 * high + 1, -1
                    if not rejected[half]:
                        break
            normal = at  # the raw of the normal's try that settles it
            while True:
                if normal + 1 >= size:
                    return None
                count = reads[normal]
                if count >= 0:
                    break
                normal += 2  # the try is rejected: numpy's draw starts over
            if not count:
                noise, count = self._slow_normal(base + normal)
                slow_noises.append((n, noise))
            uniform = normal + count
            if uniform >= size:
                return None
            singles += n, half, normal, uniform
            at = uniform + 1
            n += 1
        self.at, self.high = base + at, base + high if high >= 0 else -1
        return runs, singles, slow_noises

    def _raws(self, at: int, count: int) -> np.ndarray:
        """The ``count`` raw outputs from position ``at``."""
        bitgen = self.rng.bit_generator
        bitgen.advance(at - self.head)  # a negative delta wraps, so steps back
        self.head = at + count
        return bitgen.random_raw(count)

    def _load(self, base: int, raws: np.ndarray) -> None:
        """Hold ``raws``, which start at position ``base``, and note where their events lie."""
        self.base, self.raws = base, raws
        # numpy's random_standard_normal reads one raw r as idx = r & 0xFF,
        # sign = (r >> 8) & 1 and rabs = (r >> 9) & (2**52 - 1), and returns
        # rabs * wi[idx], negated for the sign, when rabs < ki[idx].
        ki, wi = _ziggurat_tables()
        low = (raws & 0x1FF).astype(np.intp)
        rabs = (raws >> 9) & (2**52 - 1)
        slow = rabs >= ki[low]
        # Otherwise numpy's slow path: for idx > 0 it reads u from the next
        # raw as the uniform does, and returns the same value when
        # (fi[idx - 1] - fi[idx]) * u + fi[idx] < exp(-x * x / 2), else starts
        # over; for idx 0 it draws from the tail. reads[i] says how a try from
        # raw i ends: 1 or 2 raws read, -2 when it starts over, and 0 where
        # numpy's own call must settle it: the tail, or a test within 1e-9,
        # where rounding or a fused multiply-add could turn it.
        reads = (~slow).view(np.int8)
        tries = np.flatnonzero(slow[:-1])
        tries = tries[(low[tries] & 0xFF) > 0]
        idx = low[tries] & 0xFF
        x = rabs[tries] * wi[idx]
        u = (raws[tries + 1] >> 11) * 2.0**-53
        fi = _ziggurat_fi()
        test = (fi[idx - 1] - fi[idx]) * u + fi[idx] - np.exp(-0.5 * x * x)
        reads[tries] = np.where(test < -1e-9, 2, np.where(test > 1e-9, -2, 0))
        self.reads = reads
        size = len(raws)
        event = np.ones(size, dtype=bool)  # a unit from here holds an event or does not fit
        fit = size - self.per + 1
        if self.span > 1:
            # Each raw's low half, then its high half.
            halves = np.empty(2 * size, dtype=np.uint64)
            halves[0::2], halves[1::2] = raws & 0xFFFFFFFF, raws >> 32
            m = halves * np.uint64(self.span)
            self.rejected = m & 0xFFFFFFFF < self.threshold
            self.half_lengths = (m >> 32).astype(np.int64) + (900 + self.lo)
            either = self.rejected[0::2] | self.rejected[1::2]
            event[:fit] = either[:fit] | slow[1 : fit + 1] | slow[3 : fit + 3]
        else:
            event[:fit] = slow[:fit]
        # stops[k]: in order, the positions k mod per where a run of units
        # must stop, and then the buffer's end.
        stops = np.flatnonzero(event)
        self.stops = [stops[stops % self.per == k].tolist() + [size] for k in range(self.per)]

    def _slow_normal(self, at: int) -> tuple[float, int]:
        """numpy's ``standard_normal()`` from position ``at``, and the raws it reads."""
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

    def _gather(self, runs: list, singles: list, slow_noises: list) -> tuple[np.ndarray, ...]:
        """The block's step lengths, noises and uniforms, taken from the buffer at once.

        ``runs`` holds ``index, units, row`` in turn: event-free units from
        buffer index ``index`` on, whose steps fill the rows from ``row`` on.
        ``singles`` holds ``row, half, normal, uniform`` in turn: a step's jitter
        half as ``_walk`` numbers them and the buffer indices of the raw its
        noise comes from and of its uniform. ``slow_noises`` holds
        ``(row, noise)`` pairs for noises numpy's own call drew.
        """
        row, half, normal, uniform = np.array(singles, dtype=np.intp).reshape(-1, 4).T
        if runs:
            starts, units, first_rows = np.array(runs, dtype=np.intp).reshape(-1, 3).T
            counts = units * self.steps
            ends = np.cumsum(counts)
            place = np.arange(ends[-1]) - np.repeat(ends - counts, counts)  # each step's place in its run
            unit, k = place >> (self.steps - 1), place & (self.steps - 1)  # steps is 1 or 2
            first = np.repeat(starts, counts) + unit * self.per  # the buffer index of its unit
            normals = first + 1 + 2 * k if self.span > 1 else first
            row = np.concatenate([row, np.repeat(first_rows, counts) + place])
            half = np.concatenate([half, 2 * first + k])
            normal = np.concatenate([normal, normals])
            uniform = np.concatenate([uniform, normals + 1])
        lengths = np.empty(BLOCK_ROWS, dtype=np.int64)
        noises, uniforms = np.empty(BLOCK_ROWS), np.empty(BLOCK_ROWS)
        lengths[row] = self.half_lengths[half] if self.span > 1 else 900 + self.lo
        _, wi = _ziggurat_tables()
        raws = self.raws[normal]
        noises[row] = ((raws >> 9) & (2**52 - 1)) * wi[(raws & 0x1FF).astype(np.intp)]
        for r, noise in slow_noises:
            noises[r] = noise
        uniforms[row] = (self.raws[uniform] >> 11) * 2.0**-53
        return lengths, noises, uniforms


@lru_cache(maxsize=1)
def _ziggurat_fi() -> np.ndarray:
    """numpy's ziggurat table ``fi_double``, to within about 1e-15.

    ``fi[i]`` is the normal density ``exp(-x * x / 2)`` at the outer edge
    ``x = wi[i] * 2**52`` of layer ``i``, and ``fi[0]`` is 1, the density at
    the top. ``tests/test_synth.py`` checks the slow-path tests made with it
    against the installed numpy.
    """
    _, wi = _ziggurat_tables()
    fi = np.exp(-0.5 * (wi[:256] * 2.0**52) ** 2)
    fi[0] = 1.0
    return fi


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

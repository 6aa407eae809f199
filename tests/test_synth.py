import dataclasses
import json
from datetime import date, datetime
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from conftest import day_rows
from flowrhythm import synth
from flowrhythm.binning import readings_to_days
from flowrhythm.errors import InvalidConfig
from flowrhythm.readings import read_stream, write_stream_csv
from flowrhythm.synth import (
    FIRST_DATE,
    LAST_DATE,
    PureTone,
    ScenarioConfig,
    _draw_steps,
    default_templates,
    demo_scenario,
    generate,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)
from flowrhythm.tracking import WindowConfig, compute_window_periodograms

FLAT = tuple([1.0] * 96)


def flat_config(**kw):
    base = dict(
        start=date(2021, 3, 1),
        end=date(2021, 3, 1),
        jitter=(0, 0),
        weekday_template=FLAT,
        saturday_template=FLAT,
        sunday_template=FLAT,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_zero_jitter_exact_conservation():
    # One UTC day, flat unit template, no noise: 96 unit draws plus the
    # anchor reading, and the counter rises by exactly 96 litres.
    stream = generate(flat_config())
    assert len(stream) == 97
    assert float(stream.litres[-1] - stream.litres[0]) == 96.0
    spacing = np.diff(stream.epoch_s)
    assert np.all(spacing == 900)


def test_jitter_spacing_bounds():
    cfg = flat_config(end=date(2021, 3, 5), jitter=(1, 30), seed=4)
    stream = generate(cfg)
    spacing = np.diff(stream.epoch_s)
    assert np.all(spacing >= 901)
    assert np.all(spacing <= 930)


@pytest.mark.parametrize("jitter, readings", [
    ((2**70, 2**70 + 5), 1), ((85501, 85501), 1), ((85500, 85500), 2),
])
def test_steps_as_long_as_the_run(jitter, readings):
    # One UTC day is 86,400 s: a first step of 900 + 85,500 s ends on the
    # last instant, and a longer one past it, however long.
    stream = generate(flat_config(jitter=jitter))
    assert np.diff(stream.epoch_s).tolist() == [86400] * (readings - 1)


def test_counter_monotone_and_seed_reproducible():
    cfg = flat_config(end=date(2021, 3, 10), jitter=(1, 30), noise_sd=0.8, seed=5)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.epoch_s, b.epoch_s)
    assert np.array_equal(a.litres, b.litres)
    assert np.all(np.diff(a.litres) >= 0.0)
    c = generate(dataclasses.replace(cfg, seed=6))
    assert not np.array_equal(a.litres, c.litres)


def test_source_id_names_seed():
    stream = generate(flat_config(seed=123))
    assert stream.source_id == "synthetic:123"


def test_dropout_conserves_cumulative_volume():
    # Dropout suppresses emissions only; consumption still accrues, so the
    # final counter value matches the same seed with no dropout.
    cfg = flat_config(end=date(2021, 3, 20), jitter=(1, 30), noise_sd=0.8,
                      seed=9, dropout_rate=0.05)
    full = generate(dataclasses.replace(cfg, dropout_rate=0.0))
    thinned = generate(cfg)
    assert len(thinned) < len(full)
    assert float(thinned.litres[-1]) == float(full.litres[-1])


def test_vacation_days_are_flat_and_low():
    cfg = flat_config(
        end=date(2021, 3, 14),
        vacations=((date(2021, 3, 6), date(2021, 3, 10)),),
        vacation_level=0.25,
    )
    by_date = dict(day_rows(readings_to_days(generate(cfg))))
    vac = by_date[date(2021, 3, 8)]
    normal = by_date[date(2021, 3, 3)]
    # Midnight-closing interval spills from the neighbouring day's slot.
    assert float(np.nansum(vac[1:])) == pytest.approx(0.25 * 95, rel=1e-9)
    assert float(np.nansum(normal[1:])) == pytest.approx(95.0, rel=1e-9)


def test_pure_tone_recovers_period_through_pipeline():
    cfg = flat_config(
        end=date(2021, 3, 31),
        daily_pattern=PureTone(period_hours=24.0, amplitude=2.0),
    )
    days = readings_to_days(generate(cfg))
    wc = WindowConfig()
    window, pg = compute_window_periodograms(days, None, wc)[0]
    assert window.start_date == date(2021, 3, 1)
    assert pg.estimator == "lomb_scargle"
    assert int(np.argmax(pg.power)) == wc.grid().index_of_period(24.0)


def test_demo_scenario_statistics():
    cfg = demo_scenario()
    assert cfg.timezone == "Europe/Dublin"
    assert cfg.seed == 20170909
    stream = generate(cfg)
    # Frozen by the pinned seed; the band is what matters.
    assert len(stream) == 24993
    assert abs(len(stream) - 24994) <= 250
    days = day_rows(readings_to_days(stream, tz=ZoneInfo(cfg.timezone)))
    assert len(days) == 264
    counts = [int(np.count_nonzero(~np.isnan(bins))) for _, bins in days]
    in_band = sum(1 for c in counts if 92 <= c <= 96)
    assert in_band / len(days) >= 0.99
    assert float(np.mean(counts)) == pytest.approx(94.3, abs=0.2)


def test_default_templates_shape():
    packaged = default_templates()
    for key in ("weekday", "saturday", "sunday"):
        assert len(packaged[key]) == 96
        assert min(packaged[key]) > 0.0
    assert packaged["vacation_level"] > 0.0
    assert int(np.argmax(packaged["weekday"])) == 28
    assert int(np.argmax(packaged["saturday"])) == 40
    assert int(np.argmax(packaged["sunday"])) == 40


def test_scenario_json_round_trip():
    cfg = ScenarioConfig(
        start=date(2021, 1, 4),
        end=date(2021, 2, 1),
        timezone="Europe/Dublin",
        seed=42,
        noise_sd=0.5,
        jitter=(2, 20),
        dropout_rate=0.01,
        vacations=((date(2021, 1, 10), date(2021, 1, 12)),),
        daily_pattern=PureTone(period_hours=12.0, amplitude=1.5),
    )
    # Force a real serialization round trip, not just dict identity.
    again = scenario_from_json(json.loads(json.dumps(scenario_to_json(cfg))))
    assert again == cfg


@pytest.mark.parametrize("tone", [None, PureTone(24.0, 1.0)])
def test_scenario_to_json_keys_are_the_field_names(tone):
    names = [f.name for f in dataclasses.fields(ScenarioConfig)]
    keys = list(scenario_to_json(flat_config(daily_pattern=tone)))
    assert keys == (names if tone else [n for n in names if n != "daily_pattern"])


@pytest.mark.parametrize("kw", [
    {"noise_sd": 1e308},
    {"daily_pattern": PureTone(24.0, 1e308)},
    {"weekday_template": (1e308,) * 96, "initial_litres": 1e308},
])
def test_generate_rejects_a_counter_that_overflows(kw):
    # Usage that reaches infinity is a configuration error, not a stream error.
    with pytest.raises(InvalidConfig, match="overflows"):
        generate(flat_config(**{"noise_sd": 1.0, **kw}))


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(InvalidConfig, match="nope.json"):
        load_scenario(tmp_path / "nope.json")


def test_scenario_rejects_unknown_keys():
    with pytest.raises(InvalidConfig, match="unknown"):
        scenario_from_json({"start": "2021-01-01", "end": "2021-01-02", "extra": 1})


@pytest.mark.parametrize(
    "kw",
    [
        {"end": date(2021, 2, 28)},          # end before start
        {"timezone": "Mars/Olympus"},
        {"jitter": (5, 2)},
        {"jitter": (-1, 3)},
        {"jitter": (0, 2**32)},
        {"jitter": (0, 9223372036854775807)},
        {"dropout_rate": 1.0},
        {"noise_sd": -0.1},
        {"seed": -1},
        {"weekday_template": (1.0,) * 95},
        {"vacation_level": -2.0},
        {"vacations": ((date(2021, 3, 9), date(2021, 3, 7)),)},
        {"start": date(1, 1, 2)},
        {"end": date(9999, 12, 30)},
        {"timezone": 5},
        {"noise_sd": "x"},
        {"initial_litres": None},
        {"dropout_rate": "x"},
        {"vacation_level": "x"},
        {"weekday_template": ("a",) * 96},
        {"weekday_template": 5},
        {"daily_pattern": {"period_hours": "x", "amplitude": 1}},
        {"seed": True},
        {"jitter": (True, 30)},
        {"jitter": (1, True)},
        {"jitter": 5},
        {"jitter": (1,)},
        {"vacations": 5},
        {"vacations": ((date(2021, 3, 1),),)},
        {"noise_sd": 10**400},
    ],
)
def test_scenario_validation(kw):
    # Each case fails as a config, built directly and read from its JSON.
    base = dict(start=date(2021, 3, 1), end=date(2021, 3, 10))
    base.update(kw)
    with pytest.raises(InvalidConfig):
        ScenarioConfig(**base)
    with pytest.raises(InvalidConfig):
        scenario_from_json(json.loads(json.dumps(base, default=date.isoformat)))


@pytest.mark.parametrize("kw", [{"start": datetime(2021, 3, 1)}, {"end": datetime(2021, 3, 10)}])
def test_a_datetime_is_not_a_scenario_date(kw):
    # JSON holds no datetime, so this is a Python-built config only.
    with pytest.raises(InvalidConfig, match="must be dates"):
        ScenarioConfig(**{"start": date(2021, 3, 1), "end": date(2021, 3, 10), **kw})


@pytest.mark.parametrize("pair", [
    (datetime(2021, 3, 6), date(2021, 3, 8)), (date(2021, 3, 6), datetime(2021, 3, 8)),
])
def test_a_datetime_is_not_a_vacation_date(pair):
    # scenario_to_json would write it as 2021-03-06T00:00:00, which no scenario file may hold.
    with pytest.raises(InvalidConfig, match="date pairs"):
        ScenarioConfig(date(2021, 3, 1), date(2021, 3, 10), vacations=(pair,))
    with pytest.raises(InvalidConfig, match="bad scenario date"):
        scenario_from_json({"start": "2021-03-01", "end": "2021-03-10",
                            "vacations": [[d.isoformat() for d in pair]]})


@pytest.mark.parametrize("zone", ["America/Metlakatla", "Asia/Manila", "Etc/GMT-14", "Etc/GMT+12"])
def test_first_and_last_scenario_days_write_read_and_bin(tmp_path, zone):
    # At year 1, local mean time puts Metlakatla 15:13 ahead of UTC and
    # Manila 15:56 behind it; the run must still lie within the instants a
    # stream may hold, and its local days within years 1-9999.
    for day in (FIRST_DATE, LAST_DATE):
        stream = generate(flat_config(start=day, end=day, timezone=zone))
        write_stream_csv(stream, tmp_path / "readings.csv")
        back = read_stream(tmp_path / "readings.csv")
        assert back.epoch_s.tolist() == stream.epoch_s.tolist()
        days = readings_to_days(back, ZoneInfo(zone))
        assert days.first == day and days.retained[0]


def test_pure_tone_validation():
    with pytest.raises(InvalidConfig):
        PureTone(period_hours=0.0, amplitude=1.0)
    with pytest.raises(InvalidConfig):
        PureTone(period_hours=24.0, amplitude=-1.0)


def test_daily_pattern_config_keys():
    payload = {
        "start": "2021-03-01",
        "end": "2021-03-02",
        "daily_pattern": {"period_hours": 24.0},
    }
    with pytest.raises(InvalidConfig):
        scenario_from_json(payload)


def per_step_generate(cfg):
    """The generator as a per-step loop over local datetimes: the oracle."""
    import math
    from datetime import datetime, time, timedelta

    tz = ZoneInfo(cfg.timezone)
    t_start = int(datetime.combine(cfg.start, time(0), tz).timestamp())
    t_end = int(datetime.combine(cfg.end + timedelta(days=1), time(0), tz).timestamp())
    templates = (cfg.weekday_template,) * 5 + (cfg.saturday_template, cfg.sunday_template)
    rng = np.random.default_rng(cfg.seed)
    epochs, litres, counter, t = [t_start], [float(cfg.initial_litres)], float(cfg.initial_litres), t_start
    while True:
        step = int(rng.integers(cfg.jitter[0], cfg.jitter[1] + 1))
        noise = float(rng.standard_normal())
        drop = float(rng.random())
        t += 900 + step
        if t > t_end:
            break
        if cfg.daily_pattern is not None:
            phase = 2.0 * math.pi * ((t - t_start) / 3600.0) / cfg.daily_pattern.period_hours
            base = cfg.daily_pattern.amplitude * (1.0 + math.cos(phase))
        else:
            local = datetime.fromtimestamp(t, tz)
            if any(a <= local.date() <= b for a, b in cfg.vacations):
                base = cfg.vacation_level
            else:
                slot = (local.hour * 3600 + local.minute * 60 + local.second) // 900
                base = templates[local.weekday()][slot]
        counter += max(0.0, base + cfg.noise_sd * noise)
        if drop >= cfg.dropout_rate:
            epochs.append(t)
            litres.append(counter)
    return epochs, litres


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(date(2018, 3, 20), date(2018, 4, 3), "Europe/Dublin", seed=3, noise_sd=0.8,
                   dropout_rate=0.05, vacations=((date(2018, 3, 24), date(2018, 3, 26)),)),
    ScenarioConfig(date(2021, 10, 1), date(2021, 10, 6), "Australia/Lord_Howe", seed=9,
                   noise_sd=3.0, initial_litres=12.5, jitter=(0, 400)),
    ScenarioConfig(date(2020, 11, 1), date(2020, 11, 3), "America/New_York", seed=2,
                   noise_sd=0.5, jitter=(0, 0), daily_pattern=PureTone(24.0, 4.0)),
    ScenarioConfig(date(2021, 3, 10), date(2021, 3, 17), "America/New_York", seed=2026,
                   noise_sd=0.8, jitter=(1, 30), dropout_rate=0.02),
], ids=["dublin-vacation-dropout", "lord-howe-noisy", "tone", "new-york-dst-dropout"])
def test_generate_matches_per_step_oracle_bit_for_bit(cfg):
    epochs, litres = per_step_generate(cfg)
    stream = generate(cfg)
    assert stream.epoch_s.tolist() == epochs
    assert [v.hex() for v in stream.litres.tolist()] == [v.hex() for v in litres]


@pytest.mark.parametrize("span", [1, 2, 30, 401, 2**31 + 1, 2**32])
def test_draws_equal_numpys_integers_normal_random_triple(span):
    # At span 2**31 + 1 about half of all jitter draws are rejected and
    # redrawn, so kept and fresh 32-bit halves alternate irregularly.
    for seed, lo in [(0, span - 1), (7, span), (20170909, 3 * span)]:
        hi = lo + span - 1
        t_end = 10_000 * (900 + hi)  # at least 10,000 steps
        times, noises, uniforms = map(np.concatenate, zip(*_draw_steps(seed, lo, hi, 0, t_end)))
        rng = np.random.default_rng(seed)
        expected = [
            (int(rng.integers(lo, hi + 1)), rng.standard_normal(), rng.random())
            for _ in range(len(times) + 1)
        ]
        steps = np.diff(times, prepend=0) - 900
        assert len(times) >= 10_000
        assert int(times[-1]) + 900 + expected[-1][0] > t_end
        assert steps.tolist() == [e[0] for e in expected[:-1]]
        assert noises.tolist() == [e[1] for e in expected[:-1]]
        assert uniforms.tolist() == [e[2] for e in expected[:-1]]


def numpy_steps(seed, lo, hi, count):
    """``count`` steps of numpy's own draws, and whether each normal took its slow path."""
    rng = np.random.default_rng(seed)
    bitgen, probe = rng.bit_generator, np.random.PCG64()
    steps, slow = [], []
    for _ in range(count):
        jitter = int(rng.integers(lo, hi + 1))
        probe.state = bitgen.state
        probe.advance(1)  # where a normal that reads one raw leaves the state
        noise = rng.standard_normal()
        slow.append(bitgen.state["state"] != probe.state["state"])
        steps.append((jitter, noise, rng.random()))
    return steps, slow


@pytest.mark.parametrize("seed, lo, hi", [
    (94, 1, 30), (30, 1, 30), (2, 7, 7), (6, 7, 7), (82, 2**31, 2**32), (46, 2**31, 2**32),
])
def test_draws_equal_numpys_across_block_edges(monkeypatch, seed, lo, hi):
    expected, slow = numpy_steps(seed, lo, hi, 4400)
    # Each seed puts a slow-path normal on step 4095, the last of a block at
    # 4,096 and 2 rows and the first of one at 7, or on step 4096, the first
    # of a block at 4,096 and 2 rows. t_end makes the next slow-path step the
    # one past t_end, drawn and discarded.
    assert slow[4095] or slow[4096]
    past = next(j for j in range(4097, len(slow)) if slow[j])
    ends = np.cumsum([900 + step for step, _, _ in expected])
    for rows in (1, 2, 7, 4096):
        monkeypatch.setattr(synth, "BLOCK_ROWS", rows)
        blocks = list(_draw_steps(seed, lo, hi, 0, int(ends[past]) - 1))
        assert [len(times) for times, _, _ in blocks[:-1]] == [rows] * (len(blocks) - 1)
        times, noises, uniforms = map(np.concatenate, zip(*blocks))
        assert times.tolist() == ends[:past].tolist()
        assert noises.tolist() == [noise for _, noise, _ in expected[:past]]
        assert uniforms.tolist() == [uniform for _, _, uniform in expected[:past]]


def numpy_draws(seed, lo, hi, count):
    """``count`` steps of numpy's own draws; for each step, the position of the
    first raw its normal read and how many it read, and whether its jitter
    came from the 32-bit half kept before it."""
    rng = np.random.default_rng(seed)
    bitgen, probe = rng.bit_generator, np.random.PCG64()
    probe.state = bitgen.state
    at = 0  # raws read so far

    def read():
        """The raws read since the last call."""
        nonlocal at
        start = at
        while probe.state["state"] != bitgen.state["state"]:
            probe.advance(1)
            at += 1
        return at - start

    steps, normals, kept = [], [], []
    for _ in range(count):
        kept.append(bitgen.state["has_uint32"] == 1)
        jitter = int(rng.integers(lo, hi + 1))
        read()
        first = at
        noise = rng.standard_normal()
        normals.append((first, read()))
        steps.append((jitter, noise, rng.random()))
        read()
    return steps, normals, kept


@pytest.mark.parametrize("seed, lo, hi", [(37, 1, 30), (35, 7, 7), (159, 2**31, 2**32)])
def test_draws_equal_numpys_around_slow_path_normals(monkeypatch, seed, lo, hi):
    expected, normals, kept = numpy_draws(seed, lo, hi, 300)
    reads = [count for _, count in normals]
    # Each seed's first 300 steps hold a slow-path normal whose first try is
    # rejected, so it reads 3 raws or more; with a jitter draw, also a unit
    # with two slow-path normals: a step on a fresh raw's low half and the
    # step on the high half it kept.
    assert max(reads) >= 3
    if hi > lo:
        assert any(not kept[i] and kept[i + 1] and min(reads[i : i + 2]) > 1 for i in range(299))
    ends = np.cumsum([900 + step for step, _, _ in expected])
    buffer_ends = []  # where the buffer ended each time a block reached past it
    walk = synth._Lookahead._walk

    def spy(self):
        walked = walk(self)
        if walked is None:
            buffer_ends.append(self.base + len(self.raws))
        return walked

    monkeypatch.setattr(synth._Lookahead, "_walk", spy)
    for rows in (1, 2, 7, 4096):
        monkeypatch.setattr(synth, "BLOCK_ROWS", rows)
        blocks = list(_draw_steps(seed, lo, hi, 0, int(ends[-1])))
        assert [len(times) for times, _, _ in blocks[:-1]] == [rows] * (len(blocks) - 1)
        times, noises, uniforms = map(np.concatenate, zip(*blocks))
        assert times.tolist() == ends.tolist()
        assert noises.tolist() == [noise for _, noise, _ in expected]
        assert uniforms.tolist() == [uniform for _, _, uniform in expected]
    # Some slow-path normal's raws ran past the end of a buffer.
    assert any(start < end < start + count for start, count in normals for end in buffer_ends)


def test_ziggurat_tables_equal_numpys():
    # From state 0, PCG64 steps to state inc and outputs its high 64 bits
    # xor its low 64 bits, rotated right by its top 6 bits. So inc = r (odd,
    # below 2**64) or inc = 2**64 | (r ^ 1) makes r the next raw output.
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)

    def set_next_raw(r):
        inc = r if r & 1 else 2**64 | (r ^ 1)
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        return inc

    def normal_from(r):
        """numpy's standard_normal() from next raw r, and whether it read r alone."""
        set_next_raw(r)
        assert int(bitgen.random_raw()) == r
        inc = set_next_raw(r)
        return rng.standard_normal(), bitgen.state["state"]["state"] == inc

    ki, wi = synth._ziggurat_tables()
    assert ki.shape == wi.shape == (512,)
    for low in range(512):  # idx = low & 0xFF, the sign bit low >> 8
        k = int(ki[low])
        assert k < 2**52
        if k > 0:
            noise, alone = normal_from(low | 1 << 9)
            assert alone and noise.hex() == float(wi[low]).hex()
            assert normal_from(low | (k - 1) << 9)[1]
        assert not normal_from(low | k << 9)[1]


def test_slow_path_tests_equal_numpys():
    # numpy's slow-path normal in layer idx > 0 reads a raw r, then u from the
    # next raw, and returns r's value while (fi[idx - 1] - fi[idx]) * u + fi[idx]
    # < exp(-x * x / 2), else starts over. Its fi_double is not in the package:
    # the test is made with fi worked out from wi. For each layer, force r and
    # a 53-bit k (u = k * 2**-53), find numpy's least rejected k by bisection,
    # and check that the buffer's verdict agrees on every side of it.
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    mask, multiplier = 2**64 - 1, 0x2360ED051FC65DA44385DF649FCCF645

    def with_output(r, high):
        """A PCG64 state with high 64 bits ``high`` whose output is r."""
        rot = high >> 58
        return high << 64 | high ^ ((r << rot | r >> (64 - rot)) & mask)

    def numpy_keeps(r, k):
        """Whether numpy's standard_normal() returns raw r's value when u is k * 2**-53."""
        first = with_output(r, 7)
        second = with_output(k << 11, 2**63 + 2)
        if not (second - first * multiplier) & 1:  # inc must be odd
            second = with_output(k << 11, 2**63 + 3)
        inc = (second - first * multiplier) % 2**128
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                 "state": {"state": (first - inc) * pow(multiplier, -1, 2**128) % 2**128, "inc": inc}}
        bitgen.state = state
        assert bitgen.random_raw(2).tolist() == [r, k << 11]
        bitgen.state = state
        rng.standard_normal()
        return bitgen.state["state"]["state"] == second

    ahead = synth._Lookahead(0, 1, 30)

    def verdict(r, k):
        ahead._load(0, np.array([r, k << 11], dtype=np.uint64))
        return int(ahead.reads[0])

    ki, _ = synth._ziggurat_tables()
    assert verdict(int(ki[0]) << 9, 2**52) == 0  # layer 0 goes on to the tail: numpy's own call
    for idx in range(1, 256):
        r = idx | (int(ki[idx]) + 2**52) // 2 << 9  # halfway through the slow part of the layer
        first, last = 0, 2**53  # numpy keeps r's value for every k below some bound in [first, last]
        while first < last:
            mid = (first + last) // 2
            first, last = (mid + 1, last) if numpy_keeps(r, mid) else (first, mid)
        for k in (0, first - 2**40, first - 1, first, first + 2**40, 2**53 - 1):
            if 0 <= k < 2**53:
                assert verdict(r, k) in (0, 2 if k < first else -2)
                if abs(k - first) >= 2**40:  # more than 1e-9 from the turn
                    assert verdict(r, k) == (2 if k < first else -2)


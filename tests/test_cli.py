import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowrhythm
from flowrhythm.cli import _sha256_file, main

# sha256 of readings.csv from the packaged demo scenario; pinned because the
# generator is seeded and must stay byte-for-byte reproducible.
GOLDEN_DEMO_DIGEST = "c59eb6fda23d442bf399c7dc493dcc645e173c59a32aa3b4ee66e16f9eb0d037"
# config_digest of the packaged demo's simulate manifest: the scenario as
# scenario_to_json writes it, which must not drift with the code that writes it.
GOLDEN_DEMO_CONFIG_DIGEST = "sha256:2d7b8151c9475f9dc72acc4183b7cf4566dd542ccfbba3acfcfb77565b2fedbe"

# sha256 of readings.csv that simulate writes from DECADE_SCENARIO, the
# benchmark's decade household for seed 1: 344,424 readings, whose draws
# hold about 5,000 slow-path normals.
GOLDEN_DECADE_DIGEST = "bcc81899da04d2f1d2f8c37933551d000291a9f40b079ec839dae0d22ad614b5"
DECADE_SCENARIO = {
    "start": "2010-01-01",
    "end": "2019-12-31",
    "timezone": "America/New_York",
    "seed": 1,
    "noise_sd": 0.8,
    "jitter": [1, 30],
    "dropout_rate": 0.0007,
    "vacations": [
        ["2010-06-18", "2010-06-25"], ["2011-07-03", "2011-07-10"], ["2012-08-03", "2012-08-16"],
        ["2013-07-31", "2013-08-12"], ["2014-06-27", "2014-07-04"], ["2015-08-02", "2015-08-08"],
        ["2016-07-20", "2016-08-01"], ["2017-08-17", "2017-08-23"], ["2018-07-28", "2018-08-07"],
        ["2019-06-30", "2019-07-07"],
    ],
}

FLAT_SCENARIO = {
    "start": "2021-03-01",
    "end": "2021-03-30",
    "timezone": "UTC",
    "seed": 11,
    "jitter": [0, 0],
}


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def flat_dir(tmp_path):
    """Scenario file plus simulated readings for a 30-day flat household."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(FLAT_SCENARIO))
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    return out


def test_simulate_demo_golden_digest(tmp_path):
    out = tmp_path / "demo"
    assert main(["simulate", "--out", str(out)]) == 0
    assert sha(out / "readings.csv") == GOLDEN_DEMO_DIGEST
    assert (out / "calendar.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_digest"] == GOLDEN_DEMO_CONFIG_DIGEST


def test_simulate_decade_golden_digest(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(DECADE_SCENARIO))
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "sim")]) == 0
    assert sha(tmp_path / "sim" / "readings.csv") == GOLDEN_DECADE_DIGEST


@pytest.mark.parametrize("scenario, fmt", [
    (None, "csv"),
    ({**FLAT_SCENARIO, "noise_sd": 0.5, "daily_pattern": {"period_hours": 24.0, "amplitude": 4.0}}, "jsonl"),
], ids=["demo", "tone"])
def test_manifest_scenario_simulates_the_same_readings(tmp_path, scenario, fmt):
    # The scenario a manifest records is a scenario file that makes the same readings.
    argv = ["simulate", "--format", fmt]
    if scenario is not None:
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        argv += ["--scenario", str(tmp_path / "scenario.json")]
    assert main([*argv, "--out", str(tmp_path / "sim")]) == 0
    recorded = json.loads((tmp_path / "sim" / "manifest.json").read_text())["config"]["scenario"]
    (tmp_path / "recorded.json").write_text(json.dumps(recorded))
    assert main(["simulate", "--scenario", str(tmp_path / "recorded.json"), "--format", fmt,
                 "--out", str(tmp_path / "again")]) == 0
    name = f"readings.{fmt}"
    assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "sim" / name).read_bytes()


def test_main_module_runs_the_cli_only_as_a_script():
    # pydoc and other tools import flowrhythm.__main__; that must not run the CLI.
    env = dict(os.environ, PYTHONPATH=str(Path(flowrhythm.__file__).resolve().parents[1]))

    def run(*args):
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert run("-c", "import flowrhythm.__main__") == (0, "", "")
    assert run("-m", "flowrhythm", "--version") == (0, f"flowrhythm {flowrhythm.__version__}\n", "")


def test_only_simulate_loads_the_generator(tmp_path, flat_dir):
    # The other commands never import flowrhythm.synth, so they do not compile it either.
    env = dict(os.environ, PYTHONPATH=str(Path(flowrhythm.__file__).resolve().parents[1]))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(FLAT_SCENARIO))
    for argv in (["ingest", str(flat_dir / "readings.csv")], ["simulate", "--scenario", str(scenario)]):
        argv += ["--out", str(tmp_path / argv[0])]
        code = ("import sys; from flowrhythm.cli import main; "
                f"print(main({argv!r}), 'flowrhythm.synth' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == f"0 {argv[0] == 'simulate'}"


def test_simulate_seed_override_changes_output(tmp_path):
    out = tmp_path / "demo"
    assert main(["simulate", "--out", str(out), "--seed", "7"]) == 0
    assert sha(out / "readings.csv") != GOLDEN_DEMO_DIGEST


def test_simulate_jsonl_format(tmp_path, flat_dir):
    out = tmp_path / "jl"
    scenario = tmp_path / "scenario.json"
    assert main(["simulate", "--scenario", str(scenario), "--format", "jsonl",
                 "--out", str(out)]) == 0
    first = json.loads((out / "readings.jsonl").read_text().splitlines()[0])
    assert set(first) == {"ts", "litres_total"}


def test_ingest_summary(tmp_path, flat_dir):
    out = tmp_path / "ingest"
    assert main(["ingest", str(flat_dir / "readings.csv"), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_readings"] == 2881  # anchor + 96 * 30 at zero jitter
    assert summary["n_binned_days"] == 30
    assert summary["timezone"] == "UTC"
    assert summary["total_litres"] > 0


def test_profile_outputs_and_peaks(tmp_path):
    out = tmp_path / "demo"
    assert main(["simulate", "--out", str(out)]) == 0
    prof = tmp_path / "profile"
    assert main([
        "profile", str(out / "readings.csv"),
        "--timezone", "Europe/Dublin",
        "--calendar", str(out / "calendar.txt"),
        "--out", str(prof),
    ]) == 0
    rows = {}
    for group in ("weekday", "saturday", "sunday"):
        lines = (prof / f"profile_{group}.csv").read_text().splitlines()
        assert lines[0] == "bin_index,local_time,mean_litres,std_litres,n_days"
        assert len(lines) == 97
        means = [float(l.split(",")[2]) for l in lines[1:]]
        rows[group] = means.index(max(means))
    assert rows["weekday"] == 28
    assert rows["saturday"] == 40
    assert rows["sunday"] == 40


def test_profile_all_days_excluded(tmp_path, flat_dir):
    calendar = tmp_path / "cal.txt"
    calendar.write_text("2021-02-01..2021-04-30,weather\n")
    rc = main([
        "profile", str(flat_dir / "readings.csv"),
        "--calendar", str(calendar), "--out", str(tmp_path / "p"),
    ])
    assert rc == 3


def test_periodogram_window_artifacts(tmp_path, flat_dir):
    out = tmp_path / "pg"
    assert main(["periodogram", str(flat_dir / "readings.csv"), "--out", str(out)]) == 0
    lines = (out / "periodogram.csv").read_text().splitlines()
    assert lines[0] == "frequency_cph,period_hours,power"
    assert len(lines) == 60  # header + 59 grid points
    meta = json.loads((out / "periodogram.meta.json").read_text())
    assert meta["window_start"] == "2021-03-01"
    assert meta["estimator"] == "lomb_scargle"
    # day one lacks slot 0: nothing closes at the anchor midnight itself
    assert meta["n_samples"] == 959


def test_periodogram_start_selection(tmp_path, flat_dir):
    out = tmp_path / "pg2"
    assert main(["periodogram", str(flat_dir / "readings.csv"),
                 "--start", "2021-03-05", "--out", str(out)]) == 0
    meta = json.loads((out / "periodogram.meta.json").read_text())
    assert meta["window_start"] == "2021-03-05"


def test_periodogram_bad_start(tmp_path, flat_dir):
    rc = main(["periodogram", str(flat_dir / "readings.csv"),
               "--start", "2021-04-20", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_periodogram_classic_window_with_inner_hole_exits_three(tmp_path, flat_dir):
    calendar = tmp_path / "cal.txt"
    calendar.write_text("2021-03-15,hardware\n")
    base = ["periodogram", str(flat_dir / "readings.csv"), "--calendar", str(calendar),
            "--estimator", "classic"]
    # the excluded day opens this window, so its samples stay contiguous
    assert main(base + ["--start", "2021-03-15", "--out", str(tmp_path / "edge")]) == 0
    assert main(base + ["--start", "2021-03-10", "--out", str(tmp_path / "hole")]) == 3


def test_track_point_count(tmp_path, flat_dir):
    out = tmp_path / "track"
    assert main(["track", str(flat_dir / "readings.csv"), "--out", str(out)]) == 0
    lines = (out / "intensity.csv").read_text().splitlines()
    # 30 days -> 21 windows, two target periods each
    assert len(lines) == 1 + 21 * 2
    assert (out / "overlay.csv").exists()


def test_track_rerun_byte_identical(tmp_path, flat_dir):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["track", str(flat_dir / "readings.csv"), "--out", str(out)]) == 0
    assert (a / "intensity.csv").read_bytes() == (b / "intensity.csv").read_bytes()
    assert (a / "overlay.csv").read_bytes() == (b / "overlay.csv").read_bytes()


def test_manifest_config_digest_stable(tmp_path, flat_dir):
    a = tmp_path / "a"
    b = tmp_path / "b"
    digests = []
    for out in (a, b):
        assert main(["track", str(flat_dir / "readings.csv"), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "flowrhythm"
        assert manifest["inputs"]  # input files digested
        for v in manifest["inputs"].values():
            assert v.startswith("sha256:")
        digests.append(manifest["config_digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 5 * (1 << 19) + 7])
def test_manifest_input_digest_is_the_whole_files_sha256(tmp_path, size):
    path = tmp_path / "input.bin"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert _sha256_file(path) == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_track_bad_stride_exits_two(tmp_path, flat_dir):
    rc = main(["track", str(flat_dir / "readings.csv"),
               "--stride-days", "0", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_track_off_grid_period_exits_two(tmp_path, flat_dir):
    rc = main(["track", str(flat_dir / "readings.csv"),
               "--periods", "13", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_missing_scenario_exits_two(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_simulate_jitter_span_of_2_to_the_32_or_more_exits_two(tmp_path, capsys):
    # 2**63 is past numpy's int64 bound too: it must fail as a config error.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**FLAT_SCENARIO, "jitter": [0, 2**63]}))
    rc = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "jitter" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    {"timezone": 5},
    {"noise_sd": "x"},
    {"initial_litres": None},
    {"weekday_template": ["a"]},
    {"weekday_template": 5},
    {"daily_pattern": {"period_hours": "x", "amplitude": 1}},
    {"seed": True},
    {"jitter": [True, 5]},
])
def test_simulate_wrongly_typed_scenario_values_exit_two(tmp_path, capsys, field):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**FLAT_SCENARIO, **field}))
    assert main(["--json-errors", "simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("content", [
    b'{"start": "2021-03-01", "end": "2021-03-30", "timezone": "Europe/Dubl\xedn"}',
    b"[" * 100_000,
    b"1" * 5_000,
], ids=["not-utf8", "deeply-nested", "5000-digits"])
def test_unreadable_scenario_file_exits_two_naming_it(tmp_path, capsys, content):
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(content)
    assert main(["--json-errors", "simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidConfig"
    # Pythons without an integer digit limit read 5,000 digits as a number, not an object.
    if content[0] != ord("1") or hasattr(sys, "get_int_max_str_digits"):
        assert str(scenario) in payload["message"]


@pytest.mark.parametrize("field", [
    {"noise_sd": 1e308},
    {"daily_pattern": {"period_hours": 24.0, "amplitude": 1e308}},
])
def test_simulate_counter_overflow_exits_two(tmp_path, capsys, field):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**FLAT_SCENARIO, "noise_sd": 1.0, **field}))
    assert main(["--json-errors", "simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidConfig"
    assert "overflows" in payload["message"]


def test_missing_readings_exits_two(tmp_path):
    rc = main(["ingest", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_bad_timezone_exits_two(tmp_path, flat_dir):
    rc = main(["ingest", str(flat_dir / "readings.csv"),
               "--timezone", "Mars/Olympus", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_json_errors_payload(tmp_path, capsys):
    rc = main(["--json-errors", "ingest", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["exit_code"] == 2
    assert "absent.csv" in payload["message"]
    assert payload["error"]


def test_ingest_total_litres_sums_within_counter_segments(tmp_path):
    # 5.0 litres are read before the counter resets to 0.5: last - first
    # would say 0.5.
    readings = tmp_path / "reset.csv"
    readings.write_text(
        "timestamp,cumulative_litres\n"
        "2021-03-01T00:00:00Z,0.0\n"
        "2021-03-01T00:15:00Z,2.0\n"
        "2021-03-01T00:30:00Z,5.0\n"
        "2021-03-01T00:45:00Z,0.5\n"
    )
    out = tmp_path / "ingest"
    assert main(["ingest", str(readings), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_litres"] == 5.0
    assert summary["n_readings"] == 4


def test_ingest_jsonl_integer_too_large_for_a_float_exits_three(tmp_path, capsys):
    readings = tmp_path / "huge.jsonl"
    readings.write_text('{"ts": "2021-03-01T00:00:00Z", "litres_total": 1' + "0" * 400 + "}\n")
    assert main(["ingest", str(readings), "--out", str(tmp_path / "ingest")]) == 3
    assert "row 1" in capsys.readouterr().err


def test_ingest_summary_stamps_are_the_written_readings_ends(tmp_path):
    readings = tmp_path / "offsets.csv"
    readings.write_text(
        "timestamp,cumulative_litres\n"
        "2021-03-01T01:00:00+01:00,1.0\n"
        "2021-03-01T00:15:00Z,2.0\n"
        "2021-03-01T02:30:00+02:00,4.0\n"
    )
    out = tmp_path / "ingest"
    assert main(["ingest", str(readings), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    rows = (out / "readings.csv").read_text().splitlines()[1:]
    assert summary["first"] == rows[0].split(",")[0] == "2021-03-01T00:00:00+00:00"
    assert summary["last"] == rows[-1].split(",")[0] == "2021-03-01T00:30:00+00:00"


def test_zero_retained_days(tmp_path, capsys):
    # Hourly readings observe 24 of a day's 96 slots, under the default 92:
    # ingest reports zero days, the analyses fail on data.
    hourly = tmp_path / "hourly.csv"
    hourly.write_text("".join(f"2021-03-{1 + h // 24:02d}T{h % 24:02d}:00:00Z,{h}\n" for h in range(72)))
    base = [str(hourly)]
    out = tmp_path / "ingest"
    assert main(["ingest", *base, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["n_binned_days"] == 0
    capsys.readouterr()
    for command, error in (("profile", "NoMatchingDays"), ("track", "EmptyInput")):
        assert main(["--json-errors", command, *base, "--out", str(tmp_path / command)]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == error


@pytest.mark.parametrize("command", ["ingest", "track"])
@pytest.mark.parametrize("slots", ["-1", "97"])
def test_min_valid_slots_outside_0_to_96_exits_two(tmp_path, flat_dir, capsys, command, slots):
    argv = [command, str(flat_dir / "readings.csv"), "--min-valid-slots", slots, "--out", str(tmp_path / "x")]
    assert main(["--json-errors", *argv]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidConfig"
    assert "min_valid_slots" in payload["message"]
    assert not (tmp_path / "x" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["ingest", "profile", "periodogram", "track"])
def test_min_valid_slots_is_checked_before_the_readings_are_read(tmp_path, capsys, command):
    # The file is malformed (exit 3), but the flag's error comes first.
    readings = tmp_path / "bad.csv"
    readings.write_text("2021-03-01T00:00:00Z,not a number\n")
    argv = [command, str(readings), "--min-valid-slots", "97", "--out", str(tmp_path / "x")]
    assert main(["--json-errors", *argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"


def test_track_repeated_period_exits_two(tmp_path, flat_dir):
    out = tmp_path / "x"
    rc = main(["track", str(flat_dir / "readings.csv"), "--periods", "24,24", "--out", str(out)])
    assert rc == 2
    assert not (out / "intensity.csv").exists()


def test_readings_byte_not_utf8_exits_three_with_its_line(tmp_path, capsys):
    readings = tmp_path / "latin1.csv"
    readings.write_bytes(
        b"timestamp,cumulative_litres\n"
        b"2021-03-01T00:00:00Z,1.0\n"
        b"2021-03-01T00:15:00Z,2.0 \xb5l\n"
    )
    assert main(["--json-errors", "ingest", str(readings), "--out", str(tmp_path / "x")]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "MalformedRow"
    assert payload["message"].startswith("row 3:")


def test_calendar_byte_not_utf8_exits_three(tmp_path, flat_dir, capsys):
    calendar = tmp_path / "cal.txt"
    calendar.write_bytes(b"2021-03-05,holiday # f\xeate\n")
    rc = main(["--json-errors", "profile", str(flat_dir / "readings.csv"),
               "--calendar", str(calendar), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "CalendarError"


def test_directory_as_input_file_exits_two(tmp_path, flat_dir, capsys):
    readings = str(flat_dir / "readings.csv")
    for args in (["ingest", str(tmp_path)], ["track", readings, "--calendar", str(tmp_path)]):
        assert main(["--json-errors", *args, "--out", str(tmp_path / "x")]) == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "InvalidConfig"


def test_manifest_config_records_every_flag_but_the_paths(tmp_path):
    demo = tmp_path / "demo"
    assert main(["simulate", "--out", str(demo)]) == 0
    readings, calendar = str(demo / "readings.csv"), str(demo / "calendar.txt")
    common = {"timezone": "Europe/Dublin", "min_valid_slots": 92}
    window = {"stride_days": 1, "estimator": "ls", "normalization": "raw"}
    runs = {
        "ingest": ([], common),
        "profile": (["--calendar", calendar], {**common, "calendar": calendar, "std": "population"}),
        # The calendar's first excluded day, 2017-09-20, rules out every
        # complete 14-day window that starts before 2017-09-21.
        "periodogram": (
            ["--calendar", calendar, "--periods", "24", "--window-days", "14", "--min-valid-days", "14"],
            {**common, **window, "calendar": calendar, "periods": [24.0], "window_days": 14,
             "min_valid_days": 14, "start": "2017-09-21"},
        ),
        "track": (
            ["--periods", "24,12"],
            {**common, **window, "calendar": None, "periods": [24.0, 12.0], "window_days": 10,
             "min_valid_days": 8},
        ),
    }
    for command, (flags, config) in runs.items():
        out = tmp_path / command
        assert main([command, readings, "--timezone", "Europe/Dublin", *flags, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # Each flag is recorded once, inside config.
        assert set(manifest) == {
            "tool", "tool_version", "command", "timestamp", "config", "config_digest", "inputs",
        } | ({"vacation_ranges"} if command == "track" else set()), command
        recorded = manifest["config"]
        assert recorded == config, command
        assert all(type(p) is float for p in recorded.get("periods", []))


def test_ingest_csv_field_over_the_csv_modules_limit_exits_three(tmp_path, capsys):
    # The csv module refuses a field over 131,072 bytes with its own error.
    readings = tmp_path / "long_field.csv"
    readings.write_text("timestamp,cumulative_litres\n2021-03-01T00:00:00Z,1.0\n" + "x" * 200_000 + ",2.0\n")
    assert main(["--json-errors", "ingest", str(readings), "--out", str(tmp_path / "x")]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "MalformedRow"
    assert payload["message"].startswith("row 3:")


@pytest.mark.parametrize("rows, line", [
    (["0001-01-01T00:30:00+01:00,1.0", "0001-01-03T00:00:00Z,2.0"], 2),  # year 0 in UTC
    (["9999-12-30T00:00:00Z,1.0", "9999-12-31T23:00:00-02:00,2.0"], 3),  # year 10000 in UTC
])
def test_ingest_instant_outside_the_stream_range_exits_three(tmp_path, capsys, rows, line):
    readings = tmp_path / "edge.csv"
    readings.write_text("\n".join(["timestamp,cumulative_litres", *rows]) + "\n")
    assert main(["--json-errors", "ingest", str(readings), "--out", str(tmp_path / "x")]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "MalformedRow"
    assert payload["message"].startswith(f"row {line}:")


@pytest.mark.parametrize("dates", [
    {"start": "9999-12-01", "end": "9999-12-31"},
    {"start": "0001-01-01", "end": "0001-01-05", "timezone": "Asia/Tokyo"},
])
def test_simulate_dates_outside_the_stream_range_exit_two(tmp_path, capsys, dates):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**FLAT_SCENARIO, **dates}))
    assert main(["--json-errors", "simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidConfig"
    assert "0001-01-03 to 9999-12-29" in payload["message"]

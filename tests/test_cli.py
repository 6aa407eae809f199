import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from flowrhythm.cli import _sha256_file, main

# sha256 of readings.csv from the packaged demo scenario; pinned because the
# generator is seeded and must stay byte-for-byte reproducible.
GOLDEN_DEMO_DIGEST = "c59eb6fda23d442bf399c7dc493dcc645e173c59a32aa3b4ee66e16f9eb0d037"

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
    assert (out / "manifest.json").exists()


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


def test_zero_retained_days(tmp_path, flat_dir, capsys):
    # No day has 97 of 96 slots: ingest reports zero days, the analyses fail on data.
    base = [str(flat_dir / "readings.csv"), "--min-valid-slots", "97"]
    out = tmp_path / "ingest"
    assert main(["ingest", *base, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["n_binned_days"] == 0
    capsys.readouterr()
    for command, error in (("profile", "NoMatchingDays"), ("track", "EmptyInput")):
        assert main(["--json-errors", command, *base, "--out", str(tmp_path / command)]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == error


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

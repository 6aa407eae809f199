import gc
import hashlib
import inspect
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import flowrhythm
from conftest import kernel_only, row_parser_calls
from flowrhythm import binning, readings, spectral, tracking
from flowrhythm.cli import _sha256_file, build_parser, main

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


def test_a_decade_with_a_trailing_blank_line_is_read_on_the_fast_path(tmp_path):
    # The row parser skips a line of spaces, and so does the fast path: the
    # file is still read and binned block by block, within the bound of a
    # command that holds its days. A chunk the fast path declines, at the
    # last line or mid-file, is read alone by the row parser, and the pass
    # goes on, within the same bound, to the same days.
    (tmp_path / "scenario.json").write_text(json.dumps(DECADE_SCENARIO))
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "sim")]) == 0
    plain = tmp_path / "sim" / "readings.csv"
    lines = plain.read_bytes().splitlines(keepends=True)
    mid = len(lines) // 2
    copies = {
        "blank": b"".join(lines) + b"   \n",
        "late": b"".join(lines[:-1] + [lines[-1].replace(b"+00:00,", b".0+00:00,")]),
        "spaced": b"".join(lines[:mid] + [lines[mid].replace(b",", b", ")] + lines[mid + 1 :]),
    }
    del lines
    tz = binning.zone_named(DECADE_SCENARIO["timezone"])

    def days_of(path):
        tracemalloc.start()
        try:
            days = binning.bin_blocks(binning._clean_blocks(readings.read_blocks(path), ""), tz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return days, peak

    with kernel_only():
        days, peak = days_of(plain)
    bound = 3 * 2**20 + 2048 * len(days.retained)
    assert peak <= bound
    for name, data in copies.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        with row_parser_calls() as calls:
            copy_days, copy_peak = days_of(path)
        assert copy_peak <= bound, name
        # The blank line stays on the fast path; the row parser reads the one chunk of each other defect.
        assert len(calls) == (name != "blank"), name
        assert copy_days.first == days.first and copy_days.retained.tolist() == days.retained.tolist(), name
        assert copy_days.values.tobytes() == days.values.tobytes(), name


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


def test_main_module_runs_the_cli_only_as_a_script(tmp_path, flat_dir):
    # pydoc and other tools import flowrhythm.__main__; that must not run the
    # CLI, nor switch off the cyclic collector or freeze the heap, which only
    # the process entry point does.
    env = dict(os.environ, PYTHONPATH=str(Path(flowrhythm.__file__).resolve().parents[1]))

    def run(*args):
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert run("-c", "import flowrhythm.__main__") == (0, "", "")
    assert run("-c", "import gc, flowrhythm.__main__; print(gc.isenabled(), gc.get_freeze_count())") == (
        0, "True 0\n", "")
    assert run("-m", "flowrhythm", "--version") == (0, f"flowrhythm {flowrhythm.__version__}\n", "")

    # run() freezes the heap once main() has ended, by whatever route; an
    # atexit hook, which runs before finalization's collections, sees it.
    def entry(argv, before=""):
        return run("-c", "import atexit, gc, sys\n"
                         "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
                         f"sys.argv[1:] = {[str(a) for a in argv]!r}\n"
                         "from flowrhythm import cli\n"
                         f"{before}cli.run()")

    frozen = "False True\n"
    readings_csv = flat_dir / "readings.csv"
    code, out, err = entry(["ingest", readings_csv, "--out", tmp_path / "ok"])
    assert code == 0 and "Traceback" not in err and out.startswith("ingested ") and out.endswith(f" day(s)\n{frozen}")
    assert (tmp_path / "ok" / "manifest.json").is_file()
    missing = tmp_path / "missing.txt"
    assert entry(["profile", readings_csv, "--calendar", missing, "--out", tmp_path / "x"]) == (
        2, frozen, f"flowrhythm: error: calendar file not found: {missing}\n")
    lines = readings_csv.read_text().splitlines()
    lines[-1] = lines[-2].split(",")[0] + "," + lines[-1].split(",")[1]
    (tmp_path / "repeat.csv").write_text("\n".join(lines) + "\n")
    code, out, err = entry(["ingest", tmp_path / "repeat.csv", "--out", tmp_path / "repeat"])
    assert (code, out) == (3, frozen) and f"row {len(lines)}: timestamp does not increase" in err
    assert entry(["--version"]) == (0, f"flowrhythm {flowrhythm.__version__}\n{frozen}", "")
    code, out, err = entry(["track"])
    assert (code, out) == (2, frozen) and err.startswith("usage: ") and "required: readings, --out" in err
    code, out, err = entry([], before="def boom(): raise RuntimeError('boom')\ncli.main = boom\n")
    assert (code, out) == (1, frozen) and err.startswith("Traceback") and err.endswith("RuntimeError: boom\n")

    # In process, main() leaves the collector as it found it and freezes nothing.
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen_before = gc.get_freeze_count()
            assert main(["ingest", str(readings_csv), "--out", str(tmp_path / "in")]) == 0
            assert gc.isenabled() == enabled
            assert gc.get_freeze_count() == frozen_before
    finally:
        (gc.enable if was else gc.disable)()


DEMO_COMMANDS = [
    ["simulate", "--out", "sim"],
    ["ingest", "sim/readings.csv", "--timezone", "Europe/Dublin", "--out", "ing"],
    *([command, "sim/readings.csv", "--timezone", "Europe/Dublin", "--calendar", "sim/calendar.txt", "--out", out]
      for command, out in [("profile", "prof"), ("periodogram", "pg"), ("track", "trk")]),
]


def test_entry_point_outputs_equal_in_process_outputs(tmp_path, monkeypatch, capsys, caplog):
    # Every file and every line a command prints reaches its destination
    # through the process entry point, which freezes the heap before exit,
    # as it does in process. Redirected to files, the standard streams are
    # block-buffered, so output left to an exit-time flush that was lost
    # would show.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(flowrhythm.__file__).resolve().parents[1]))
    by_process, in_process, streams = tmp_path / "process", tmp_path / "in_process", tmp_path / "streams"
    for d in (by_process, in_process, streams):
        d.mkdir()
    printed = {}
    for i, argv in enumerate(DEMO_COMMANDS):
        with open(streams / f"{i}.out", "wb") as out, open(streams / f"{i}.err", "wb") as err:
            done = subprocess.run([sys.executable, "-m", "flowrhythm", *argv], cwd=by_process, env=env,
                                  stdout=out, stderr=err, timeout=300)
        printed[i] = (done.returncode, (streams / f"{i}.out").read_text(), (streams / f"{i}.err").read_text())
    monkeypatch.chdir(in_process)
    for i, argv in enumerate(DEMO_COMMANDS):
        caplog.clear()
        code = main(argv)
        captured = capsys.readouterr()
        # A process with no logging set up writes each warning to stderr as
        # its bare message; in process, pytest's handler takes the records.
        warned = "".join(f"{r.getMessage()}\n" for r in caplog.records if r.levelno >= logging.WARNING)
        assert printed[i] == (code, captured.out, warned + captured.err), argv
    assert any(err for _, _, err in printed.values())  # the demo's warnings are compared too

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    expected = files(in_process)
    assert len(expected) == 16
    assert files(by_process) == expected
    assert json.loads(expected[Path("trk", "manifest.json")])["timestamp"] == "1970-01-01T00:00:00+00:00"


CLI_ONLY = {"flowrhythm.cli", "flowrhythm.errors"}
READ = CLI_ONLY | {"numpy", "flowrhythm.readings", "flowrhythm.floattext", "flowrhythm.binning"}
ANALYSE = READ | {"flowrhythm.exclusions", "flowrhythm.spectral", "flowrhythm.tracking"}


@pytest.mark.parametrize("argv, loaded", [
    (["--version"], CLI_ONLY),
    (["--help"], CLI_ONLY),
    (["track", "--help"], CLI_ONLY),
    (["simulate", "--scenario", "{scenario}"],
     READ | {"flowrhythm.exclusions", "flowrhythm.synth", "flowrhythm.data"}),
    (["ingest", "{readings}"], READ),
    (["profile", "{readings}", "--calendar", "{calendar}"], READ | {"flowrhythm.exclusions"}),
    (["periodogram", "{readings}", "--calendar", "{calendar}"], ANALYSE),
    (["track", "{readings}", "--calendar", "{calendar}"], ANALYSE),
], ids=["version", "help", "track-help", "simulate", "ingest", "profile", "periodogram", "track"])
def test_each_command_loads_only_its_stages(tmp_path, flat_dir, argv, loaded):
    # A command's process imports (and compiles) only the modules it runs;
    # --version and --help import no numpy.
    env = dict(os.environ, PYTHONPATH=str(Path(flowrhythm.__file__).resolve().parents[1]))
    (tmp_path / "scenario.json").write_text(json.dumps(FLAT_SCENARIO))
    (tmp_path / "calendar.txt").write_text("2021-03-10,vacation\n")
    paths = {"scenario": tmp_path / "scenario.json", "readings": flat_dir / "readings.csv",
             "calendar": tmp_path / "calendar.txt"}
    argv = [a.format(**paths) for a in argv]
    if "--help" not in argv and "--version" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    code = ("import contextlib, io, sys; from flowrhythm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            f"    main({argv!r})\n"
            "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('flowrhythm.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) == loaded
    if "--help" not in argv and "--version" not in argv:
        assert (tmp_path / "out" / "manifest.json").is_file()


def test_version_loads_neither_dataclasses_nor_hashlib():
    # Without site, so that only what the command itself imports is loaded.
    env = dict(os.environ, PYTHONPATH=str(Path(flowrhythm.__file__).resolve().parents[1]))
    code = ("import sys; from flowrhythm.cli import main\n"
            "try:\n    main(['--version'])\nexcept SystemExit:\n    pass\n"
            "print(*sorted({'dataclasses', 'hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"flowrhythm {flowrhythm.__version__}\n\n"


def test_parser_defaults_and_choices_are_the_librarys():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    window = tracking.WindowConfig()
    min_valid_slots = inspect.signature(binning.readings_to_days).parameters["min_valid_slots"].default
    track_defaults = inspect.signature(tracking.compute_track).parameters
    for command in ("ingest", "profile", "periodogram", "track"):
        flags = {a.dest: a for a in commands[command]._actions}
        assert flags["min_valid_slots"].default == min_valid_slots
        if command in ("periodogram", "track"):
            assert flags["window_days"].default == window.window_days
            assert flags["stride_days"].default == window.stride_days
            assert flags["min_valid_days"].default == window.min_valid_days
            assert tuple(float(p) for p in flags["periods"].default.split(",")) == window.target_periods
            assert flags["estimator"].choices == sorted(spectral.ESTIMATORS)
            assert tuple(flags["normalization"].choices) == spectral.NORMALIZATIONS
            assert flags["estimator"].default == track_defaults["estimator"].default
            assert flags["normalization"].default == track_defaults["normalization"].default


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


def test_profile_group_without_days_writes_no_profile(tmp_path):
    # A Monday-to-Friday stream has no Saturday: the run fails before it
    # writes any group's profile, so --out holds no partial output.
    (tmp_path / "scenario.json").write_text(json.dumps({**FLAT_SCENARIO, "end": "2021-03-05"}))
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "sim")]) == 0
    out = tmp_path / "p"
    assert main(["profile", str(tmp_path / "sim" / "readings.csv"), "--out", str(out)]) == 3
    assert list(out.glob("profile_*.csv")) == []


def test_periodogram_window_artifacts(tmp_path, flat_dir):
    out = tmp_path / "pg"
    assert main(["periodogram", str(flat_dir / "readings.csv"), "--out", str(out)]) == 0
    lines = (out / "periodogram.csv").read_text().splitlines()
    assert lines[0] == "frequency_cph,period_hours,power"
    assert len(lines) == 60  # header + 59 grid points
    # day one lacks slot 0: nothing closes at the anchor midnight itself
    assert json.loads((out / "periodogram.meta.json").read_text()) == {
        "estimator": "lomb_scargle",
        "normalization": "raw",
        "n_samples": 959,
        "window_start": "2021-03-01",
        "window_hours": 240.0,
        "n_frequencies": 59,
        "min_frequency_cph": 1 / 120,
        "max_frequency_cph": 0.25,
    }


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


def test_windows_longer_than_the_readings_leave_header_only_files(tmp_path, flat_dir, capsys):
    base = [str(flat_dir / "readings.csv"), "--window-days", "60", "--min-valid-days", "1"]
    assert main(["track", *base, "--out", str(tmp_path / "trk")]) == 0
    assert (tmp_path / "trk" / "intensity.csv").read_text() == "window_start,period_hours,power,valid_days,skipped\n"
    assert (tmp_path / "trk" / "overlay.csv").read_text() == "window_start,frequency_cph,period_hours,power\n"
    assert main(["periodogram", *base, "--out", str(tmp_path / "pg")]) == 3
    assert "no window has enough valid days" in capsys.readouterr().err


def test_periodogram_rows_are_its_windows_overlay_rows(tmp_path, flat_dir):
    base = [str(flat_dir / "readings.csv"), "--stride-days", "2"]
    assert main(["track", *base, "--out", str(tmp_path / "trk")]) == 0
    assert main(["periodogram", *base, "--start", "2021-03-05", "--out", str(tmp_path / "pg")]) == 0
    overlay = (tmp_path / "trk" / "overlay.csv").read_text().splitlines()[1:]
    rows = [line.split(",", 1)[1] for line in overlay if line.startswith("2021-03-05,")]
    assert len(rows) == 59
    assert (tmp_path / "pg" / "periodogram.csv").read_text().splitlines()[1:] == rows


def test_periodogram_estimates_only_its_window(tmp_path, flat_dir, monkeypatch):
    # The closed form is handed the Moments of every window it estimates.
    label, closed_form, minimum = spectral.ESTIMATORS["ls"]
    estimated = []

    def recorder(m, normalization):
        estimated.append(len(m.n))
        return closed_form(m, normalization)

    monkeypatch.setitem(spectral.ESTIMATORS, "ls", (label, recorder, minimum))
    readings = str(flat_dir / "readings.csv")
    assert main(["periodogram", readings, "--out", str(tmp_path / "pg")]) == 0
    assert main(["periodogram", readings, "--start", "2021-03-05", "--out", str(tmp_path / "pg5")]) == 0
    assert estimated == [1, 1]
    assert main(["track", readings, "--out", str(tmp_path / "trk")]) == 0
    assert estimated == [1, 1, 21]


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


@pytest.mark.parametrize("epoch", ["abc", "99999999999999", "1.5"])
@pytest.mark.parametrize("command", ["ingest", "simulate"])
def test_a_bad_source_date_epoch_exits_two_before_any_output(tmp_path, flat_dir, capsys, monkeypatch, command, epoch):
    # SOURCE_DATE_EPOCH is read before any input is read or any output is
    # written, so a value that is not an integer, or is outside datetime's
    # range, leaves --out as it was rather than without its manifest.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "out"
    out.mkdir()
    argv = [command, str(flat_dir / "readings.csv")] if command == "ingest" else [command]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"flowrhythm: error: bad SOURCE_DATE_EPOCH value {epoch!r}: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("size", [
    0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 5 * (1 << 19) + 7,
])
def test_manifest_input_digest_is_the_whole_files_sha256(tmp_path, size):
    path = tmp_path / "input.bin"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert _sha256_file(path) == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_an_in_place_ingest_records_the_digest_of_the_input_it_read(tmp_path, flat_dir):
    # ingest rewrites a CR LF file with LF line ends, here over the file it
    # read; the manifest holds the digest of the input as read.
    path = tmp_path / "d" / "readings.csv"
    path.parent.mkdir()
    path.write_bytes((flat_dir / "readings.csv").read_bytes().replace(b"\n", b"\r\n"))
    before = sha(path)
    assert main(["ingest", str(path), "--out", str(path.parent)]) == 0
    assert path.read_bytes() == (flat_dir / "readings.csv").read_bytes()
    assert json.loads((path.parent / "manifest.json").read_text())["inputs"] == {str(path): "sha256:" + before}


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


@pytest.mark.parametrize("text", ["20180101", "2018-W01-1"])
def test_dates_other_than_yyyy_mm_dd_are_rejected(tmp_path, flat_dir, capsys, text):
    # From Python 3.11 on, date.fromisoformat reads both as 2018-01-01; a
    # calendar, a scenario and --start must mean the same on every Python.
    readings = str(flat_dir / "readings.csv")
    calendar = tmp_path / "cal.txt"
    calendar.write_text(f"{text},vacation\n")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**FLAT_SCENARIO, "start": text, "end": "2018-01-10"}))
    capsys.readouterr()
    assert main(["profile", readings, "--calendar", str(calendar), "--out", str(tmp_path / "p")]) == 3
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "s")]) == 2
    assert main(["periodogram", readings, "--start", text, "--out", str(tmp_path / "g")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("flowrhythm: error:")]
    assert len(errors) == 3 and all(repr(text) in line for line in errors)


@pytest.mark.parametrize("out", ["readings.csv", "readings.csv/x"])
def test_out_naming_a_file_exits_two(flat_dir, capsys, out):
    path = flat_dir / out
    capsys.readouterr()
    assert main(["ingest", str(flat_dir / "readings.csv"), "--out", str(path)]) == 2
    assert main(["simulate", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("flowrhythm: error:")]
    assert len(errors) == 2 and all(f"cannot make --out directory {path}: " in line for line in errors)
    assert "Traceback" not in err
    assert main(["--json-errors", "simulate", "--out", str(path)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidConfig" and payload["exit_code"] == 2


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


@pytest.mark.parametrize("command, flags", ids=lambda v: v if isinstance(v, str) else "=".join(v), argvalues=[
    *((command, ["--min-valid-slots", "97"]) for command in ("ingest", "profile", "periodogram", "track")),
    ("periodogram", ["--start", "2018-13-01"]),
    ("periodogram", ["--periods", "13"]),
    ("track", ["--periods", "13"]),
    *((command, ["--calendar", calendar]) for command in ("profile", "periodogram", "track")
      for calendar in ("missing.txt", "unknown-label.txt")),
    *((command, ["--out", "bad.csv"]) for command in ("ingest", "profile", "periodogram", "track")),
    ("simulate", ["--scenario", "overflow.json", "--out", "bad.csv"]),
])
def test_config_is_checked_before_the_readings_are_read(tmp_path, monkeypatch, capsys, command, flags):
    # The file is malformed (exit 3), but the flag's error comes first. A
    # calendar the parser rejects is a data error of its own. An --out naming
    # a file is reported before simulate generates a scenario that overflows.
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text("2021-03-01T00:00:00Z,not a number\n")
    Path("unknown-label.txt").write_text("2018-01-01,picnic\n")
    Path("overflow.json").write_text(json.dumps({**FLAT_SCENARIO, "noise_sd": 1e308}))
    readings = [] if command == "simulate" else ["bad.csv"]
    error, code = ("CalendarError", 3) if "unknown-label.txt" in flags else ("InvalidConfig", 2)
    assert main(["--json-errors", command, *readings, "--out", "x", *flags]) == code
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == error
    if "--out" in flags:
        assert payload["message"].startswith("cannot make --out directory bad.csv: ")


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


@pytest.mark.parametrize("command", ["profile", "periodogram", "track"])
@pytest.mark.parametrize("calendar", [b"9999-12-31,holiday\n", b"\xef\xbb\xbf2021-03-05,holiday\n"])
def test_calendar_on_the_last_date_or_with_a_byte_order_mark_exits_zero(tmp_path, flat_dir, command, calendar):
    (tmp_path / "cal.txt").write_bytes(calendar)
    assert main([command, str(flat_dir / "readings.csv"), "--timezone", "UTC",
                 "--calendar", str(tmp_path / "cal.txt"), "--out", str(tmp_path / "x")]) == 0


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


# --- one streaming pass against the array path ---------------------------------


def edge_case_stream(seed: int) -> readings.ReadingStream:
    """Two stretches of Dublin readings, around the 2021 spring-forward day
    and around the fall-back day, with a counter that drops at three
    readings in a row, three outage gaps in a row, and a burst of readings a
    minute apart. Runs of three put a reader's block edge on a reset and on
    an outage whenever its blocks hold three lines or fewer."""
    rng = np.random.default_rng(seed)
    spring = np.cumsum(rng.integers(900, 930, 14 * 96))
    autumn = np.cumsum(rng.integers(900, 930, 12 * 96))
    epochs = np.concatenate([1_616_544_000 + spring, 1_635_120_000 + autumn])  # 2021-03-24, 2021-10-25 UTC
    at = rng.integers(100, len(epochs) - 100, 3)
    epochs[at[1] :] += 7200 * np.arange(1, 4).repeat([1, 1, len(epochs) - at[1] - 2])
    epochs[at[2] : at[2] + 10] = epochs[at[2] - 1] + 60 * np.arange(1, 11)  # readings a minute apart
    litres = rng.uniform(0.0, 5.0, len(epochs)).cumsum() + rng.uniform(0.0, 1e4)
    for k, restart in enumerate((0.3, 0.2, 0.1)):  # the counter drops at three readings in a row
        litres[at[0] + k :] -= litres[at[0] + k] - restart
    return readings.ReadingStream(epochs, litres)


def _spied_blocks(monkeypatch) -> list[int]:
    """The length of each block the CLI pass hands to binning._clean_blocks."""
    lengths: list[int] = []
    clean = binning._clean_blocks

    def spy(blocks, source_id):
        def seen():
            for block in blocks:
                lengths.append(len(block[0]))
                yield block
        return clean(seen(), source_id)

    monkeypatch.setattr(binning, "_clean_blocks", spy)
    return lengths


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_the_streaming_pass_equals_the_array_path(tmp_path, monkeypatch, caplog, fmt, block_rows):
    stream = edge_case_stream(block_rows)
    path = tmp_path / f"input.{fmt}"
    (readings.write_stream_jsonl if fmt == "jsonl" else readings.write_stream_csv)(stream, path)
    tz = "Europe/Dublin"

    # The array path: the whole stream, then its days.
    expected = tmp_path / "expected"
    expected.mkdir()
    caplog.clear()
    whole = readings.read_stream(path)
    days = binning.readings_to_days(whole, binning.zone_named(tz))
    array_log = [r.getMessage() for r in caplog.records]
    readings.write_stream_csv(whole, expected / "readings.csv")
    summary = {
        "n_readings": len(whole),
        "first": datetime.fromtimestamp(int(whole.epoch_s[0]), timezone.utc).isoformat(),
        "last": datetime.fromtimestamp(int(whole.epoch_s[-1]), timezone.utc).isoformat(),
        "total_litres": readings.segment_litres(whole),
        "n_binned_days": int(days.retained.sum()),
        "timezone": tz,
    }
    (expected / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for group in binning.GROUPS:
        binning.write_profile_csv(binning.profile(days, group), expected / f"profile_{group}.csv")
    track = tracking.compute_track(days, tracking.WindowConfig())
    tracking.write_intensity_csv(track, expected / "intensity.csv")
    tracking.write_overlay_csv(track, expected / "overlay.csv")
    assert len(track.emitted) > 0

    monkeypatch.setattr(readings, "BLOCK_ROWS", block_rows)
    lengths = _spied_blocks(monkeypatch)
    got = tmp_path / "got"
    with kernel_only():  # every block is the fast path's
        for command in ("ingest", "profile", "track"):
            caplog.clear()
            assert main([command, str(path), "--timezone", tz, "--out", str(got)]) == 0
            assert [r.getMessage() for r in caplog.records] == array_log
    assert sorted(p.name for p in got.iterdir()) == sorted([p.name for p in expected.iterdir()] + ["manifest.json"])
    for name in [p.name for p in expected.iterdir()]:
        assert (got / name).read_bytes() == (expected / name).read_bytes(), name
    assert "10 reading pair(s) closer" in array_log[0]
    assert [m.split()[0] for m in array_log[1:]] == ["cumulative", "discarded", "dropped"]

    # Where the last track pass's blocks start, as reading indices.
    starts = set(np.cumsum(lengths[-len(lengths) // 3 :])[:-1].tolist())
    assert sum(lengths) == 3 * len(whole)
    local_days = {
        (datetime.fromtimestamp(int(whole.epoch_s[i]), timezone.utc).astimezone(binning.zone_named(tz))).date()
        for i in starts
    }
    assert {date(2021, 3, 28), date(2021, 10, 31)} <= local_days or block_rows == 4096
    if block_rows == 1:
        drops = set(np.flatnonzero(whole.litres[1:] < whole.litres[:-1]) + 1)
        gaps = set(np.flatnonzero(np.diff(whole.epoch_s) > 2700) + 1)
        assert starts & drops and starts & gaps


def test_a_last_value_the_fast_path_declines_ingests_as_the_row_parser_reads_it(tmp_path, flat_dir):
    # `1e3` does not decode, so the row parser reads the chunk that holds
    # the file's last line, after the fast path has read the chunks before
    # it; the output is that of the array path.
    path = tmp_path / "late.csv"
    lines = (flat_dir / "readings.csv").read_text().splitlines()
    lines[-1] = lines[-1].split(",")[0] + ",1e3"
    path.write_text("\n".join(lines) + "\n")
    with row_parser_calls() as calls:
        stream = readings.read_stream(path)
    assert len(calls) == 1
    assert stream.litres[-1] == 1000.0
    readings.write_stream_csv(stream, tmp_path / "expected.csv")
    assert main(["ingest", str(path), "--out", str(tmp_path / "ing")]) == 0
    assert (tmp_path / "ing" / "readings.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    summary = json.loads((tmp_path / "ing" / "summary.json").read_text())
    assert summary["n_readings"] == len(stream) and summary["total_litres"] == readings.segment_litres(stream)


def test_a_last_row_repeating_its_stamp_exits_three_and_writes_nothing(tmp_path, flat_dir, capsys, monkeypatch):
    # In blocks of about 90 lines, every block but the last is taken and
    # passed on; the last fails the check across rows, so the row parser
    # reads it alone and names the row, and what was written is dropped.
    monkeypatch.setattr(readings, "BLOCK_ROWS", 64)
    lines = (flat_dir / "readings.csv").read_text().splitlines()
    lines[-1] = lines[-2].split(",")[0] + "," + lines[-1].split(",")[1]
    path = tmp_path / "repeat.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ing"
    assert main(["ingest", str(path), "--out", str(out)]) == 3
    assert f"row {len(lines)}: timestamp does not increase" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_an_overflowing_scenario_leaves_no_readings_file(tmp_path, fmt):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**FLAT_SCENARIO, "noise_sd": 1e308}))
    out = tmp_path / "x"
    assert main(["simulate", "--scenario", str(scenario), "--format", fmt, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []

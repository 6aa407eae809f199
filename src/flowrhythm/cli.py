"""Command-line front end.

Subcommands mirror the pipeline stages: simulate, ingest, profile,
periodogram, track. Every run writes its artifacts plus one manifest.json
into --out, recording config and input digests so reruns are auditable.
Exit codes: 0 success, 2 usage or config error, 3 data error.

Each command imports the stage modules it runs in its own body, so a
process loads only those: `--version` and `--help` load no numpy, `ingest`
loads `readings` and `binning`, and only `simulate` loads `synth`.

A command passes its readings from their source to its outputs in one
pass, block by block, and never holds the whole stream. The readings file
it writes is renamed into place only when the pass succeeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from . import (
    DEFAULT_MIN_VALID_DAYS,
    DEFAULT_MIN_VALID_SLOTS,
    DEFAULT_STRIDE_DAYS,
    DEFAULT_WINDOW_DAYS,
    ESTIMATOR_NAMES,
    NORMALIZATIONS,
    TARGET_PERIODS_HOURS,
    __version__,
)
from .errors import ConfigError, FlowRhythmError, InvalidConfig


def _source_date() -> datetime | None:
    """The manifest time SOURCE_DATE_EPOCH pins, which makes the manifest
    itself reproducible; None when it is unset."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise InvalidConfig(f"bad SOURCE_DATE_EPOCH value {epoch!r}: {exc}") from None


def _utc_stamp(epoch_s) -> str:
    return datetime.fromtimestamp(int(epoch_s), tz=timezone.utc).isoformat()


def _sha256_file(path: Path) -> str:
    import hashlib

    # Through one 64 KiB buffer, so a long readings file is never held whole.
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while n := fh.readinto(buffer):
            digest.update(view[:n])
    return "sha256:" + digest.hexdigest()


def _sha256_config(config: dict) -> str:
    import hashlib

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _digests(inputs: list[Path]) -> dict[str, str]:
    """The manifest's `inputs`: each input file's path and sha256."""
    return {str(p): _sha256_file(p) for p in inputs}


def _write_manifest(args, out_dir: Path, config: dict, inputs: dict[str, str], **extra) -> None:
    when = args.source_date or datetime.now(tz=timezone.utc)
    manifest = {
        "tool": "flowrhythm",
        "tool_version": __version__,
        "command": args.command,
        "timestamp": when.isoformat(timespec="seconds"),
        "config": config,
        "config_digest": _sha256_config(config),
        "inputs": inputs,
        **extra,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _config(args, **resolved) -> dict:
    """The manifest config: every flag of the subcommand except the input and
    output paths, with `resolved` values in place of the parsed ones."""
    not_flags = {"readings", "out", "command", "func", "json_errors", "source_date"}
    return {k: v for k, v in vars(args).items() if k not in not_flags} | resolved


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path, or a parent, is a file
        raise InvalidConfig(f"cannot make --out directory {out}: {exc.strerror}") from None
    return out


def _input_file(text: str, what: str) -> Path:
    path = Path(text)
    if not path.is_file():
        problem = "path is not a file" if path.exists() else "file not found"
        raise InvalidConfig(f"{what} {problem}: {path}")
    return path


@contextmanager
def _staged(target: Path) -> Iterator[Path]:
    """The path to write `target` at: renamed to `target` when the block
    ends, or removed if it raises, so a failed run leaves no part-written
    file."""
    part = target.with_name(target.name + ".part")
    try:
        yield part
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    os.replace(part, target)


def _load_inputs(args):
    """(out, inputs, binned, calendar) of a command that reads a stream.

    Every check that needs no readings comes first, so a mistake is reported
    before a long file is read: the flags, the readings path, the calendar
    path, the calendar's parse, then making --out. `inputs` are the files the
    manifest digests. `binned(blocks)` cleans and bins the blocks of
    readings.read_blocks(inputs[0]) into days as they arrive, growing the
    days, in the one pass that reads each chunk of the file once, and
    returns (days, cleaner): days the calendar excludes are cleared from
    `days.retained` by DayMatrix.excluding, and the binning.Cleaner holds
    the stream's totals and has logged its warnings. `calendar` is None
    without --calendar.
    """
    from .binning import Cleaner, bin_blocks, check_min_valid_slots, zone_named

    tz = zone_named(args.timezone)
    check_min_valid_slots(args.min_valid_slots)
    inputs = [_input_file(args.readings, "readings")]
    calendar = getattr(args, "calendar", None)
    if calendar is not None:
        from .exclusions import load_calendar

        inputs.append(_input_file(calendar, "calendar"))
        calendar = load_calendar(inputs[1])
    out = _out_dir(args)

    def binned(blocks):
        cleaner = Cleaner(str(inputs[0]))
        days = bin_blocks(cleaner.intervals(blocks), tz, args.min_valid_slots)
        return days.excluding(calendar), cleaner

    return out, inputs, binned, calendar


def _windowed(args):
    """The loaded inputs of a periodogram or track run, and its WindowConfig."""
    from .readings import read_blocks
    from .tracking import WindowConfig

    try:
        periods = tuple(float(part) for part in args.periods.split(",") if part.strip())
    except ValueError as exc:
        raise InvalidConfig(f"bad --periods value {args.periods!r}: {exc}") from exc
    if not periods:
        raise InvalidConfig(f"bad --periods value {args.periods!r}: no periods")
    cfg = WindowConfig(
        window_days=args.window_days,
        stride_days=args.stride_days,
        min_valid_days=args.min_valid_days,
        target_periods=periods,
    )
    cfg.grid()  # before a long file is read
    out, inputs, binned, calendar = _load_inputs(args)
    return out, inputs, binned(read_blocks(inputs[0]))[0], calendar, cfg


def cmd_simulate(args) -> int:
    from dataclasses import replace
    from importlib import resources

    from .readings import _write_rows
    from .synth import demo_scenario, generate_blocks, load_scenario, scenario_to_json

    if args.scenario is None:
        cfg = demo_scenario()
        scenario_path = None
    else:
        scenario_path = Path(args.scenario)
        cfg = load_scenario(scenario_path)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = _out_dir(args)
    target = out / ("readings.jsonl" if args.format == "jsonl" else "readings.csv")
    # Each block is written as it is generated.
    with _staged(target) as part, open(part, "wb") as fh:
        n = sum(len(epoch) for epoch, _ in _write_rows(generate_blocks(cfg), fh, args.format))
    written = [target.name]
    if scenario_path is None:
        # The packaged demo has a matching exclusion calendar; emit it so the
        # profile/track walkthrough is self-contained.
        calendar_text = resources.files("flowrhythm.data").joinpath("study_calendar.txt").read_text()
        (out / "calendar.txt").write_text(calendar_text, encoding="utf-8")
        written.append("calendar.txt")
    config = {
        "scenario": scenario_to_json(cfg),
        "scenario_file": str(scenario_path) if scenario_path else "packaged demo",
        "format": args.format,
    }
    _write_manifest(args, out, config, _digests([scenario_path] if scenario_path else []))
    print(f"wrote {n} readings to {target}" + (" (+ calendar.txt)" if len(written) > 1 else ""))
    return 0


def cmd_ingest(args) -> int:
    from .readings import _write_rows, read_blocks

    out, inputs, binned, _ = _load_inputs(args)
    with _staged(out / "readings.csv") as part:
        with open(part, "wb") as fh:
            # One pass: each block is written, then cleaned, totalled and binned.
            days, cleaner = binned(_write_rows(read_blocks(inputs[0]), fh, "csv"))
        digests = _digests(inputs)  # before the output is renamed into place, maybe over the input
    n_days = int(days.retained.sum())
    summary = {
        "n_readings": cleaner.n,
        "first": _utc_stamp(cleaner.first_s),
        "last": _utc_stamp(cleaner.last_s),
        "total_litres": cleaner.litres,
        "n_binned_days": n_days,
        "timezone": args.timezone,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _write_manifest(args, out, _config(args), digests)
    print(f"ingested {cleaner.n} readings covering {n_days} day(s)")
    return 0


def cmd_profile(args) -> int:
    from .binning import GROUPS, profile, write_profile_csv
    from .readings import read_blocks

    out, inputs, binned, _ = _load_inputs(args)
    days, _ = binned(read_blocks(inputs[0]))
    # Every profile before any file, so a group with no days writes nothing.
    profiles = {f"profile_{group}.csv": profile(days, group, std_kind=args.std) for group in GROUPS}
    for name, p in profiles.items():
        write_profile_csv(p, out / name)
    _write_manifest(args, out, _config(args), _digests(inputs))
    print(f"wrote {', '.join(profiles)} from {int(days.retained.sum())} day(s)")
    return 0


def cmd_periodogram(args) -> int:
    from .exclusions import parse_date
    from .tracking import periodogram_window, write_periodogram_csv

    wanted = None
    if args.start is not None:  # before a long file is read
        try:
            wanted = parse_date(args.start)
        except ValueError as exc:
            raise InvalidConfig(f"bad --start date {args.start!r}: {exc}") from exc
    out, inputs, days, _, cfg = _windowed(args)
    track, row = periodogram_window(days, cfg, args.estimator, args.normalization, wanted)
    start = track.start_date(row)
    write_periodogram_csv(track, row, out / "periodogram.csv")
    sidecar = {
        "estimator": track.estimator,
        "normalization": track.normalization,
        "n_samples": int(track.n_samples[row]),
        "window_start": start.isoformat(),
        "window_hours": track.cfg.window_hours,
        "n_frequencies": len(track.grid),
        "min_frequency_cph": float(track.grid.frequencies_cph[0]),
        "max_frequency_cph": float(track.grid.frequencies_cph[-1]),
    }
    (out / "periodogram.meta.json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    config = _config(args, periods=list(track.cfg.target_periods), start=start.isoformat())
    _write_manifest(args, out, config, _digests(inputs))
    print(f"wrote periodogram.csv for window starting {start}")
    return 0


def cmd_track(args) -> int:
    from .tracking import compute_track, write_intensity_csv, write_overlay_csv

    out, inputs, days, calendar, cfg = _windowed(args)
    track = compute_track(days, cfg, args.estimator, args.normalization)
    write_intensity_csv(track, out / "intensity.csv")
    write_overlay_csv(track, out / "overlay.csv")
    vacations = calendar.vacation_ranges() if calendar is not None else []
    _write_manifest(
        args, out, _config(args, periods=list(track.cfg.target_periods)), _digests(inputs),
        vacation_ranges=[[a.isoformat(), b.isoformat()] for a, b in vacations],
    )
    print(f"wrote intensity.csv ({len(track.emitted)} emitted window(s)) and overlay.csv")
    return 0


def _add_common_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("readings", help="readings file (CSV or JSONL)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--timezone", default="UTC", help="IANA timezone for binning (default UTC)")
    parser.add_argument(
        "--min-valid-slots", type=int, default=DEFAULT_MIN_VALID_SLOTS,
        help="observed slots needed to keep a day (default %(default)s)",
    )


def _add_calendar(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--calendar", help="exclusion calendar file")


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window-days", type=int, default=DEFAULT_WINDOW_DAYS,
        help="window length in days (default %(default)s)",
    )
    parser.add_argument(
        "--stride-days", type=int, default=DEFAULT_STRIDE_DAYS,
        help="window step in days (default %(default)s)",
    )
    parser.add_argument(
        "--min-valid-days", type=int, default=DEFAULT_MIN_VALID_DAYS,
        help="valid days needed to emit a window (default %(default)s)",
    )
    parser.add_argument(
        "--periods", default=",".join(f"{p:g}" for p in TARGET_PERIODS_HOURS),
        help="target periods in hours (default %(default)s)",
    )
    parser.add_argument("--estimator", choices=sorted(ESTIMATOR_NAMES), default=ESTIMATOR_NAMES[0])
    parser.add_argument("--normalization", choices=NORMALIZATIONS, default=NORMALIZATIONS[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrhythm",
        description="Interval usage, day profiles, and periodicity tracking "
        "for cumulative water-meter readings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--json-errors", action="store_true",
        help="emit machine-parsable error JSON on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic household stream")
    p.add_argument("--scenario", help="scenario JSON (default: packaged demo)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="parse, validate, and normalize a readings file")
    _add_common_io(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("profile", help="weekday/saturday/sunday usage profiles")
    _add_common_io(p)
    _add_calendar(p)
    p.add_argument("--std", choices=("population", "sample"), default="population")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("periodogram", help="periodogram of one analysis window")
    _add_common_io(p)
    _add_calendar(p)
    _add_window_flags(p)
    p.add_argument("--start", help="window start date (default: first emitted window)")
    p.set_defaults(func=cmd_periodogram)

    p = sub.add_parser("track", help="periodicity intensity over sliding windows")
    _add_common_io(p)
    _add_calendar(p)
    _add_window_flags(p)
    p.set_defaults(func=cmd_track)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.source_date = _source_date()  # before any input is read or output written
        return args.func(args)
    except FlowRhythmError as exc:
        code = 2 if isinstance(exc, ConfigError) else 3
        if args.json_errors:
            payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"flowrhythm: error: {exc}", file=sys.stderr)
        return code


def run() -> None:
    """The process entry point of `flowrhythm` and `python -m flowrhythm`.

    The cyclic garbage collector is off for the process. A run is one short
    batch pass over numpy arrays whose memory reference counting frees, so
    the collections that the objects allocated by imports would set off find
    nothing to free.

    Once main() has ended, by a return code, a SystemExit from argparse or
    an uncaught exception, the whole heap is frozen. Interpreter
    finalization still runs cyclic collections, and they would walk and
    tear down every object that numpy and the stages made; frozen objects
    are skipped, and the OS reclaims their memory at exit. atexit handlers
    still run and the standard streams are still flushed. Nothing else is
    left to a finalizer: every file a command writes is closed before
    main() returns.

    main() itself leaves the collector as it finds it and freezes nothing,
    so a test or another caller that runs it in process keeps its own
    setting.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

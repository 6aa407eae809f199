"""Command-line front end.

Subcommands mirror the pipeline stages: simulate, ingest, profile,
periodogram, track. Every run writes its artifacts plus one manifest.json
into --out, recording config and input digests so reruns are auditable.
Exit codes: 0 success, 2 usage or config error, 3 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import date, datetime, timezone
from importlib import resources
from pathlib import Path

from . import __version__
from .binning import (
    DEFAULT_MIN_VALID_SLOTS,
    GROUPS,
    check_min_valid_slots,
    profile,
    readings_to_days,
    write_profile_csv,
    zone_named,
)
from .errors import ConfigError, DataError, FlowRhythmError, InvalidConfig
from .exclusions import load_calendar
from .readings import read_stream, segment_litres, write_stream_csv, write_stream_jsonl
from .spectral import ESTIMATORS, NORMALIZATIONS, TARGET_PERIODS_HOURS
from .tracking import (
    DEFAULT_MIN_VALID_DAYS,
    DEFAULT_STRIDE_DAYS,
    DEFAULT_WINDOW_DAYS,
    WindowConfig,
    compute_track,
    write_intensity_csv,
    write_overlay_csv,
    write_periodogram_csv,
)


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH makes the manifest itself reproducible.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        when = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        when = datetime.now(tz=timezone.utc)
    return when.isoformat(timespec="seconds")


def _utc_stamp(epoch_s) -> str:
    return datetime.fromtimestamp(int(epoch_s), tz=timezone.utc).isoformat()


def _sha256_file(path: Path) -> str:
    # In 1 MiB chunks, so a long readings file is never held whole.
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _sha256_config(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: list[Path], **extra) -> None:
    manifest = {
        "tool": "flowrhythm",
        "tool_version": __version__,
        "command": command,
        "timestamp": _timestamp(),
        "config": config,
        "config_digest": _sha256_config(config),
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        **extra,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _config(args, **resolved) -> dict:
    """The manifest config: every flag of the subcommand except the input and
    output paths, with `resolved` values in place of the parsed ones."""
    not_flags = {"readings", "out", "command", "func", "json_errors"}
    return {k: v for k, v in vars(args).items() if k not in not_flags} | resolved


def _inputs(args) -> list[Path]:
    """The readings file, then the calendar file when --calendar is given."""
    calendar = getattr(args, "calendar", None)
    return [Path(args.readings)] + ([Path(calendar)] if calendar else [])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _input_file(text: str, what: str) -> Path:
    path = Path(text)
    if not path.is_file():
        problem = "path is not a file" if path.exists() else "file not found"
        raise InvalidConfig(f"{what} {problem}: {path}")
    return path


def _load_inputs(args):
    """The readings, their binned days, and the exclusion calendar (None without --calendar)."""
    tz = zone_named(args.timezone)
    check_min_valid_slots(args.min_valid_slots)  # before a long file is read
    stream = read_stream(_input_file(args.readings, "readings"))
    days = readings_to_days(stream, tz=tz, min_valid_slots=args.min_valid_slots)
    calendar = getattr(args, "calendar", None)
    if calendar is not None:
        calendar = load_calendar(_input_file(calendar, "calendar"))
    return stream, days, calendar


def _track(args):
    """The exclusion calendar and the track of a periodogram or track run."""
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
    _, days, calendar = _load_inputs(args)
    return calendar, compute_track(days, calendar, cfg, args.estimator, args.normalization)


def cmd_simulate(args) -> int:
    # Imported here, its only user, so the other commands do not load it.
    from .synth import demo_scenario, generate, load_scenario, scenario_to_json

    if args.scenario is None:
        cfg = demo_scenario()
        scenario_path = None
    else:
        scenario_path = Path(args.scenario)
        cfg = load_scenario(scenario_path)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    stream = generate(cfg)
    out = _out_dir(args)
    name = "readings.jsonl" if args.format == "jsonl" else "readings.csv"
    target = out / name
    if args.format == "jsonl":
        write_stream_jsonl(stream, target)
    else:
        write_stream_csv(stream, target)
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
    _write_manifest(out, "simulate", config, [scenario_path] if scenario_path else [])
    print(f"wrote {len(stream)} readings to {target}" + (" (+ calendar.txt)" if len(written) > 1 else ""))
    return 0


def cmd_ingest(args) -> int:
    stream, days, _ = _load_inputs(args)
    out = _out_dir(args)
    write_stream_csv(stream, out / "readings.csv")
    n_days = int(days.retained.sum())
    summary = {
        "n_readings": len(stream),
        "first": _utc_stamp(stream.epoch_s[0]),
        "last": _utc_stamp(stream.epoch_s[-1]),
        "total_litres": segment_litres(stream),
        "n_binned_days": n_days,
        "timezone": args.timezone,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _write_manifest(out, "ingest", _config(args), _inputs(args))
    print(f"ingested {len(stream)} readings covering {n_days} day(s)")
    return 0


def cmd_profile(args) -> int:
    _, days, calendar = _load_inputs(args)
    if calendar is not None:
        normal = calendar.normal_mask(days.first, len(days.retained))
        days = replace(days, retained=days.retained & normal)
    out = _out_dir(args)
    written = []
    for group in GROUPS:
        p = profile(days, group, std_kind=args.std)
        target = out / f"profile_{group}.csv"
        write_profile_csv(p, target)
        written.append(target.name)
    _write_manifest(out, "profile", _config(args), _inputs(args))
    print(f"wrote {', '.join(written)} from {int(days.retained.sum())} day(s)")
    return 0


def cmd_periodogram(args) -> int:
    wanted = None
    if args.start is not None:  # before a long file is read
        try:
            wanted = date.fromisoformat(args.start)
        except ValueError as exc:
            raise InvalidConfig(f"bad --start date {args.start!r}: {exc}") from exc
    _, track = _track(args)
    rows = track.emitted
    if wanted is not None:
        rows = rows[track.starts[rows] == (wanted - track.first).days]
        if not len(rows):
            raise DataError(f"no emitted window starts at {wanted}")
    elif not len(rows):
        raise DataError("no window has enough valid days for the estimator")
    row = int(rows[0])
    start = track.start_date(row)
    out = _out_dir(args)
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
    _write_manifest(out, "periodogram", config, _inputs(args))
    print(f"wrote periodogram.csv for window starting {start}")
    return 0


def cmd_track(args) -> int:
    calendar, track = _track(args)
    out = _out_dir(args)
    write_intensity_csv(track, out / "intensity.csv")
    write_overlay_csv(track, out / "overlay.csv")
    vacations = calendar.vacation_ranges() if calendar is not None else []
    _write_manifest(
        out, "track", _config(args, periods=list(track.cfg.target_periods)), _inputs(args),
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
        "--window-days", type=int, default=DEFAULT_WINDOW_DAYS, help="window length in days"
    )
    parser.add_argument(
        "--stride-days", type=int, default=DEFAULT_STRIDE_DAYS, help="window step in days"
    )
    parser.add_argument(
        "--min-valid-days", type=int, default=DEFAULT_MIN_VALID_DAYS,
        help="valid days needed to emit a window (default %(default)s)",
    )
    parser.add_argument(
        "--periods", default=",".join(f"{p:g}" for p in TARGET_PERIODS_HOURS),
        help="target periods in hours (default %(default)s)",
    )
    parser.add_argument("--estimator", choices=sorted(ESTIMATORS), default="ls")
    parser.add_argument("--normalization", choices=NORMALIZATIONS, default="raw")


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
        return args.func(args)
    except FlowRhythmError as exc:
        code = 2 if isinstance(exc, ConfigError) else 3
        if args.json_errors:
            payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"flowrhythm: error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

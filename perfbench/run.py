"""flowrhythm benchmark: whole CLI subcommands, one fresh process each.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload and metric

Each workload is a fixed sequence of subcommands, run one at a time, each in
a fresh interpreter, the way a user runs them. Sequences repeat until
--seconds is spent; timings are medians over sequences. Every output is
checked. With --trace 1 each sequence pair is one untraced and one traced
run (tracecli.py), and the per-layer metrics come from the traced spans.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 7
# A run never starts a sequence it expects to end later than this after the
# run began, so the process ends well within three minutes.
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "ingest_s": "s",
    "analyze_s": "s",
    "total_s": "s",
    "readings_per_s": "1/s",
    "peak_rss_mb": "MB",
}
ANALYSIS_COMMANDS = ("profile", "periodogram", "track")

PER_LAYER = {
    "spectral.lomb_scargle_s": "s",
    "spectral.classic_s": "s",
    "spectral.calls": "count",
    "spectral.failed": "count",
    "spectral.trig_evals": "count",
    "spectral.table_bytes": "bytes",
    "spectral.useful_ratio": "ratio",
    "spectral.self_s": "s",
    "tracking.make_windows_s": "s",
    "tracking.window_samples_s": "s",
    "tracking.samples_out": "count",
    "tracking.windows": "count",
    "tracking.windows_skipped": "count",
    "tracking.write_intensity_s": "s",
    "tracking.write_overlay_s": "s",
    "tracking.overlay_bytes": "bytes",
    "tracking.self_s": "s",
    "tracking.share_of_track": "ratio",
    "readings.parse_s": "s",
    "readings.rows_in": "count",
    "readings.split_s": "s",
    "readings.segments": "count",
    "readings.difference_s": "s",
    "readings.intervals_out": "count",
    "readings.drop_gaps_s": "s",
    "readings.intervals_dropped": "count",
    "readings.write_s": "s",
    "readings.bytes_written": "bytes",
    "readings.self_s": "s",
    "pipeline.readings_to_days_s": "s",
    "pipeline.self_s": "s",
    "binning.bin_s": "s",
    "binning.days_out": "count",
    "binning.days_dropped": "count",
    "binning.profile_s": "s",
    "binning.write_profile_s": "s",
    "binning.self_s": "s",
    "exclusions.load_s": "s",
    "exclusions.classify_calls": "count",
    "exclusions.self_s": "s",
    "synth.generate_s": "s",
    "synth.readings_out": "count",
    "synth.self_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
ESTIMATOR_SPANS = ("spectral.lomb_scargle", "spectral.classic")


class BenchError(Exception):
    """The benchmark cannot run here (for example, the program is missing)."""


# --- child processes ---------------------------------------------------------------


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float


def _child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)
    return env


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "flowrhythm", *args]


class Spawner:
    """The small helper process (spawner.py) that starts every measured command."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "spawner.py")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, log: Path) -> Proc:
        """Run one command to completion; its wall time and its own peak RSS."""
        request = {"argv": argv, "cwd": str(cwd), "log": str(log), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"spawner exited with code {self.proc.wait()}")
        return Proc(**json.loads(reply))

    def close(self) -> None:
        """Stop the spawner; it kills and reaps a command still running."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# --- machine record ----------------------------------------------------------------


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    import numpy  # noqa: F401  (loads the BLAS library into this process)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = _blas_threads()
    except OSError as exc:
        blas = f"unknown ({exc})"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas_threads": blas,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "platform": platform.platform(),
    }


# --- one run -----------------------------------------------------------------------


@dataclass
class Sequence:
    traced: bool
    times: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    note: str | None = None

    @property
    def failed(self) -> int:
        return len({cmd for cmd, _ in self.failures})

    @property
    def total_s(self) -> float:
        return sum(self.times.values())

    @property
    def analyze_s(self) -> float:
        return sum(t for cmd, t in self.times.items() if cmd in ANALYSIS_COMMANDS)


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.dir = WORK / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.inputs = self.dir / "inputs"
        self.spawner: Spawner | None = None
        self.reference: dict[str, str] = {}
        self.setup: list[float] = []
        self.sequences: list[Sequence] = []
        self.input_info: dict = {}

    def prepare(self) -> None:
        self.started = time.perf_counter()
        if not (SRC / "flowrhythm" / "__init__.py").is_file():
            raise BenchError(f"program source not found under {SRC}")
        shutil.rmtree(self.dir, ignore_errors=True)
        for d in (self.inputs, self.dir / "tmp"):
            d.mkdir(parents=True)
        self.spawner = Spawner(_child_env(self.dir / "tmp"))
        # Warm-up: compiles bytecode once, as an installed package would have.
        proc = self.spawner.run(_cli("--version"), self.dir, self.dir / "warmup.log")
        text = (self.dir / "warmup.log").read_text(encoding="utf-8", errors="replace")
        if proc.rc != 0 or not text.startswith("flowrhythm "):
            raise BenchError(f"`flowrhythm --version` failed (exit {proc.rc}): {text.strip()[-500:]}")
        self.input_info = self.wl.prepare(self.inputs, self.seed)
        if not self.trace:
            for _ in range(SETUP_SAMPLES):
                p = self.spawner.run(_cli("--version"), self.dir, self.dir / "setup.log")
                if p.rc != 0:
                    raise BenchError(f"`flowrhythm --version` failed (exit {p.rc})")
                self.setup.append(p.wall_s)

    def sequence(self, index: int, traced: bool) -> Sequence:
        seq_dir = self.dir / f"seq{index}"
        seq_dir.mkdir()
        run_id = f"{self.wl.name}-seed{self.seed}-seq{index}"
        seq = Sequence(traced)
        for step in self.wl.steps:
            args = [a.replace("{inputs}", str(self.inputs)) for a in step.argv]
            if traced:
                spans = seq_dir / f"{step.command}.spans.json"
                argv = [sys.executable, str(BENCH_DIR / "tracecli.py"), str(spans), run_id, "--", *args]
            else:
                argv = _cli(*args)
            proc = self.spawner.run(argv, seq_dir, seq_dir / f"{step.command}.log")
            seq.attempted += 1
            if proc.rc != 0:
                log = (seq_dir / f"{step.command}.log").read_text(encoding="utf-8", errors="replace")
                seq.failures.append((step.command, f"exit {proc.rc}: {log.strip()[-300:]}"))
                break
            seq.times[step.command] = proc.wall_s
            seq.rss_mb[step.command] = proc.rss_mb
            if traced:
                record = json.loads(spans.read_text(encoding="utf-8"))
                record["process_wall_s"] = proc.wall_s
                seq.records.append(record)
            if step.after is not None:
                try:
                    step.after(seq_dir, self.seed)
                except (OSError, ValueError, IndexError) as exc:
                    seq.failures.append((step.command, f"unusable output: {exc!r}"))
                    break
        if not seq.failures:
            seq.failures = checks.check_sequence(self.wl, seq_dir, self.reference)
            seq.note = checks.summary_note(self.wl, seq_dir)
            if not self.input_info.get("readings"):
                path = seq_dir / self.wl.input_file
                self.input_info.update(readings=len(checks.readings(path)), bytes=path.stat().st_size)
        shutil.rmtree(seq_dir)
        return seq

    def measure(self) -> None:
        """Run sequences until --seconds is spent; a traced run alternates untraced/traced."""
        pattern = (False, True) if self.trace else (False,)
        # A run takes at least two samples per median, even when one
        # decade sequence outlasts --seconds; its track outputs form a pair to compare.
        min_sequences = 2
        began = time.perf_counter()
        while True:
            for traced in pattern:
                t0 = time.perf_counter()
                self.sequences.append(self.sequence(len(self.sequences), traced))
                last = time.perf_counter() - t0
            now = time.perf_counter()
            expected = last * len(pattern)
            if len(self.sequences) >= min_sequences and (
                now - began + expected > self.seconds or now - self.started + expected > HARD_LIMIT_S
            ):
                break

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.sequences)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.sequences)


# --- metrics -----------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """Metric -> (value, unit, sample count), over the untraced sequences."""
    seqs = [s for s in run.sequences if not s.traced and not s.failures]
    n = len(seqs)
    total = _median(s.total_s for s in seqs)
    out = {
        "setup_s": (_median(run.setup), len(run.setup)),
        "simulate_s": (_median(s.times["simulate"] for s in seqs), n),
        "ingest_s": (_median(s.times["ingest"] for s in seqs), n),
        "analyze_s": (_median(s.analyze_s for s in seqs), n),
        "total_s": (total, n),
        "readings_per_s": (run.input_info.get("readings", 0) / total if total else 0.0, n),
        "peak_rss_mb": (_median(max(s.rss_mb.values()) for s in seqs), n),
    }
    # Reported by name only, not in the JSON line: each exists on some workloads.
    for cmd in ANALYSIS_COMMANDS:
        if cmd in run.wl.commands:
            out[f"{cmd}_s"] = (_median(s.times[cmd] for s in seqs), n)
    return {k: (v, END_TO_END.get(k, "s"), c) for k, (v, c) in out.items()}


def _self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_values(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced sequence (one record per command)."""
    v: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    written = 0
    for rec in records:
        spans = rec["spans"]
        counts.update(rec["counts"])
        written += rec["windows_written"]
        selfs = _self_times(spans)
        covered = 0.0
        for s, own in zip(spans, selfs):
            layer = s["name"].split(".", 1)[0]
            v[f"{s['name']}_s"] += s["end"] - s["start"]
            v[f"{layer}.self_s"] += own
            if s["name"] in ESTIMATOR_SPANS:
                v["spectral.calls"] += 1
                v["spectral.failed"] += not s["ok"]
            if layer in ("tracking", "spectral"):
                covered += own
        v["trace.spans"] += len(spans)
        if rec["command"][0] == "track":
            v["tracking.share_of_track"] = covered / rec["process_wall_s"]
    v.update(counts)
    v["binning.days_dropped"] = counts["binning.days_considered"] - counts["binning.days_out"]
    v["spectral.useful_ratio"] = written / v["spectral.calls"] if v["spectral.calls"] else 0.0
    return v


def per_layer(run: Run) -> tuple[dict[str, tuple[float, str, int]], list[str]]:
    traced = [s for s in run.sequences if s.traced and not s.failures]
    plain = [s for s in run.sequences if not s.traced and not s.failures]
    per_seq = [layer_values(s.records) for s in traced]
    n = len(per_seq)
    out = {}
    for name, unit in PER_LAYER.items():
        out[name] = (_median(v.get(name, 0.0) for v in per_seq), unit, n)
    overhead = _median(s.total_s for s in traced) - _median(s.total_s for s in plain)
    out["trace.overhead_s"] = (overhead, "s", n)
    absent = sorted({a for s in traced for r in s.records for a in r["absent"]})
    absent += sorted({f"counts of {u}" for s in traced for r in s.records for u in r["uncounted"]})
    return out, absent


# --- reporting ---------------------------------------------------------------------


def execute(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(wl, seed, seconds, trace)
    try:
        run.prepare()
        run.measure()
        if trace:
            metrics, absent = per_layer(run)
        else:
            metrics, absent = end_to_end(run), []
    finally:
        if run.spawner is not None:
            run.spawner.close()
        shutil.rmtree(run.dir, ignore_errors=True)
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "input": {"seed": seed, **run.input_info},
        "sequences": [
            {"traced": s.traced, "times_s": s.times, "rss_mb": s.rss_mb,
             "failures": s.failures, "note": s.note}
            for s in run.sequences
        ],
        "setup_samples_s": run.setup,
        "metrics": metrics,
        "absent": absent,
        "spans": [s.records for s in run.sequences if s.traced],
        "attempted": run.attempted,
        "failed": run.failed,
    }


def report(result: dict, machine: dict) -> None:
    wl = result["workload"]
    print(f"# workload {wl}  seed {result['seed']}  trace {result['trace']}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# input {json.dumps(result['input'], sort_keys=True)}")
    for i, s in enumerate(result["sequences"]):
        times = "  ".join(f"{c} {t:.3f}s" for c, t in s["times_s"].items())
        state = "ok" if not s["failures"] else f"FAILED {s['failures']}"
        print(f"# seq {i}{' traced' if s['traced'] else ''}: {times}  checks {state}")
    notes = {s["note"] for s in result["sequences"] if s["note"]}
    for note in sorted(notes) + list(WORKLOADS[wl].notes):
        print(f"# note: {note}")
    for name in result["absent"]:
        print(f"# absent: {name} (its metrics read 0)")
    for rec in result["spans"][0] if result["spans"] else []:
        calls = sum(1 for s in rec["spans"] if s["name"] in ESTIMATOR_SPANS)
        if calls:
            print(f"# {rec['command'][0]}: {rec['windows_written']} distinct window(s) written "
                  f"per {calls} estimator call(s)")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{wl:<14} {name:<30} {value:>16.6g} {unit:<6} (median of {n})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{wl:<14} {'ops_failed':<30} {failed / attempted if attempted else 1.0:>16.6g} ratio  "
          f"({failed} of {attempted} subcommand runs)")


def result_line(result: dict) -> dict:
    names = PER_LAYER if result["trace"] else END_TO_END
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k][0], "unit": unit} for k, unit in names.items()},
    }


def save(result: dict, machine: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans")
    if result["trace"]:
        (out / f"{name}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    (out / f"{name}.json").write_text(json.dumps({**result, "machine": machine}, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so execute() stops the spawner and its command.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # "all" prints both the end-to-end and the traced per-layer metrics.
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    try:
        machine = machine_record()
        lines = {}
        for name in names:
            for trace in modes:
                result = execute(WORKLOADS[name], args.seed, args.seconds, trace)
                report(result, machine)
                save(result, machine)
                lines[f"{name}/trace{int(trace)}"] = result_line(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{k}/{m}": v for k, r in lines.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

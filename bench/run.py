"""Benchmark of the triadica command line over a seeded ladder of workspaces.

Usage, from the repository root:

    python3 bench/run.py --workload {check,build,search} [...] --seed N \
        --seconds S --trace {0,1} [--max-rung R]

Set-up writes the workload's ladder (bench/ladder.py) into a fresh
directory under .bench_work/ and runs one warm-up job that compiles the
package's bytecode; it is repeated SETUPS times, each time between two runs
of the reference gauge, and `setup_s` is the median of the gauged set-ups.

With --trace 0 the jobs run as users run them: each one a fresh
`python -m triadica.cli` process, one at a time from this process
(a closed loop with one client).  Passes over the job list repeat until
--seconds is used up, each pass preceded by PROBES_PER_PASS trivial
one-point `validate` jobs that measure start-up on their own.  Each job
runs between two runs of a gauge whose cost does not depend on triadica, and
is timed relative to them (see `measure`); the times printed in the result
are these ratios scaled by the gauges' nominal times.  Every job's exit code
and report are checked against bench/oracle.py; a mismatch or a timeout
counts as a failed job.

With --trace 1 the same jobs run in this process through
`triadica.cli.main(argv)`, alternating an untraced pass with a pass traced
by bench/tracing.py, and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import ladder as ladder_mod
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

SETUPS = 7
PROBES_PER_PASS = 5
IMPORT_SAMPLES = 5
JOB_TIMEOUT_S = 60.0
# nominal times of the gauges, near their medians on a 2-core x86-64 VM with
# CPython 3.11; they set the scale of the reported times, not their ratios
REF_WALL_S = 0.14
REF_CPU_S = 0.14
BARE_WALL_S = 0.055


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def verify(job: ladder_mod.Job, code, stdout: str, stderr: str) -> list[str]:
    problems = []
    if code != job.code:
        problems.append(f"exit code {code}, expected {job.code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    if doc.get("command") != job.command:
        problems.append(f"report for command {doc.get('command')!r}")
    try:
        return problems + job.check(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return problems + [f"report has an unexpected shape: {exc!r}"]


def spawn(argv: list[str], directory: str, env: dict):
    """Run argv in a fresh process and wait for it with wait4, so that its
    rusage is its own.  Returns (exit code, wall s, rusage, stdout, stderr)."""
    out_path = os.path.join(directory, "job.stdout")
    err_path = os.path.join(directory, "job.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=directory)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return code, wall, usage, stdout, stderr


def run_job(job: ladder_mod.Job, directory: str, env: dict) -> Outcome:
    """One job in a fresh process, checked against the oracle."""
    argv = [sys.executable, "-m", "triadica.cli", *job.argv(directory)]
    code, wall, usage, stdout, stderr = spawn(argv, directory, env)
    problems = verify(job, code, stdout, stderr)
    if code < 0:
        problems.append(f"killed by signal {-code} (timeout "
                        f"{JOB_TIMEOUT_S:.0f} s)")
    return Outcome(wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, problems)


def set_up(workload: str, seed: int, max_rung: int, times: int, env: dict):
    """Write the ladder `times` times, each set-up bracketed by runs of the
    reference gauge; keep the last copy.

    Returns (ladder, directory, digest, raw set-up seconds, set-up seconds
    over the mean of the gauges either side)."""
    if not os.path.isfile(os.path.join(SRC, "triadica", "cli.py")):
        raise BenchError(f"no triadica sources under {SRC}")
    os.makedirs(WORK, exist_ok=True)
    raw, ratios, directory, digest = [], [], None, None
    before = reference_gauge(WORK, env)
    for _ in range(times):
        start = time.perf_counter()
        ladder = ladder_mod.build_ladder(workload, seed, max_rung)
        fresh = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
        written = ladder.write(fresh)
        warm = run_job(ladder.probe, fresh, env)
        raw.append(time.perf_counter() - start)
        if directory:
            shutil.rmtree(directory)
        directory = fresh
        if warm.problems or digest not in (None, written):
            shutil.rmtree(fresh)
            raise BenchError("; ".join(warm.problems) or
                             "ladder generation is not deterministic")
        digest = written
        after = reference_gauge(directory, env)
        ratios.append(raw[-1] / mid(before.wall, after.wall))
        before = after
    return ladder, directory, digest, raw, ratios


class Tally:
    """Jobs attempted and failed; each failure is printed with its problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {name}: {'; '.join(problems[:3])}", flush=True)


def gauge(argv: list[str], expected: str, directory: str,
          env: dict) -> Outcome:
    """One run of a gauge process, which must print `expected`."""
    code, wall, usage, stdout, stderr = spawn(argv, directory, env)
    if code != 0 or stdout.strip() != expected:
        raise BenchError(f"gauge {argv[1:]} exited {code} with "
                         f"{stdout.strip()[:60]!r} {stderr.strip()[-200:]!r}")
    return Outcome(wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, [])


def reference_gauge(directory: str, env: dict) -> Outcome:
    """bench/reference.py: interpreter start and exact elimination."""
    return gauge([sys.executable, os.path.join(HERE, "reference.py")],
                 reference.EXPECTED, directory, env)


def bare_gauge(directory: str, env: dict) -> Outcome:
    """An interpreter that starts, prints and exits."""
    return gauge([sys.executable, "-c", "print(1)"], "1", directory, env)


def mid(a: float, b: float) -> float:
    return (a + b) / 2


def measure(ladder, directory: str, seconds: float, tally: Tally,
            env: dict) -> dict:
    """Passes of subprocess jobs until `seconds` is used up.

    Every job runs between two runs of a gauge whose cost does not depend
    on triadica (reference.py for the jobs, a bare interpreter for the
    start-up probes), and each sample is the job's time over the mean of
    the two.  The machine's speed drifts over seconds on a shared host and
    moves a job and the gauges beside it alike, so the ratio cancels it.
    Returns the samples: ratios, and raw seconds for the printed table."""
    samples = {key: defaultdict(list) for key in ("wall", "cpu",
                                                  "raw_wall", "raw_cpu")}
    probes, raw_probes, passes, peak = [], [], [], 0.0
    gauged = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        before = bare_gauge(directory, env)
        gauged["bare_wall"].append(before.wall)
        for _ in range(PROBES_PER_PASS):
            o = run_job(ladder.probe, directory, env)
            tally.add(ladder.probe.name, o.problems)
            after = bare_gauge(directory, env)
            gauged["bare_wall"].append(after.wall)
            probes.append(o.wall / mid(before.wall, after.wall))
            raw_probes.append(o.wall)
            peak = max(peak, o.rss_mb)
            before = after
        before = reference_gauge(directory, env)
        gauged["ref_wall"].append(before.wall)
        gauged["ref_cpu"].append(before.cpu)
        for job in ladder.jobs:
            o = run_job(job, directory, env)
            tally.add(job.name, o.problems)
            after = reference_gauge(directory, env)
            gauged["ref_wall"].append(after.wall)
            gauged["ref_cpu"].append(after.cpu)
            samples["wall"][job.name].append(
                o.wall / mid(before.wall, after.wall))
            samples["cpu"][job.name].append(o.cpu / mid(before.cpu,
                                                        after.cpu))
            samples["raw_wall"][job.name].append(o.wall)
            samples["raw_cpu"][job.name].append(o.cpu)
            peak = max(peak, o.rss_mb)
            before = after
        passes.append(time.perf_counter() - started)
        print(f"pass {len(passes)}: {passes[-1]:.3f} s", flush=True)
        if time.perf_counter() + statistics.median(passes) > deadline:
            break
    print(f"{'job':40} {'median wall s':>14} {'median cpu s':>13} "
          f"{'wall/gauge':>11}")
    for job in ladder.jobs:
        print(f"{job.name:40} "
              f"{statistics.median(samples['raw_wall'][job.name]):14.4f} "
              f"{statistics.median(samples['raw_cpu'][job.name]):13.4f} "
              f"{statistics.median(samples['wall'][job.name]):11.3f}")
    print(f"startup probes: {len(probes)} samples, median "
          f"{statistics.median(raw_probes) * 1000:.1f} ms raw")
    print("gauges: " + ", ".join(
        f"{name} median {statistics.median(v):.4f} s of {len(v)}"
        for name, v in gauged.items()))
    return {"passes": passes, "probes": probes, "raw_probes": raw_probes,
            "peak_rss_mb": peak, **samples, **gauged}


def end_to_end(samples: dict, setups: list[float]) -> dict:
    """The end-to-end metrics from a run's samples of job time over gauge
    time, scaled by the gauges' nominal times.

    A pass is summed from per-job medians, so that one disturbed pass does
    not set the figure."""
    def per_pass(key):
        return sum(statistics.median(v) for v in samples[key].values())

    return {
        "wall_s": (per_pass("wall") * REF_WALL_S, "s"),
        "cpu_s": (per_pass("cpu") * REF_CPU_S, "s"),
        "startup_ms": (statistics.median(samples["probes"]) * BARE_WALL_S
                       * 1000, "ms"),
        "peak_rss_mb": (samples["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups) * REF_WALL_S, "s"),
    }


def import_seconds(env: dict) -> float:
    """Median time to import triadica.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import triadica.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def run_in_process(cli, job, directory: str, tally: Tally,
                   tracer: tracing.Tracer | None) -> float:
    """One job through cli.main in this process; returns its wall time."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(job.argv(directory))

    start = time.perf_counter()
    try:
        code = call() if tracer is None else tracer.run_root("job", call)
    except Exception:  # a crash is a failed job, reported with its traceback
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    text = out.getvalue()
    if tracer is not None:
        tracer.counts["cli.bytes_out"] += len(text.encode())
    tally.add(job.name, verify(job, code, text, err.getvalue()))
    return wall


def traced(ladder, directory: str, seconds: float, env: dict, tally: Tally,
           out_file: str):
    """Untraced and traced in-process passes until `seconds` is used up."""
    import_s = import_seconds(env)
    sys.path.insert(0, SRC)
    import triadica.cli as cli

    plain, timed, summaries = [], [], []
    layers, units = defaultdict(list), {}
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        plain.append(sum(run_in_process(cli, job, directory, tally, None)
                         for job in ladder.jobs))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timed.append(sum(run_in_process(cli, job, directory, tally,
                                            tracer)
                             for job in ladder.jobs))
        finally:
            tracer.uninstall()
        for name, (value, unit) in tracing.layer_metrics(tracer,
                                                         "job").items():
            layers[name].append(value)
            units[name] = unit
        self_s, calls, per_job = tracer.summary()
        summaries.append({"spans": len(tracer.start), "self_s": self_s,
                          "calls": calls,
                          "per_job": dict(zip((j.name for j in ladder.jobs),
                                              per_job))})
        lap = time.perf_counter() - started
        print(f"untraced {plain[-1]:.3f} s, traced {timed[-1]:.3f} s, "
              f"{len(tracer.start)} spans", flush=True)
        if time.perf_counter() + lap > deadline:
            break
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump(summaries, handle, indent=1, sort_keys=True)
    print(f"span summaries written to {os.path.relpath(out_file, ROOT)}")
    print("self time by span, last traced pass:")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:44} {value:9.4f} s {calls[name]:8d} calls")
    metrics = {name: (statistics.median(v), units[name])
               for name, v in layers.items()}
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace_overhead"] = (statistics.median(timed)
                                 / statistics.median(plain), "ratio")
    return metrics


def run_workload(workload: str, args, env: dict, tally: Tally) -> dict:
    """Set up one workload, measure or trace it, and remove its ladder."""
    directory = None
    try:
        lad, directory, digest, raw_setups, setups = set_up(
            workload, args.seed, args.max_rung,
            1 if args.trace else SETUPS, env)
        print(f"workload {workload}, seed {args.seed}: "
              f"{len(lad.files)} workspaces, {len(lad.jobs)} jobs, "
              f"ladder sha256 {digest}", flush=True)
        os.makedirs(OUT, exist_ok=True)
        out_file = os.path.join(OUT, f"{'trace' if args.trace else 'samples'}"
                                     f"-{workload}-seed{args.seed}.json")
        if args.trace:
            return traced(lad, directory, args.seconds, env, tally,
                          out_file)
        samples = measure(lad, directory, args.seconds, tally, env)
        samples.update(setups=setups, raw_setups=raw_setups)
        with open(out_file, "w", encoding="utf-8") as handle:
            json.dump(samples, handle, indent=1)
        print(f"set-up: median {statistics.median(raw_setups):.4f} s raw "
              f"of {len(raw_setups)}")
        return end_to_end(samples, setups)
    finally:
        if directory:
            shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=ladder_mod.WORKLOADS,
                        help="one or more workloads; with several, each "
                             "metric name is prefixed with '<workload>.'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-rung", type=int, default=3,
                        help="keep only jobs up to this rung (1 = smallest)")
    args = parser.parse_args(argv)
    env = _env()
    tally = Tally()
    metrics = {}
    try:
        for workload in args.workload:
            prefix = f"{workload}." if len(args.workload) > 1 else ""
            for name, value in run_workload(workload, args, env,
                                            tally).items():
                metrics[prefix + name] = value
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    error_rate = tally.failed / tally.attempted
    print(f"error_rate = {error_rate:.6g} ({tally.failed} of "
          f"{tally.attempted} jobs failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

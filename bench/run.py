"""commvar benchmark: fixed lists of CLI commands, each in a fresh process.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a commvar checkout; the program is the checkout's
src/commvar, put on PYTHONPATH.  The run executes passes of the workload's
operations, one process at a time with default options (--threads 1), in
an order the seed shuffles anew for each pass; the seed is also passed to
commvar as --seed.  The first pass (the first three with --trace 1) always
completes; after that an operation starts only if its previous duration
still fits in the S seconds.  Every output is checked against reference.json.

Other tenants of a shared host slow a process down by up to ~70% for
seconds to minutes at a time, which no statistic over a 40 s run removes.
So each process times a fixed pure-Python loop (child.SpeedProbe) before,
during and after the command, and the command's wall and CPU times are
multiplied by PROBE_NOMINAL_S over the probe's mean duration.  Set-up time
and memory are reported as measured.  The run record gives the unscaled sums.

--trace 0 prints the end-to-end metrics of BENCHMARK.json for one pass:
  wall_s       sum over the operations of the median scaled time inside
               commvar.cli.main, JSON emission included;
  setup_s      operations per pass times the median process set-up time
               (interpreter start and `import commvar`) over the run;
  cpu_s        sum over the operations of the median scaled user+sys CPU
               time of the process, the probes left out;
  peak_rss_mb  the largest per-operation median of the process max RSS.
--trace 1 alternates one untraced pass with two traced ones (see tracing.py)
and prints the per-layer metrics of BENCHMARK.json for one pass, times
scaled as above.  Work counts must repeat exactly between the traced passes.

The last line of stdout is the result object; the line before it records
the machine and the sample counts.  Exit code 0 means the run completed,
even when an output was wrong (the result then says so).
"""

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
RECORD_PREFIX = "bench-record "  # as in child.py
OP_TIMEOUT_S = 150
# one child.SpeedProbe run on an idle vCPU of an Intel Xeon host, Python 3.11
PROBE_NOMINAL_S = 0.0003

WORKLOADS = {
    # class strategy; the per-class ad-rank kernel does most of the work
    "census-lie": [
        "count lie --p 2 --n 4 --qs 2,4,8",
        "count lie --p 3 --n 3 --qs 3,9,27",
        "count commuting --n 4 --qs 2,4",
    ],
    # twist tests; irreducible enumeration does most of the work
    "census-twist": [
        "count group --n 4 --d 2 --qs 3,9",
        "count W --n 4 --d 2 --qs 3,9",
        "count group --n 3 --d 3 --qs 4,16",
        "classes --n 4 --q 8",
    ],
    # the brute cross-checks at the sizes the test suite uses
    "oracle": [
        "count commuting --n 3 --qs 2 --strategy both",
        "count lie --p 2 --n 4 --qs 2 --strategy both",
        "count lie --p 2 --n 2 --qs 2,4 --strategy both",
        "count W --n 2 --d 2 --qs 3,9 --strategy both",
        "count group --n 2 --d 2 --qs 3 --strategy both",
        "verify --suite all",
    ],
}

IMPORT_CHECK = (
    "import json, platform, commvar, numpy; print(json.dumps({"
    "'python': platform.python_version(), 'numpy': numpy.__version__, "
    "'commvar': commvar.__file__}))"
)


@dataclass
class Sample:
    op: str
    traced: bool
    exit_code: int
    setup_s: float | None = None
    wall_s: float | None = None  # scaled by the probe
    cpu_s: float = 0.0  # scaled by the probe when there is a record
    raw_wall_s: float | None = None
    raw_cpu_s: float = 0.0
    rss_mb: float = 0.0
    error: str | None = None
    layers: dict = field(default_factory=dict)


def checked_fields(doc: dict) -> dict:
    """The fields of a command's JSON that must equal the reference."""
    command = doc.get("command")
    if command == "count":
        return {
            "counts": [[c["q"], c["strategy"], c["count"]] for c in doc["counts"]],
            "fitted_dimension": doc["fitted_dimension"],
            "raw_exponent": doc["raw_exponent"],
            "residual": doc["residual"],
        }
    if command == "classes":
        return {"count": doc["count"], "total_class_size": doc["total_class_size"]}
    if command == "verify":
        return {"checks": [[c["name"], c["status"]] for c in doc["checks"]]}
    raise ValueError("unexpected command %r" % command)


def _reap(proc: subprocess.Popen):
    """Drain stdout and stderr, wait for the process, return its rusage."""
    chunks = {}

    def drain(key, stream):
        chunks[key] = stream.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for reader in readers:
        reader.start()
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return chunks["out"], chunks["err"], usage


def run_op(op: str, traced: bool, seed: int, env: dict, reference: dict) -> Sample:
    argv = [sys.executable, str(CHILD), "1" if traced else "0", "--seed", str(seed)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        argv + op.split(), cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err, usage = _reap(proc)
    cpu = usage.ru_utime + usage.ru_stime
    sample = Sample(
        op=op,
        traced=traced,
        exit_code=proc.returncode,
        cpu_s=cpu,
        raw_cpu_s=cpu,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    lines = err.decode(errors="replace").splitlines()
    records = [line for line in lines if line.startswith(RECORD_PREFIX)]
    if not records:
        sample.error = "no timing record; stderr ends: %s" % " | ".join(lines[-3:])
        return sample
    record = json.loads(records[-1][len(RECORD_PREFIX):])
    speed = PROBE_NOMINAL_S * len(record["probe_s"]) / sum(record["probe_s"])
    sample.setup_s = record["ready"] - spawned
    sample.raw_wall_s = record["wall_s"]
    sample.wall_s = record["wall_s"] * speed
    sample.raw_cpu_s = cpu - record["probe_cpu_s"]
    sample.cpu_s = sample.raw_cpu_s * speed
    sample.layers = {
        key: value * speed if key.endswith("_s") else value
        for key, value in record.get("layers", {}).items()
    }
    want = reference[op]
    if sample.exit_code != want["exit_code"]:
        sample.error = "exit code %d, reference %d" % (sample.exit_code, want["exit_code"])
        return sample
    try:
        got = checked_fields(json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        sample.error = "unreadable output: %r" % exc
        return sample
    if got != want["fields"]:
        sample.error = "output %s differs from reference %s" % (got, want["fields"])
    return sample


def measure(ops, seed, seconds, pattern, env, reference) -> list[Sample]:
    """Passes over ops; pattern[i % len(pattern)] says whether pass i is traced.

    The first len(pattern) passes complete; after that the run stops at the
    first operation whose previous duration no longer fits in `seconds`.
    """
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    samples = []
    cost = {}
    n_pass = 0
    while True:
        traced = pattern[n_pass % len(pattern)]
        for op in rng.sample(ops, len(ops)):
            started = time.perf_counter()
            if n_pass >= len(pattern) and started + cost[op] > deadline:
                return samples
            sample = run_op(op, traced, seed, env, reference)
            cost[op] = time.perf_counter() - started
            if sample.error:
                print("FAILED %s: %s" % (op, sample.error), file=sys.stderr)
            samples.append(sample)
        n_pass += 1


def _by_op(samples, ops, attr):
    return {op: [getattr(s, attr) for s in samples if s.op == op and getattr(s, attr) is not None]
            for op in ops}


def _pass_sum(samples, ops, attr) -> float:
    """Sum over ops of the median of attr over each op's samples."""
    return sum(median(values) for values in _by_op(samples, ops, attr).values() if values)


def end_to_end(samples, ops) -> dict:
    rss = _by_op(samples, ops, "rss_mb")
    setups = [s.setup_s for s in samples if s.setup_s is not None]
    return {
        "wall_s": _pass_sum(samples, ops, "wall_s"),
        "setup_s": len(ops) * median(setups) if setups else 0.0,
        "cpu_s": _pass_sum(samples, ops, "cpu_s"),
        "peak_rss_mb": max(median(rss[op]) for op in ops),
    }


def per_layer(samples, ops) -> tuple[dict, list[str]]:
    """Per-layer metrics for one pass, and the work counts that did not repeat."""
    traced = [s for s in samples if s.traced and s.layers]
    untraced = [s for s in samples if not s.traced and s.wall_s is not None]
    totals = {}
    unsteady = []
    for op in ops:
        layers = [s.layers for s in traced if s.op == op]
        for key in layers[0] if layers else ():
            values = [layer[key] for layer in layers]
            if key.endswith("_s"):
                value = median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    unsteady.append("%s: %s %s" % (op, key, values))
            totals[key] = totals.get(key, 0) + value
    overhead = _pass_sum(traced, ops, "wall_s") - _pass_sum(untraced, ops, "wall_s")
    metrics = {
        key: value for key, value in totals.items()
        if key not in ("census.kernel_consistent_calls", "census.brute_span_s")
    }
    metrics["polyring.yield"] = _ratio(totals["polyring.irreducibles_found"],
                                       totals["polyring.candidates"])
    metrics["census.kernel_consistent"] = _ratio(totals["census.kernel_consistent_calls"],
                                                 totals["census.kernel_calls"])
    metrics["census.brute_items_per_s"] = _ratio(totals["census.brute_items"],
                                                 totals["census.brute_span_s"])
    metrics["trace.overhead_s"] = overhead
    return metrics, unsteady


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record(versions: dict) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "nproc": os.cpu_count(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "cpu_model": cpu_model,
        "loadavg": _read("/proc/loadavg").split()[:3],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    # SystemExit inside os.wait4 makes _reap kill and reap the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "commvar" / "cli.py").is_file():
        print("error: no commvar sources under %s" % src, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(BENCH_DIR / "reference.json") as fh:
        reference = json.load(fh)

    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("COMMVAR_MAX_BRUTE", None)
    # also writes the bytecode cache, so no timed process compiles commvar
    check = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK], cwd=ROOT, env=env, capture_output=True, text=True
    )
    if check.returncode != 0:
        print("error: cannot import commvar:\n%s" % check.stderr, file=sys.stderr)
        return 2
    versions = json.loads(check.stdout)
    if Path(versions["commvar"]).resolve().parent != (src / "commvar").resolve():
        print("error: imported commvar from %s" % versions["commvar"], file=sys.stderr)
        return 2
    record = machine_record(versions)

    ops = WORKLOADS[args.workload]
    pattern = [False, True, True] if args.trace else [False]
    started = time.perf_counter()
    samples = measure(ops, args.seed, args.seconds, pattern, env, reference)
    elapsed = time.perf_counter() - started

    untraced = [s for s in samples if not s.traced]
    failed = sum(1 for s in samples if s.error)
    correct = failed == 0
    if args.trace:
        values, unsteady = per_layer(samples, ops)
        for line in unsteady:
            print("work count changed between passes: %s" % line, file=sys.stderr)
        correct = correct and not unsteady
        wanted = spec["per_layer"]
    else:
        values = end_to_end(samples, ops)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        elapsed_s=round(elapsed, 3),
        samples_per_op={op: sum(1 for s in samples if s.op == op) for op in ops},
        unscaled_wall_s=_pass_sum(untraced, ops, "raw_wall_s"),
        unscaled_cpu_s=_pass_sum(untraced, ops, "raw_cpu_s"),
    )
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one commvar CLI command in this process and report how long it took.

Usage: python3 bench/child.py <trace 0|1> <commvar argument>...

run.py starts one of these per operation, with PYTHONPATH pointing at the
checkout's src/.  The command's JSON goes to stdout exactly as the CLI writes
it.  After the command returns, one line starting with RECORD_PREFIX goes to
stderr, holding:

* ready: time.perf_counter() once `commvar` is imported.  perf_counter is
  CLOCK_MONOTONIC on Linux, so the parent subtracts its own spawn time from
  this to get the process set-up time.
* wall_s: time from entry into commvar.cli.main to its return, JSON
  emission included, less the time the speed probe took meanwhile.
* probe_s: the durations of every run of the speed probe.
* probe_cpu_s: CPU time the probe used, which run.py leaves out of cpu_s.
* exit_code: what main returned.
* layers: with tracing on, the per-layer figures from tracing.Tracer.
"""

import json
import signal
import sys
import time

from commvar import cli

READY = time.perf_counter()

RECORD_PREFIX = "bench-record "
PROBE_ITERATIONS = 5_000  # about 0.3 ms on an idle vCPU
PROBE_PERIOD_S = 0.02
PROBES_AROUND = 20


class SpeedProbe:
    """Times a fixed pure-Python loop, to see how fast the CPU runs now.

    It runs PROBES_AROUND times just before and just after the command, and
    every PROBE_PERIOD_S during it, from a SIGALRM handler.  Handlers run
    between bytecodes of the main thread, so they leave the command's
    results alone; the time they take is taken out of the command's.
    """

    def __init__(self):
        self.durations = []
        self.cpu_s = 0.0
        self.during_s = 0.0

    def run(self) -> float:
        cpu = time.process_time()
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i * i % 7
        duration = time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu
        self.durations.append(duration)
        return duration

    def around(self) -> None:
        for _ in range(PROBES_AROUND):
            self.run()

    def tick(self, signum, frame) -> None:
        self.during_s += self.run()

    def start_ticking(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop_ticking(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


class TicksHeldOutput:
    """Wraps sys.stdout so that probe ticks wait while it writes.

    A tick that lands while a large write is blocked on the pipe can drop
    part of the output: with ticks, about one in eight 1.5 MB `classes`
    reports came out with a 64 KiB-aligned piece missing under CPython 3.11;
    with writes held, none in 25.
    """

    def __init__(self, stream):
        self._stream = stream

    def _held(self, method, *args):
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return method(*args)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def write(self, text):
        return self._held(self._stream.write, text)

    def flush(self):
        return self._held(self._stream.flush)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> None:
    trace = sys.argv[1] == "1"
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    sys.stdout = TicksHeldOutput(sys.stdout)
    probe = SpeedProbe()
    probe.around()
    probe.start_ticking()
    start = time.perf_counter()
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    probe.stop_ticking()
    elapsed = time.perf_counter() - start
    probe.around()
    record = {
        "ready": READY,
        "wall_s": elapsed - probe.during_s,
        "probe_s": probe.durations,
        "probe_cpu_s": probe.cpu_s,
        "exit_code": code,
    }
    if tracer is not None:
        # spans hold the probe ticks that fired inside them; take those
        # out pro rata
        record["layers"] = tracer.report(elapsed, record["wall_s"] / elapsed)
    sys.stderr.write(RECORD_PREFIX + json.dumps(record) + "\n")
    sys.stderr.flush()


if __name__ == "__main__":
    main()

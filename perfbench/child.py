"""One benchmark child process.

    python3 perfbench/child.py RUN_DIR WORKLOAD MODE

Imports the program, makes the workload's untimed warm-up call, then runs
every operation listed in RUN_DIR/inputs.json, timing each one.  MODE is
``setup`` (stop after the warm-up), ``plain`` or ``traced``.  Each output
goes to its own file under RUN_DIR/out-MODE; the result, with the
monotonic clock reading at the end of set-up, goes to
RUN_DIR/result-MODE.json.  ``run.py`` starts this with ``PYTHONPATH=src``.

While an operation runs, the child times a short fixed calibration
kernel every 25 ms from a SIGALRM handler, and once just before and just
after it.  On a shared machine the speed of a core drifts by a third and
more within seconds as other tenants load it; the kernel slows down with
it, so ``run.py`` can scale each time to a fixed machine speed.  The time
spent in the handler is taken off the operation's time; in the traced
run it falls inside whichever span is open, about 2% of its time.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, summarize


def calibration_kernel():
    """Fixed pure-Python work, dict and integer operations like the
    program's own; about 0.25 ms on a quiet 2.0 GHz Xeon core."""
    d = {}
    for i in range(2000):
        k = i & 255
        d[k] = d.get(k, 0) + (i ^ (i >> 3))
    return d


def calibrate() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Times the calibration kernel every ``interval`` seconds of wall
    time while the ``with`` block runs; ``spent`` is the time the samples
    took."""

    def __init__(self, interval=0.025):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        took = calibrate()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.samples = [calibrate()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())


def run_op(workload, inputs, key, path, tracer=None) -> dict:
    """Run one operation with its output going to ``path``; ``seconds``
    excludes the probe's samples, ``calibration_s`` is their mean."""
    record = {"key": key, "file": path.name, "exit": None, "error": None}
    with workloads.OutputSink(path) as sink, SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            if tracer is None:
                record["exit"] = workload.run(inputs, key, sink)
            else:
                record["exit"] = tracer.call("op", workload.run, inputs, key, sink)
        except Exception:
            record["error"] = traceback.format_exc(limit=3)
        record["seconds"] = time.perf_counter() - start - probe.spent
    record["calibration_s"] = statistics.fmean(probe.samples)
    record["sha256"] = sink.hexdigest()
    record["bytes"] = sink.bytes
    return record


def main(argv) -> int:
    run_dir, name, mode = Path(argv[0]), argv[1], argv[2]
    workload = workloads.WORKLOADS[name]
    inputs = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))
    workload.warm_up(inputs)
    result = {"setup_done": time.monotonic(), "ops": []}
    result["setup_calibration_s"] = statistics.median(calibrate() for _ in range(21))
    if mode != "setup":
        tracer = Tracer() if mode == "traced" else None
        if tracer is not None:
            workload.instrument(tracer)
        out_dir = run_dir / f"out-{mode}"
        out_dir.mkdir()
        first = {}  # (key, sha256) -> the file that already holds those bytes
        for p, keys in enumerate(inputs["passes"]):
            for key in keys:
                op = run_op(workload, inputs, key, out_dir / f"{p}-{key}.out", tracer)
                if op["error"]:
                    print(op["error"], file=sys.stderr)
                kept = first.setdefault((key, op["sha256"]), op["file"])
                if kept != op["file"]:
                    (out_dir / op["file"]).unlink()
                    op["file"] = kept
                result["ops"].append(op)
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.restore()
            tracer.write(run_dir / "spans.tsv")
            result["layers"] = summarize(tracer.spans, tracer.invocations)
    (run_dir / f"result-{mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The gamma-top benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep3-tables, verify4-docs, mine3-tables (see workloads.py), or
``all`` to run the three in turn.  Run it from anywhere inside a checkout
that holds ``src/gamma_top``; it builds nothing and installs nothing.

``--trace 0`` measures the end-to-end metrics: four set-up-only child
processes, then one child that makes two or more passes over the
workload's operations, sized to take about S seconds; the metrics take
each operation's median time over the passes.  ``--trace 1`` runs one pass untraced and
the same pass traced, each in a fresh child, and reports the per-layer
metrics of the traced one.  Every child runs single-threaded
(``GAMMA_TOP_THREADS=1``).

Times are wall-clock times scaled to a fixed machine speed.  Each child
times a fixed calibration kernel (child.py) every 25 ms during each
operation and after its set-up, and each time is multiplied by
CALIBRATION_S over the kernel's mean time there.  On the shared 2-core
machine this benchmark was built on, raw times of one workload drifted
by 30-50% from run to run with other tenants' load, the scaled ones by a
few percent.  The children's result files next to the run record keep the
raw times and the kernel times.

Every operation is gated: it must not raise, and its exit code and the
sha256 of its output must equal the reference recorded at the seed
commit (reference.json); its output must also hold the workload's known
answers.  In the traced run each output must equal the untraced one.

Each metric is printed by name with its unit; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run record (CPU count, Python version, commit, source
digest, /proc/loadavg at start and end, every problem found) goes to
perfbench/out/<workload>-trace<t>/record.json and is appended to
perfbench/out/runs.jsonl.

Tests of the harness itself: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # the timed child and four set-up-only children
RUN_LIMIT_S = 170  # per workload; the caller allows 180
# the calibration kernel's time on a quiet core of the reference machine
# (Xeon 2.0 GHz, Python 3.11.7): the machine speed all times are scaled to
CALIBRATION_S = 0.00025


class RunFailed(Exception):
    pass


def tail(samples):
    """``(value, percentile)``: the highest nearest-rank percentile that
    has at least ten samples beyond it.  With fewer than 21 samples that
    percentile would not lie above the median, so the maximum is given,
    as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    rank = n - 10
    return xs[rank - 1], 100.0 * rank / n


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the program's files, to identify a checkout that is not
    a git repository."""
    sha = hashlib.sha256()
    src = ROOT / "src" / "gamma_top"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def spawn(run_dir, workload, mode, deadline):
    """Run one child to completion; its result gains ``setup_s``, the
    scaled time from just before the start of the process to its first
    operation."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GAMMA_TOP_THREADS="1")
    start = time.monotonic()
    if start >= deadline:
        raise RunFailed(f"{RUN_LIMIT_S} s limit reached before the {mode} child")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(run_dir), workload.name, mode],
            env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=deadline - start,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"the {mode} child passed the {RUN_LIMIT_S} s limit") from None
    path = run_dir / f"result-{mode}.json"
    if proc.returncode != 0 or not path.exists():
        raise RunFailed(f"the {mode} child exited with code {proc.returncode}")
    result = json.loads(path.read_text(encoding="utf-8"))
    result["setup_s"] = ((result["setup_done"] - start)
                         * CALIBRATION_S / result["setup_calibration_s"])
    return result


def scaled_seconds(op):
    return op["seconds"] * CALIBRATION_S / op["calibration_s"]


def gate(workload, reference, ops, out_dir):
    """One list of problems per operation: it raised, its exit code or the
    sha256 of its output differs from the reference, or its output lacks
    the workload's known answers.  An empty list is a passed operation."""
    known = {}
    problems = []
    for op in ops:
        key = op["key"]
        found = [f"{key}: raised\n{op['error']}"] if op["error"] else []
        ref = reference.get(key)
        if ref is None:
            found.append(f"{key}: no reference output")
        else:
            if op["sha256"] != ref["sha256"]:
                found.append(f"{key}: output sha256 differs from the reference")
            if op["exit"] != ref["exit"]:
                found.append(f"{key}: exit code {op['exit']}, reference {ref['exit']}")
        if not op["error"]:
            answer = (key, op["sha256"], op["exit"])
            if answer not in known:
                try:
                    text = (out_dir / op["file"]).read_text(encoding="utf-8")
                    known[answer] = workload.check(key, text, op["exit"])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    known[answer] = [f"unreadable output: {type(exc).__name__}: {exc}"]
            found += [f"{key}: {p}" for p in known[answer]]
        problems.append(found)
    return problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload, plain, setup):
    """Metrics of the timed child, from each operation's median time over
    the passes; ``extra`` holds the sample counts behind them.  An operation is a
    document on verify4-docs, a sweep call on sweep3-tables and a predicate
    on mine3-tables."""
    times = {}
    for op in plain["ops"]:
        times.setdefault(op["key"], []).append(scaled_seconds(op))
    per_op = [statistics.median(t) for t in times.values()]
    ms = [s * 1000.0 for s in per_op]
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "spaces_per_s": _metric(workload.spaces_per_op * len(per_op) / sum(per_op), "1/s"),
        "verify_p50_ms": _metric(statistics.median(ms), "ms"),
        "verify_tail_ms": _metric(tail_ms, "ms"),
        "peak_rss_mib": _metric(plain["maxrss_kib"] / 1024.0, "MiB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }
    speed = statistics.median(CALIBRATION_S / op["calibration_s"] for op in plain["ops"])
    extra = {"samples": len(ms), "passes": len(plain["ops"]) // len(ms),
             "tail_percentile": tail_pct, "setup_samples": setup, "machine_speed": speed}
    return metrics, extra


def per_layer_metrics(plain, traced):
    import workloads

    layers = traced["layers"]
    metrics = {}
    for span in workloads.LAYER_SPANS:
        s, calls = layers.get(span, (0.0, 0))
        metrics[f"{span}.s"] = _metric(s, "s")
        metrics[f"{span}.calls"] = _metric(calls, "count")
    for span in workloads.CLAIM_SPANS.values():
        metrics[f"{span}.s"] = _metric(layers.get(span, (0.0, 0))[0], "s")
    metrics["cli.output_bytes"] = _metric(sum(op["bytes"] for op in traced["ops"]), "bytes")
    overhead = (sum(map(scaled_seconds, traced["ops"]))
                - sum(map(scaled_seconds, plain["ops"])))
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = OUT / f"{workload.name}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "source_sha256": source_digest(), "loadavg_start": loadavg(),
    }
    inputs = workload.prepare(run_dir, seed, seconds)
    if trace:
        del inputs["passes"][1:]
    (run_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    reference = reference[workload.name]
    if trace:
        plain = spawn(run_dir, workload, "plain", deadline)
        traced = spawn(run_dir, workload, "traced", deadline)
        ops = plain["ops"] + traced["ops"]
        problems = (gate(workload, reference, plain["ops"], run_dir / "out-plain")
                    + gate(workload, reference, traced["ops"], run_dir / "out-traced"))
        for i, (a, b) in enumerate(zip(plain["ops"], traced["ops"])):
            if a["sha256"] != b["sha256"]:
                problems[len(plain["ops"]) + i].append(
                    f"{b['key']}: traced output differs from the untraced one")
        record["metrics"] = per_layer_metrics(plain, traced)
    else:
        setup = [spawn(run_dir, workload, "setup", deadline)["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
        plain = spawn(run_dir, workload, "plain", deadline)
        setup.append(plain["setup_s"])
        ops = plain["ops"]
        problems = gate(workload, reference, ops, run_dir / "out-plain")
        record["metrics"], record["samples"] = end_to_end_metrics(workload, plain, setup)
    for leftover in ("out-plain", "out-traced", "docs"):
        shutil.rmtree(run_dir / leftover, ignore_errors=True)
    record.update(
        loadavg_end=loadavg(),
        attempted=len(ops),
        failed=sum(1 for p in problems if p),
        problems=[p for found in problems for p in found],
    )
    text = json.dumps(record, sort_keys=True)
    (run_dir / "record.json").write_text(text + "\n", encoding="utf-8")
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return record


def print_record(record):
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"{name:14} {metric:38} {m['value']:>16.6f} {m['unit']}")
    if "samples" in record:
        s = record["samples"]
        print(f"{name:14} per-operation times: {s['samples']} samples (median of "
              f"{s['passes']} passes each), tail = p{s['tail_percentile']:.1f}; "
              f"machine speed {s['machine_speed']:.3f} of the reference")
    rate = record["failed"] / record["attempted"]
    print(f"{name:14} error_rate = {rate:g} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    print(f"{name:14} cpus {record['cpu_count']}, python {record['python']}, "
          f"loadavg {record['loadavg_start']} -> {record['loadavg_end']}")
    for problem in record["problems"][:10]:
        print(f"{name:14} FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gamma_top" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'gamma_top'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    records = []
    try:
        for workload in chosen:
            records.append(run_workload(workload, args.seed, args.seconds, args.trace))
            print_record(records[-1])
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference output of every operation the benchmark can run.

    PYTHONPATH=src GAMMA_TOP_THREADS=1 python3 perfbench/record_reference.py

For each workload, runs every operation once (all 2,775 documents for
verify4-docs, about five minutes in all), checks the workload's known
answers in each output and writes the sha256 and exit code of each to
perfbench/reference.json.  It refuses to write if a known answer fails.
Re-record only for a change that alters the program's output on purpose,
and say why in CHANGES.md: the benchmark counts any other difference as a
failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from child import run_op
from run import BENCH, OUT


def main() -> int:
    reference = {}
    problems = []
    for workload in workloads.WORKLOADS.values():
        run_dir = OUT / "reference"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        inputs = workload.reference_inputs(run_dir)
        workload.warm_up(inputs)
        entries = {}
        for key in inputs["passes"][0]:
            path = run_dir / f"{key}.out"
            op = run_op(workload, inputs, key, path)
            if op["error"]:
                problems.append(f"{workload.name} {key}: raised\n{op['error']}")
                continue
            text = path.read_text(encoding="utf-8")
            problems += [f"{workload.name} {key}: {p}"
                         for p in workload.check(key, text, op["exit"])]
            entries[key] = {"sha256": op["sha256"], "exit": op["exit"]}
            path.unlink()
        reference[workload.name] = entries
        shutil.rmtree(run_dir)
        print(f"{workload.name}: {len(entries)} outputs", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    lines = ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                     for k, v in entries.items())
        + "\n }"
        for name, entries in reference.items()
    )
    (BENCH / "reference.json").write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for optreal, driven from outside through its public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S] [--out FILE]

Run it from the root of a checkout; it imports optreal from ``src/`` there
and needs nothing built.  Each run starts the workload in a fresh child
interpreter with BLAS/OpenMP threads pinned to 1, one workload at a time.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 1 when any output check fails.

``--report`` runs every workload untraced and traced for one seed and prints
every metric, including the ones BENCHMARK.json does not gate, as Markdown.
Full results, spans and the exact-count ledger go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import layer_metric_names
from workloads import WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def start_child(root: Path, args: list[str], deadline: float):
    """Start a child and wait for its ``ready`` line; return it and the set-up time."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), str(root), *args], cwd=root,
                            stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0"})
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        finish_child(proc, watchdog)
        raise BenchError(f"child did not become ready (exit code {proc.returncode})")
    return proc, watchdog, setup


def finish_child(proc, watchdog) -> list[str]:
    try:
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return lines


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    args = [name, str(seed), repr(seconds), "1" if trace else "0"]
    setups = []
    # Set-up is sampled in fresh interpreters; the traced run needs none.
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        proc, watchdog, setup = start_child(root, args + ["--setup-only"], deadline)
        finish_child(proc, watchdog)
        setups.append(setup)
    proc, watchdog, setup = start_child(root, args, deadline)
    setups.append(setup)
    lines = finish_child(proc, watchdog)
    if not lines:
        raise BenchError("child printed no result")
    result = json.loads(lines[-1])
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                                    "samples": len(setups)}
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    path = root / ".perfbench" / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    return result


def contract_line(result: dict, names: list[str]) -> str:
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {k: result["metrics"][n][k] for k in ("value", "unit")} for n in names},
    })


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_tables(untraced: dict, traced: dict) -> list[str]:
    out = [f"### {untraced['workload']} (seed {untraced['seed']}, {untraced['inputs']} inputs, "
           f"{untraced['rounds']} rounds untraced, {traced['rounds']} traced)", "",
           "| end-to-end metric | value | unit | samples |", "|---|---|---|---|"]
    for name, m in sorted(untraced["metrics"].items()):
        out.append(f"| {name} | {fmt(m['value'])} | {m['unit']} | {m['samples']} |")
    layers = traced["metrics"]
    # The extra validate() call is not part of realize, so it has no share.
    times = {n: m["value"] for n, m in layers.items() if m["unit"] == "ms" and "validate" not in n}
    traced_ms = sum(times.values())
    out += ["", "| per-layer metric | value | unit | share of traced time |", "|---|---|---|---|"]
    for name in layer_metric_names():
        m = layers[name]
        share = f"{times[name] / traced_ms:.1%}" if name in times and traced_ms else ""
        out.append(f"| {name} | {fmt(m['value'])} | {m['unit']} | {share} |")
    largest = ", ".join(f"{n} {times[n] / traced_ms:.1%}"
                        for n in sorted(times, key=times.get, reverse=True)[:3])
    built = layers["flow.arcs_mds"]["value"] + layers["flow.arcs_mm"]["value"] > 0
    out += ["", f"largest layers: {largest}; networks built: {'yes' if built else 'no'}",
            "", f"correct: {untraced['correct'] and traced['correct']}; "
            f"pins: {untraced['pins']}; env: {json.dumps(untraced['env'])}", ""]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--out", type=Path, help="with --report, also write the results as JSON")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("give --workload NAME or --report")

    root = Path.cwd()
    if not (root / "src" / "optreal" / "__init__.py").is_file():
        print(f"{root} is not a checkout of optreal: src/optreal is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        if not args.report:
            result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
            names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
            for failure in result["failures"]:
                print(f"FAILED {failure}")
            print(contract_line(result, names))
            return 0 if result["correct"] else 1
        results, lines = [], []
        for name in WORKLOADS:
            pair = [run_workload(root, name, args.seed, args.seconds, trace)
                    for trace in (False, True)]
            results += pair
            lines += report_tables(*pair)
        print("\n".join(lines))
        if args.out:
            args.out.write_text(json.dumps(results, indent=1))
        return 0 if all(r["correct"] for r in results) else 1
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

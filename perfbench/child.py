"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/child.py ROOT WORKLOAD SEED SECONDS TRACE [--setup-only]

Imports optreal from ROOT/src, makes one untimed warm-up call and prints
``ready``.  Unless ``--setup-only`` is given it then runs the workload in a
closed loop (one caller, each input's calls start after the previous input
returns): whole rounds over the input pool, at least MIN_ROUNDS of them,
until SECONDS have passed.  It checks every output and prints one JSON
object as its last line.

With TRACE = 1 every input is run twice: once through the public calls as
usual, and once through the same public stage calls that ``realize_*`` makes
(value, build_*_flow, max_flow, extract_bipartite_*, round_bipartite_*),
each inside a span.  The composed witness must equal the realize_* output
edge for edge.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from check import CheckFailure, check_witness

# Plan call -> (optreal function, span name in the traced run).  realize_*
# calls are traced as their composed stages instead.
CALLS = {"parse": ("parse_sequence", "sequences.parse"),
         "is_graphic": ("is_graphic", "sequences.is_graphic"),
         "mds_value": ("mds_value", "dominating.value"),
         "mm_value": ("mm_value", "matching.value"),
         "realize_mds": ("realize_mds", None),
         "realize_mm": ("realize_mm", None)}
# Layers whose stages serve both objectives get an _mds/_mm suffix.
SHARED_LAYERS = ("flow.", "bipartite.", "rounding.")
PEAK_METRICS = {"dominating.build": "flow.build_peak_mb", "matching.build": "flow.build_peak_mb",
                "flow.max_flow": "flow.max_flow_peak_mb", "rounding.round": "rounding.peak_mb"}
COUNT_METRICS = ("flow.arcs", "flow.nodes", "flow.value", "flow.useful_arc_ratio",
                 "flow.network_bytes", "bipartite.half_edges")
COUNT_UNITS = {"flow.useful_arc_ratio": "ratio", "flow.network_bytes": "bytes-computed"}
OBJECTIVES = ("mds", "mm")
# Every input runs at least this often, so each call's fastest time is a best of three.
MIN_ROUNDS = 3


def layer_metric_names() -> list[str]:
    names = [f"{stage}_ms" for stage in ("sequences.parse", "sequences.is_graphic",
                                          "dominating.value", "matching.value",
                                          "dominating.build", "matching.build")]
    for obj in OBJECTIVES:
        names += [f"{stage}_ms_{obj}" for stage in ("flow.max_flow", "bipartite.extract",
                                                     "bipartite.validate", "rounding.round")]
        names += [f"{count}_{obj}" for count in COUNT_METRICS]
        names += [f"{peak}_{obj}" for peak in sorted(set(PEAK_METRICS.values()))]
    return names + ["trace.overhead_ratio"]


def import_optreal(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import optreal
    if Path(optreal.__file__).resolve().parent != src / "optreal":
        raise SystemExit(f"optreal was imported from {optreal.__file__}, not from {src}")
    return optreal


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "optreal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def pool_digest(pool: list) -> str:
    h = hashlib.sha256()
    for item in pool:
        h.update((item if isinstance(item, str) else " ".join(map(str, item))).encode() + b"\n")
    return h.hexdigest()[:16]


@dataclass
class Expect:
    """What the benchmark knows about one input without asking optreal."""
    arg: object                    # DegreeSequence, or text for parse
    values: tuple[int, ...] | None  # sorted degrees (None for text inputs)
    histogram: np.ndarray | None    # degree counts of a text input
    graphic: bool
    pin: list | None                # [mds, mm] pinned at the seed commit


def prepare(opt, item, pin) -> Expect:
    if isinstance(item, str):
        degrees = np.array(item.split(), dtype=np.int64)
        return Expect(item, None, np.bincount(degrees), workloads.is_graphic(degrees), pin)
    return Expect(opt.DegreeSequence(item), item, None, workloads.is_graphic(item), pin)


def run_plan(opt, plan, arg):
    """Make the plan's public calls on one input; return outputs and seconds per call."""
    outputs, seconds = {}, {}
    for call in plan:
        fn = getattr(opt, CALLS[call][0])
        started = time.perf_counter()
        try:
            result = fn(arg)
        except Exception as exc:  # an expected rejection or a failure; the check decides
            # Without its traceback the exception keeps no frame (and no
            # large local) of optreal alive until the next garbage collection.
            result = exc.with_traceback(None)
        seconds[call] = time.perf_counter() - started
        outputs[call] = result
        if call == "parse":
            if isinstance(result, Exception):
                break
            arg = result
    return outputs, seconds


def compose_realize(opt, d, objective: str, tracer):
    """realize_<objective> rebuilt from its public stages, one span per stage call.

    Returns the witness and the exact counts of the network and the bipartite
    realization; the counting itself runs outside the stage spans.
    """
    mds = objective == "mds"
    layer = "dominating" if mds else "matching"
    with tracer.span(f"realize_{objective}", objective):
        with tracer.span("sequences.is_graphic", objective):
            if not opt.is_graphic(d):
                raise CheckFailure("is_graphic rejected a graphic input")
        with tracer.span(f"{layer}.value", objective):
            value = opt.mds_value(d) if mds else opt.mm_value(d)
        with tracer.span(f"{layer}.build", objective, memory=True):
            net = opt.build_mds_flow(d, value) if mds else opt.build_mm_flow(d, value)
        with tracer.span("flow.max_flow", objective, memory=True):
            flow = opt.max_flow(net)
        if flow.value != (d.total if mds else d.total - 2 * value):
            raise CheckFailure(f"{layer} network does not saturate at value {value}")
        with tracer.span("bipartite.extract", objective):
            bip = (opt.extract_bipartite_mds if mds else opt.extract_bipartite_mm)(d, value, flow)
        with tracer.span("bipartite.validate", objective):
            bip.validate()
        with tracer.span("rounding.round", objective, memory=True):
            graph = (opt.round_bipartite_mds if mds else opt.round_bipartite_mm)(bip)
    n = d.n
    # Every unit of flow crosses exactly one unit pair arc; the other arcs are
    # the n source arcs, the n sink arcs and, for mds, 2(n - gamma) arcs
    # through the supplementary nodes.
    unit_arcs = net.arc_count - 2 * n - (2 * (n - value) if mds else 0)
    a = np.frombuffer(b"".join(bip.adjacency), dtype=np.uint8).reshape(n + 1, n + 1)
    counts = {
        "flow.arcs": net.arc_count,
        "flow.nodes": net.node_count,
        "flow.value": flow.value,
        "flow.useful_arc_ratio": flow.value / unit_arcs,
        "flow.network_bytes": sum(len(x) * x.itemsize for x in (net.tails, net.heads, net.caps)),
        "bipartite.half_edges": int(np.count_nonzero((a + a.T) == 1)) // 2,
    }
    return graph, counts


def run_traced(opt, plan, arg, tracer):
    outputs, counts = {}, {}
    for call in plan:
        if call.startswith("realize_"):
            objective = call.split("_")[1]
            outputs[call], found = compose_realize(opt, arg, objective, tracer)
            counts.update({f"{k}_{objective}": v for k, v in found.items()})
            continue
        function, stage = CALLS[call]
        fn = getattr(opt, function)
        with tracer.span(stage):
            try:
                outputs[call] = fn(arg)
            except opt.NotGraphicError as exc:
                outputs[call] = exc.with_traceback(None)
        if call == "parse":
            arg = outputs[call]
    return outputs, counts


def traced_pass(opt, plan, arg, tracer, k):
    """Run the plan through spans; return the composed outputs, the exact
    counts and the traced time without the extra validate calls."""
    tracer.input = k
    with tracer.span("input") as root_span:
        outputs, counts = run_traced(opt, plan, arg, tracer)
    validate = sum(s.ms for s in tracer.spans[root_span.id:] if s.name == "bipartite.validate")
    return outputs, counts, (root_span.ms - validate) / 1e3


def check_outputs(opt, exp: Expect, outputs: dict) -> list[str]:
    """Check one input's outputs; return one message per failed call."""
    failures = []
    value = {"mds": None, "mm": None}
    if exp.pin is not None:
        value = dict(zip(OBJECTIVES, exp.pin))
    for call, result in outputs.items():
        try:
            if isinstance(result, Exception) and not (
                    isinstance(result, opt.NotGraphicError) and not exp.graphic
                    and call in ("mds_value", "mm_value")):
                raise CheckFailure(f"raised {result!r}")
            if call == "parse":
                got = np.fromiter(result.values, dtype=np.int64, count=result.n)
                if (result.zero_count or np.any(got[:-1] < got[1:])
                        or not np.array_equal(np.bincount(got, minlength=len(exp.histogram)),
                                              exp.histogram)):
                    raise CheckFailure("parsed degrees differ from the input text")
            elif call == "is_graphic":
                if result != exp.graphic:
                    raise CheckFailure(f"returned {result!r}, expected {exp.graphic}")
            elif not exp.graphic:
                if not isinstance(result, opt.NotGraphicError):
                    raise CheckFailure("accepted a sequence that is not graphic")
            else:
                objective = call.split("_")[0] if call.endswith("_value") else call.split("_")[1]
                got = result if call.endswith("_value") else check_witness(
                    exp.values, result, objective)
                if value[objective] is None:
                    value[objective] = got
                elif got != value[objective]:
                    raise CheckFailure(f"gives {got}, expected {value[objective]}")
        except CheckFailure as exc:
            failures.append(f"{call}: {exc}")
        except Exception as exc:  # a malformed output breaks the check itself
            failures.append(f"{call}: output could not be checked ({exc!r})")
    return failures


def same_outputs(plain: dict, traced: dict) -> list[str]:
    """The composed stages must reproduce the public calls exactly."""
    failures = []
    for call, result in plain.items():
        other = traced.get(call)
        if isinstance(result, Exception) or isinstance(other, Exception):
            same = type(result) is type(other)
        elif call.startswith("realize_"):
            same = (result.n, result.edges, result.certificate) == (
                other.n, other.edges, other.certificate)
        else:
            same = result == other
        if not same:
            failures.append(f"{call}: composed stages differ from the public call")
    return failures


def oracle_cross_check(opt, seed: int) -> tuple[int, list[str]]:
    """Values and witnesses on n <= 8 against the exhaustive oracle."""
    attempted, failures = 0, []
    for values in workloads.oracle_pool(seed):
        d = opt.DegreeSequence(values)
        pin = [opt.oracle_mds(d), opt.oracle_mm(d)]
        outputs, _ = run_plan(opt, workloads.WORKLOADS["batch-small"].plan, d)
        attempted += len(outputs)
        failures += [f"oracle {values}: {f}" for f in
                     check_outputs(opt, Expect(d, values, None, True, pin), outputs)]
    return attempted, failures


def compare_ledger(path: Path, counts: dict) -> list[str]:
    """Exact counts must repeat in every run of the same code, workload and seed."""
    ledger = json.loads(path.read_text()) if path.exists() else {}
    failures = []
    for idx, found in counts.items():
        old = ledger.setdefault(idx, {})
        for key, v in found.items():
            if key in old and old[key] != v:
                failures.append(f"input {idx}: {key} is {v}, an earlier run counted {old[key]}")
            old.setdefault(key, v)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, sort_keys=True))
    return failures


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end_metrics(plan, latencies, call_seconds):
    """Each input's best pass, as a median over the pool.

    An input's best pass is the sum of its calls' fastest times over the
    run.  Other work on the machine only ever adds time, so the fastest
    call is the steadiest estimate of what the code costs; the pool is the
    same in every run, so the median is over the same inputs.
    """
    fastest = [{call: min(secs) for call, secs in calls.items()} for calls in call_seconds]
    best = [sum(f.values()) for f in fastest]
    m = {
        "latency_p50_ms": metric(statistics.median(best) * 1e3, "ms", len(best)),
        "seq_per_s": metric(len(best) / sum(best), "1/s", len(best)),
    }
    every = [x for lat in latencies for x in lat]
    if len(every) >= 10:
        p90 = statistics.quantiles(every, n=10)[8]
        if sum(x > p90 for x in every) >= 10:
            m["latency_p90_ms"] = metric(p90 * 1e3, "ms", len(every))
    for call in plan:
        m[f"{call}_ms"] = metric(statistics.median(f[call] for f in fastest) * 1e3, "ms",
                                 len(fastest))
    return m


def layer_metrics(spans, counts, inputs_traced, traced_seconds, plain_seconds):
    """Per-layer means per traced input; 0 for a layer the workload never calls."""
    totals, peaks = defaultdict(float), defaultdict(float)
    for s in spans:
        if s.name.startswith(SHARED_LAYERS):
            totals[f"{s.name}_ms_{s.objective}"] += s.ms
        elif "." in s.name:
            totals[f"{s.name}_ms"] += s.ms
        if s.peak_bytes is not None:
            key = f"{PEAK_METRICS[s.name]}_{s.objective}"
            peaks[key] = max(peaks[key], s.peak_bytes / 2 ** 20)
    m = {}
    for name in layer_metric_names():
        if name.endswith(("_ms", "_ms_mds", "_ms_mm")):
            m[name] = metric(totals[name] / inputs_traced, "ms", inputs_traced)
        elif name.startswith(tuple(PEAK_METRICS.values())):
            m[name] = metric(peaks[name], "MB", inputs_traced)
    for obj in OBJECTIVES:
        for count in COUNT_METRICS:
            key = f"{count}_{obj}"
            vals = [c[key] for c in counts.values() if key in c]
            m[key] = metric(statistics.fmean(vals) if vals else 0.0, COUNT_UNITS.get(count, "count"),
                            len(vals))
    m["trace.overhead_ratio"] = metric(traced_seconds / plain_seconds, "ratio", inputs_traced)
    return m


def measure_input(opt, plan, exp: Expect, k: int, tracer):
    """Run one input (twice when traced) and check it.

    Returns seconds per public call, failure messages, exact counts and the
    traced time.
    """
    found, counts, traced, traced_seconds = [], {}, None, 0.0
    # The traced pass goes first on every other input, so the order of the
    # two passes does not bias the overhead ratio.
    order = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
    for which in order if tracer is not None else ("plain",):
        if which == "plain":
            outputs, seconds = run_plan(opt, plan, exp.arg)
            continue
        try:
            traced, extra, traced_seconds = traced_pass(opt, plan, exp.arg, tracer, k)
            counts.update(extra)
        except Exception as exc:  # a broken stage fails this input, not the run
            found.append(f"traced stages: {exc!r}")
    if traced is not None:
        found += same_outputs(outputs, traced)
    found += check_outputs(opt, exp, outputs)
    d = outputs.get("parse", exp.arg)
    if isinstance(d, opt.DegreeSequence):
        counts.update(n=d.n, degree_sum=d.total)
    return seconds, found, counts, traced_seconds


def main(argv):
    root, name, seed, seconds, trace = (Path(argv[0]), argv[1], int(argv[2]),
                                        float(argv[3]), argv[4] == "1")
    wl = workloads.WORKLOADS[name]
    opt = import_optreal(root)
    warmup = workloads.WARMUP_DEGREES
    run_plan(opt, wl.plan, " ".join(map(str, warmup)) if wl.plan[0] == "parse"
             else opt.DegreeSequence(warmup))
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    pool = workloads.make_pool(name, seed)
    inputs_digest = pool_digest(pool)
    pins = json.loads((Path(__file__).parent / "pins" / f"{name}.json").read_text())
    pinned = pins["values"].get(str(seed))
    failures = []
    if pinned is not None and pins["inputs"][str(seed)] != inputs_digest:
        failures.append("inputs differ from the inputs the pins were recorded for")
        pinned = None
    inputs = [prepare(opt, item, pinned[i] if pinned else None) for i, item in enumerate(pool)]
    del pool
    attempted, oracle_failures = oracle_cross_check(opt, seed)
    failures += oracle_failures

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    # Seconds per pass of each input, and per public call of each pass.
    latencies = [[] for _ in inputs]
    call_seconds = [defaultdict(list) for _ in inputs]
    counts: dict[str, dict] = {}
    traced_seconds = 0.0
    loop_start = time.perf_counter()
    rounds = 0
    while True:
        for idx, exp in enumerate(inputs):
            k = rounds * len(inputs) + idx
            secs, found, found_counts, spent = measure_input(opt, wl.plan, exp, k, tracer)
            latencies[idx].append(sum(secs.values()))
            for call, sec in secs.items():
                call_seconds[idx][call].append(sec)
            traced_seconds += spent
            attempted += len(wl.plan) * (2 if tracer else 1)
            failures += [f"input {idx}: {f}" for f in found]
            # An input seen again within the run must give the same counts.
            if counts.setdefault(str(idx), found_counts) != found_counts:
                failures.append(f"input {idx}: counts changed within the run")
        rounds += 1
        # Whole rounds only, at least MIN_ROUNDS; then stop at the round
        # boundary nearest the deadline, so a run lasts about SECONDS.
        elapsed = time.perf_counter() - loop_start
        if rounds >= MIN_ROUNDS and elapsed * (1 + 1 / (2 * rounds)) >= seconds:
            break

    digest = source_digest(root)
    out_dir = root / ".perfbench"
    attempted += 1
    ledger = out_dir / "counts" / digest / f"{name}-seed{seed}-{inputs_digest}.json"
    failures += compare_ledger(ledger, {
        idx: {key: v for key, v in c.items() if isinstance(v, int)} for idx, c in counts.items()})
    if tracer is not None:
        tracer.close()
        metrics = layer_metrics(tracer.spans, counts, rounds * len(inputs), traced_seconds,
                                sum(map(sum, latencies)))
        path = out_dir / "traces" / f"{name}-seed{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": name, "seed": seed, "spans": tracer.dump()}))
    else:
        metrics = end_to_end_metrics(wl.plan, latencies, call_seconds)
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    metrics["error_rate"] = metric(len(failures) / attempted, "ratio", attempted)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "pins": "checked" if pinned else "no pins for this seed",
        "inputs": len(inputs),
        "rounds": rounds,
        "metrics": metrics,
        "counts": counts,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "optreal_source": digest,
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""spbw benchmark: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run times whole passes of the workload until
``--seconds`` have elapsed and prints the end-to-end metrics, in reference
seconds (``speed.py``): wall time corrected for the drift of the shared
machine's speed, which a kernel independent of spbw samples as the run goes.  With
``--trace 1`` it runs one pass plainly, then the same pass under the tracer
of ``tracing.py``, checks that both give equal outputs, and prints the
per-layer metrics.  Either way every output is checked against its known
answer after the timed part, and a full record (provenance, every
operation, spans) goes to ``perfbench/results/``.  See README.md for why
the workloads are what they are.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import speed
from tracing import Tracer
from workloads import PASSES, ROOT, DocInput

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5  # set-ups per run, of which setup_s is the median
# `op_s.p50` of `reduce` is the median of the copies of one 11-ms product
# (workloads.py); with three copies or more, one stray copy cannot move it.
MIN_PASSES = {"reduce": 3}

# Boundaries each workload must reach in the traced run (the per-layer table
# of README.md), and the layers `reduce` must not touch at all.
EXERCISED = {
    "corpus": ("calculus.d0", "calculus.differential", "calculus.wedge", "calculus.left_multiply",
               "extended.apply", "core.multiply", "coefficients.mul", "coefficients.apply_endo",
               "coefficients.apply_sder", "scalars.mul", "scalars.add", "scalars.eq",
               "scalars.inverse", "linalg.kernel_basis", "linalg.solve", "gkdim.filtration_dims",
               "gkdim.gk_estimate", "dsl.parse_presentation", "dsl.build_presentation"),
    "wide": ("calculus.d0", "calculus.differential", "calculus.wedge", "calculus.left_multiply",
             "extended.apply", "core.multiply", "coefficients.mul", "scalars.mul", "scalars.add",
             "scalars.eq", "linalg.kernel_basis", "linalg.solve", "gkdim.filtration_dims",
             "gkdim.gk_estimate", "dsl.parse_presentation", "dsl.build_presentation"),
    "reduce": ("core.multiply", "coefficients.mul", "coefficients.apply_endo",
               "coefficients.apply_sder", "scalars.mul", "scalars.add", "dsl.parse_presentation",
               "dsl.build_presentation"),
}
UNTOUCHED = {"reduce": ("calculus.d0", "calculus.wedge", "linalg.kernel_basis", "gkdim.gk_estimate")}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# -- set-up and operations -------------------------------------------------------------


def load_spbw():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spbw = importlib.import_module("spbw")
    if Path(spbw.__file__).resolve().parent != SRC / "spbw":
        raise BenchmarkError(f"imported spbw from {spbw.__file__}, not from {SRC}")
    return spbw


def prepare(spbw, inputs) -> list:
    """Parse every document; for a product, also build its fresh presentation
    and the two factors."""
    out = []
    for inp in inputs:
        doc = spbw.parse_presentation(inp.text)
        if isinstance(inp, DocInput):
            out.append((inp, doc))
            continue
        P = spbw.build_presentation(doc)
        left = [0] * P.n
        left[inp.j] = inp.k
        if inp.i is None:
            right = P.from_coeff(P.ring.var(0) ** inp.k)
        else:
            e = [0] * P.n
            e[inp.i] = inp.k
            right = P.monomial(e)
        out.append((inp, (P, P.monomial(left), right)))
    return out


def setup(workload: str, seed: int):
    """Import spbw and prepare the first pass; returns ((reference seconds,
    wall seconds), spbw, items)."""
    inputs = PASSES[workload](seed, 0)

    def import_and_prepare():
        spbw = load_spbw()
        return spbw, prepare(spbw, inputs)

    ref_s, wall_s, _, (spbw, items) = speed.bracket(import_and_prepare)
    return (ref_s, wall_s), spbw, items


def operate(spbw, item):
    """One operation: a document to a verdict, or a product to normal form."""
    inp, data = item
    if isinstance(inp, DocInput):
        return spbw.run_smooth(data)
    P, f, g = data
    return P.multiply(f, g)


def fingerprint(item, out) -> str:
    inp, data = item
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if isinstance(inp, DocInput):
        return out.to_json(zero_timing=True)
    return data[0].render(out)


def run_pass(spbw, items, wrap=None, meter=None):
    """Run every operation once; returns ([(seconds, output)], wall seconds,
    [(first, last)] marks of `meter` around each operation).
    An operation that raises yields its exception as the output.

    A full collection runs before each operation, outside its time, so every
    operation starts from the same collector state whatever ran before it."""
    results, marks = [], []
    start = time.perf_counter()
    for item in items:
        gc.collect()
        if meter:
            meter.sample()
        first = meter.mark() if meter else 0
        t0 = time.perf_counter()
        try:
            out = (wrap or operate)(spbw, item)
        except Exception as exc:  # recorded and checked as a failed operation
            out = exc
        results.append((time.perf_counter() - t0, out))
        if meter:
            marks.append((first, meter.mark()))
            meter.sample()
    return results, time.perf_counter() - start, marks


def check(items, results) -> list:
    """Oracle status of each operation: (status, detail)."""
    verdicts = []
    for item, (_, out) in zip(items, results):
        inp, data = item
        if isinstance(out, Exception):
            verdicts.append((oracles.WRONG, f"raised {type(out).__name__}: {out}"))
        elif isinstance(inp, DocInput):
            verdicts.append(oracles.check_report(inp, out))
        else:
            verdicts.append(oracles.check_product(inp, data[0], out))
    return verdicts


def describe(item) -> str:
    inp = item[0]
    if isinstance(inp, DocInput):
        return f"{inp.name} seed={inp.seed}"
    pair = "t" if inp.i is None else f"x{inp.i + 1}"
    return f"{inp.family} x{inp.j + 1}^{inp.k}*{pair}^{inp.k}"


def op_records(p, items, results, verdicts) -> list:
    return [{"pass": p, "op": describe(item), "seconds": dt, "status": status, "detail": detail}
            for item, (dt, _), (status, detail) in zip(items, results, verdicts)]


# -- the two kinds of run -------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> list:
    """(reference, wall) set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(workload: str, seed: int, seconds: int) -> tuple:
    """Whole passes until `seconds` of wall time have elapsed, and at least
    `MIN_PASSES` of them.  Each
    operation's time is converted to reference seconds once the speedometer
    has stopped; a pass's rate is its successful operations over the sum of
    its operations' reference seconds."""
    setup_s, spbw, items = setup(workload, seed)
    setups = [setup_s] + [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    passes, records, failed, correct, elapsed, p = [], [], 0, True, 0.0, 0
    with speed.Speedometer() as meter:
        while True:
            results, wall, marks = run_pass(spbw, items, meter=meter)
            elapsed += wall
            passes.append((results, marks))
            verdicts = check(items, results)
            records += op_records(p, items, results, verdicts)
            failed += sum(status != oracles.OK for status, _ in verdicts)
            correct &= all(status != oracles.WRONG for status, _ in verdicts)
            p += 1
            if elapsed >= seconds and p >= MIN_PASSES.get(workload, 1):
                break
            items = prepare(spbw, PASSES[workload](seed, p))
    ref_times, wall_times, rates, wall_rates = [], [], [], []
    for results, marks in passes:
        timed = [meter.seconds(dt, *mark) for (dt, _), mark in zip(results, marks)]
        done = sum(not isinstance(out, Exception) for _, out in results)
        rates.append(done / sum(ref for ref, _ in timed))
        wall_rates.append(done / sum(work for _, work in timed))
        ref_times += [ref for ref, _ in timed]
        wall_times += [work for _, work in timed]
    for record, ref_s in zip(records, ref_times):
        record["reference_seconds"] = ref_s
    metrics = {
        "setup_s": statistics.median(ref for ref, _ in setups),
        "ops_per_s": statistics.median(rates),
        "op_s.p50": statistics.median(ref_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "passes": p, "timed_s": elapsed, "pass_rates": rates, "setup_samples": setups,
        "wall": {"setup_s": statistics.median(wall for _, wall in setups),
                 "ops_per_s": statistics.median(wall_rates), "op_s.p50": statistics.median(wall_times)},
        "kernel_unit_s": {"median": meter.unit_s(), "min": min(meter.samples),
                          "max": max(meter.samples), "samples": len(meter.samples)},
        "sampling_share": sum(meter.samples) / elapsed,
    }
    return correct, len(ref_times), failed, metrics, records, extra, []


def traced_run(workload: str, seed: int) -> tuple:
    _, spbw, items = setup(workload, seed)
    results, wall, _ = run_pass(spbw, items)
    verdicts = check(items, results)
    failed = sum(status != oracles.OK for status, _ in verdicts)
    correct = all(status != oracles.WRONG for status, _ in verdicts)
    stage_s = dict.fromkeys(spbw.pipeline.STAGES, 0.0)
    for _, out in results:
        for rec in getattr(out, "checks", ()):
            stage_s[rec.name] += rec.seconds

    tracer = Tracer()
    with tracer:
        traced_items = prepare(spbw, PASSES[workload](seed, 0))

        def traced_op(spbw, item):
            tracer.op = describe(item)
            return tracer.span("operation", operate)(spbw, item)

        traced_results, traced_wall, _ = run_pass(spbw, traced_items, traced_op)
    differ = [describe(item) for item, (_, a), (_, b) in zip(items, results, traced_results)
              if fingerprint(item, a) != fingerprint(item, b)]
    if differ:
        raise BenchmarkError(f"traced outputs differ from untraced outputs: {differ}")

    layer = tracer.metrics()
    silent = [name for name in EXERCISED[workload] if layer[f"{name}.calls"] == 0]
    touched = [name for name in UNTOUCHED.get(workload, ()) if layer[f"{name}.calls"] != 0]
    if silent or touched:
        raise BenchmarkError(f"{workload}: no calls recorded at {silent}; calls recorded at {touched}")
    layer.update({f"pipeline.{stage}_s": s for stage, s in stage_s.items()})
    layer["trace.overhead_ratio"] = traced_wall / wall
    layer["fail_share"] = failed / len(results)
    records = op_records(0, items, results, verdicts)
    extra = {"untraced_s": wall, "traced_s": traced_wall, "all_counters": dict(layer)}
    return correct, len(results), failed, layer, records, extra, tracer.spans


# -- provenance and output --------------------------------------------------------------------


def provenance(args, operations: int) -> dict:
    """Where, on what and with what a result was made; `src_lines` is
    information, not a metric."""
    files = sorted((SRC / "spbw").rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "operations": operations, "commit": commit, "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def declared_metrics(trace: int) -> list:
    """(name, unit) of every metric BENCHMARK.json asks of this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0
    wanted = declared_metrics(args.trace)
    if args.trace:
        correct, attempted, failed, values, records, extra, spans = traced_run(args.workload, args.seed)
    else:
        correct, attempted, failed, values, records, extra, spans = timed_run(
            args.workload, args.seed, args.seconds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}
    prov = provenance(args, attempted)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": prov, "metrics": metrics, "run": extra,
                               "operations": records, "spans": spans}, indent=1), encoding="utf-8")
    print(json.dumps({"provenance": prov, "record": str(out.relative_to(ROOT))}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, RuntimeError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)

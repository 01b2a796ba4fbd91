"""ybekit benchmark: one closed-loop, single-caller workload per process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run imports the library unpatched, times items for S
seconds and reports the end-to-end metrics.  With --trace 1 it runs a fixed,
seeded list of items twice, first untraced and then with every layer
wrapped (see tracing.py), and reports the per-layer metrics and the tracing
overhead.  Every item's outputs are checked exactly outside the timed
region; a wrong or missing answer counts as failed and makes the run fail.

The last line of standard output is the result
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record with provenance, which is also written under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS, digest_of  # noqa: E402

SETUP_REPEATS = 20

# Item and set-up times are the process's CPU time.  Every workload runs in
# one single-threaded process and waits on nothing but small file writes, so
# on an idle machine this equals elapsed time; on a shared one it leaves out
# the time the process waits for a CPU held by another tenant.
CLOCK = time.process_time

END_TO_END = {           # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "blockmat.self_s": "s",
    "blockmat.matrix_cells": "count",
    "blockmat.nnz_fraction": "ratio",
    "blockmat.product_s": "s",
    "blockmat.product_out_cells": "count",
    "blockmat.eq_s": "s",
    "blockmat.eq_cells": "count",
    "blockmat.matmul_s": "s",
    "blockmat.matmul_terms": "count",
    "blockmat.inverse_s": "s",
    "blockmat.csv_s": "s",
    "blockmat.csv_bytes": "bytes",
    "setsolutions.self_s": "s",
    "setsolutions.axiom_checks": "count",
    "setsolutions.braid_triples": "count",
    "setsolutions.direct_product_s": "s",
    "setsolutions.iso_calls": "count",
    "setsolutions.iso_relabelings": "count",
    "setsolutions.json_s": "s",
    "repmat.self_s": "s",
    "repmat.repmat_s": "s",
    "repmat.verify_s": "s",
    "repmat.entries_compared": "count",
    "repmat.ybe_matrix_s": "s",
    "repmat.ybe_scalar_s": "s",
    "repmat.qybe_s": "s",
    "enumeration.self_s": "s",
    "enumeration.candidates": "count",
    "enumeration.solutions": "count",
    "enumeration.yield": "ratio",
    "enumeration.classes": "count",
    "enumeration.iso_classes_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.nonzero_exits": "count",
    "cli.bytes_written": "bytes",
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead_items_per_s": "1/s",
}


class Library:
    """Freshly imported `ybekit` modules, one attribute per layer."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "ybekit" or n.startswith("ybekit.")]:
            del sys.modules[name]
        importlib.import_module("ybekit")
        for layer in tracing.LAYERS:
            setattr(self, layer, importlib.import_module(f"ybekit.{layer}"))
        self.modules = {n: m for n, m in sys.modules.items()
                        if n == "ybekit" or n.startswith("ybekit.")}


class Pass:
    """Attempts, failures, latencies and output digests of one pass."""

    def __init__(self, workload, lib, inputs, tracer=None) -> None:
        self.workload, self.lib, self.inputs, self.tracer = workload, lib, inputs, tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.bytes_written = 0

    def item(self, item, timed: bool = True) -> None:
        w = self.workload
        self.attempted += 1
        try:
            if self.tracer is not None:
                self.tracer.active = True
            start = CLOCK()
            try:
                out = w.run(self.lib, self.inputs, item)
            finally:
                elapsed = CLOCK() - start
                if self.tracer is not None:
                    self.tracer.active = False
            try:
                problems = w.check(self.lib, self.inputs, item, out)
                self.digests.append(w.digest(item, out))
                self.bytes_written += w.bytes_written(out)
            finally:
                w.clean(out)
        except Exception as exc:     # a library error is a missing answer
            problems = [f"item {item.index}: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        elif timed:
            self.latencies.append(elapsed)

    def items_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies) if self.latencies else 0.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile and the number of samples above it."""
    values = sorted(latencies)
    value = percentile(values, q)
    return value, sum(1 for v in values if v > value)


def git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(ROOT),
        "nproc": nproc,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def measure(workload, lib, inputs, seconds: float) -> tuple[Pass, dict, dict]:
    run = Pass(workload, lib, inputs)
    run.item(workload.warm_up(inputs), timed=False)
    deadline = time.perf_counter() + seconds
    for item in workload.schedule(inputs):
        run.item(item)
        if item.ends_round and time.perf_counter() >= deadline:
            break
    lat = run.latencies
    q = workload.tail_percentile
    value, beyond = tail(lat, q) if lat else (0.0, 0)
    metrics = {
        "items_per_s": run.items_per_s(),
        "item_ms_p50": statistics.median(lat) * 1e3 if lat else 0.0,
        "item_ms_tail": value * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"samples": len(lat), "tail_percentile": q, "tail_samples_beyond": beyond}
    return run, metrics, detail


def measure_traced(workload, lib, inputs, items: int, seed: int) -> tuple[Pass, dict, dict]:
    """The same items untraced, then traced; untraced first so that the
    library runs unpatched until the tracer is installed."""
    schedule = workload.schedule(inputs)
    chosen = [next(schedule) for _ in range(items)]
    run = Pass(workload, lib, inputs)
    run.item(workload.warm_up(inputs), timed=False)
    run.digests = []
    for item in chosen:
        run.item(item)
    untraced_ips, untraced_digests = run.items_per_s(), run.digests
    tracer = tracing.Tracer()
    wrapped = tracing.install(tracer, lib.modules)
    run.tracer, run.latencies, run.digests, run.bytes_written = tracer, [], [], 0
    for item in chosen:
        run.item(item)
    tracer.counters["cli.bytes_written"] = run.bytes_written
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.items_per_s"] = run.items_per_s()
    metrics["trace.untraced_items_per_s"] = untraced_ips
    metrics["trace.overhead_items_per_s"] = run.items_per_s() - untraced_ips
    spans_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    detail = {
        "wrapped_functions": wrapped,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "items_digest": digest_of([item.spec for item in chosen]),
        "outputs_digest": digest_of(run.digests),
        "untraced_outputs_digest": digest_of(untraced_digests),
        "counters": {name: metrics[name] for name in tracing.COUNTERS},
    }
    return run, metrics, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="how long the untraced run times items")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ybekit" / "__init__.py").is_file():
        print(f"error: no ybekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()      # the previous set-up's garbage is not this one's cost
            start = CLOCK()
            lib = Library()
            inputs = workload.prepare(lib, args.seed, work_dir)
            setup_times.append(CLOCK() - start)
        if args.trace:
            run, metrics, detail = measure_traced(
                workload, lib, inputs, workload.trace_items, args.seed)
        else:
            run, metrics, detail = measure(workload, lib, inputs, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems[:20],
        "setup_samples_s": setup_times,
        **detail,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

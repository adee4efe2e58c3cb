#!/usr/bin/env python3
"""lrckit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {analyze,construct,bounds-sweep,curves}
                             [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout; lrckit is imported from ./src.  Each run
starts fresh interpreters (perfbench/worker.py), so the lrckit caches start
empty.  One client sends the workload's seeded requests in a closed loop for
T seconds of request time; input generation between requests is not timed.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_SAMPLES fresh interpreters of the time from process start to the
first request (importing lrckit and building the workload's GF(q) tables).
Timed metrics are scaled to REFERENCE_PROBE_S machine speed; the report
lines print the raw figures too.

--trace 1 reports the per-layer metrics instead: the same requests run for
T/2 untraced and then T/2 with spans and counters installed around lrckit's
public functions (perfbench/tracer.py); the overhead of tracing is the
traced request time over the untraced time on the requests both completed.

Every output is checked (perfbench/checks.py); a request that raised,
exited non-zero or failed its check is counted as failed.  The last line of
stdout is the JSON result; the lines before it are a readable report that
also records the seed, nproc, and the Python and numpy versions.
"""

import os

# one client on one process: no BLAS or OpenMP thread pools in any worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import Checker, differences  # noqa: E402
from tracer import COMPUTED  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
# Median of worker._speed_probe on the 2-vCPU container where the benchmark
# was defined.  That machine's speed drifts by up to 1.5-1.8x over minutes,
# so timed metrics are reported at this reference speed: each raw figure is
# scaled by the probe median measured in the same run over this constant.
REFERENCE_PROBE_S = 0.003
WORKER_GRACE_S = 60  # a worker may overrun T by its last request; kill it past this


def _worker(workload, seed, workdir, name, *extra, seconds=0.0, timeout=WORKER_GRACE_S):
    """Run one worker; returns (spawn time, its JSON records)."""
    out = workdir / f"{name}.jsonl"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir),
           "--out", str(out), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, timeout=seconds + timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return spawned, records


def _split(records):
    """(ready time, request records, closing record) of one worker."""
    return records[0]["ready"], records[1:-1], records[-1]["closing"]


def _judge(checker, reference, reqs, report) -> int:
    """Count failed requests; prints the first few failures."""
    failed = 0
    for rec in reqs:
        problems = []
        if rec["error"] is not None:
            problems = [rec["error"].strip().splitlines()[-1]]
        elif rec["rc"] != 0:
            problems = [f"exit code {rec['rc']}"]
        else:
            try:
                problems = checker.check(rec, rec["stdout"])
                if reference is not None and rec["i"] < len(reference):
                    problems += differences(checker.summary(rec, rec["stdout"]),
                                            reference[rec["i"]])
            except (ValueError, KeyError, IndexError, TypeError) as e:
                problems = [f"unreadable output: {e!r}"]
        if problems:
            failed += 1
            if failed <= 5:
                report.append(f"# FAILED request {rec['i']} ({rec['kind']}): {problems[:3]}")
    return failed


def _quantiles(latencies):
    p50 = statistics.median(latencies)
    if len(latencies) < 2:  # a minimal run; quantiles needs two points
        return p50, p50
    return p50, statistics.quantiles(latencies, n=10, method="inclusive")[8]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(BENCH / "reference"),
                    help="directory of recorded default-seed outputs")
    args = ap.parse_args()

    if not (ROOT / "src" / "lrckit" / "__init__.py").is_file():
        print(f"error: no lrckit sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    reference = None
    ref_path = Path(args.reference) / f"{args.workload}.json"
    if seed == DEFAULT_SEED and ref_path.is_file():
        reference = json.loads(ref_path.read_text(encoding="utf-8"))["summaries"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = [
        f"# lrckit benchmark: workload={args.workload} seed={seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"# env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} reference={'yes' if reference is not None else 'no'}",
    ]
    try:
        checker = Checker()
        if args.trace == 0:
            metrics, attempted, failed = _end_to_end(args, seed, workdir, checker, reference,
                                                     report)
        else:
            metrics, attempted, failed = _per_layer(args, seed, workdir, checker, reference,
                                                    report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for name, (value, unit) in metrics.items():
        label = "  (computed)" if name in COMPUTED else ""
        report.append(f"#   {name:<34} {value:>14.6g} {unit}{label}")
    report.append(f"# attempted={attempted} failed={failed}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _end_to_end(args, seed, workdir, checker, reference, report):
    def probe(j):
        spawned, records = _worker(args.workload, seed, workdir, f"setup{j}", "--setup-only")
        return records[0]["ready"] - spawned

    # probes before and after the measured worker, so one slow moment of the
    # machine does not set the median
    setups = [probe(j) for j in range(SETUP_SAMPLES // 2)]
    spawned, records = _worker(args.workload, seed, workdir, "run", seconds=args.seconds)
    ready, reqs, closing = _split(records)
    setups.append(ready - spawned)
    setups += [probe(j) for j in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    latencies = [r["latency"] for r in reqs]
    failed = _judge(checker, reference, reqs, report)
    p50, p90 = _quantiles(latencies)
    beyond = sum(1 for x in latencies if x > p90)
    slow = closing["probe_s"] / REFERENCE_PROBE_S  # > 1: the machine ran slower
    report.append(f"# setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
    report.append(f"# raw, at this run's machine speed: throughput "
                  f"{len(latencies) / sum(latencies):.4f} req/s, p50 {1000 * p50:.3f} ms, "
                  f"p90 {1000 * p90:.3f} ms with {beyond} of {len(latencies)} samples beyond "
                  f"it, setup {statistics.median(setups):.4f} s; error_frac "
                  f"{failed / len(reqs):.4f}")
    report.append(f"# speed probe median {1000 * closing['probe_s']:.4f} ms, reference "
                  f"{1000 * REFERENCE_PROBE_S:g} ms: timed metrics below are scaled by "
                  f"{slow:.4f}")
    metrics = {
        "setup_s": (statistics.median(setups) / slow, "s"),
        "throughput_rps": (len(latencies) / sum(latencies) * slow, "req/s"),
        "latency_p50_ms": (1000 * p50 / slow, "ms"),
        "latency_p90_ms": (1000 * p90 / slow, "ms"),
        "ok_frac": ((len(reqs) - failed) / len(reqs), "ratio"),
        "peak_rss_mb": (closing["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, len(reqs), failed


def _per_layer(args, seed, workdir, checker, reference, report):
    half = args.seconds / 2
    _, plain = _worker(args.workload, seed, workdir, "untraced", seconds=half)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-s{seed}.jsonl.gz"
    _, traced = _worker(args.workload, seed, workdir, "traced", "--trace", "--spans", str(spans),
                        seconds=half)
    _, plain_reqs, _ = _split(plain)
    _, traced_reqs, closing = _split(traced)
    failed = _judge(checker, reference, plain_reqs, report)
    failed += _judge(checker, reference, traced_reqs, report)

    common = min(len(plain_reqs), len(traced_reqs))
    plain_s = sum(r["latency"] for r in plain_reqs[:common])
    traced_s = sum(r["latency"] for r in traced_reqs[:common])
    metrics = {name: tuple(v) for name, v in closing["layers"].items()}
    metrics["trace.untraced_throughput_rps"] = (
        len(plain_reqs) / sum(r["latency"] for r in plain_reqs), "req/s")
    metrics["trace.traced_throughput_rps"] = (
        len(traced_reqs) / sum(r["latency"] for r in traced_reqs), "req/s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    report.append(f"# spans: {closing['spans']} written to {spans.relative_to(ROOT)}")
    report.append(
        f"# throughput untraced {metrics['trace.untraced_throughput_rps'][0]:.3f} req/s, "
        f"traced {metrics['trace.traced_throughput_rps'][0]:.3f} req/s; tracing overhead "
        f"{100 * metrics['trace.overhead_frac'][0]:.1f}% over the first {common} requests")
    return metrics, len(plain_reqs) + len(traced_reqs), failed


if __name__ == "__main__":
    sys.exit(main())

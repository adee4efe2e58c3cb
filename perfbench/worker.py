"""One measured client: a fresh interpreter that sets up lrckit and runs one
workload's requests in a closed loop, each sent when the previous returns.

Run by run.py, from the root of a checkout:

    python3 perfbench/worker.py --workload W --seed N --seconds T \\
        --workdir DIR --out FILE [--trace --spans FILE] [--setup-only] [--requests K]

Writes JSON lines to FILE: one set-up record, one record per request (its
latency, exit code and captured stdout), and a closing record with peak
memory, the median speed-probe time and, with --trace, the per-layer
figures.  Input generation and the speed probe run between requests and
outside every timed region.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path.cwd()


def _import_lrckit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lrckit
    import lrckit.cli  # noqa: F401  (the entry point every CLI request goes through)

    if not Path(lrckit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"lrckit imported from {lrckit.__file__}, not from {src}")
    return lrckit


def _call(lrckit, req) -> tuple[int, str]:
    """Send one request; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if req["argv"] is None:  # no CLI command reaches min_distance on its own
            code, _ = lrckit.code_core.load_code(req["code"])
            rc = 0
            print(lrckit.code_core.min_distance(code))
        else:
            rc = lrckit.cli.main(req["argv"])
    return rc, out.getvalue()


def _speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work outside lrckit.

    Run after every request, outside the timed region; its median says how
    fast this shared machine ran during the run (run.py scales by it).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    words = np.arange(1 << 16, dtype=np.int32)
    for _ in range(20):
        words += 1
        np.count_nonzero(words)
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--requests", type=int, default=0, help="stop after this many instead")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="with --trace, write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    lrckit = _import_lrckit()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    tracer = k_opt_cache = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        k_opt_cache = tracing.install(tracer)
        tracer.active = True
        tracer.request = "setup"
    for q in workloads.FIELDS[args.workload]:
        lrckit.galois.field_new(q)
    ready = time.monotonic()
    if tracer is not None:
        tracer.active = False

    with open(args.out, "w", encoding="utf-8") as out:
        out.write(json.dumps({"ready": ready}) + "\n")
        if args.setup_only:
            return 0
        busy = 0.0
        done = 0
        last_cycle = None
        probes = []
        for req in workloads.requests(args.workload, args.seed, Path(args.workdir)):
            if args.requests:
                if done == args.requests:
                    break
            elif busy >= args.seconds and req["cycle"] != last_cycle:
                break  # stop between cycles, so every run measures the same mix
            if tracer is not None:
                tracer.request = req["i"]
                tracer.active = True
            error = None
            t0 = time.perf_counter()
            try:
                rc, stdout = _call(lrckit, req)
            except Exception:  # a raising request is a failed one, not the end of the run
                rc, stdout, error = None, "", traceback.format_exc(limit=3)
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            busy += latency
            done += 1
            last_cycle = req["cycle"]
            probes.append(_speed_probe())
            out.write(json.dumps({**req, "latency": latency, "rc": rc,
                                  "stdout": stdout, "error": error}) + "\n")
        closing = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   "probe_s": sorted(probes)[len(probes) // 2] if probes else None}
        if tracer is not None:
            closing["layers"] = tracer.metrics(done, k_opt_cache)
            closing["spans"] = len(tracer.spans)
            if args.spans:
                tracer.dump(args.spans)
        out.write(json.dumps({"closing": closing}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the root of a checkout.

    python3 perfbench/selftest.py

1. Every workload at minimal length, untraced and traced: the result line
   has exactly the keys correct, attempted, failed and metrics, and every
   metric that BENCHMARK.json lists prints with its unit.  The traced run
   must measure the layers that workload calls (the names in CALLED below
   are nonzero).
2. A deliberately perturbed reference value is counted as a failed request.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, "perfbench/run.py"]
SCRATCH = ROOT / ".perfbench_work" / "selftest"

# per workload, the per-layer metrics of the layers it calls; each must be > 0
# after a short traced run
CALLED = {
    "analyze": ("cli.self_ms", "galois.field_new_ms", "galois.matmul_calls",
                "code_core.load_code_ms", "code_core.enum_calls", "code_core.enum_words",
                "code_core.rref_calls", "locality.search_calls", "locality.search_ms",
                "locality.subsets_visited", "locality.useful_subset_frac"),
    "construct": ("cli.self_ms", "galois.field_new_ms", "galois.matmul_ms",
                  "code_core.load_code_ms", "code_core.enum_ms", "code_core.enum_words_per_s",
                  "code_core.rref_ms", "code_core.entropy_calls", "code_core.closure_calls",
                  "code_core.restrict_calls", "locality.verify_calls", "residual.chain_ms",
                  "set_builder.build_ms", "set_builder.self_ms", "set_builder.trace_steps"),
    "bounds-sweep": ("cli.self_ms", "bounds.table_ms", "bounds.k_opt_calls",
                     "bounds.k_opt_cache_entries", "bounds.griesmer_length_calls",
                     "bounds.griesmer_dim_ms", "bounds.k_hamming_ms"),
    "curves": ("cli.self_ms", "asymptotic.rate_calls", "asymptotic.rate_ms",
               "asymptotic.base_evals", "asymptotic.emit_self_ms"),
}


def _run(workload, seconds, trace, seed=2, *extra, cwd=ROOT):
    cmd = [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload: str) -> list[str]:
    problems = []
    for trace, listed, seconds in ((0, SPEC["end_to_end"], 1), (1, SPEC["per_layer"], 4)):
        res = _result(_run(workload, seconds, trace))
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload} trace={trace}: result keys {sorted(res)}")
        if not res["correct"] or res["attempted"] < 1:
            problems.append(f"{workload} trace={trace}: {res['failed']} of "
                            f"{res['attempted']} requests failed")
        metrics = res["metrics"]
        if set(metrics) != {m["name"] for m in listed}:
            problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ {m['name'] for m in listed})}")
        for m in listed:
            got = metrics.get(m["name"], {})
            if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{workload} trace={trace}: {m['name']} printed as {got}")
        if trace == 1:
            for name in CALLED[workload]:
                if not metrics.get(name, {}).get("value"):
                    problems.append(f"{workload}: {name} is 0 in the traced run")
    return problems


def check_perturbed_reference() -> list[str]:
    workload = "bounds-sweep"
    ref = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    ref["summaries"][0]["k_opt"] += 1
    SCRATCH.mkdir(parents=True, exist_ok=True)
    (SCRATCH / f"{workload}.json").write_text(json.dumps(ref))
    res = _result(_run(workload, 1, 0, 1, "--reference", str(SCRATCH)))
    if res["failed"] < 1 or res["correct"] or res["metrics"]["ok_frac"]["value"] >= 1.0:
        return [f"a perturbed reference value went unnoticed: {res}"]
    return []


def check_bare_directory() -> list[str]:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("bounds-sweep", 1, 0, cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"run.py without sources exited {proc.returncode}: {proc.stdout[-300:]}"]
    return []


def main() -> int:
    problems = []
    try:
        for workload in CALLED:
            problems += check_metrics(workload)
        problems += check_perturbed_reference()
        problems += check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around lrckit's public functions, installed from outside.

`install` replaces each traced function in every lrckit module namespace that
binds it, so callers pick the wrapper up through their own module globals;
no file of the package changes.  Functions at layer boundaries get spans
(name, start, end, parent span, request id); hot inner functions
(`griesmer_length`, `rref`, `Field.matmul`, the base rate curves, `k_opt`)
get counters and no spans.  Spans stay in memory until `dump`.

Some figures are computed from a call's inputs and outputs rather than
measured: the words an enumeration would visit (q^k, even when the code's
cache answers) and the subsets a locality scan visits (sum of C(n, s) up to
the cap).  `COMPUTED` names them so reports can label them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import defaultdict
from math import comb
from time import perf_counter

COMPUTED = frozenset({
    "code_core.enum_words",
    "code_core.enum_words_per_s",
    "locality.subsets_visited",
    "locality.useful_subset_frac",
})

# functions evaluated for the bound tables of `analyze` and `bounds`
_BOUND_TABLE = (
    "k_bound_reschain", "k_bound_reschain_coarse", "k_bound_reschain_rdelta",
    "k_bound_cm_rdelta", "k_bound_cm", "k_bound_abhmt", "d_bound_local_griesmer",
    "d_bound_prakash", "d_bound_gopalan", "local_dim_bound", "local_dim_bound_logconvex",
)


def _subsets_upto(n: int, s: int) -> int:
    return sum(comb(n, j) for j in range(s + 1))


class Tracer:
    def __init__(self):
        self.active = False
        self.request = None
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self._stack: list[int] = []
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.totals: dict = defaultdict(float)

    def span(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name: str, fn, timed: bool):
        calls, seconds = self.calls, self.seconds
        if not timed:
            @functools.wraps(fn)
            def count(*args, **kwargs):
                if self.active:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return count

        @functools.wraps(fn)
        def count_and_time(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0
        return count_and_time

    # --- hooks deriving computed figures from one call ---

    def _on_enum(self, args, kwargs, result):
        code = args[0]
        self.totals["enum_words"] += code.q ** code.k

    def _on_locality(self, args, kwargs, profile):
        n = args[0].n
        visited = _subsets_upto(n, profile.size_cap)
        if profile.feasible:
            widest = max(len(s) for w in (profile.size_witness, profile.entropy_witness)
                         for s in w.values())
        else:
            widest = profile.size_cap  # proving infeasibility needs every subset
        self.totals["subsets_visited"] += visited
        self.totals["useful_subsets"] += _subsets_upto(n, widest)
        self.totals["cap_active"] += bool(profile.cap_active)

    def _on_build(self, args, kwargs, result):
        self.totals["trace_steps"] += len(result.trace)

    # --- results ---

    def _durations(self):
        """Per span: (name, duration, self time, parent name)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = []
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            out.append((name, dur, dur - child_time[idx],
                        self.spans[parent][0] if parent >= 0 else None))
        return out

    def metrics(self, requests: int, k_opt_cache) -> dict:
        """Per-layer figures: per-request rates over `requests` completed requests."""
        n_calls = defaultdict(int)
        dur = defaultdict(float)
        self_time = defaultdict(float)
        table_s = 0.0
        for name, d, s, parent in self._durations():
            n_calls[name] += 1
            dur[name] += d
            self_time[name] += s
            if name == "bounds.table" and parent != "bounds.table":
                table_s += d
        per = 1.0 / max(requests, 1)
        ms = 1000.0 * per
        info = k_opt_cache.cache_info()
        lookups = info.hits + info.misses
        enum_s = dur["code_core.enum"]
        visited = self.totals["subsets_visited"]
        searches = n_calls["locality.search"]
        builds = n_calls["set_builder.build"]
        return {
            "cli.self_ms": (self_time["cli.main"] * ms, "ms/req"),
            "galois.field_new_ms": (dur["galois.field_new"] * 1000.0, "ms"),
            "galois.matmul_calls": (self.calls["galois.matmul"] * per, "calls/req"),
            "galois.matmul_ms": (self.seconds["galois.matmul"] * ms, "ms/req"),
            "code_core.load_code_ms": (dur["code_core.load_code"] * ms, "ms/req"),
            "code_core.enum_calls": (n_calls["code_core.enum"] * per, "calls/req"),
            "code_core.enum_ms": (enum_s * ms, "ms/req"),
            "code_core.enum_words": (self.totals["enum_words"] * per, "words/req"),
            "code_core.enum_words_per_s": (
                self.totals["enum_words"] / enum_s if enum_s else 0.0, "words/s"),
            "code_core.rref_calls": (self.calls["code_core.rref"] * per, "calls/req"),
            "code_core.rref_ms": (self.seconds["code_core.rref"] * ms, "ms/req"),
            "code_core.entropy_calls": (n_calls["code_core.entropy"] * per, "calls/req"),
            "code_core.closure_calls": (n_calls["code_core.closure"] * per, "calls/req"),
            "code_core.restrict_calls": (n_calls["code_core.restrict"] * per, "calls/req"),
            "locality.search_calls": (searches * per, "calls/req"),
            "locality.search_ms": (dur["locality.search"] * ms, "ms/req"),
            "locality.subsets_visited": (visited * per, "subsets/req"),
            "locality.useful_subset_frac": (
                self.totals["useful_subsets"] / visited if visited else 0.0, "ratio"),
            "locality.cap_active_frac": (
                self.totals["cap_active"] / searches if searches else 0.0, "ratio"),
            "locality.verify_calls": (n_calls["locality.verify"] * per, "calls/req"),
            "locality.verify_ms": (dur["locality.verify"] * ms, "ms/req"),
            "residual.chain_calls": (n_calls["residual.chain"] * per, "calls/req"),
            "residual.chain_ms": (dur["residual.chain"] * ms, "ms/req"),
            "set_builder.build_calls": (builds * per, "calls/req"),
            "set_builder.build_ms": (dur["set_builder.build"] * ms, "ms/req"),
            "set_builder.self_ms": (self_time["set_builder.build"] * ms, "ms/req"),
            "set_builder.trace_steps": (
                self.totals["trace_steps"] / builds if builds else 0.0, "steps/build"),
            "constructions.simplex_ms": (dur["constructions.simplex"] * ms, "ms/req"),
            "bounds.table_ms": (table_s * ms, "ms/req"),
            "bounds.k_opt_calls": (self.calls["bounds.k_opt"] * per, "calls/req"),
            "bounds.k_opt_cache_hit_frac": (info.hits / lookups if lookups else 0.0, "ratio"),
            "bounds.k_opt_cache_entries": (float(info.currsize), "entries"),
            "bounds.griesmer_length_calls": (
                self.calls["bounds.griesmer_length"] * per, "calls/req"),
            "bounds.griesmer_dim_calls": (self.calls["bounds.griesmer_dim"] * per, "calls/req"),
            "bounds.griesmer_dim_ms": (self.seconds["bounds.griesmer_dim"] * ms, "ms/req"),
            "bounds.k_hamming_calls": (self.calls["bounds.k_hamming"] * per, "calls/req"),
            "bounds.k_hamming_ms": (self.seconds["bounds.k_hamming"] * ms, "ms/req"),
            "asymptotic.rate_calls": (n_calls["asymptotic.rate"] * per, "calls/req"),
            "asymptotic.rate_ms": (dur["asymptotic.rate"] * ms, "ms/req"),
            "asymptotic.base_evals": (self.calls["asymptotic.base_eval"] * per, "evals/req"),
            "asymptotic.emit_self_ms": (self_time["asymptotic.emit"] * ms, "ms/req"),
        }

    def dump(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def install(tracer: Tracer):
    """Wrap lrckit's traced functions; returns the original `k_opt_components`."""
    # by module path: the package namespace binds the name `residual` to a function
    names = ("galois", "code_core", "residual", "locality", "bounds", "set_builder",
             "asymptotic", "constructions", "verification", "cli")
    (galois, code_core, residual, locality, bounds, set_builder, asymptotic, constructions,
     _, cli) = mods = [importlib.import_module(f"lrckit.{name}") for name in names]
    modules = [importlib.import_module("lrckit"), *mods]

    def patch(owner, attr, wrapped):
        original = getattr(owner, attr)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)

    def span(owner, attr, name, on_return=None):
        patch(owner, attr, tracer.span(name, getattr(owner, attr), on_return))

    def counter(owner, attr, name, timed):
        patch(owner, attr, tracer.counter(name, getattr(owner, attr), timed))

    span(cli, "main", "cli.main")
    span(galois, "field_new", "galois.field_new")
    galois.Field.matmul = tracer.counter("galois.matmul", galois.Field.matmul, timed=True)
    span(code_core, "load_code", "code_core.load_code")
    for attr in ("min_distance", "min_weight_codeword", "codeword_matrix"):
        span(code_core, attr, "code_core.enum", tracer._on_enum)
    counter(code_core, "rref", "code_core.rref", timed=True)
    for attr in ("entropy", "closure", "restrict"):
        span(code_core, attr, f"code_core.{attr}")
    span(locality, "compute_locality", "locality.search", tracer._on_locality)
    span(locality, "verify_repair_set", "locality.verify")
    span(residual, "res_chain", "residual.chain")
    span(set_builder, "build_low_entropy_set", "set_builder.build", tracer._on_build)
    span(constructions, "simplex", "constructions.simplex")
    for attr in _BOUND_TABLE:
        span(bounds, attr, "bounds.table")
    counter(bounds, "k_opt", "bounds.k_opt", timed=False)
    counter(bounds, "griesmer_length", "bounds.griesmer_length", timed=False)
    counter(bounds, "griesmer_dim", "bounds.griesmer_dim", timed=True)
    counter(bounds, "k_hamming", "bounds.k_hamming", timed=True)
    span(asymptotic, "_optimize_rate", "asymptotic.rate")
    for attr in ("ropt_mrrw", "ropt_plotkin"):
        counter(asymptotic, attr, "asymptotic.base_eval", timed=False)
    span(asymptotic, "emit_curves", "asymptotic.emit")
    return bounds.k_opt_components

"""Command-line interface.

Subcommands:
  analyze       full report for a JSON code file (parameters, locality,
                bounds, optimality)
  bounds        evaluate the locality-aware bounds for given parameters
  asymptotic    emit rate vs relative-distance curves as CSV
  simplex       construct a Simplex code (optionally write it as JSON)
  build-set     run the low-entropy set construction and print its trace
  verify-paper  run the built-in reference checks; exit 0 only if all pass

Exit codes: 0 success, 1 verification failure, 2 input error.
All coordinates printed or read here are 1-based.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import asymptotic as asy
from . import bounds as bnd
from .code_core import (
    CodeFormatError,
    coords_to_1based,
    load_code,
    min_distance,
    save_code,
)
from .constructions import simplex
from .galois import prime_factorization
from .locality import compute_locality, profile_from_repair_sets, verify_repair_set
from .set_builder import BuilderError, build_low_entropy_set
from .verification import run_reference_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


def _timestamp_line(suppress: bool) -> list[str]:
    if suppress:
        return []
    return [f"generated: {datetime.now(timezone.utc).isoformat(timespec='seconds')}"]


def _fmt_set(s) -> str:
    return "{" + ",".join(str(v) for v in coords_to_1based(s)) + "}"


def cmd_analyze(args) -> int:
    try:
        code, declared_sets = load_code(args.file)
    except CodeFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    delta = args.delta
    try:
        d = min_distance(code)
        profile = compute_locality(code, delta, size_cap=args.cap)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT

    report: dict = {
        "file": str(args.file),
        "q": code.q,
        "parameters": [code.n, code.k, d],
        "delta": delta,
        "size_cap": profile.size_cap,
        "cap_active": profile.cap_active,
    }
    if profile.feasible:
        report["locality"] = {
            "r": profile.r,
            "kappa": profile.kappa,
            "size_witness": {str(i + 1): coords_to_1based(s)
                             for i, s in sorted(profile.size_witness.items())},
            "entropy_witness": {str(i + 1): coords_to_1based(s)
                                for i, s in sorted(profile.entropy_witness.items())},
        }
    else:
        report["locality"] = {
            "infeasible_coordinates": [i + 1 for i in profile.infeasible],
        }
    if declared_sets:
        report["declared_repair_sets"] = [
            {
                "coords": coords_to_1based(s),
                "entropy": chk.entropy,
                "size": chk.size,
                "distance": chk.distance,
                "valid": chk.valid,
                **({"reason": chk.reason} if chk.reason else {}),
            }
            for s in declared_sets
            for chk in [verify_repair_set(code, s, delta)]
        ]

    if profile.feasible:
        n, k, q, r, kappa = code.n, code.k, code.q, profile.r, profile.kappa
        rk = bnd.k_bound_reschain(n, d, kappa, delta, q)
        rkr = bnd.k_bound_reschain_rdelta(n, d, r, delta, q)
        k_bounds = {
            "reschain": rk.value,
            "reschain_coarse": bnd.k_bound_reschain_coarse(n, d, kappa, delta, q).value,
            "reschain_rdelta": rkr.value,
            "cm_rdelta": bnd.k_bound_cm_rdelta(n, d, r, delta, q),
            "abhmt": bnd.k_bound_abhmt(n, d, r, delta, q, "best"),
        }
        cm = bnd.k_bound_cm(n, d, r, q)
        if cm is not None:
            k_bounds["cm"] = cm
        d_bounds = {"local_griesmer": bnd.d_bound_local_griesmer(n, k, r, delta, q)}
        if r <= k:
            d_bounds["prakash"] = bnd.d_bound_prakash(n, k, r, delta)
            d_bounds["gopalan"] = bnd.d_bound_gopalan(n, k, r)
        report["k_bounds"] = k_bounds
        report["d_bounds"] = d_bounds
        report["witnesses"] = {"reschain": rk.witness, "reschain_rdelta": rkr.witness}
        report["optimal"] = sorted(
            [name for name, v in k_bounds.items() if v == k]
            + [name for name, v in d_bounds.items() if v == d]
        )

    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return EXIT_OK

    lines = _timestamp_line(args.no_timestamp)
    lines += [
        f"code: {args.file}",
        f"field: GF({code.q})",
        f"parameters: [{code.n}, {code.k}, {d}]",
        f"locality at delta = {delta} (size cap {profile.size_cap}"
        + (", cap active" if profile.cap_active else "") + "):",
    ]
    if profile.feasible:
        lines.append(f"  r = {profile.r}   kappa = {profile.kappa}")
        lines.append("  coord  min-size set        min-entropy set")
        for i in range(code.n):
            lines.append(
                f"  {i + 1:>5}  {_fmt_set(profile.size_witness[i]):<18}  "
                f"{_fmt_set(profile.entropy_witness[i])}"
            )
    else:
        lines.append(
            "  infeasible under cap for coordinates "
            + ", ".join(str(i + 1) for i in profile.infeasible)
        )
    if declared_sets:
        lines.append("declared repair sets:")
        for entry in report["declared_repair_sets"]:
            status = "ok" if entry["valid"] else f"INVALID ({entry.get('reason', '')})"
            lines.append(
                f"  {{{','.join(map(str, entry['coords']))}}}: H={entry['entropy']} "
                f"|R|={entry['size']} d={entry['distance']} {status}"
            )
    if profile.feasible:
        lines.append("bounds on k:")
        for name, v in sorted(report["k_bounds"].items()):
            met = "  <- met with equality" if v == code.k else ""
            lines.append(f"  {name:<16} {v}{met}")
        lines.append("bounds on d:")
        for name, v in sorted(report["d_bounds"].items()):
            met = "  <- met with equality" if v == d else ""
            lines.append(f"  {name:<16} {v}{met}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        return _bounds_table(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def _bounds_table(args) -> int:
    n, d, q, delta = args.n, args.d, args.q, args.delta
    if args.kappa is None and args.r is None:
        raise ValueError("provide --kappa and/or --r")
    if len(prime_factorization(q)) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    if args.k is not None and args.k > n:
        raise ValueError(f"k = {args.k} exceeds n = {n}")
    rows = []
    if args.kappa is not None:
        rep = bnd.k_bound_reschain(n, d, args.kappa, delta, q)
        rows.append(("reschain(kappa)", rep.value,
                     f"lambda={rep.witness['lambda']} len={rep.witness['shortened_length']}"))
        rows.append(("reschain_coarse", bnd.k_bound_reschain_coarse(n, d, args.kappa, delta, q).value, ""))
    if args.r is not None:
        rep = bnd.k_bound_reschain_rdelta(n, d, args.r, delta, q)
        rows.append(("reschain_rdelta", rep.value,
                     f"kappa_B={rep.witness['kappa_b']} lambda={rep.witness['lambda']}"))
        rows.append(("cm_rdelta", bnd.k_bound_cm_rdelta(n, d, args.r, delta, q), ""))
        cm = bnd.k_bound_cm(n, d, args.r, q)
        if cm is not None:
            rows.append(("cm", cm, ""))
        rows.append(("abhmt(best)", bnd.k_bound_abhmt(n, d, args.r, delta, q, "best"), ""))
        if args.k is not None:
            rows.append(("local_griesmer [d]",
                         bnd.d_bound_local_griesmer(n, args.k, args.r, delta, q), ""))
            if args.r <= args.k:
                rows.append(("prakash [d]", bnd.d_bound_prakash(n, args.k, args.r, delta), ""))
                rows.append(("gopalan [d]", bnd.d_bound_gopalan(n, args.k, args.r), ""))
    rows.append(("k_opt", bnd.k_opt(n, d, q), "locality-free composite"))
    if args.json:
        print(json.dumps({name: value for name, value, _ in rows}, indent=1, sort_keys=True))
        return EXIT_OK
    width = max(len(name) for name, _, _ in rows)
    print(f"parameters: n={n} d={d} q={q} delta={delta}"
          + (f" kappa={args.kappa}" if args.kappa is not None else "")
          + (f" r={args.r}" if args.r is not None else "")
          + (f" k={args.k}" if args.k is not None else ""))
    for name, value, note in rows:
        suffix = f"   ({note})" if note else ""
        print(f"  {name:<{width}}  {value}{suffix}")
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    names = [s.strip() for s in args.bounds.split(",") if s.strip()]
    for name in names:
        if name not in asy.CURVE_NAMES:
            print(f"error: unknown bound {name!r}; choose from {', '.join(asy.CURVE_NAMES)}",
                  file=sys.stderr)
            return EXIT_INPUT
    grid = asy.default_grid(args.grid)
    try:
        if args.out:
            asy.emit_curves(names, grid, args.r, args.delta, args.q, args.out,
                            lc_choice=args.lc, ropt_choice=args.ropt)
            print(f"wrote {args.out}")
        else:
            asy.emit_curves(names, grid, args.r, args.delta, args.q, sys.stdout,
                            lc_choice=args.lc, ropt_choice=args.ropt)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_simplex(args) -> int:
    try:
        code = simplex(args.m, args.q)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    d = min_distance(code)
    print(f"S({args.m},{args.q}): [{code.n}, {code.k}, {d}] over GF({args.q})")
    if args.out:
        save_code(code, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_build_set(args) -> int:
    try:
        code, declared_sets = load_code(args.code)
    except CodeFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if declared_sets:
            profile = profile_from_repair_sets(code, declared_sets, args.delta)
        else:
            profile = compute_locality(code, args.delta)
            if not profile.feasible:
                print("error: no repair sets found under the default cap; "
                      "declare repair_sets in the code file", file=sys.stderr)
                return EXIT_INPUT
        if profile.kappa > args.kappa:
            print(f"error: witnesses have dimension {profile.kappa} > kappa = {args.kappa}",
                  file=sys.stderr)
            return EXIT_INPUT
        result = build_low_entropy_set(code, profile, args.lam, kappa=args.kappa)
    except (ValueError, BuilderError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT

    if args.json:
        print(json.dumps({
            "coords": coords_to_1based(result.coords),
            "entropy": result.entropy,
            "size": result.size,
            "lambda": result.lam,
            "kappa": result.kappa,
            "delta": result.delta,
            "guaranteed_entropy": result.guaranteed_entropy,
            "guaranteed_size": result.guaranteed_size,
            "trace": [
                {
                    "action": st.action,
                    "added": coords_to_1based(st.added),
                    "entropy": [st.entropy_before, st.entropy_after],
                    "size": [st.size_before, st.size_after],
                    "gamma": st.gamma,
                    **({"note": st.note} if st.note else {}),
                }
                for st in result.trace
            ],
        }, indent=1))
        return EXIT_OK

    lines = _timestamp_line(args.no_timestamp)
    lines += [
        f"code: {args.code}",
        f"lambda = {result.lam} = a*kappa + b with kappa = {result.kappa}, delta = {result.delta}",
        f"built set: {_fmt_set(result.coords)}",
        f"entropy: {result.entropy} (guarantee <= {result.guaranteed_entropy})",
        f"size: {result.size} (guarantee >= {result.guaranteed_size})",
        "trace:",
    ]
    for st in result.trace:
        lines.append(
            f"  {st.action:<22} +{_fmt_set(st.added):<20} "
            f"H {st.entropy_before}->{st.entropy_after}  |F| {st.size_before}->{st.size_after}"
            + (f"  ({st.note})" if st.note else "")
        )
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify_paper(_args) -> int:
    results = run_reference_checks()
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"  {r.name:<{width}}  {status}  {r.detail}")
        ok = ok and r.passed
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrckit",
        description="Locality and bound analysis for linear codes over small fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a JSON code file")
    p.add_argument("file")
    p.add_argument("--delta", type=int, required=True, help="target local distance")
    p.add_argument("--cap", type=int, default=None, help="repair-set size cap (default min(n, delta + k))")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("bounds", help="evaluate bounds for given parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("asymptotic", help="emit rate/relative-distance curves as CSV")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--bounds", default="prakash,cm_rdelta,abhmt,local_griesmer,reschain")
    p.add_argument("--ropt", choices=list(asy.ROPT_CHOICES), default="mrrw")
    p.add_argument("--lc", choices=["singleton", "hamming", "plotkin", "best"], default="best")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_asymptotic)

    p = sub.add_parser("simplex", help="construct a Simplex code")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", default=None, help="write the code as JSON")
    p.set_defaults(fn=cmd_simplex)

    p = sub.add_parser("build-set", help="run the low-entropy set construction")
    p.add_argument("--code", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=cmd_build_set)

    p = sub.add_parser("verify-paper", help="run the built-in reference checks")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:
  analyze       full report for a JSON code file (parameters, locality,
                bounds, optimality)
  bounds        evaluate the locality-aware bounds for given parameters
  asymptotic    emit rate vs relative-distance curves as CSV
  simplex       construct a Simplex code (optionally write it as JSON)
  build-set     run the low-entropy set construction and print its trace
  verify-paper  run the built-in reference checks; exit 0 only if all pass

Exit codes: 0 success, 1 verification failure, 2 input error (`main` turns
every ValueError or BuilderError a command raises into "error: ..." on
stderr and exit 2).
All coordinates printed or read here are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone

from . import asymptotic as asy
from . import bounds as bnd
from .code_core import (
    MAX_ENUM_CELLS,
    coords_to_1based,
    load_code,
    min_distance,
    save_code,
)
from .constructions import simplex, simplex_length
from .galois import FIELD_SIZE_CAP, prime_factorization
from .locality import compute_locality, profile_from_repair_sets, verify_repair_set
from .set_builder import BuilderError, build_low_entropy_set
from .verification import run_reference_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

# --q is checked to be a prime power by trial division up to sqrt(q); at this
# cap the largest prime below it takes about 10 ms
MAX_Q = 1 << 32


def _timestamp_line(suppress: bool) -> list[str]:
    if suppress:
        return []
    return [f"generated: {datetime.now(timezone.utc).isoformat(timespec='seconds')}"]


def _check_q(q: int) -> None:
    """Refuse a --q that is not a prime power, the cap first."""
    if q > MAX_Q:
        raise ValueError(f"q = {q} is above the cap {MAX_Q} on --q")
    if len(prime_factorization(q)) != 1:
        raise ValueError(f"q = {q} is not a prime power")


def _fmt_set(coords) -> str:
    """Braced list of 1-based coordinates, e.g. {1,2,5}."""
    return "{" + ",".join(str(v) for v in coords) + "}"


def cmd_analyze(args) -> int:
    code, declared_sets = load_code(args.file)
    delta = args.delta
    # the locality search checks its arguments and costs before enumerating,
    # and its codeword table then serves min_distance
    profile = compute_locality(code, delta, size_cap=args.cap)
    d = min_distance(code)

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
        table = bnd.bound_table(code.n, d, code.q, delta,
                                k=code.k, r=profile.r, kappa=profile.kappa)
        report["k_bounds"] = table.k_bounds
        report["d_bounds"] = table.d_bounds
        report["witnesses"] = {name: table.witnesses[name]
                               for name in ("reschain", "reschain_rdelta")}
        report["optimal"] = list(table.met(code.k, d))
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

    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print("\n".join(_timestamp_line(args.no_timestamp) + _analyze_lines(report)))
    return EXIT_OK


def _analyze_lines(report: dict) -> list[str]:
    """The text form of an `analyze` report dict."""
    n, k, d = report["parameters"]
    loc = report["locality"]
    lines = [
        f"code: {report['file']}",
        f"field: GF({report['q']})",
        f"parameters: [{n}, {k}, {d}]",
        f"locality at delta = {report['delta']} (size cap {report['size_cap']}"
        + (", cap active" if report["cap_active"] else "") + "):",
    ]
    if "infeasible_coordinates" in loc:
        lines.append("  infeasible under cap for coordinates "
                     + ", ".join(str(i) for i in loc["infeasible_coordinates"]))
    else:
        lines.append(f"  r = {loc['r']}   kappa = {loc['kappa']}")
        lines.append("  coord  min-size set        min-entropy set")
        for coord, s in loc["size_witness"].items():
            lines.append(f"  {coord:>5}  {_fmt_set(s):<18}  "
                         f"{_fmt_set(loc['entropy_witness'][coord])}")
    if "declared_repair_sets" in report:
        lines.append("declared repair sets:")
        for entry in report["declared_repair_sets"]:
            status = "ok" if entry["valid"] else f"INVALID ({entry.get('reason', '')})"
            lines.append(
                f"  {_fmt_set(entry['coords'])}: H={entry['entropy']} "
                f"|R|={entry['size']} d={entry['distance']} {status}"
            )
    if "optimal" in report:
        for side in ("k", "d"):
            lines.append(f"bounds on {side}:")
            for name, v in sorted(report[f"{side}_bounds"].items()):
                met = "  <- met with equality" if name in report["optimal"] else ""
                lines.append(f"  {name:<16} {v}{met}")
    return lines


# display labels and witness notes of the `bounds` rows
_BOUNDS_LABELS = {"reschain": "reschain(kappa)", "abhmt": "abhmt(best)"}
_BOUNDS_NOTES = {
    "reschain": lambda w: f"lambda={w['lambda']} len={w['shortened_length']}",
    "reschain_rdelta": lambda w: f"kappa_B={w['kappa_b']} lambda={w['lambda']}",
}


def cmd_bounds(args) -> int:
    n, d, q, delta = args.n, args.d, args.q, args.delta
    if args.kappa is None and args.r is None:
        raise ValueError("provide --kappa and/or --r")
    _check_q(q)
    if args.k is not None and args.k > n:
        raise ValueError(f"k = {args.k} exceeds n = {n}")
    table = bnd.bound_table(n, d, q, delta, k=args.k, r=args.r, kappa=args.kappa)
    rows = [
        (_BOUNDS_LABELS.get(name, name), value,
         _BOUNDS_NOTES[name](table.witnesses[name]) if name in _BOUNDS_NOTES else "")
        for name, value in table.k_bounds.items()
    ]
    rows += [(f"{name} [d]", value, "") for name, value in table.d_bounds.items()]
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
            raise ValueError(f"unknown bound {name!r}; choose from {', '.join(asy.CURVE_NAMES)}")
    _check_q(args.q)
    grid = asy.default_grid(args.grid)
    asy.emit_curves(names, grid, args.r, args.delta, args.q, args.out or sys.stdout,
                    lc_choice=args.lc, ropt_choice=args.ropt)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simplex(args) -> int:
    m, q = args.m, args.q
    # S(m, q) has q^m codewords of length (q^m - 1)/(q - 1).  simplex() names
    # an m or q it cannot take.  2^m <= q^m * n, so an m at or above the cap's
    # bit length is over the cap without computing q^m.
    if m >= 1 and 2 <= q <= FIELD_SIZE_CAP and (
            m >= MAX_ENUM_CELLS.bit_length() or q**m * simplex_length(m, q) > MAX_ENUM_CELLS):
        raise ValueError(f"S({m},{q}) needs q^m * n codeword cells to enumerate, "
                         f"above the cap {MAX_ENUM_CELLS}")
    code = simplex(m, q)
    d = min_distance(code)
    print(f"S({args.m},{args.q}): [{code.n}, {code.k}, {d}] over GF({args.q})")
    if args.out:
        save_code(code, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_build_set(args) -> int:
    code, declared_sets = load_code(args.code)
    if declared_sets:
        profile = profile_from_repair_sets(code, declared_sets, args.delta)
    else:
        profile = compute_locality(code, args.delta)
        if not profile.feasible:
            raise ValueError("no repair sets found under the default cap; "
                             "declare repair_sets in the code file")
    if profile.kappa > args.kappa:
        raise ValueError(f"witnesses have dimension {profile.kappa} > kappa = {args.kappa}")
    result = build_low_entropy_set(code, profile, args.lam, kappa=args.kappa)

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
        f"built set: {_fmt_set(coords_to_1based(result.coords))}",
        f"entropy: {result.entropy} (guarantee <= {result.guaranteed_entropy})",
        f"size: {result.size} (guarantee >= {result.guaranteed_size})",
        "trace:",
    ]
    for st in result.trace:
        lines.append(
            f"  {st.action:<22} +{_fmt_set(coords_to_1based(st.added)):<20} "
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lrckit` parser, built on the first call and shared after it.

    Building it costs about 2 ms, most of a `bounds` request, so every
    `main` call in a process reuses this one; `parse_args` returns a fresh
    Namespace each time.  Callers must not mutate the returned parser.
    """
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
    p.add_argument("--lc", choices=list(bnd.LOGCONVEX_CHOICES), default="best")
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
    try:
        return args.fn(args)
    except (ValueError, BuilderError) as e:  # CodeFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

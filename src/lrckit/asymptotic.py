"""Asymptotic rate vs relative-distance upper bounds for LRCs.

All curves are the n -> infinity limits of the finite-length bounds at fixed
locality (o(1) terms dropped), as functions of the relative minimum distance
delta_n = d/n.  Values are clamped to [0, 1] and every implemented curve is
nonincreasing in delta_n.

The locality-aware composite bound minimizes, over the fraction x of
coordinates spent on local blocks,

    x + (1 - x nu) * R_opt(delta_n / (1 - x nu)),   nu = G(kappa_B, delta)/kappa_B,

where R_opt is a locality-free rate bound (asymptotic Plotkin, or MRRW for
binary codes).  The minimization is numeric: a 1024-point grid scan seeds a
golden-section refinement with objective tolerance 1e-6.  The scan is one
numpy pass over the 1024 points; the refinement stays scalar (about 30
sequential steps per point).  Both run the same formulas: each curve
function is written once against `_xp(x)`, numpy for an ndarray and the
`math` functions for a float, so every public curve takes delta_n as either.
`curve` makes one call per curve over the whole delta_n grid, so the
locality constants (kappa_A, kappa_B, G(kappa_B, delta), nu) are computed
once per curve, not once per point.  One numeric point costs 0.1-0.25 ms on
a 2-core x86 container, against 0.4-1 ms for the per-point scalar scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bounds import (
    _check_pos,
    griesmer_length,
    local_dim_bound,
    local_dim_bound_logconvex,
)

GRID_POINTS = 1024
OBJECTIVE_TOL = 1e-6
ROPT_CHOICES = ("plotkin", "mrrw")

# `default_grid` refuses more delta_n points than this, before allocating;
# at the cap one numeric curve runs the minimiser 65536 times (9-15 s)
MAX_GRID_POINTS = 1 << 16

# The elementwise functions the curve formulas call, for an ndarray and for a
# float.  Each formula is written once against `_xp(x)`: the grid scan passes
# arrays, and on floats numpy's per-call overhead would cost the scalar
# refinement steps more than their arithmetic.
_ARRAY_MATH = SimpleNamespace(
    sqrt=np.sqrt,
    log2=np.log2,
    clip=lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
    where=np.where,
    min=np.minimum.reduce,
    max=np.maximum.reduce,
)
_FLOAT_MATH = SimpleNamespace(
    sqrt=math.sqrt,
    log2=math.log2,
    clip=lambda x, lo, hi: lo if x < lo else (hi if x > hi else x),
    where=lambda cond, a, b: a if cond else b,
    min=lambda x: x,
    max=lambda x: x,
)


def _xp(x: float | np.ndarray) -> SimpleNamespace:
    return _ARRAY_MATH if isinstance(x, np.ndarray) else _FLOAT_MATH


def _clamp01(x: float | np.ndarray) -> float | np.ndarray:
    return _xp(x).clip(x, 0.0, 1.0)


def _check_relative_distance(delta_n: float | np.ndarray) -> None:
    low = _xp(delta_n).min(delta_n)
    if low < 0.0:
        raise ValueError(f"relative distance {low} below 0")


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0 by continuity."""
    xp = _xp(x)
    for end in (xp.min(x), xp.max(x)):
        if end < 0.0 or end > 1.0:
            raise ValueError(f"binary entropy argument {end} outside [0, 1]")
    y = 1.0 - x
    # log2 of 1 in place of log2 of 0 at the ends, so h(0) = h(1) = +0.0
    return 0.0 - x * xp.log2(x + (x == 0.0)) - y * xp.log2(y + (y == 0.0))


def ropt_plotkin(delta_n: float | np.ndarray, q: int) -> float | np.ndarray:
    """Asymptotic Plotkin rate bound: 1 - q/(q-1) delta_n, zero past (q-1)/q."""
    _check_relative_distance(delta_n)
    return _clamp01(1.0 - q / (q - 1) * delta_n)


def ropt_mrrw(delta_n: float | np.ndarray) -> float | np.ndarray:
    """MRRW rate bound for binary codes: h(1/2 - sqrt(d(1-d))); zero past 1/2.

    Defined for q = 2 only; callers wanting another field must fall back to
    the Plotkin curve.
    """
    _check_relative_distance(delta_n)
    xp = _xp(delta_n)
    # from 1/2 on the argument is 1/2 - sqrt(1/4) = 0 exactly, and h(0) = 0
    m = xp.clip(delta_n, 0.0, 0.5)
    return _clamp01(binary_entropy(0.5 - xp.sqrt(m * (1.0 - m))))


def _base_bound(ropt_choice: str, q: int):
    if ropt_choice == "plotkin":
        return lambda dn: ropt_plotkin(dn, q)
    if ropt_choice == "mrrw":
        if q != 2:
            raise ValueError("MRRW is defined for q = 2 only; use the plotkin fallback")
        return ropt_mrrw
    raise ValueError(f"ropt choice must be one of {ROPT_CHOICES}, got {ropt_choice!r}")


def rate_singleton(delta_n: float | np.ndarray) -> float | np.ndarray:
    return _clamp01(1.0 - delta_n)


def rate_gopalan(delta_n: float | np.ndarray, r: int) -> float | np.ndarray:
    return _clamp01(r / (r + 1) * (1.0 - delta_n))


def rate_prakash(delta_n: float | np.ndarray, r: int, delta: int) -> float | np.ndarray:
    return _clamp01(r / (r + delta - 1) * (1.0 - delta_n))


def rate_abhmt(delta_n: float | np.ndarray, r: int, delta: int, q: int,
               choice: str = "best") -> float | np.ndarray:
    """Asymptote of the log-convexity bound: kappa_A/(r + delta - 1) (1 - delta_n)."""
    kappa_a = local_dim_bound_logconvex(r, delta, q, choice)
    return _clamp01(kappa_a / (r + delta - 1) * (1.0 - delta_n))


def rate_local_griesmer(delta_n: float | np.ndarray, r: int, delta: int,
                        q: int) -> float | np.ndarray:
    """Asymptote of the Griesmer Singleton-type bound:
    kappa_B/G(kappa_B, delta) (1 - delta_n)."""
    kappa_b = local_dim_bound(r, delta, q)
    return _clamp01(kappa_b / griesmer_length(kappa_b, delta, q) * (1.0 - delta_n))


def reschain_plotkin_closed(delta_n: float | np.ndarray, kappa: int, delta: int, q: int,
                            clamp: bool = True) -> float | np.ndarray:
    """Closed form of the composite bound when R_opt is the Plotkin line:
    kappa/G(kappa, delta) * (1 - delta_n/(1 - 1/q)).

    With clamp=False the raw line value is returned (it goes negative past
    (q-1)/q), which is what the threshold-crossing comparisons need.
    """
    line = kappa / griesmer_length(kappa, delta, q) * (1.0 - delta_n / (1.0 - 1.0 / q))
    return _clamp01(line) if clamp else line


def _objective(x: float | np.ndarray, nu: float, delta_n: float,
               base) -> float | np.ndarray:
    """x + (1 - x nu) base(delta_n / (1 - x nu)); just x where 1 - x nu <= 1e-12
    or where the relative distance of the rest reaches 1."""
    xp = _xp(x)
    rem = 1.0 - x * nu
    live = rem > 1e-12
    arg = delta_n / xp.where(live, rem, 1.0)
    inside = live & (arg < 1.0)
    return xp.where(inside, x + rem * base(xp.where(inside, arg, 0.0)), x)


def _optimize_rate(nu: float, delta_n: float, base) -> float:
    """min over x in [0, 1/nu) of x + (1 - x nu) base(delta_n / (1 - x nu)).

    The grid scan is one numpy pass; the golden-section steps run on floats.
    """

    def f(x):
        return _objective(x, nu, delta_n, base)

    xs = np.linspace(0.0, 1.0 / nu, GRID_POINTS, endpoint=False)
    vals = f(xs)
    i = int(np.argmin(vals))
    lo = float(xs[max(0, i - 1)])
    hi = float(xs[i + 1]) if i + 1 < len(xs) else (1.0 / nu) * (1.0 - 1e-12)
    best = float(vals[i])

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
        best = min(best, fc, fd)
        if (b - a) * max(nu, 1.0) < OBJECTIVE_TOL * 1e-3:
            break
    return _clamp01(best)


def _minimized(nu: float, delta_n: float | np.ndarray, base) -> float | np.ndarray:
    """`_optimize_rate` at delta_n, or at each entry of an ndarray of them."""
    if isinstance(delta_n, np.ndarray):
        return np.array([_optimize_rate(nu, float(dn), base) for dn in delta_n])
    return _optimize_rate(nu, delta_n, base)


def rate_reschain(delta_n: float | np.ndarray, r: int, delta: int, q: int,
                  ropt_choice: str = "mrrw") -> float | np.ndarray:
    """The composite residual-chain rate bound at locality (r, delta)."""
    base = _base_bound(ropt_choice, q)
    kappa_b = local_dim_bound(r, delta, q)
    nu = griesmer_length(kappa_b, delta, q) / kappa_b
    return _minimized(nu, delta_n, base)


def rate_cm_rdelta(delta_n: float | np.ndarray, r: int, delta: int, q: int,
                   ropt_choice: str = "mrrw") -> float | np.ndarray:
    """Asymptote of the alphabet-dependent (r, delta) bound: the same
    minimization with the block overhead nu = (r + delta - 1)/r."""
    base = _base_bound(ropt_choice, q)
    nu = (r + delta - 1) / r
    return _minimized(nu, delta_n, base)


def improvement_threshold(r: int, delta: int, q: int, choice: str = "best"):
    """Relative distance past which the Plotkin-composed bound beats the
    log-convexity line.

    Defined when G(kappa_A, delta) < r + delta - 1; returns None otherwise
    (the two lines coincide or the Griesmer length exceeds the block size).
    """
    kappa_a = local_dim_bound_logconvex(r, delta, q, choice)
    g = griesmer_length(kappa_a, delta, q)
    size = r + delta - 1
    if g >= size:
        return None
    return 1.0 / (1.0 + (1.0 / (q - 1)) * (1.0 / (1.0 - g / size)))


# --- curve sampling and CSV emission ---

CURVE_NAMES = (
    "singleton",
    "gopalan",
    "prakash",
    "abhmt",
    "local_griesmer",
    "cm_rdelta",
    "reschain",
    "plotkin",
    "mrrw",
)


@dataclass(frozen=True)
class AsymptoticCurve:
    label: str
    params: dict
    grid: tuple
    rates: tuple


def default_grid(points: int = 512) -> np.ndarray:
    """Uniform delta_n grid over [0, 1]."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid of {points} points is above the cap {MAX_GRID_POINTS}")
    return np.linspace(0.0, 1.0, points)


def curve(name: str, grid, r: int, delta: int, q: int,
          lc_choice: str = "best", ropt_choice: str = "mrrw") -> AsymptoticCurve:
    """Sample one named bound over a delta_n grid.

    The bound is evaluated in one call over the whole grid, so its locality
    constants are computed once per curve.
    """
    fns = {
        "singleton": lambda g: rate_singleton(g),
        "gopalan": lambda g: rate_gopalan(g, r),
        "prakash": lambda g: rate_prakash(g, r, delta),
        "abhmt": lambda g: rate_abhmt(g, r, delta, q, lc_choice),
        "local_griesmer": lambda g: rate_local_griesmer(g, r, delta, q),
        "cm_rdelta": lambda g: rate_cm_rdelta(g, r, delta, q, ropt_choice),
        "reschain": lambda g: rate_reschain(g, r, delta, q, ropt_choice),
        "plotkin": lambda g: ropt_plotkin(g, q),
        "mrrw": lambda g: ropt_mrrw(g),
    }
    if name not in fns:
        raise ValueError(f"unknown curve {name!r}; choose from {CURVE_NAMES}")
    _check_pos("r", r)
    _check_pos("delta", delta, 2)
    grid = np.asarray(grid, dtype=float)
    rates = tuple(fns[name](grid).tolist())
    params = {"r": r, "delta": delta, "q": q,
              "lc_choice": lc_choice, "ropt_choice": ropt_choice}
    return AsymptoticCurve(label=name, params=params, grid=tuple(grid.tolist()),
                           rates=rates)


def emit_curves(names, grid, r: int, delta: int, q: int, out,
                lc_choice: str = "best", ropt_choice: str = "mrrw") -> None:
    """Write the requested bounds over the grid as CSV (9 significant digits).

    The header comments record the parameters and the numeric method, and
    that the curves are n -> infinity limits with o(1) terms dropped.
    """
    if not names:
        raise ValueError(f"no curves requested; choose from {', '.join(CURVE_NAMES)}")
    curves = [curve(name, grid, r, delta, q, lc_choice, ropt_choice) for name in names]
    lines = [
        "# asymptotic rate bounds: n -> infinity limits, o(1) terms dropped",
        f"# params: r={r} delta={delta} q={q} lc_choice={lc_choice} ropt_choice={ropt_choice}",
        f"# minimization: {GRID_POINTS}-point grid scan + golden-section refinement, "
        f"objective tolerance {OBJECTIVE_TOL:g}",
        "delta_n," + ",".join(c.label for c in curves),
    ]
    grid = np.asarray(grid, dtype=float)
    for row, dn in enumerate(grid):
        vals = ",".join(f"{c.rates[row]:.9g}" for c in curves)
        lines.append(f"{float(dn):.9g},{vals}")
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        from pathlib import Path

        Path(out).write_text(text, encoding="utf-8")

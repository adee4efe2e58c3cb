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
golden-section refinement with objective tolerance 1e-6.  Everything runs in
numpy, and every public curve takes delta_n as a float (returning a float) or
as an ndarray.  The scan is one numpy pass over the 1024 points per delta_n;
the refinement steps all delta_n points of a curve at once, about 30 steps,
each point stopping at its own tolerance.  `curve` makes one call per curve
over the whole delta_n grid, so the locality constants (kappa_A, kappa_B,
G(kappa_B, delta), nu) are computed once per curve, not once per point.  On a
2-core x86 container one numeric point costs about 0.05 ms with Plotkin and
0.08 ms with MRRW in a 65536-point curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# at the cap one numeric curve runs 65536 grid scans (3-6 s)
MAX_GRID_POINTS = 1 << 16

def _float_or_array(v) -> float | np.ndarray:
    # numpy hands back np.float64 for a float input; the curves return floats
    return v if isinstance(v, np.ndarray) else float(v)


def _clamp01(x: float | np.ndarray) -> float | np.ndarray:
    return _float_or_array(np.minimum(np.maximum(x, 0.0), 1.0))


def _check_relative_distance(delta_n: float | np.ndarray) -> None:
    low = np.min(delta_n, initial=0.0)  # 0.0 lets an empty array through
    if low < 0.0:
        raise ValueError(f"relative distance {low} below 0")


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0 by continuity."""
    for end in (np.min(x, initial=0.0), np.max(x, initial=0.0)):
        if end < 0.0 or end > 1.0:
            raise ValueError(f"binary entropy argument {end} outside [0, 1]")
    y = 1.0 - x
    # log2 of 1 in place of log2 of 0 at the ends, so h(0) = h(1) = +0.0
    return _float_or_array(0.0 - x * np.log2(x + (x == 0.0)) - y * np.log2(y + (y == 0.0)))


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
    # from 1/2 on the argument is 1/2 - sqrt(1/4) = 0 exactly, and h(0) = 0
    m = np.minimum(np.maximum(delta_n, 0.0), 0.5)
    return _clamp01(binary_entropy(0.5 - np.sqrt(m * (1.0 - m))))


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


def _objective(x: float | np.ndarray, nu: float, delta_n: float | np.ndarray,
               base) -> np.ndarray:
    """x + (1 - x nu) base(delta_n / (1 - x nu)); just x where 1 - x nu <= 1e-12
    or where the relative distance of the rest reaches 1."""
    rem = 1.0 - x * nu
    live = rem > 1e-12
    arg = delta_n / np.where(live, rem, 1.0)
    inside = live & (arg < 1.0)
    return np.where(inside, x + rem * base(np.where(inside, arg, 0.0)), x)


def _optimize_rate(nu: float, delta_n: float | np.ndarray, base) -> float | np.ndarray:
    """min over x in [0, 1/nu) of x + (1 - x nu) base(delta_n / (1 - x nu)),
    at delta_n or at each entry of an ndarray of them.

    Each point's grid scan is one numpy pass.  The golden-section refinement
    then steps every point at once, and a point stops moving at the step where
    its own bracket passes the stopping test.
    """
    dns = np.asarray(delta_n, dtype=float)
    flat = dns.ravel()
    xs = np.linspace(0.0, 1.0 / nu, GRID_POINTS, endpoint=False)
    i = np.empty(flat.shape, dtype=np.intp)
    best = np.empty(flat.shape)
    for j, dn in enumerate(flat):
        vals = _objective(xs, nu, dn, base)
        i[j] = np.argmin(vals)
        best[j] = vals[i[j]]
    a = xs[np.maximum(i - 1, 0)]
    b = np.append(xs[1:], (1.0 / nu) * (1.0 - 1e-12))[i]

    def f(x):
        return _objective(x, nu, flat, base)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    live = np.ones(flat.shape, dtype=bool)
    for _ in range(200):
        # fc < fd: keep [a, d], the old c becomes d and a new c is placed;
        # otherwise keep [c, b], the old d becomes c and a new d is placed
        left = fc < fd
        na, nb = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, nb - phi * (nb - na), na + phi * (nb - na))
        fx = f(x)
        step = (na, nb, np.where(left, x, d), np.where(left, c, x),
                np.where(left, fx, fd), np.where(left, fc, fx))
        a, b, c, d, fc, fd = (np.where(live, new, old)
                              for new, old in zip(step, (a, b, c, d, fc, fd)))
        best = np.minimum(best, np.minimum(fc, fd))
        live &= (b - a) * max(nu, 1.0) >= OBJECTIVE_TOL * 1e-3
        if not live.any():
            break
    return _clamp01(best.reshape(dns.shape))


def rate_reschain(delta_n: float | np.ndarray, r: int, delta: int, q: int,
                  ropt_choice: str = "mrrw") -> float | np.ndarray:
    """The composite residual-chain rate bound at locality (r, delta)."""
    base = _base_bound(ropt_choice, q)
    kappa_b = local_dim_bound(r, delta, q)
    nu = griesmer_length(kappa_b, delta, q) / kappa_b
    return _optimize_rate(nu, delta_n, base)


def rate_cm_rdelta(delta_n: float | np.ndarray, r: int, delta: int, q: int,
                   ropt_choice: str = "mrrw") -> float | np.ndarray:
    """Asymptote of the alphabet-dependent (r, delta) bound: the same
    minimization with the block overhead nu = (r + delta - 1)/r."""
    base = _base_bound(ropt_choice, q)
    nu = (r + delta - 1) / r
    return _optimize_rate(nu, delta_n, base)


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
        "singleton": rate_singleton,
        "gopalan": lambda g: rate_gopalan(g, r),
        "prakash": lambda g: rate_prakash(g, r, delta),
        "abhmt": lambda g: rate_abhmt(g, r, delta, q, lc_choice),
        "local_griesmer": lambda g: rate_local_griesmer(g, r, delta, q),
        "cm_rdelta": lambda g: rate_cm_rdelta(g, r, delta, q, ropt_choice),
        "reschain": lambda g: rate_reschain(g, r, delta, q, ropt_choice),
    }
    if name not in CURVE_NAMES:
        raise ValueError(f"unknown curve {name!r}; choose from {CURVE_NAMES}")
    _check_pos("r", r)
    _check_pos("delta", delta, 2)
    # the locality-free curves "plotkin" and "mrrw" are the R_opt choices
    fn = fns[name] if name in fns else _base_bound(name, q)
    grid = np.asarray(grid, dtype=float)
    rates = tuple(fn(grid).tolist())
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

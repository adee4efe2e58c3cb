"""Asymptotic curves: pinned intercepts, the numeric-vs-closed-form
agreement of the composite bound, threshold behavior, and the orderings the
finite-length comparisons predict."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit.asymptotic import (
    CURVE_NAMES,
    GRID_POINTS,
    MAX_GRID_POINTS,
    OBJECTIVE_TOL,
    _optimize_rate,
    binary_entropy,
    curve,
    default_grid,
    emit_curves,
    improvement_threshold,
    rate_abhmt,
    rate_cm_rdelta,
    rate_gopalan,
    rate_local_griesmer,
    rate_prakash,
    rate_reschain,
    rate_singleton,
    reschain_plotkin_closed,
    ropt_mrrw,
    ropt_plotkin,
)
from lrckit.bounds import local_dim_bound, local_dim_bound_logconvex


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_ropt_plotkin():
    assert ropt_plotkin(0.0, 2) == 1.0
    assert ropt_plotkin(0.5, 2) == 0.0
    assert ropt_plotkin(2 / 3, 3) == 0.0
    assert ropt_plotkin(0.25, 2) == pytest.approx(0.5)


def test_ropt_mrrw_endpoints():
    assert ropt_mrrw(0.0) == 1.0
    assert ropt_mrrw(0.5) == 0.0
    assert ropt_mrrw(0.75) == 0.0
    assert 0.0 < ropt_mrrw(0.1) < ropt_plotkin(0.1, 2)


def test_mrrw_requires_binary():
    with pytest.raises(ValueError) as exc:
        rate_reschain(0.1, 4, 3, 3, "mrrw")
    assert "plotkin" in str(exc.value)


def test_line_intercepts():
    assert rate_singleton(0.0) == 1.0
    assert rate_singleton(1.0) == 0.0
    assert rate_local_griesmer(0.0, 12, 9, 2) == pytest.approx(0.25)
    assert rate_local_griesmer(0.0, 4, 3, 2) == pytest.approx(0.5)
    assert rate_abhmt(0.0, 6, 3, 2, "hamming") == pytest.approx(0.5)
    assert rate_abhmt(1.0, 6, 3, 2, "hamming") == 0.0
    assert rate_prakash(0.0, 4, 3) == pytest.approx(4 / 6)


def test_gopalan_equals_prakash_at_delta_2():
    for dn in (0.0, 0.2, 0.7):
        assert rate_gopalan(dn, 5) == pytest.approx(rate_prakash(dn, 5, 2))


def test_abhmt_best_equals_local_griesmer_when_balanced():
    # locality (4, 3) over GF(2): kappa_A = kappa_B = 3 and G(3,3) = 6 = r + delta - 1
    for dn in (0.0, 0.3, 0.9):
        assert rate_abhmt(dn, 4, 3, 2, "best") == pytest.approx(
            rate_local_griesmer(dn, 4, 3, 2)
        )


def test_reschain_at_zero_distance():
    assert rate_reschain(0.0, 4, 3, 2, "plotkin") <= 1.0
    # the minimization reaches kappa_B / G(kappa_B, delta) at delta_n = 0
    assert rate_reschain(0.0, 4, 3, 2, "plotkin") == pytest.approx(0.5, abs=1e-6)


def test_reschain_plotkin_matches_closed_form():
    kappa_b = local_dim_bound(4, 3, 2)
    for dn in default_grid(512):
        numeric = rate_reschain(float(dn), 4, 3, 2, "plotkin")
        closed = reschain_plotkin_closed(float(dn), kappa_b, 3, 2)
        assert abs(numeric - closed) <= 1e-6


def test_reschain_mrrw_zero_at_half():
    assert rate_reschain(0.5, 4, 3, 2, "mrrw") == 0.0


def test_improvement_threshold_values():
    dt = improvement_threshold(6, 3, 2, "hamming")
    assert dt == pytest.approx(1 / 9, abs=1e-12)
    assert improvement_threshold(4, 3, 2, "best") is None  # G(3,3) = 6 = r + delta - 1


def test_threshold_is_the_crossing_point():
    dt = improvement_threshold(6, 3, 2, "hamming")
    kappa_a = local_dim_bound_logconvex(6, 3, 2, "hamming")
    lhs = reschain_plotkin_closed(dt, kappa_a, 3, 2, clamp=False)
    rhs = rate_abhmt(dt, 6, 3, 2, "hamming")
    assert abs(lhs - rhs) <= 1e-9


def test_strict_improvement_past_threshold():
    """Past the crossing point the Plotkin-composed line (unclamped) sits
    strictly below the log-convexity line, all the way to delta_n = 1."""
    dt = improvement_threshold(6, 3, 2, "hamming")
    kappa_a = local_dim_bound_logconvex(6, 3, 2, "hamming")
    for dn in default_grid(512):
        if dn > dt:
            line = reschain_plotkin_closed(float(dn), kappa_a, 3, 2, clamp=False)
            assert line < rate_abhmt(float(dn), 6, 3, 2, "hamming")


def test_ordering_hamming_blocks_beat_griesmer():
    # locality (6, 3): G(4, 3) = 7 < 8, so the log-convexity line is stronger
    for dn in default_grid(256):
        assert rate_abhmt(float(dn), 6, 3, 2, "hamming") <= rate_local_griesmer(
            float(dn), 6, 3, 2
        ) + 1e-15


def test_ordering_griesmer_beats_hamming_blocks():
    # locality (12, 9): kappa_B = 5 with G = 20 beats kappa_A = 7 over 20
    for dn in default_grid(256):
        assert rate_local_griesmer(float(dn), 12, 9, 2) <= rate_abhmt(
            float(dn), 12, 9, 2, "best"
        ) + 1e-15


def test_reschain_below_local_griesmer_for_plotkin():
    for dn in default_grid(128):
        assert rate_reschain(float(dn), 4, 3, 2, "plotkin") <= rate_local_griesmer(
            float(dn), 4, 3, 2
        ) + 1e-9


@pytest.mark.parametrize("name,kwargs", [
    ("singleton", {}),
    ("prakash", {}),
    ("abhmt", {}),
    ("local_griesmer", {}),
    ("reschain", {}),
    ("cm_rdelta", {}),
    ("mrrw", {}),
])
def test_curves_clamped_and_nonincreasing(name, kwargs):
    c = curve(name, default_grid(128), r=4, delta=3, q=2, ropt_choice="mrrw")
    rates = c.rates
    assert all(0.0 <= v <= 1.0 for v in rates)
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 1e-9


def test_cm_rdelta_curve_looser_than_reschain():
    # block overhead (r + delta - 1)/r is below G(kappa_B, delta)/kappa_B
    # only when repair sets can be MDS; over GF(2) at delta = 3 the chain
    # bound must win everywhere
    for dn in default_grid(64):
        assert rate_reschain(float(dn), 4, 3, 2, "mrrw") <= rate_cm_rdelta(
            float(dn), 4, 3, 2, "mrrw"
        ) + 1e-9


def test_emit_curves_csv_format():
    buf = io.StringIO()
    emit_curves(["prakash", "local_griesmer"], default_grid(8), 4, 3, 2, buf)
    lines = buf.getvalue().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("o(1)" in ln for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "delta_n,prakash,local_griesmer"
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 8
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(4 / 6, abs=1e-9)


def test_emit_curves_to_file(tmp_path):
    out = tmp_path / "curves.csv"
    emit_curves(["singleton"], default_grid(4), 4, 3, 2, out)
    assert out.read_text().count("\n") >= 5


def test_unknown_curve_rejected():
    with pytest.raises(ValueError):
        curve("nope", default_grid(4), 4, 3, 2)


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_empty_grid_gives_no_rates(name):
    assert curve(name, [], 4, 3, 2).rates == ()


def test_default_grid_cap():
    assert len(default_grid(MAX_GRID_POINTS)) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match=f"above the cap {MAX_GRID_POINTS}"):
        default_grid(MAX_GRID_POINTS + 1)


# --- every curve function over an ndarray equals its values on floats ---

_GRID = default_grid(512)


@pytest.mark.parametrize("fn", [
    binary_entropy,
    ropt_mrrw,
    lambda dn: ropt_plotkin(dn, 3),
    rate_singleton,
    lambda dn: rate_gopalan(dn, 5),
    lambda dn: rate_prakash(dn, 6, 3),
    lambda dn: rate_abhmt(dn, 6, 3, 2, "hamming"),
    lambda dn: rate_local_griesmer(dn, 12, 9, 2),
    lambda dn: reschain_plotkin_closed(dn, 3, 3, 2, clamp=False),
    lambda dn: rate_reschain(dn, 4, 3, 2, "mrrw"),
    lambda dn: rate_cm_rdelta(dn, 5, 4, 3, "plotkin"),
], ids=["entropy", "mrrw", "plotkin", "singleton", "gopalan", "prakash", "abhmt",
        "local_griesmer", "plotkin_closed", "reschain", "cm_rdelta"])
def test_array_evaluation_matches_floats(fn):
    on_floats = np.array([fn(float(dn)) for dn in _GRID])
    on_array = fn(_GRID)
    assert isinstance(on_array, np.ndarray) and on_array.shape == _GRID.shape
    # both call the same numpy functions in the same order; the tolerance
    # leaves room for a numpy build whose vector loops round a lone scalar
    # differently in the last place
    assert np.allclose(on_array, on_floats, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("fn", [
    binary_entropy,
    ropt_mrrw,
    lambda dn: ropt_plotkin(dn, 3),
    rate_singleton,
    lambda dn: rate_gopalan(dn, 5),
    lambda dn: rate_prakash(dn, 6, 3),
    lambda dn: rate_abhmt(dn, 6, 3, 2, "hamming"),
    lambda dn: rate_local_griesmer(dn, 12, 9, 2),
    lambda dn: reschain_plotkin_closed(dn, 3, 3, 2),
    lambda dn: reschain_plotkin_closed(dn, 3, 3, 2, clamp=False),
    lambda dn: rate_reschain(dn, 4, 3, 2, "mrrw"),
    lambda dn: rate_cm_rdelta(dn, 5, 4, 3, "plotkin"),
], ids=["entropy", "mrrw", "plotkin", "singleton", "gopalan", "prakash", "abhmt",
        "local_griesmer", "plotkin_closed", "plotkin_closed_raw", "reschain", "cm_rdelta"])
@pytest.mark.parametrize("delta_n", [0.0, 0.3, 1.0])
def test_float_input_gives_python_float(fn, delta_n):
    assert type(fn(delta_n)) is float


def test_array_evaluation_checks_every_entry():
    with pytest.raises(ValueError, match="relative distance -0.5 below 0"):
        ropt_mrrw(np.array([0.1, -0.5, 0.2]))
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(np.array([0.1, 1.5]))


# --- the grid scan against the scalar loop it replaced ---
#
# The oracle is the per-point list comprehension over the 1024 grid points,
# with the scalar math-module base curves.


def _entropy_oracle(x):
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _clamp01_oracle(x):
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _mrrw_oracle(dn):
    if dn >= 0.5:
        return 0.0
    return _clamp01_oracle(_entropy_oracle(0.5 - math.sqrt(dn * (1.0 - dn))))


def _plotkin_oracle(q):
    return lambda dn: _clamp01_oracle(1.0 - q / (q - 1) * dn)


def _optimize_rate_oracle(nu, delta_n, base):
    def f(x):
        rem = 1.0 - x * nu
        if rem <= 1e-12:
            return x
        arg = delta_n / rem
        return x + rem * (0.0 if arg >= 1.0 else base(arg))

    xs = np.linspace(0.0, 1.0 / nu, GRID_POINTS, endpoint=False)
    vals = np.array([f(float(x)) for x in xs])
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
    return _clamp01_oracle(best)


# (base curve, its oracle): MRRW, and Plotkin at q in {2, 3, 4, 5, 7, 8}
_BASES = [(ropt_mrrw, _mrrw_oracle)] + [
    ((lambda dn, q=q: ropt_plotkin(dn, q)), _plotkin_oracle(q)) for q in (2, 3, 4, 5, 7, 8)]


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(1.0, 8.0), delta_n=st.floats(0.0, 1.0),
       which=st.integers(0, len(_BASES) - 1))
def test_grid_scan_matches_scalar_loop(nu, delta_n, which):
    base, oracle = _BASES[which]
    new = _optimize_rate(nu, delta_n, base)
    assert abs(new - _optimize_rate_oracle(nu, delta_n, oracle)) <= OBJECTIVE_TOL


# where each of _BASES reaches 0: MRRW at 1/2, Plotkin at (q - 1)/q
_ZERO_FROM = (0.5,) + tuple((q - 1) / q for q in (2, 3, 4, 5, 7, 8))


@settings(max_examples=100, deadline=None)
@given(nu=st.floats(1.0, 8.0), u=st.floats(0.01, 0.99),
       rest=st.lists(st.floats(0.0, 1.0), max_size=4),
       which=st.integers(0, len(_BASES) - 1))
def test_points_refined_together_match_one_at_a_time(nu, u, rest, which):
    """The grid argmin is at index 0 for delta_n = 1 and for the kink point,
    at the last index for delta_n = 0 (nu > 1), mostly inside for the rest.
    Index 0 has a bracket half as wide, so those points stop a step or two
    before the others; at a Plotkin kink point the refinement is still
    lowering the minimum then, so running on would change it."""
    base, oracle = _BASES[which]
    # the objective's minimum is at x = u/(nu^2 GRID_POINTS), in the first cell
    kink = _ZERO_FROM[which] * (1.0 - u / (nu * GRID_POINTS))
    delta_ns = [0.0, 1.0, kink, *rest]
    together = _optimize_rate(nu, np.array(delta_ns), base)
    alone = np.array([_optimize_rate(nu, dn, base) for dn in delta_ns])
    assert np.allclose(together, alone, rtol=4e-16, atol=0.0)
    for dn, value in zip(delta_ns, together):
        assert abs(value - _optimize_rate_oracle(nu, dn, oracle)) <= OBJECTIVE_TOL


def test_mrrw_curve_requires_binary():
    assert curve("mrrw", default_grid(5), 4, 3, 2).rates[1] == ropt_mrrw(0.25)
    with pytest.raises(ValueError, match="q = 2 only"):
        curve("mrrw", default_grid(5), 4, 3, 3)


def test_emit_figure_curves_script(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "emit_figure_curves.py"),
         "--grid", "16", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("locality_4_3", "locality_6_3", "locality_12_9"):
        lines = [ln for ln in (tmp_path / f"{name}.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "delta_n,prakash,cm_rdelta,abhmt,local_griesmer,reschain"
        assert len(lines) == 1 + 16

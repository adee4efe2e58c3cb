"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from lrckit import (
    build_low_entropy_set,
    closure,
    compute_locality,
    entropy,
    example_code,
    min_distance,
    profile_from_repair_sets,
    res_chain,
    residual,
    shorten,
    simplex,
    simplex_locality,
    verify_repair_set,
)
from lrckit.asymptotic import (
    default_grid,
    improvement_threshold,
    rate_abhmt,
    rate_local_griesmer,
    rate_reschain,
    reschain_plotkin_closed,
)
from lrckit.bounds import (
    d_bound_local_griesmer,
    d_bound_prakash,
    griesmer_dim,
    griesmer_length,
    k_bound_cm_rdelta,
    k_bound_reschain,
    k_bound_reschain_rdelta,
    k_opt,
    k_opt_components,
    local_dim_bound,
    local_dim_bound_logconvex,
)
from lrckit.constructions import normalized_column_multiset

from conftest import random_code, random_subset


def ceil_div(a, b):
    return -(-a // b)


class budget:
    """Context manager asserting a wall-clock budget and reporting elapsed."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"exceeded runtime budget: {self.elapsed:.2f}s >= {self.limit}s"
            )
        return False


def report(num, desc, b):
    print(f"[acceptance] criterion {num:>2} ({desc}): PASS ({b.elapsed:.2f}s)")


def test_criterion_01_example_1_golden():
    with budget(1.0) as b:
        ex = example_code(1)
        code = ex.code
        assert (code.n, code.k, min_distance(code)) == (10, 4, 4)
        for s in ex.repair_sets:
            chk = verify_repair_set(code, s, 3)
            assert chk.valid
            assert (chk.entropy, chk.size, chk.distance) == (3, 6, 3)
        prof = compute_locality(code, 3)
        assert (prof.kappa, prof.r) == (3, 4)
        assert d_bound_local_griesmer(10, 4, 4, 3, 2) == 4 == min_distance(code)
    report(1, "example 1 golden", b)


def test_criterion_02_example_2_golden():
    with budget(1.0) as b:
        ex = example_code(2)
        code = ex.code
        assert (code.n, code.k, min_distance(code)) == (13, 6, 3)
        rep = k_bound_reschain(13, 3, 3, 3, 2)
        assert rep.value == 6 == code.k
        assert rep.witness["lambda"] == 5
        assert 5 + k_opt(4, 3, 2) == 6
        assert rep.witness["shortened_length"] == 4
    report(2, "example 2 golden", b)


def test_criterion_03_example_3_golden():
    with budget(1.0) as b:
        ex = example_code(3)
        code = ex.code
        assert (code.n, code.k, min_distance(code)) == (10, 3, 3)
        assert local_dim_bound(2, 3, 2) == 1
        assert griesmer_length(1, 3, 2) == 3
        rep = k_bound_reschain_rdelta(10, 3, 2, 3, 2)
        assert rep.value == 3 == code.k
        assert rep.witness["lambda"] == 2
        assert 2 + k_opt(4, 3, 2) == 3
    report(3, "example 3 golden", b)


def test_criterion_04_simplex_suite():
    with budget(30.0) as b:
        for m, q in ((3, 2), (4, 2), (2, 3), (3, 3)):
            code = simplex(m, q)
            n_expect = (q**m - 1) // (q - 1)
            d = min_distance(code)
            assert (code.n, code.k, d) == (n_expect, m, q ** (m - 1))
            assert griesmer_length(m, d, q) == code.n
            _, sub = residual(code)
            assert normalized_column_multiset(sub) == normalized_column_multiset(
                simplex(m - 1, q)
            )
            for kappa in range(2, m + 1):
                loc = simplex_locality(m, q, kappa)
                prof = compute_locality(code, loc.delta_local, size_cap=code.n)
                assert prof.kappa == kappa
    report(4, "simplex suite", b)


def test_criterion_05_griesmer_properties():
    with budget(5.0) as b:
        for q in (2, 3, 4):
            for a in range(9):
                for bb in range(9):
                    for delta in range(1, 33):
                        assert (
                            griesmer_length(a, delta, q)
                            + griesmer_length(bb, ceil_div(delta, q**a), q)
                            == griesmer_length(a + bb, delta, q)
                        )
        assert griesmer_dim(8, 5, 2) == 2
        assert griesmer_dim(7, 5, 2) == 1
        assert griesmer_dim(9, 5, 2) == 2
        assert 2 ** (2 + 2) > 2 ** (1 + 2)
    report(5, "griesmer properties", b)


def test_criterion_06_residual_parameters():
    with budget(60.0) as b:
        rng = np.random.RandomState(20250806)
        violations = 0
        for _ in range(200):
            code = random_code(rng, 2, n_max=12, k_max=5)
            d = min_distance(code)
            kept, sub = residual(code)
            if len(kept) != code.n - d:
                violations += 1
            if code.k >= 2:
                if sub.k != code.k - 1 or min_distance(sub) < ceil_div(d, 2):
                    violations += 1
            for lv in res_chain(code):
                if lv.entropy > 0 and lv.distance < ceil_div(d, 2 ** (code.k - lv.entropy)):
                    violations += 1
        assert violations == 0
    report(6, "residual parameters, 200 random codes", b)


def test_criterion_07_polymatroid_closure():
    with budget(30.0) as b:
        rng = np.random.RandomState(71)
        violations = 0
        for _ in range(1000):
            code = random_code(rng, 2, n_max=12, k_max=5)
            I = random_subset(rng, code.n)
            J = random_subset(rng, code.n)
            hi, hj = entropy(code, I), entropy(code, J)
            if hi > len(I):
                violations += 1
            if not (entropy(code, I & J) <= min(hi, hj)):
                violations += 1
            if entropy(code, I | J) + entropy(code, I & J) > hi + hj:
                violations += 1
            cl = closure(code, I)
            if not I <= cl:
                violations += 1
            if closure(code, cl) != cl:
                violations += 1
            if entropy(code, cl) != hi:
                violations += 1
            if not cl <= closure(code, I | J):
                violations += 1
        assert violations == 0
    report(7, "polymatroid and closure laws, 1000 triples", b)


def test_criterion_08_dominance_sweeps():
    with budget(60.0) as b:
        import random as pyrandom

        rng = pyrandom.Random(88)
        checked = 0
        violations = 0
        while checked < 1000:
            q = rng.choice([2, 3])
            n = rng.randint(4, 40)
            delta = rng.randint(2, 9)
            r = rng.randint(1, 12)
            if r + delta - 1 > n:
                continue
            d = rng.randint(delta, n)
            k = rng.randint(r, max(r, n - 1))
            if d_bound_local_griesmer(n, k, r, delta, q) > d_bound_prakash(n, k, r, delta):
                violations += 1
            if (
                k_bound_reschain_rdelta(n, d, r, delta, q).value
                > k_bound_cm_rdelta(n, d, r, delta, q)
            ):
                violations += 1
            checked += 1
        assert checked >= 1000 and violations == 0
    report(8, f"dominance sweeps, {checked} tuples", b)


def test_criterion_09_set_builder_guarantees():
    with budget(60.0) as b:
        cases = []
        for which in (1, 2, 3):
            ex = example_code(which)
            cases.append((ex.code, profile_from_repair_sets(ex.code, ex.repair_sets, ex.delta)))
        s42 = simplex(4, 2)
        cases.append((s42, compute_locality(s42, 4, size_cap=s42.n)))
        violations = 0
        for code, profile in cases:
            d = min_distance(code)
            kappa = profile.kappa
            for lam in range(code.k + 1):
                out = build_low_entropy_set(code, profile, lam)
                a, bb = divmod(lam, kappa)
                floor = (a + 1) * griesmer_length(kappa, profile.delta, code.q) - \
                    griesmer_length(kappa - bb, profile.delta, code.q)
                if out.entropy > lam or out.size < floor:
                    violations += 1
                if out.entropy < code.k:
                    sub = shorten(code, out.coords)
                    if sub.k != code.k - out.entropy or min_distance(sub) < d:
                        violations += 1
        assert violations == 0
    report(9, "set-builder guarantees", b)


def test_criterion_10_asymptotic_values():
    with budget(10.0) as b:
        assert rate_local_griesmer(0.0, 12, 9, 2) == pytest.approx(0.25, abs=1e-12)
        assert rate_local_griesmer(0.0, 4, 3, 2) == pytest.approx(0.5, abs=1e-12)
        assert rate_abhmt(0.0, 6, 3, 2, "hamming") == pytest.approx(0.5, abs=1e-12)
        dt = improvement_threshold(6, 3, 2, "hamming")
        assert dt == pytest.approx(1 / 9, abs=1e-12)

        grid = default_grid(512)
        kappa_b = local_dim_bound(4, 3, 2)
        kappa_a = local_dim_bound_logconvex(6, 3, 2, "hamming")
        for dn in grid:
            dn = float(dn)
            numeric = rate_reschain(dn, 4, 3, 2, "plotkin")
            closed = reschain_plotkin_closed(dn, kappa_b, 3, 2)
            assert abs(numeric - closed) <= 1e-6
            assert rate_abhmt(dn, 6, 3, 2, "hamming") <= rate_local_griesmer(dn, 6, 3, 2) + 1e-15
            assert rate_local_griesmer(dn, 12, 9, 2) <= rate_abhmt(dn, 12, 9, 2, "best") + 1e-15
            if dn > dt:
                line = reschain_plotkin_closed(dn, kappa_a, 3, 2, clamp=False)
                assert line < rate_abhmt(dn, 6, 3, 2, "hamming")
    report(10, "asymptotic values and orderings", b)


def test_criterion_11_verify_paper_exit_zero():
    with budget(120.0) as b:
        proc = subprocess.run(
            [sys.executable, "-m", "lrckit.cli", "verify-paper"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("PASS") == 5
    report(11, "verify-paper exits 0", b)


def test_criterion_12_reschain_at_n_2000():
    # the values were confirmed once against the loop definitions of the
    # Griesmer and Hamming dimension bounds, which took 161 s here
    with budget(5.0) as b:
        k_opt_components.cache_clear()
        rep = k_bound_reschain(2000, 50, 3, 3, 2)
        assert rep.value == 955
        assert rep.witness["lambda"] == 951
        assert rep.witness["shortened_length"] == 98
        proc = subprocess.run(
            [sys.executable, "-m", "lrckit.cli", "bounds", "--n", "2000", "--d", "50",
             "--q", "2", "--delta", "3", "--kappa", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reschain(kappa)  955   (lambda=951 len=98)" in proc.stdout
    report(12, "reschain bound at n = 2000", b)

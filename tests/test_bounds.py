"""Bound values pinned against hand derivations, plus structural laws:
Griesmer additivity, non-log-convexity of the Griesmer cardinality bound,
dominance relations, monotonicity, and soundness against real codes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit import compute_locality, example_code, min_distance, simplex
from lrckit.bounds import (
    d_bound_gopalan,
    d_bound_local_griesmer,
    d_bound_prakash,
    griesmer_dim,
    griesmer_length,
    hamming_ball,
    k_bound_abhmt,
    k_bound_cm,
    k_bound_cm_rdelta,
    k_bound_reschain,
    k_bound_reschain_coarse,
    k_bound_reschain_rdelta,
    k_hamming,
    k_opt,
    k_plotkin,
    k_singleton,
    local_dim_bound,
    local_dim_bound_logconvex,
)


def ceil_div(a, b):
    return -(-a // b)


# --- Griesmer bound ---

def test_griesmer_length_values():
    assert griesmer_length(3, 3, 2) == 6
    assert griesmer_length(4, 3, 2) == 7
    assert griesmer_length(1, 17, 2) == 17
    assert griesmer_length(0, 5, 2) == 0
    assert griesmer_length(5, 9, 2) == 20


def test_griesmer_dim_values():
    assert griesmer_dim(8, 5, 2) == 2
    assert griesmer_dim(7, 5, 2) == 1
    assert griesmer_dim(9, 5, 2) == 2
    assert griesmer_dim(20, 9, 2) == 5
    for n in (1, 4, 9):
        assert griesmer_dim(n, n, 2) == 1
    assert griesmer_dim(3, 5, 2) == 0


def test_griesmer_additivity_exhaustive():
    for q in (2, 3, 4):
        for a in range(9):
            for b in range(9):
                for delta in range(1, 33):
                    assert (
                        griesmer_length(a, delta, q)
                        + griesmer_length(b, ceil_div(delta, q**a), q)
                        == griesmer_length(a + b, delta, q)
                    )


def test_griesmer_cardinality_not_log_convex():
    k1, k1p, k2p = griesmer_dim(8, 5, 2), griesmer_dim(7, 5, 2), griesmer_dim(9, 5, 2)
    assert (k1, k1p, k2p) == (2, 1, 2)
    assert 2 ** (k1 + k1) > 2 ** (k1p + k2p)


# --- closed forms against the loop definitions they replaced ---

def griesmer_length_loop(k, d, q):
    total = 0
    p = 1
    for _ in range(k):
        total += -(-d // p)
        p *= q
    return total


def griesmer_dim_loop(n, d, q):
    k = 0
    while griesmer_length_loop(k + 1, d, q) <= n:
        k += 1
    return k


def k_hamming_loop(n, d, q):
    if n <= 0 or d > n:
        return 0
    ball = hamming_ball(n, (d - 1) // 2, q)
    space = q**n
    k = 0
    while q ** (k + 1) * ball <= space:
        k += 1
    return k


def k_plotkin_loop(n, d, q):
    if n <= 0 or d > n:
        return 0, False
    if q * d <= (q - 1) * n:
        return 0, False
    m_cap = (q * d) // (q * d - (q - 1) * n)
    k = 0
    while q ** (k + 1) <= m_cap:
        k += 1
    return k, True


ORACLE_Q = (2, 3, 4, 5, 7, 8, 9, 16)


def assert_dims_match_loops(n, d, q):
    assert griesmer_dim(n, d, q) == griesmer_dim_loop(n, d, q)
    assert k_hamming(n, d, q) == k_hamming_loop(n, d, q)
    assert k_plotkin(n, d, q) == k_plotkin_loop(n, d, q)


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from(ORACLE_Q),
    n=st.integers(0, 600),
    d=st.integers(1, 500),
    k=st.integers(0, 60),
)
def test_closed_forms_match_loops(q, n, d, k):
    assert griesmer_length(k, d, q) == griesmer_length_loop(k, d, q)
    assert_dims_match_loops(n, d, q)


def test_closed_forms_match_loops_at_edges():
    # d = 1, exact powers of q and their neighbours; n = 0, d > n, k = 0 and
    # k on either side of the number of Griesmer terms above 1
    for q in ORACLE_Q:
        powers = [q**e for e in range(10) if q**e <= 512]
        for d in sorted({1, 2, 500} | {p + off for p in powers for off in (-1, 0, 1)} - {0}):
            terms_above_one = sum(1 for p in powers if p < d)
            for k in (0, 1, terms_above_one, terms_above_one + 1, 60):
                assert griesmer_length(k, d, q) == griesmer_length_loop(k, d, q)
            for n in (0, 1, d - 1, d, d + 1, 600):
                assert_dims_match_loops(n, d, q)


# --- classical dimension bounds ---

def test_k_singleton():
    assert k_singleton(10, 4, 2) == 7
    assert k_singleton(3, 5, 2) == 0


def test_k_hamming_values():
    assert k_hamming(8, 3, 2) == 4
    assert k_hamming(20, 9, 2) == 7
    assert k_hamming(0, 3, 2) == 0


def test_k_plotkin_values():
    assert k_plotkin(4, 3, 2) == (1, True)
    assert k_plotkin(6, 3, 2) == (0, False)  # needs d > n/2 strictly
    assert k_plotkin(20, 9, 2) == (0, False)
    value, ok = k_plotkin(4, 4, 2)
    assert ok and value == 1


def test_plotkin_zero_length_normalization():
    # every log-convex choice must collapse to dimension 0 at length 0
    assert k_singleton(0, 3, 2) == 0
    assert k_hamming(0, 3, 2) == 0
    assert k_plotkin(0, 3, 2)[0] == 0


def test_k_opt_values():
    assert k_opt(4, 3, 2) == 1
    assert k_opt(2, 3, 2) == 0
    for n in (1, 5, 12):
        assert k_opt(n, 1, 3) == n
    assert k_opt(10, 3, 2) == 6
    assert k_opt(13, 3, 2) == 9


def test_k_opt_monotone():
    for q in (2, 3):
        for d in (2, 3, 5, 8):
            values = [k_opt(n, d, q) for n in range(1, 30)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            for n in (6, 12, 20):
                assert k_opt(n, d + 1, q) <= k_opt(n, d, q)


@given(
    q=st.sampled_from([2, 3, 4, 5]),
    n=st.integers(1, 60),
    d=st.integers(1, 60),
)
def test_k_opt_sane_range(q, n, d):
    v = k_opt(n, d, q)
    assert 0 <= v <= n
    if d <= n:
        assert v >= 1  # a repetition code always exists
    assert v <= k_opt(n + 1, d, q)


# --- published locality bounds ---

def test_gopalan_prakash_values():
    assert d_bound_prakash(10, 4, 4, 3) == 7
    assert d_bound_gopalan(12, 6, 3) == 6
    for n, k, r in ((12, 6, 3), (15, 8, 2), (9, 4, 4)):
        assert d_bound_prakash(n, k, r, 2) == d_bound_gopalan(n, k, r)
    assert d_bound_prakash(14, 6, 6, 4) == 14 - 6 + 1  # r = k: Singleton


def test_locality_exceeding_dimension_rejected():
    with pytest.raises(ValueError):
        d_bound_gopalan(10, 3, 4)
    with pytest.raises(ValueError):
        d_bound_prakash(10, 3, 4, 3)


def test_k_bound_cm_literal_range():
    assert k_bound_cm(10, 4, 4, 2) == 5
    # no integer t in [1, n/(r+1)]: the minimization range is empty
    assert k_bound_cm(4, 2, 4, 2) is None


def test_k_bound_cm_dominates_rdelta_at_delta_2():
    assert k_bound_cm(10, 4, 4, 2) >= k_bound_reschain_rdelta(10, 4, 4, 2, 2).value


def test_k_bound_cm_rdelta_includes_locality_free_term():
    for n, d, r, delta in ((9, 3, 6, 3), (12, 5, 8, 4)):
        assert k_bound_cm_rdelta(n, d, r, delta, 2) <= k_opt(n, d, 2)


def test_k_bound_cm_rdelta_value():
    assert k_bound_cm_rdelta(10, 3, 2, 3, 2) == 4


def test_local_dim_bound_values():
    assert local_dim_bound(4, 3, 2) == 3
    assert local_dim_bound(12, 9, 2) == 5
    assert local_dim_bound(5, 2, 251) == 5  # MDS regime: Singleton active


def test_local_dim_bound_logconvex_values():
    assert local_dim_bound_logconvex(6, 3, 2, "hamming") == 4
    assert local_dim_bound_logconvex(12, 9, 2, "singleton") == 12
    assert local_dim_bound_logconvex(12, 9, 2, "hamming") == 7
    assert local_dim_bound_logconvex(4, 3, 2, "best") == 3
    with pytest.raises(ValueError):
        local_dim_bound_logconvex(12, 9, 2, "plotkin")
    with pytest.raises(ValueError):
        local_dim_bound_logconvex(4, 3, 2, "plotkin")  # boundary d = n/2 excluded


def test_k_bound_abhmt():
    assert k_bound_abhmt(16, 3, 6, 3, 2, "hamming") == (ceil_div(14, 8) + 1) * 4
    with pytest.raises(ValueError):
        k_bound_abhmt(16, 3, 12, 9, 2, "plotkin")


# --- residual-chain bounds ---

def test_reschain_example_1():
    rep = k_bound_reschain(10, 4, 3, 3, 2)
    assert rep.value == 4
    assert rep.witness["lambda"] == 3


def test_reschain_example_2():
    rep = k_bound_reschain(13, 3, 3, 3, 2)
    assert rep.value == 6
    assert rep.witness["lambda"] == 5
    assert rep.witness["shortened_length"] == 4
    assert 5 + k_opt(4, 3, 2) == 6


def test_reschain_rdelta_example_3():
    rep = k_bound_reschain_rdelta(10, 3, 2, 3, 2)
    assert rep.value == 3
    assert rep.witness["kappa_b"] == 1
    assert rep.witness["lambda"] == 2
    assert 2 + k_opt(4, 3, 2) == 3


def test_reschain_lambda_zero_term_is_locality_free():
    for n, d, kappa, delta in ((15, 4, 2, 3), (20, 6, 3, 4)):
        assert k_bound_reschain(n, d, kappa, delta, 2).value <= k_opt(n, d, 2)


def test_reschain_coarse_restricts_the_minimization():
    rng = random.Random(99)
    for _ in range(200):
        q = rng.choice([2, 3])
        n = rng.randint(6, 30)
        delta = rng.randint(2, 6)
        d = rng.randint(delta, n)
        kappa = rng.randint(1, 5)
        full = k_bound_reschain(n, d, kappa, delta, q).value
        coarse = k_bound_reschain_coarse(n, d, kappa, delta, q).value
        assert full <= coarse


def test_d_bound_local_griesmer_example_1():
    assert d_bound_local_griesmer(10, 4, 4, 3, 2) == 4


def test_d_bound_local_griesmer_reduces_to_prakash_mds():
    # delta = 2 over a large field: kappa_B = r and G(r, 2) = r + 1
    for n, k, r in ((20, 9, 3), (17, 8, 4)):
        assert d_bound_local_griesmer(n, k, r, 2, 251) == d_bound_prakash(n, k, r, 2)


def test_dominance_sweep_small():
    rng = random.Random(77)
    for _ in range(400):
        q = rng.choice([2, 3])
        n = rng.randint(4, 40)
        delta = rng.randint(2, 9)
        r = rng.randint(1, 12)
        if r + delta - 1 > n:
            continue
        d = rng.randint(delta, n)
        assert (
            k_bound_reschain_rdelta(n, d, r, delta, q).value
            <= k_bound_cm_rdelta(n, d, r, delta, q)
        )
        k = rng.randint(r, max(r, n - 1))
        assert (
            d_bound_local_griesmer(n, k, r, delta, q)
            <= d_bound_prakash(n, k, r, delta)
        )


def test_bounds_sound_on_real_codes():
    """No implemented bound may be violated by an actual code with a
    verified locality profile."""
    cases = []
    for which in (1, 2, 3):
        ex = example_code(which)
        cases.append((ex.code, ex.delta))
    cases.append((simplex(3, 2), 2))
    cases.append((simplex(2, 3), 3))
    for code, delta in cases:
        prof = compute_locality(code, delta, size_cap=code.n)
        n, k, d, q = code.n, code.k, min_distance(code), code.q
        r, kappa = prof.r, prof.kappa
        assert k <= k_bound_reschain(n, d, kappa, delta, q).value
        assert k <= k_bound_reschain_rdelta(n, d, r, delta, q).value
        assert k <= k_bound_cm_rdelta(n, d, r, delta, q)
        assert k <= k_bound_abhmt(n, d, r, delta, q, "best")
        assert d <= d_bound_local_griesmer(n, k, r, delta, q)
        if r <= k:
            assert d <= d_bound_prakash(n, k, r, delta)

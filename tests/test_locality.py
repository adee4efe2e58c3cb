"""Locality search and verification against the reference codes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrckit import (
    closure,
    compute_locality,
    entropy,
    example_code,
    linear_code,
    min_distance,
    min_weight_codeword,
    profile_from_repair_sets,
    restrict,
    simplex,
    simplex_locality,
    verify_repair_set,
)
from lrckit import locality
from lrckit.code_core import codeword_matrix
from lrckit.galois import Field
from lrckit.locality import SEARCH_SUBSET_CAP, SEARCH_WORD_CAP, _scan_repair_sets

from conftest import random_code, random_subset


def test_verify_repair_set_example_1(ex1):
    chk = verify_repair_set(ex1.code, {0, 1, 2, 4, 5, 7}, 3)
    assert chk.valid
    assert (chk.entropy, chk.size, chk.distance) == (3, 6, 3)


def test_whole_code_is_trivial_repair_set(ex1):
    d = min_distance(ex1.code)
    chk = verify_repair_set(ex1.code, range(10), d)
    assert chk.valid


def test_verify_repair_set_example_3_block(ex3):
    chk = verify_repair_set(ex3.code, {0, 1, 2, 3}, 3)
    assert chk.valid
    assert (chk.entropy, chk.size, chk.distance) == (1, 4, 4)


def test_verify_repair_set_invalid_reason(ex1):
    chk = verify_repair_set(ex1.code, {0, 1}, 3)
    assert not chk.valid
    assert "distance" in chk.reason


def test_verify_repair_set_zero_dimensional():
    from lrckit import linear_code

    code = linear_code(2, [[1, 0, 0]])
    chk = verify_repair_set(code, {1, 2}, 2)
    assert not chk.valid and "zero-dimensional" in chk.reason


def test_compute_locality_example_1(ex1):
    prof = compute_locality(ex1.code, 3)
    assert (prof.kappa, prof.r) == (3, 4)
    for i, R in prof.entropy_witness.items():
        assert i in R
        chk = verify_repair_set(ex1.code, R, 3)
        assert chk.valid and chk.entropy <= 3
    for i, R in prof.size_witness.items():
        assert i in R and len(R) <= prof.r + 3 - 1


def test_compute_locality_example_2(ex2):
    prof = compute_locality(ex2.code, 3)
    assert prof.kappa == 3


def test_compute_locality_example_3(ex3):
    # minimal profile: three coordinates of a repetition block already repair
    # each other, so the search beats the size-4 block witnesses
    prof = compute_locality(ex3.code, 3)
    assert (prof.kappa, prof.r) == (1, 1)


def test_compute_locality_infeasible_reports_coordinates():
    from lrckit import linear_code

    code = linear_code(2, [[1, 0, 1, 1], [0, 1, 1, 0]])
    prof = compute_locality(code, 4, size_cap=2)
    assert not prof.feasible
    assert prof.r is None and prof.kappa is None
    assert prof.infeasible


def test_compute_locality_rejects_small_delta(ex1):
    with pytest.raises(ValueError):
        compute_locality(ex1.code, 1)


def test_profile_from_repair_sets_example_2(ex2):
    prof = profile_from_repair_sets(ex2.code, ex2.repair_sets, 3)
    assert (prof.kappa, prof.r) == (3, 5)
    assert len(prof.witness_sets()) == 2


def test_profile_from_repair_sets_rejects_uncovered(ex3):
    with pytest.raises(ValueError) as exc:
        profile_from_repair_sets(ex3.code, [frozenset({0, 1, 2, 3})], 3)
    assert "not covered" in str(exc.value)


def test_profile_from_repair_sets_rejects_invalid(ex1):
    with pytest.raises(ValueError):
        profile_from_repair_sets(ex1.code, [frozenset(range(10)), frozenset({0, 1})], 3)


@pytest.mark.parametrize("m,q,kappa,r_expect,delta_expect", [
    (3, 2, 2, 2, 2),
    (4, 2, 3, 4, 4),
    (2, 3, 2, 2, 3),
    (3, 3, 3, 5, 9),
])
def test_simplex_locality_formula(m, q, kappa, r_expect, delta_expect):
    loc = simplex_locality(m, q, kappa)
    assert loc.delta_local == delta_expect
    assert loc.r == r_expect


def test_simplex_locality_range_checked():
    with pytest.raises(ValueError):
        simplex_locality(3, 2, 1)
    with pytest.raises(ValueError):
        simplex_locality(3, 2, 4)


@pytest.mark.parametrize("m,q", [(3, 2), (4, 2), (2, 3)])
def test_simplex_locality_matches_search(m, q):
    code = simplex(m, q)
    for kappa in range(2, m + 1):
        loc = simplex_locality(m, q, kappa)
        prof = compute_locality(code, loc.delta_local, size_cap=code.n)
        assert prof.kappa == kappa
        assert prof.r == loc.r


def test_kappa_never_exceeds_r():
    rng = np.random.RandomState(41)
    checked = 0
    for _ in range(500):  # bounded, so a scan that finds nothing feasible fails
        code = random_code(rng, 2, n_max=9, k_max=4)
        prof = compute_locality(code, 2, size_cap=code.n)
        if not prof.feasible:
            continue
        assert prof.kappa <= prof.r
        checked += 1
        if checked == 25:
            break
    assert checked == 25


def test_closure_is_admissible_replacement():
    """Replacing a valid repair set by its closure keeps entropy and cannot
    lower the exact restricted distance."""
    rng = np.random.RandomState(43)
    for _ in range(30):
        code = random_code(rng, 2, n_max=9, k_max=4)
        R = random_subset(rng, code.n)
        if not R:
            continue
        sub = restrict(code, R)
        if sub.k == 0:
            continue
        cl = closure(code, R)
        assert entropy(code, cl) == entropy(code, R)
        assert min_distance(restrict(code, cl)) >= min_distance(sub)


# --- the level scan against the depth-first oracle ---

def _dfs_scan_oracle(code, delta, cap):
    """The depth-first subset scan the level scan replaced: one running
    restricted-weight vector, updated per coordinate pushed or popped.
    Returns the same (best_size, best_ent) lists as `_scan_repair_sets`."""
    n, k, q = code.n, code.k, code.q
    nz = codeword_matrix(code, max_words=SEARCH_WORD_CAP) != 0
    col_weight = [np.ascontiguousarray(nz[:, j], dtype=np.int32) for j in range(n)]
    entropy_of_zero_count = {q**j: k - j for j in range(k + 1)}

    best_size: list = [None] * n
    best_ent: list = [None] * n
    w = np.zeros(q**k, dtype=np.int32)
    stack: list[int] = []

    def dfs(start: int) -> None:
        nonlocal w
        for j in range(start, n):
            w += col_weight[j]
            stack.append(j)
            if len(stack) >= delta:
                zeros = int(np.count_nonzero(w == 0))
                h = entropy_of_zero_count[zeros]
                if h > 0:
                    dmin = int(w[w != 0].min())
                    if dmin >= delta:
                        tup = tuple(stack)
                        size_key = (len(tup), tup)
                        ent_key = (h, tup)
                        for i in tup:
                            if best_size[i] is None or size_key < best_size[i]:
                                best_size[i] = size_key
                            if best_ent[i] is None or ent_key < best_ent[i]:
                                best_ent[i] = ent_key
            if len(stack) < cap:
                dfs(j + 1)
            stack.pop()
            w -= col_weight[j]

    dfs(0)
    return best_size, best_ent


def _quiet_code(q, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return linear_code(q, rows)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_level_scan_matches_dfs_oracle(q, data):
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, min(5, n)))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    code = _quiet_code(q, rows)
    assume(code.k >= 1)
    delta = data.draw(st.integers(2, 5))
    cap = data.draw(st.integers(1, n))
    assert _scan_repair_sets(code, delta, cap) == _dfs_scan_oracle(code, delta, cap)


@pytest.mark.parametrize("q,k,n", [
    (3, 3, 9),   # 27 words: one 64-bit word, 37 padding bits
    (3, 5, 8),   # 243 words: four words, 13 padding bits
    (2, 6, 10),  # 64 words: exactly one word, no padding
    (3, 4, 9),   # 81 words: two words, 47 padding bits
    (5, 3, 7),   # 125 words: two words, 3 padding bits
])
def test_level_scan_padding_never_counts(q, k, n):
    rng = np.random.RandomState(61 + q * 10 + k)
    code = _quiet_code(q, np.hstack([np.eye(k, dtype=int), rng.randint(0, q, size=(k, n - k))]))
    assert code.q**code.k == q**k
    for delta in (2, 3):
        assert _scan_repair_sets(code, delta, n) == _dfs_scan_oracle(code, delta, n)


@pytest.mark.parametrize("n,k,cap", [(66, 3, 3), (260, 2, 2)])
def test_level_scan_long_binary_code(n, k, cap):
    # n > 64 coordinates; n > 256 also takes the uint16 coordinate dtype
    rng = np.random.RandomState(67 + n)
    code = _quiet_code(2, rng.randint(0, 2, size=(k, n)))
    got = _scan_repair_sets(code, 2, cap)
    assert got == _dfs_scan_oracle(code, 2, cap)
    assert sum(b is not None for b in got[0][64:]) > (n - 64) // 2


def test_delta_above_cap_is_infeasible_everywhere(ex1):
    assert _scan_repair_sets(ex1.code, 5, 3) == ([None] * 10, [None] * 10)
    prof = compute_locality(ex1.code, 5, size_cap=3)
    assert prof.infeasible == tuple(range(10))
    assert (prof.r, prof.kappa) == (None, None)


def test_level_scan_spans_many_chunks():
    """Binary [24, 16]: the unit vectors plus e_i + e_(i+1) for i < 8, so the
    valid sets at delta 2 are the eight parity triples {i, i+1, 16+i}.
    Level 3 runs over 64 chunks, and coordinates 1..7 each lie in two
    triples of equal entropy that fall in different chunks."""
    gen = np.zeros((16, 24), dtype=int)
    gen[:, :16] = np.eye(16, dtype=int)
    for i in range(8):
        gen[i, 16 + i] = gen[i + 1, 16 + i] = 1
    code = _quiet_code(2, gen)
    words = -(-code.q**code.k // 64)
    chunk = locality.CHUNK_BYTES // (8 * words)
    assert math.comb(24, 3) // chunk >= 60
    got = _scan_repair_sets(code, 2, 3)
    assert got == _dfs_scan_oracle(code, 2, 3)
    best_size, best_ent = got
    for i in range(1, 8):
        assert best_size[i] == (3, (i - 1, i, 15 + i))
        assert best_ent[i] == (2, (i - 1, i, 15 + i))
    assert best_size[9:16] == [None] * 7


def test_subset_budget_admits_simplex_52_at_default_cap(monkeypatch):
    code = simplex(5, 2)
    visited = sum(math.comb(31, s) for s in range(4, 10))
    assert 3 * 10**7 < visited <= SEARCH_SUBSET_CAP
    seen = []
    monkeypatch.setattr(locality, "_scan_repair_sets",
                        lambda c, delta, cap: seen.append(cap) or ([None] * c.n, [None] * c.n))
    compute_locality(code, 4)
    assert seen == [9]


def test_subset_budget_refuses_before_enumerating():
    rng = np.random.RandomState(71)
    code = _quiet_code(2, np.hstack([np.eye(4, dtype=int), rng.randint(0, 2, size=(4, 56))]))
    with pytest.raises(ValueError) as exc:
        compute_locality(code, 2)
    msg = str(exc.value)
    assert f"above the cap {SEARCH_SUBSET_CAP}" in msg
    assert str(sum(math.comb(60, s) for s in range(2, 7))) in msg
    assert "codeword_matrix" not in code._cache


@pytest.mark.parametrize("make", [
    lambda: example_code(1).code,
    lambda: simplex(3, 3),
    lambda: _quiet_code(4, np.random.RandomState(73).randint(0, 4, size=(4, 9))),
])
def test_distance_after_locality_reads_the_table(make):
    code = make()
    fresh = _quiet_code(code.q, code.gen)
    compute_locality(code, 2)
    assert "codeword_matrix" in code._cache
    calls = []
    matmul = Field.matmul
    Field.matmul = lambda self, A, B: calls.append(1) or matmul(self, A, B)
    try:
        d = min_distance(code)
        got = min_weight_codeword(code)
    finally:
        Field.matmul = matmul
    assert calls == []
    assert d == got[0]
    assert got == min_weight_codeword(fresh)

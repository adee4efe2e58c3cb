"""Core code operators: rank/entropy, closure, restriction, shortening,
puncturing, exact distance, and the polymatroid/closure laws."""

import itertools
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrckit import (
    CodeFormatError,
    closure,
    entropy,
    linear_code,
    load_code,
    min_distance,
    min_weight_codeword,
    puncture,
    restrict,
    save_code,
    shorten,
)
from lrckit import code_core
from lrckit.code_core import (
    BLOCK_CELLS,
    BLOCK_MESSAGES,
    DEFAULT_ENUM_CAP,
    ENTROPY_MEMO_CAP,
    MAX_ENUM_CELLS,
    code_from_json,
    codeword_matrix,
    rref,
)
from lrckit.constructions import simplex
from lrckit.galois import Field, field_new
from lrckit.residual import res_chain, residual

from conftest import random_code, random_subset


def test_rref_identity_fixed_point():
    code = linear_code(2, np.eye(4, dtype=int))
    R, pivots = rref(code.gen, code.field)
    assert len(pivots) == 4
    assert np.array_equal(R, np.eye(4, dtype=int))


def test_rref_zero_row_does_not_change_rank():
    with pytest.warns(UserWarning):
        code = linear_code(2, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    assert code.k == 2


def test_rref_example_generator_rank(ex1):
    _, pivots = rref(ex1.code.gen, ex1.code.field)
    assert len(pivots) == 4


def _rref_oracle(mat, fld, pivot_cols=None):
    """Reduced row-echelon form by row-by-row elimination, one table
    operation per row per pivot: the reference for `rref`."""
    R = np.array(mat, dtype=np.int16)
    rows, cols = R.shape
    if pivot_cols is None:
        order = range(cols)
    else:
        head = list(pivot_cols)
        seen = set(head)
        order = head + [c for c in range(cols) if c not in seen]
    pivots = []
    r = 0
    for c in order:
        if r == rows:
            break
        hit = -1
        for i in range(r, rows):
            if R[i, c] != 0:
                hit = i
                break
        if hit < 0:
            continue
        if hit != r:
            R[[r, hit]] = R[[hit, r]]
        pivot_inv = int(fld.inv(int(R[r, c])))
        R[r] = fld.mul(pivot_inv, R[r])
        for i in range(rows):
            if i != r and R[i, c] != 0:
                R[i] = fld.sub(R[i], fld.mul(int(R[i, c]), R[r]))
        pivots.append(c)
        r += 1
    return R, pivots


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 8, 9]), st.data())
def test_rref_matches_loop_oracle(q, data):
    """Random matrices with zero rows, repeated rows and scalar multiples of
    earlier rows, under a pivot order that may be partial, permuted and
    repeat columns."""
    fld = field_new(q)
    n_rows = data.draw(st.integers(1, 12))
    n_cols = data.draw(st.integers(1, 40))
    mat = []
    for i in range(n_rows):
        kind = data.draw(st.sampled_from(("random", "zero", "repeat", "multiple")
                                         if mat else ("random", "zero")))
        if kind == "random":
            row = data.draw(st.lists(st.integers(0, q - 1), min_size=n_cols, max_size=n_cols))
        elif kind == "zero":
            row = [0] * n_cols
        else:
            row = mat[data.draw(st.integers(0, len(mat) - 1))]
            if kind == "multiple":
                row = [int(fld.mul(data.draw(st.integers(1, q - 1)), v)) for v in row]
        mat.append(list(row))
    pivot_cols = data.draw(st.none() | st.lists(st.integers(0, n_cols - 1),
                                                max_size=n_cols + 3))
    R, pivots = rref(np.array(mat), fld, pivot_cols)
    R_ref, pivots_ref = _rref_oracle(np.array(mat), fld, pivot_cols)
    assert R.dtype == R_ref.dtype == np.int16
    assert np.array_equal(R, R_ref)
    assert pivots == pivots_ref


def test_entropy_empty_and_full(ex1):
    assert entropy(ex1.code, frozenset()) == 0
    assert entropy(ex1.code, range(10)) == 4


def test_entropy_repair_set(ex1):
    assert entropy(ex1.code, {0, 1, 2, 4, 5, 7}) == 3


def test_entropy_out_of_range(ex1):
    with pytest.raises(ValueError):
        entropy(ex1.code, {10})


def test_entropy_memo_any_order_or_iterable():
    rng = np.random.RandomState(41)
    for q in (2, 3, 4):
        code = random_code(rng, q, n_max=12, k_max=5)
        for _ in range(30):
            I = sorted(random_subset(rng, code.n))
            want = len(rref(code.gen[:, I], code.field)[1]) if I else 0
            forms = (I, I[::-1], tuple(I), set(I), frozenset(I), iter(I),
                     (i for i in reversed(I)), np.array(I, dtype=np.int64),
                     dict.fromkeys(I), I + I)
            for form in forms:
                assert entropy(code, form) == want


def test_entropy_memo_still_checks_range():
    code = linear_code(3, [[1, 0, 1, 2], [0, 1, 1, 1]])
    assert entropy(code, {0, 1}) == 2
    for bad in ({0, 1, 4}, [1, 0, -1], (4,), {-1}):
        with pytest.raises(ValueError, match="out of range"):
            entropy(code, bad)
    assert all(0 <= min(key) and max(key) < code.n for key in code._cache["entropy"])


def test_entropy_memo_is_bounded():
    """Every nonempty subset of a 13-coordinate code: 8191 sets, about twice
    the memo bound, so the oldest entries are evicted and recomputed."""
    rng = np.random.RandomState(47)
    code = linear_code(2, rng.randint(0, 2, size=(5, 13)))
    subsets = [c for s in range(1, 14) for c in itertools.combinations(range(13), s)]
    assert len(subsets) > ENTROPY_MEMO_CAP
    for t, I in enumerate(subsets):
        h = entropy(code, I)
        if t % 16 == 0:
            assert h == len(rref(code.gen[:, list(I)], code.field)[1])
        assert len(code._cache["entropy"]) <= ENTROPY_MEMO_CAP
    assert len(code._cache["entropy"]) == ENTROPY_MEMO_CAP
    for I in subsets[:50]:  # evicted by now
        assert entropy(code, I) == len(rref(code.gen[:, list(I)], code.field)[1])


def test_closure_empty_is_zero_columns():
    code = linear_code(2, [[1, 0, 0], [0, 1, 0]])  # third column is zero
    assert closure(code, frozenset()) == frozenset({2})


def test_closure_full(ex1):
    assert closure(ex1.code, range(10)) == frozenset(range(10))


def test_closure_equal_columns(ex3):
    assert closure(ex3.code, {0}) == frozenset({0, 1, 2, 3})


def test_restrict_full_is_same_code(ex1):
    sub = restrict(ex1.code, range(10))
    assert (sub.n, sub.k) == (10, 4)
    assert min_distance(sub) == min_distance(ex1.code)


def test_restrict_repair_set(ex1):
    sub = restrict(ex1.code, {0, 1, 2, 4, 5, 7})
    assert (sub.n, sub.k, min_distance(sub)) == (6, 3, 3)


def test_restrict_empty_raises(ex1):
    with pytest.raises(ValueError):
        restrict(ex1.code, frozenset())


def test_restrict_zero_dimensional_flagged(ex3):
    # columns 4..9 of example 3 span nothing of row 1's block; a single zero
    # column restriction is the cleanest degenerate case
    code = linear_code(2, [[1, 0], [0, 0]][:1])
    sub = restrict(code, {1})
    assert sub.is_zero_dimensional
    with pytest.raises(ValueError):
        min_distance(sub)


def test_restrict_simplex_chain_set(simplex32):
    """Entropy-2 chain set of S(3,2) restricts to a [3,2,2] code whose three
    columns are distinct and nonzero."""
    chain = res_chain(simplex32)
    level = chain.level_with_entropy(2)
    sub = restrict(simplex32, level.coords)
    assert (sub.n, sub.k, min_distance(sub)) == (3, 2, 2)
    cols = {tuple(int(v) for v in sub.gen[:, j]) for j in range(3)}
    assert len(cols) == 3 and all(any(c) for c in cols)


def test_shorten_empty_is_identity(ex1):
    assert shorten(ex1.code, frozenset()) is ex1.code


def test_shorten_hamming(hamming74):
    sub = shorten(hamming74, {0})
    assert (sub.n, sub.k) == (6, 3)
    assert min_distance(sub) >= 3


def test_shorten_dimension_drop_matches_entropy():
    rng = np.random.RandomState(11)
    for _ in range(100):
        code = random_code(rng, 2, n_max=10, k_max=4)
        I = random_subset(rng, code.n)
        if len(I) == code.n:
            continue
        h = entropy(code, I)
        sub = shorten(code, I)
        assert sub.k == code.k - h


def test_shorten_distance_never_drops():
    rng = np.random.RandomState(13)
    for _ in range(60):
        code = random_code(rng, 3, n_max=9, k_max=4)
        I = random_subset(rng, code.n)
        if len(I) == code.n:
            continue
        sub = shorten(code, I)
        if sub.k >= 1:
            assert min_distance(sub) >= min_distance(code)


def test_puncture_empty_is_identity(ex2):
    assert puncture(ex2.code, frozenset()) is ex2.code


def test_puncture_simplex_last(simplex32):
    sub = puncture(simplex32, {6})
    assert (sub.n, sub.k, min_distance(sub)) == (6, 3, 3)


def test_puncture_min_weight_support_equals_residual(simplex32):
    """Puncturing on a minimum-weight support is exactly the residual step:
    same coordinates, same row space (canonical generators agree)."""
    _, _, support = min_weight_codeword(simplex32)
    punctured = puncture(simplex32, support)
    kept, res = residual(simplex32)
    assert kept == frozenset(range(7)) - support
    assert np.array_equal(punctured.gen, res.gen)


def test_min_distance_repetition():
    code = linear_code(3, [[1] * 9])
    assert min_distance(code) == 9


def test_min_distance_example(ex1):
    assert min_distance(ex1.code) == 4


def test_min_distance_cap():
    code = linear_code(2, np.eye(10, dtype=int))
    with pytest.raises(ValueError) as exc:
        min_distance(code, max_words=512)
    assert "max_words" in str(exc.value)


def test_min_weight_codeword_deterministic(simplex32):
    w, digits, support = min_weight_codeword(simplex32)
    assert w == 4 and len(support) == 4
    # lexicographically smallest message achieving weight 4 is (0, 0, 1)
    assert digits == (0, 0, 1)


def _min_weight_oracle(code):
    """(weight, digits, support) by brute force over messages in lex order,
    each codeword summed row by row with the field tables."""
    fld = code.field
    best = None
    for msg in itertools.product(range(code.q), repeat=code.k):
        if not any(msg):
            continue
        cw = np.zeros(code.n, dtype=np.int16)
        for m, row in zip(msg, code.gen):
            if m:
                cw = fld.add(cw, fld.mul(m, row))
        w = int(np.count_nonzero(cw))
        if best is None or w < best[0]:  # strict: the first (lex-smallest) message wins ties
            best = (w, msg, frozenset(int(j) for j in np.nonzero(cw)[0]))
    return best


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_min_weight_kernel_matches_oracle(q, data):
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = linear_code(q, rows)
    assume(code.k >= 1)
    expected = _min_weight_oracle(code)

    calls = []
    matmul = Field.matmul
    Field.matmul = lambda self, A, B: calls.append(1) or matmul(self, A, B)
    try:
        d = min_distance(code)
        enumerated = len(calls)
        got = min_weight_codeword(code)
    finally:
        Field.matmul = matmul
    assert enumerated >= 1
    assert len(calls) == enumerated  # the codeword comes from the cached scan
    assert d == expected[0]
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_min_weight_from_codeword_table_matches_oracle(q, data):
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = linear_code(q, rows)
    assume(code.k >= 1)
    codeword_matrix(code)
    calls = []
    matmul = Field.matmul
    Field.matmul = lambda self, A, B: calls.append(1) or matmul(self, A, B)
    try:
        d = min_distance(code)
        got = min_weight_codeword(code)
    finally:
        Field.matmul = matmul
    assert calls == []
    assert (d, got) == (got[0], _min_weight_oracle(code))


def _long_binary_code():
    """Binary [1100, 12] whose minimum weight 3 is first reached by message
    index 2048 (row 0 alone) and again by the last message 4095 (all rows),
    so the tie spans two enumeration blocks."""
    rng = np.random.RandomState(53)
    n = 1100
    gen = np.zeros((12, n), dtype=np.int64)
    gen[0, :3] = 1
    gen[1:11] = rng.randint(0, 2, size=(10, n))
    t = np.zeros(n, dtype=np.int64)
    t[:6] = 1
    gen[11] = (gen[1:11].sum(axis=0) + t) % 2  # rows 0..11 sum to e_3 + e_4 + e_5
    return linear_code(2, gen)


def _long_ternary_code():
    rng = np.random.RandomState(59)
    return linear_code(3, rng.randint(0, 3, size=(8, 1100)))


@pytest.mark.parametrize("make", [_long_binary_code, _long_ternary_code])
def test_min_weight_scan_spans_capped_blocks(make):
    code = make()
    block = min(BLOCK_MESSAGES, BLOCK_CELLS // code.n)
    L = max(l for l in range(code.k + 1) if code.q**l <= block)
    assert L < code.k  # the scan runs over more than one high row
    operands = []
    matmul = Field.matmul
    Field.matmul = lambda self, A, B: operands.append((np.shape(A), np.shape(B))) or matmul(self, A, B)
    try:
        got = min_weight_codeword(code)
    finally:
        Field.matmul = matmul
    # one low table of q^L rows, then the high chunks of q^(k - L) rows
    assert [a[0] for a, _ in operands] == [code.q**L, code.q ** (code.k - L)]
    for (rows, t), (t2, n) in operands:
        assert t == t2 and n == code.n
        assert rows * n <= BLOCK_CELLS and t * n <= BLOCK_CELLS
    assert got == _min_weight_oracle(code)
    if code.q == 2:
        assert 2048 // 2**L != 4095 // 2**L  # the tie spans two high rows
        assert got[:2] == (3, (1,) + (0,) * 11)  # index 2048, not the tie at 4095


def test_min_distance_refuses_cells_above_cap():
    rng = np.random.RandomState(61)
    code = linear_code(2, np.hstack([np.eye(20, dtype=int), rng.randint(0, 2, size=(20, 280))]))
    assert code.q**code.k <= DEFAULT_ENUM_CAP < code.q**code.k * code.n
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        min_distance(code)
    assert time.perf_counter() - t0 < 1.0
    assert f"above the cap MAX_ENUM_CELLS = {MAX_ENUM_CELLS}" in str(exc.value)
    assert "min_weight" not in code._cache


def test_cell_cap_admits_largest_simplex():
    code = simplex(14, 2)
    assert code.q**code.k * code.n <= MAX_ENUM_CELLS
    assert 2 * code.q**code.k * code.n > MAX_ENUM_CELLS


def _codeword_matrix_oracle(code):
    """All codewords in message-lex order, each summed row by row."""
    fld = code.field
    out = []
    for msg in itertools.product(range(code.q), repeat=code.k):
        cw = np.zeros(code.n, dtype=np.int16)
        for m, row in zip(msg, code.gen):
            cw = fld.add(cw, fld.mul(m, row))
        out.append(cw)
    return np.array(out, dtype=np.int16).reshape(-1, code.n)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]), st.data())
def test_split_kernel_matches_oracles(q, data):
    """Blocks shrunk so that codes with k <= 5 split into several high rows
    and several high chunks."""
    k = data.draw(st.integers(1, max(l for l in range(1, 6) if q**l <= 1024)))
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    block_messages = data.draw(st.integers(1, 12))
    block_cells = data.draw(st.integers(1, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = [linear_code(q, rows) for _ in range(2)]
    assume(fresh[0].k >= 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_core, "BLOCK_MESSAGES", block_messages)
        mp.setattr(code_core, "BLOCK_CELLS", block_cells)
        d = min_distance(fresh[0])
        got = min_weight_codeword(fresh[0])
        table = codeword_matrix(fresh[1])
    expected = _min_weight_oracle(fresh[0])
    assert d == expected[0]
    assert got == expected
    assert np.array_equal(table, _codeword_matrix_oracle(fresh[1]))


# --- polymatroid and closure laws ---

def _codes():
    rng = np.random.RandomState(101)
    return [random_code(rng, q, n_max=10, k_max=4) for q in (2, 2, 3, 4)]


@pytest.mark.parametrize("code", _codes())
def test_polymatroid_axioms(code):
    rng = np.random.RandomState(23)
    for _ in range(50):
        I = random_subset(rng, code.n)
        J = random_subset(rng, code.n)
        hi, hj = entropy(code, I), entropy(code, J)
        assert hi <= len(I)
        if I <= J:
            assert hi <= hj
        assert entropy(code, I | J) + entropy(code, I & J) <= hi + hj


@pytest.mark.parametrize("code", _codes())
def test_closure_laws(code):
    rng = np.random.RandomState(29)
    for _ in range(25):
        I = random_subset(rng, code.n)
        cl = closure(code, I)
        assert I <= cl
        assert closure(code, cl) == cl
        assert entropy(code, cl) == entropy(code, I)
        J = I | random_subset(rng, code.n)
        assert cl <= closure(code, J)


def test_restriction_consistency(ex1):
    """Entropy inside a restriction equals entropy in the ambient code."""
    I = sorted({0, 1, 2, 4, 5, 7})
    sub = restrict(ex1.code, I)
    rng = np.random.RandomState(31)
    for _ in range(20):
        J_rel = random_subset(rng, sub.n)
        J_amb = frozenset(I[j] for j in J_rel)
        assert entropy(sub, J_rel) == entropy(ex1.code, J_amb)


def test_closure_restriction_distance():
    rng = np.random.RandomState(37)
    for _ in range(40):
        code = random_code(rng, 2, n_max=10, k_max=4)
        R = random_subset(rng, code.n)
        if not R:
            continue
        sub = restrict(code, R)
        if sub.k == 0:
            continue
        cl = closure(code, R)
        assert min_distance(restrict(code, cl)) >= min_distance(sub)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.data())
def test_entropy_never_exceeds_dimension(q, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=6, max_size=6),
        min_size=1, max_size=4,
    ))
    if not any(any(r) for r in rows):
        return
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("ignore")
        code = linear_code(q, rows)
    if code.k == 0:
        return
    I = data.draw(st.sets(st.integers(0, 5), max_size=6))
    assert 0 <= entropy(code, I) <= min(len(I), code.k)


# --- JSON round trip ---

def test_json_round_trip(tmp_path, ex1):
    path = tmp_path / "code.json"
    save_code(ex1.code, path, repair_sets=ex1.repair_sets)
    code, sets = load_code(path)
    assert (code.n, code.k, code.q) == (10, 4, 2)
    assert np.array_equal(code.gen, ex1.code.gen)
    assert sets == ex1.repair_sets


def test_json_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "k": 1, "generator": [[1]]}))
    with pytest.raises(CodeFormatError) as exc:
        load_code(path)
    assert "'n'" in str(exc.value)


def test_json_bad_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "k": 1, "n": 2, "generator": [[1, 3]]}))
    with pytest.raises(CodeFormatError) as exc:
        load_code(path)
    assert "row 1, column 2" in str(exc.value)


# the generator check names the first bad row or entry; each case below has
# a second bad entry after the first.
_GOOD_GEN = [[1, 0, 2, 1], [0, 1, 1, 2]]


def _with_entries(*entries):
    gen = [list(row) for row in _GOOD_GEN]
    for i, j, v in entries:
        gen[i][j] = v
    return gen


def _entry_error(row, col):
    return f"<data>: generator entry at row {row}, column {col} must be an integer in [0, 3)"


@pytest.mark.parametrize("gen,message", [
    (_with_entries((1, 1, True), (1, 3, 5)), _entry_error(2, 2)),
    (_with_entries((0, 2, 1.0), (1, 0, 7)), _entry_error(1, 3)),
    (_with_entries((1, 2, -1), (1, 3, True)), _entry_error(2, 3)),
    (_with_entries((0, 3, 3), (1, 0, -2)), _entry_error(1, 4)),
    (_with_entries((1, 0, 2**70), (1, 1, 1.5)), _entry_error(2, 1)),
    (_with_entries((0, 1, "1"),), _entry_error(1, 2)),
    ([[1, 0, 2, 1], [0, 1, 1]], "<data>: generator row 2 must have n = 4 entries"),
    ([[1, 0, 2, 1, 0], [0, 1, 1, 2, 9]], "<data>: generator row 1 must have n = 4 entries"),
    ([(1, 0, 2, 1), [0, 1, 1, 2]], "<data>: generator row 1 must have n = 4 entries"),
    ([[1, 0, 2, 1], "0112"], "<data>: generator row 2 must have n = 4 entries"),
    ([[1, 0, 2, 1]], "<data>: 'generator' must be a list of k = 2 rows"),
    (_GOOD_GEN * 2, "<data>: 'generator' must be a list of k = 2 rows"),
], ids=["bool", "float", "negative", "at-q", "beyond-int64", "string", "short-row",
        "long-row", "tuple-row", "string-row", "too-few-rows", "too-many-rows"])
def test_json_generator_error_messages(gen, message):
    with pytest.raises(CodeFormatError) as exc:
        code_from_json({"q": 3, "k": 2, "n": 4, "generator": gen})
    assert str(exc.value) == message


@pytest.mark.parametrize("entry,shown", [(1.7, "1.7"), (2.0, "2.0"), ("4", "'4'"),
                                         (True, "True"), (None, "None")])
def test_json_repair_set_entry_must_be_integer(entry, shown):
    data = {"q": 2, "k": 1, "n": 5, "generator": [[1, 1, 1, 1, 1]],
            "repair_sets": [[1, 2], [3, entry, 5]]}
    with pytest.raises(CodeFormatError) as exc:
        code_from_json(data)
    assert str(exc.value) == f"<data>: repair set 2: entry 2 ({shown}) is not an integer coordinate"


def test_json_repair_set_messages_unchanged():
    data = {"q": 2, "k": 1, "n": 5, "generator": [[1, 1, 1, 1, 1]]}
    for sets, message in [([[1, 6]], "<data>: repair set 1: coordinate 6 outside [1, 5]"),
                          ([[2], [0]], "<data>: repair set 2: coordinate 0 outside [1, 5]"),
                          ([[1], []], "<data>: repair set 2 must be a nonempty list"),
                          ({"1": [1]}, "<data>: 'repair_sets' must be a list of coordinate lists")]:
        with pytest.raises(CodeFormatError) as exc:
            code_from_json({**data, "repair_sets": sets})
        assert str(exc.value) == message
    _, sets = code_from_json({**data, "repair_sets": [[5, 1, 5], [2]]})
    assert sets == (frozenset({0, 4}), frozenset({1}))


def test_json_invalid_syntax(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CodeFormatError) as exc:
        load_code(path)
    assert "line" in str(exc.value)


def test_json_rank_deficient_warns(tmp_path):
    path = tmp_path / "rankdef.json"
    path.write_text(json.dumps({
        "q": 2, "k": 2, "n": 3,
        "generator": [[1, 0, 1], [1, 0, 1]],
    }))
    with pytest.warns(UserWarning):
        code, _ = load_code(path)
    assert code.k == 1

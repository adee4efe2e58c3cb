"""Linear codes over GF(q): generator matrices, rank/entropy, closure, the
restriction/shortening/puncturing operators, and exact minimum distance by
exhaustive codeword enumeration.

Costs.  `rref` eliminates one pivot at a time, clearing the pivot column
from all other rows in one table lookup per pivot, so its Python-level work
is one step per pivot, not one per row.  `entropy` memoises H(I) per code in
``LinearCode._cache``, keyed by the sorted coordinates, and keeps at most
ENTROPY_MEMO_CAP sets (the set construction asks for the same few hundred
sets thousands of times).  Codeword enumeration splits each message index
as m = hi * q^L + lo: a low table holds the q^L codewords of the last L
generator rows, built once per code, and high chunks hold the codewords of
the first k - L rows, so codeword m is high[hi] + low[lo].  Both tables hold
at most BLOCK_MESSAGES rows and BLOCK_CELLS row x coordinate cells, so memory
stays bounded as n grows.  The weight scan compares low against the negated
high row, one comparison per cell, and never forms the sum; a code whose
low table spans it builds no high table.  Enumeration refuses more than
MAX_ENUM_CELLS message x coordinate cells (and more than ``max_words``
messages) before it starts.

Coordinates are 0-based throughout this module and the rest of the library.
JSON files and CLI reports use 1-based coordinates; the converters at the
bottom handle the translation.

A zero-dimensional code (no nonzero codeword) is representable — restriction
and shortening can legitimately produce one — but it has no minimum distance:
``min_distance`` refuses it rather than reporting d = 0.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .galois import Field, field_new

CoordSet = frozenset  # of int, 0-based

DEFAULT_ENUM_CAP = 1 << 24
# enumeration costs about q^k * n cells whatever max_words allows; S(14, 2)
# is the largest binary Simplex code under this cap
MAX_ENUM_CELLS = 1 << 28
# the split kernel's low table and high chunks hold at most this many rows,
# and at most BLOCK_CELLS row x coordinate cells, so an int64 product inside
# Field.matmul stays near 2 MB whatever n is
BLOCK_MESSAGES = 1 << 13
BLOCK_CELLS = 1 << 18
# entropy() remembers at most this many coordinate sets per code
ENTROPY_MEMO_CAP = 4096


class CodeFormatError(ValueError):
    """Raised for malformed code input files."""


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code given by a full-row-rank generator matrix over GF(q)."""

    field: Field
    gen: np.ndarray  # k x n, dtype int16, read-only
    _cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    @property
    def n(self) -> int:
        return self.gen.shape[1]

    @property
    def is_zero_dimensional(self) -> bool:
        return self.k == 0

    def __repr__(self) -> str:
        return f"LinearCode(q={self.q}, k={self.k}, n={self.n})"


def _make(fld: Field, gen: np.ndarray) -> LinearCode:
    gen = np.ascontiguousarray(gen, dtype=np.int16)
    gen.setflags(write=False)
    return LinearCode(field=fld, gen=gen)


def rref(mat: np.ndarray, fld: Field, pivot_cols: Sequence[int] | None = None):
    """Reduced row-echelon form over GF(q).

    pivot_cols, when given, fixes the order in which columns are searched for
    pivots (remaining columns follow in ascending order).  Returns
    (R, pivots) where pivots lists the pivot columns; rank = len(pivots).
    Each pivot clears its column from every other row in one table lookup.
    """
    R = np.array(mat, dtype=np.int16)
    if R.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    rows, cols = R.shape
    if pivot_cols is None:
        order: Iterable[int] = range(cols)
    else:
        head = list(pivot_cols)
        seen = set(head)
        order = head + [c for c in range(cols) if c not in seen]
    add, mul, neg = fld.add_table, fld.mul_table, fld.neg_table
    pivots: list[int] = []
    r = 0
    for c in order:
        if r == rows:
            break
        hits = R[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        hit = r + int(hits[0])
        if hit != r:
            R[[r, hit]] = R[[hit, r]]
        R[r] = mul[fld.inv_table[R[r, c]], R[r]]  # R[r, c] != 0: no zero check needed
        f = R[:, c].copy()
        f[r] = 0
        if f.any():
            R = add[R, neg[mul[f[:, None], R[r][None, :]]]]
        pivots.append(c)
        r += 1
    return R, pivots


def linear_code(q: int | Field, rows, declared_k: int | None = None) -> LinearCode:
    """Build a LinearCode from generator rows, normalizing to full row rank.

    Rank deficiency (or a declared_k that disagrees with the computed rank)
    is a warning, not an error: the effective dimension is used.
    """
    fld = q if isinstance(q, Field) else field_new(q)
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("generator must be a 2-D matrix with at least one column")
    if arr.size and (arr.min() < 0 or arr.max() >= fld.q):
        raise ValueError(f"generator entries must lie in [0, {fld.q})")
    R, pivots = rref(arr.astype(np.int16), fld)
    rank = len(pivots)
    if rank < arr.shape[0]:
        warnings.warn(
            f"generator has rank {rank}, below its {arr.shape[0]} rows; "
            f"using effective dimension {rank}",
            stacklevel=2,
        )
        gen = R[:rank]
    else:
        gen = arr.astype(np.int16)
    if declared_k is not None and declared_k != rank:
        warnings.warn(
            f"declared dimension k={declared_k} disagrees with computed rank {rank}",
            stacklevel=2,
        )
    return _make(fld, gen)


def _sorted_coords(code: LinearCode, I) -> list[int]:
    cols = sorted(set(int(i) for i in I))
    if cols and (cols[0] < 0 or cols[-1] >= code.n):
        bad = cols[0] if cols[0] < 0 else cols[-1]
        raise ValueError(f"coordinate {bad} out of range for code length {code.n}")
    return cols


def entropy(code: LinearCode, I) -> int:
    """H(I): rank of the generator columns indexed by I (0 <= H <= min(|I|, k)).

    Memoised per code on the sorted coordinates; the memo keeps the latest
    ENTROPY_MEMO_CAP sets.
    """
    key = tuple(_sorted_coords(code, I))
    if not key:
        return 0
    memo = code._cache.setdefault("entropy", {})
    h = memo.get(key)
    if h is None:
        h = len(rref(code.gen[:, list(key)], code.field)[1])
        if len(memo) >= ENTROPY_MEMO_CAP:
            del memo[next(iter(memo))]  # oldest first
        memo[key] = h
    return h


def closure(code: LinearCode, I) -> CoordSet:
    """cl(I): all coordinates whose columns lie in the span of the I-columns."""
    cols = _sorted_coords(code, I)
    fld = code.field
    V = np.array(code.gen.T, dtype=np.int16)  # one row per coordinate
    if cols:
        B, pivots = rref(code.gen[:, cols].T, fld)
        for row, pcol in zip(B[: len(pivots)], pivots):
            factors = V[:, pcol]
            V = fld.sub(V, fld.mul(factors[:, None], row[None, :]))
    member = ~V.any(axis=1)
    return frozenset(int(i) for i in np.nonzero(member)[0])


def restrict(code: LinearCode, I) -> LinearCode:
    """C|_I: keep the coordinates in I; dimension becomes H(I).

    A restriction spanning nothing comes back as an explicit zero-dimensional
    code (k = 0), never as a code with fabricated distance.
    """
    cols = _sorted_coords(code, I)
    if not cols:
        raise ValueError("restriction to the empty coordinate set")
    R, pivots = rref(code.gen[:, cols], code.field)
    return _make(code.field, R[: len(pivots)])


def shorten(code: LinearCode, I) -> LinearCode:
    """C/I: codewords vanishing on I, with the I coordinates dropped.

    Parameters: length n - |I|, dimension k - H(I), distance >= d.
    """
    cols = _sorted_coords(code, I)
    if not cols:
        return code
    if len(cols) == code.n:
        raise ValueError("shortening on all coordinates leaves a length-0 code")
    R, pivots = rref(code.gen, code.field, pivot_cols=cols)
    colset = set(cols)
    h = sum(1 for p in pivots if p in colset)
    rest = [j for j in range(code.n) if j not in colset]
    sub = R[h:, :][:, rest]
    R2, piv2 = rref(sub, code.field)
    return _make(code.field, R2[: len(piv2)])


def puncture(code: LinearCode, I) -> LinearCode:
    """Puncturing on I: the restriction of the code to the complement of I."""
    cols = set(_sorted_coords(code, I))
    if not cols:
        return code
    rest = [j for j in range(code.n) if j not in cols]
    if not rest:
        raise ValueError("puncturing on all coordinates")
    return restrict(code, rest)


def _lex_digits(start: int, stop: int, width: int, q: int) -> np.ndarray:
    """Base-q digits of message indices start..stop-1, most significant first."""
    pows = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.arange(start, stop, dtype=np.int64)[:, None] // pows % q


def _split_rows(code: LinearCode, max_words: int):
    """The one enumeration kernel: yield (m, high_row, low) in lex order.

    Message index m = hi * q^L + lo, where hi holds the first k - L digits.
    low is the (q^L x n) table of the last L generator rows' codewords and
    high_row the codeword of hi's digits on the first k - L rows, so messages
    m .. m + q^L - 1 have the codewords high_row + low.  Both caps are
    checked before anything is built.
    """
    q, k, n = code.q, code.k, code.n
    total = q**k
    if total > max_words:
        raise ValueError(
            f"codeword enumeration needs q^k = {total} messages, above the cap "
            f"{max_words}; raise max_words to run it anyway"
        )
    if total * n > MAX_ENUM_CELLS:
        raise ValueError(
            f"codeword enumeration needs q^k * n = {total * n} cells, above the "
            f"cap MAX_ENUM_CELLS = {MAX_ENUM_CELLS}"
        )
    block = min(BLOCK_MESSAGES, max(1, BLOCK_CELLS // n))
    L = 0
    while L < k and q ** (L + 1) <= block:
        L += 1
    fld = code.field
    low = fld.matmul(_lex_digits(0, q**L, L, q), code.gen[k - L:])
    if L == k:  # the low table spans the code
        yield 0, np.zeros(n, dtype=np.int16), low
        return
    span, highs = q**L, q ** (k - L)
    for start in range(0, highs, block):
        high = fld.matmul(_lex_digits(start, min(start + block, highs), k - L, q), code.gen[:k - L])
        for i, row in enumerate(high):
            yield (start + i) * span, row, low


def _min_weight_scan(code: LinearCode, max_words: int) -> tuple[int, int]:
    """(minimum nonzero weight, index of the lex-smallest message attaining it).

    The one enumeration behind `min_distance` and `min_weight_codeword`;
    the result is cached on the code, so the second of them is free.  When
    `codeword_matrix` has already built the code's table, the weights are
    read from it instead of enumerating again.
    """
    if code.k == 0:
        raise ValueError("zero-dimensional code has no nonzero codeword")
    cached = code._cache.get("min_weight")
    if cached is not None:
        return cached
    table = code._cache.get("codeword_matrix")
    if table is not None:
        weights = [(0, np.count_nonzero(table, axis=1))]
    else:  # high + low is nonzero exactly where low != -high
        neg = code.field.neg_table
        weights = ((start, np.count_nonzero(low != neg[row], axis=1))
                   for start, row, low in _split_rows(code, max_words))
    best_w = code.n + 1
    best_idx = -1
    for start, w in weights:
        if start == 0:
            w[0] = code.n + 2  # mask the zero message
        block_min = int(w.min())
        if block_min < best_w:
            best_w = block_min
            best_idx = start + int(np.argmax(w == block_min))
    code._cache["min_weight"] = best_w, best_idx
    return best_w, best_idx


def min_distance(code: LinearCode, max_words: int = DEFAULT_ENUM_CAP) -> int:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords."""
    return _min_weight_scan(code, max_words)[0]


def min_weight_codeword(code: LinearCode, max_words: int = DEFAULT_ENUM_CAP):
    """One minimum-weight codeword: (weight, message digits, support).

    Ties break to the lexicographically smallest message vector, so the
    choice is deterministic.
    """
    best_w, best_idx = _min_weight_scan(code, max_words)
    fld, q, k = code.field, code.q, code.k
    digits = tuple(int(best_idx // q**(k - 1 - i) % q) for i in range(k))
    cw = np.zeros(code.n, dtype=np.int16)
    for digit, row in zip(digits, code.gen):
        cw = fld.add(cw, fld.mul(digit, row))
    support = frozenset(int(i) for i in np.nonzero(cw)[0])
    return best_w, digits, support


def codeword_matrix(code: LinearCode, max_words: int = 1 << 16) -> np.ndarray:
    """All q^k codewords as a (q^k x n) matrix, in message-lex order (cached)."""
    cached = code._cache.get("codeword_matrix")
    if cached is not None:
        return cached
    full = np.empty((code.q**code.k, code.n), dtype=np.int16)
    add = code.field.add_table
    for start, row, low in _split_rows(code, max_words):
        full[start:start + len(low)] = add[row, low]
    full.setflags(write=False)
    code._cache["codeword_matrix"] = full
    return full


# --- 1-based <-> 0-based coordinate conversion (external surfaces only) ---

def coords_to_1based(I) -> list[int]:
    return [int(i) + 1 for i in sorted(I)]


def coords_from_1based(values, n: int) -> CoordSet:
    """0-based coordinate set of 1-based integer coordinates in [1, n].

    An entry must be an exact int, as a generator entry: a bool, float or
    string is refused, not converted.
    """
    out = set()
    for j, v in enumerate(values):
        if type(v) is not int:
            raise CodeFormatError(f"entry {j + 1} ({v!r}) is not an integer coordinate")
        if v < 1 or v > n:
            raise CodeFormatError(f"coordinate {v} outside [1, {n}]")
        out.add(v - 1)
    return frozenset(out)


# --- JSON code format ---
#
# { "q": int, "k": int, "n": int,
#   "generator": [[int, ...], ...],          # k rows of n entries in [0, q)
#   "repair_sets": [[int, ...], ...] }       # optional, 1-based coordinates


def code_from_json(data: dict, source: str = "<data>"):
    """Parse the JSON code object; returns (code, repair_sets_or_None)."""
    if not isinstance(data, dict):
        raise CodeFormatError(f"{source}: top-level JSON value must be an object")
    for key in ("q", "k", "n", "generator"):
        if key not in data:
            raise CodeFormatError(f"{source}: missing required field '{key}'")
    q, k, n = data["q"], data["k"], data["n"]
    for name, v in (("q", q), ("k", k), ("n", n)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise CodeFormatError(f"{source}: field '{name}' must be a positive integer")
    gen = data["generator"]
    if not isinstance(gen, list) or len(gen) != k:
        raise CodeFormatError(f"{source}: 'generator' must be a list of k = {k} rows")
    for i, row in enumerate(gen):
        if not isinstance(row, list) or len(row) != n:
            raise CodeFormatError(f"{source}: generator row {i + 1} must have n = {n} entries")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < q:
                raise CodeFormatError(
                    f"{source}: generator entry at row {i + 1}, column {j + 1} "
                    f"must be an integer in [0, {q})"
                )
    try:
        code = linear_code(q, gen, declared_k=k)
    except ValueError as e:
        raise CodeFormatError(f"{source}: {e}") from e

    repair_sets = None
    if data.get("repair_sets") is not None:
        raw = data["repair_sets"]
        if not isinstance(raw, list):
            raise CodeFormatError(f"{source}: 'repair_sets' must be a list of coordinate lists")
        repair_sets = []
        for si, s in enumerate(raw):
            if not isinstance(s, list) or not s:
                raise CodeFormatError(f"{source}: repair set {si + 1} must be a nonempty list")
            try:
                repair_sets.append(coords_from_1based(s, n))
            except CodeFormatError as e:
                raise CodeFormatError(f"{source}: repair set {si + 1}: {e}") from e
        repair_sets = tuple(repair_sets)
    return code, repair_sets


def load_code(path):
    """Load a code (and optional repair sets) from a JSON file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise CodeFormatError(f"{p}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CodeFormatError(f"{p}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return code_from_json(data, source=str(p))


def code_to_json(code: LinearCode, repair_sets=None) -> dict:
    out = {
        "q": code.q,
        "k": code.k,
        "n": code.n,
        "generator": [[int(v) for v in row] for row in code.gen],
    }
    if repair_sets is not None:
        out["repair_sets"] = [coords_to_1based(s) for s in repair_sets]
    return out


def save_code(code: LinearCode, path, repair_sets=None) -> None:
    Path(path).write_text(json.dumps(code_to_json(code, repair_sets), indent=1) + "\n", encoding="utf-8")

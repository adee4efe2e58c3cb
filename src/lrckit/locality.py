"""Locality detection for linear codes.

Two notions are computed side by side, both certified by exact restricted
distances (brute force, never estimated):

  * size locality (r, delta): every coordinate lies in a repair set of size
    at most r + delta - 1 whose restriction has distance >= delta;
  * dimension locality (kappa, delta): same, but the restriction's dimension
    (entropy) is at most kappa — the number of symbols actually contacted
    during a local repair.

`compute_locality` searches subsets exhaustively up to a size cap and
returns the minimal feasible r and kappa with per-coordinate witnesses.

Cost.  The search reads restricted weights from the q^k codeword table
(q^k <= SEARCH_WORD_CAP), packed as one bitset over codewords per
coordinate.  It visits the subsets level by level in size, each level in lex
order and in chunks whose working arrays hold about CHUNK_BYTES, so a chunk
costs a few dozen numpy passes whatever its row count.  Every level from
delta up to the cap is visited: a larger set can still hold a lex-smaller
entropy witness.  The total, sum of C(n, s) over delta <= s <= cap, is
checked up front against SEARCH_SUBSET_CAP.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .code_core import (
    CoordSet,
    LinearCode,
    codeword_matrix,
    min_distance,
    restrict,
)

SEARCH_WORD_CAP = 1 << 16
# the scan refuses to visit more subsets than this in total (sizes delta..cap)
SEARCH_SUBSET_CAP = 1 << 25
# each working array of the level scan holds about this many bytes
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class RepairSetCheck:
    """Exact verification record for one candidate repair set."""

    coords: tuple[int, ...]
    size: int
    entropy: int
    distance: int | None
    valid: bool
    reason: str = ""


def verify_repair_set(code: LinearCode, R, delta: int) -> RepairSetCheck:
    """Check a candidate repair set against a target local distance delta."""
    coords = tuple(sorted(set(int(i) for i in R)))
    if not coords:
        raise ValueError("repair set must be nonempty")
    sub = restrict(code, coords)
    if sub.k == 0:
        return RepairSetCheck(coords, len(coords), 0, None, False,
                              "zero-dimensional restriction")
    dist = min_distance(sub)
    if dist >= delta:
        return RepairSetCheck(coords, len(coords), sub.k, dist, True)
    return RepairSetCheck(coords, len(coords), sub.k, dist, False,
                          f"restricted distance {dist} < delta = {delta}")


@dataclass(frozen=True)
class LocalityProfile:
    """Locality certificates for one code at one target delta.

    r and kappa are the minimal feasible values under the size cap (None when
    some coordinate has no repair set within the cap; `infeasible` names the
    offending coordinates).  Witnesses map each coordinate to one optimal
    repair set per objective, ties broken to the lexicographically smallest
    index set.
    """

    delta: int
    size_cap: int
    cap_active: bool
    r: int | None
    kappa: int | None
    size_witness: dict
    entropy_witness: dict
    infeasible: tuple[int, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.infeasible

    def witness_sets(self) -> tuple[CoordSet, ...]:
        """Distinct dimension-locality witnesses, lexicographically ordered."""
        unique = {tuple(sorted(s)) for s in self.entropy_witness.values()}
        return tuple(frozenset(t) for t in sorted(unique))


def _packed_support(code: LinearCode) -> np.ndarray:
    """The codeword table's nonzero pattern as one bitset per coordinate.

    Row j holds bit c set when codeword c is nonzero at j, packed little-end
    first into ceil(q^k / 64) uint64 words; the padding bits past q^k are 0.
    """
    nz = codeword_matrix(code, max_words=SEARCH_WORD_CAP) != 0
    packed = np.packbits(nz.T, axis=1, bitorder="little")
    pad = -packed.shape[1] % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def _scan_repair_sets(code: LinearCode, delta: int, cap: int):
    """One exhaustive pass over subsets of [n] with delta <= size <= cap.

    For every coordinate i, tracks the valid repair set minimizing
    (size, lex) and the one minimizing (entropy, lex).  Validity and entropy
    come from the codeword table: on a subset S, the number of codewords
    vanishing on S is q^(k - H(S)), and S is a valid repair set iff H(S) > 0
    and no codeword has restricted weight in [1, delta - 1].

    The subsets of each size s are scanned in lex order, in chunks of about
    CHUNK_BYTES per working array.  For a chunk, bit-sliced saturating
    counters ge[t] (t = 1..delta) over the packed table mark the codewords
    whose restricted weight is >= t, built by OR/AND over the s columns.
    Within a level the first valid subset holding i is its size witness and
    the valid subset minimizing (entropy, lex rank) its entropy witness;
    levels fold together on the (size, tuple) and (entropy, tuple) keys, so
    a larger set with a lex-smaller tuple still wins an entropy tie.
    """
    n, k, q = code.n, code.k, code.q
    bits = _packed_support(code)
    words = bits.shape[1]
    chunk = max(1, CHUNK_BYTES // (8 * words))
    powers = q ** np.arange(k + 1, dtype=np.int64)
    none = np.iinfo(np.int64).max
    coord_type = np.min_scalar_type(n - 1)

    best_size: list = [None] * n
    best_ent: list = [None] * n
    for s in range(delta, cap + 1):
        combos = itertools.combinations(range(n), s)
        level_size = np.full(n, none, dtype=np.int64)  # lex rank of the first valid set
        level_ent = np.full(n, none, dtype=np.int64)  # entropy * rank_span + lex rank
        size_tup: list = [None] * n
        ent_tup: list = [None] * n
        rank_span = math.comb(n, s)
        first = 0
        while True:
            flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, chunk)),
                               dtype=coord_type)
            if not flat.size:
                break
            subsets = flat.reshape(-1, s)
            rows = subsets.shape[0]
            ge = [None] + [np.zeros((rows, words), dtype=np.uint64) for _ in range(delta)]
            col = np.empty((rows, words), dtype=np.uint64)
            step = np.empty((rows, words), dtype=np.uint64)
            for p in range(s):
                np.take(bits, subsets[:, p], axis=0, out=col)
                for t in range(min(p + 1, delta), 1, -1):
                    np.bitwise_and(ge[t - 1], col, out=step)
                    np.bitwise_or(ge[t], step, out=ge[t])
                np.bitwise_or(ge[1], col, out=ge[1])
            zeros = q**k - np.bitwise_count(ge[1]).sum(axis=1, dtype=np.int64)
            h = k - np.searchsorted(powers, zeros)
            np.bitwise_and(ge[1], np.bitwise_not(ge[delta], out=step), out=step)
            valid = (h > 0) & ~step.any(axis=1)
            hit = np.flatnonzero(valid)
            if hit.size:
                rank = first + hit
                ent_rank = h[hit] * rank_span + rank
                old_size, old_ent = level_size.copy(), level_ent.copy()
                for p in range(s):
                    np.minimum.at(level_size, subsets[hit, p], rank)
                    np.minimum.at(level_ent, subsets[hit, p], ent_rank)
                for i in np.flatnonzero(level_size < old_size):
                    size_tup[i] = tuple(int(j) for j in subsets[level_size[i] - first])
                for i in np.flatnonzero(level_ent < old_ent):
                    ent_tup[i] = tuple(int(j) for j in subsets[level_ent[i] % rank_span - first])
            first += rows
        for i in range(n):
            if size_tup[i] is not None:
                size_key = (s, size_tup[i])
                if best_size[i] is None or size_key < best_size[i]:
                    best_size[i] = size_key
                ent_key = (int(level_ent[i] // rank_span), ent_tup[i])
                if best_ent[i] is None or ent_key < best_ent[i]:
                    best_ent[i] = ent_key
    return best_size, best_ent


def compute_locality(code: LinearCode, delta: int, size_cap: int | None = None) -> LocalityProfile:
    """Minimal (r, delta) and (kappa, delta) locality with exact witnesses.

    The default cap min(n, delta + k) keeps the search at desk scale; pass
    size_cap explicitly (up to n) when repair sets larger than delta + k may
    be needed — the profile records whether the cap was binding.  Every
    argument is checked before any enumeration: delta, the cap, q^k against
    SEARCH_WORD_CAP and the subset count against SEARCH_SUBSET_CAP.
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    if code.k == 0:
        raise ValueError("locality of a zero-dimensional code")
    cap = min(code.n, delta + code.k) if size_cap is None else int(size_cap)
    if not 1 <= cap <= code.n:
        raise ValueError(f"size cap {cap} outside [1, {code.n}]")
    if code.q**code.k > SEARCH_WORD_CAP:
        raise ValueError(
            f"locality search enumerates q^k = {code.q**code.k} codewords, above "
            f"the cap {SEARCH_WORD_CAP}"
        )
    subsets = sum(math.comb(code.n, s) for s in range(delta, cap + 1))
    if subsets > SEARCH_SUBSET_CAP:
        raise ValueError(
            f"locality search visits {subsets} subsets of sizes {delta} to {cap}, above "
            f"the cap {SEARCH_SUBSET_CAP}; pass a smaller size cap"
        )

    best_size, best_ent = _scan_repair_sets(code, delta, cap)
    infeasible = tuple(i for i in range(code.n) if best_size[i] is None)
    if infeasible:
        return LocalityProfile(
            delta=delta, size_cap=cap, cap_active=cap < code.n,
            r=None, kappa=None, size_witness={}, entropy_witness={},
            infeasible=infeasible,
        )
    r = max(bs[0] for bs in best_size) - delta + 1
    kappa = max(be[0] for be in best_ent)
    return LocalityProfile(
        delta=delta, size_cap=cap, cap_active=cap < code.n,
        r=r, kappa=kappa,
        size_witness={i: frozenset(bs[1]) for i, bs in enumerate(best_size)},
        entropy_witness={i: frozenset(be[1]) for i, be in enumerate(best_ent)},
    )


def profile_from_repair_sets(code: LinearCode, repair_sets, delta: int) -> LocalityProfile:
    """Locality profile certified by declared repair sets.

    Every set must verify at delta and every coordinate must be covered;
    each coordinate is assigned the first declared set containing it.
    r and kappa are computed from the assigned sets (they are certificates,
    not necessarily minimal).
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    sets = [frozenset(int(i) for i in s) for s in repair_sets]
    checks = []
    for idx, s in enumerate(sets):
        chk = verify_repair_set(code, s, delta)
        if not chk.valid:
            raise ValueError(f"declared repair set #{idx + 1} {sorted(s)} is invalid: {chk.reason}")
        checks.append(chk)
    size_witness = {}
    entropy_witness = {}
    ent_of = {}
    for i in range(code.n):
        hit = next((j for j, s in enumerate(sets) if i in s), None)
        if hit is None:
            raise ValueError(f"coordinate {i} is not covered by any declared repair set")
        size_witness[i] = sets[hit]
        entropy_witness[i] = sets[hit]
        ent_of[i] = checks[hit].entropy
    r = max(len(size_witness[i]) for i in range(code.n)) - delta + 1
    kappa = max(ent_of.values())
    return LocalityProfile(
        delta=delta, size_cap=code.n, cap_active=False,
        r=r, kappa=kappa,
        size_witness=size_witness, entropy_witness=entropy_witness,
    )


@dataclass(frozen=True)
class SimplexLocality:
    r: int
    delta_local: int


def simplex_locality(m: int, q: int, kappa: int) -> SimplexLocality:
    """Closed-form locality of the Simplex code S(m, q) at local dimension kappa.

    For 2 <= kappa <= m the repair sets are embedded S(kappa, q) supports:
    local distance q^(kappa - 1) and r = (q^(kappa-1) + q - 2)/(q - 1).
    """
    if not 2 <= kappa <= m:
        raise ValueError(f"kappa must satisfy 2 <= kappa <= m = {m}, got {kappa}")
    delta_local = q ** (kappa - 1)
    num = q ** (kappa - 1) + q - 2
    if num % (q - 1):
        raise AssertionError("simplex locality numerator not divisible by q - 1")
    return SimplexLocality(r=num // (q - 1), delta_local=delta_local)

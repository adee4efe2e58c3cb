"""Built-in code families: Simplex codes over any supported field, three
small reference LRCs with declared repair sets, and optimality verification
of a code's parameters against the implemented bounds."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .bounds import bound_table
from .code_core import CoordSet, LinearCode, linear_code, min_distance, puncture
from .galois import field_new
from .locality import LocalityProfile, compute_locality


def simplex_length(m: int, q: int) -> int:
    return (q**m - 1) // (q - 1)


def simplex(m: int, q: int) -> LinearCode:
    """The q-ary Simplex code S(m, q): one column per projective point.

    Columns are the canonical representatives (first nonzero entry = 1) in
    lexicographic order, so the generator is deterministic.  Parameters are
    [(q^m - 1)/(q - 1), m, q^(m-1)].
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    fld = field_new(q)
    points = [
        v for v in product(range(q), repeat=m)
        if any(v) and next(x for x in v if x) == 1
    ]
    if len(points) != simplex_length(m, q):
        raise AssertionError("projective point enumeration miscounted")
    gen = np.array(points, dtype=np.int16).T
    return linear_code(fld, gen)


def normalized_column_multiset(code: LinearCode):
    """Multiset of nonzero generator columns scaled so the first nonzero
    entry is 1.  Invariant under row operations, so it identifies the column
    geometry of a code regardless of the generator basis."""
    fld = code.field
    out = []
    for j in range(code.n):
        col = [int(v) for v in code.gen[:, j]]
        lead = next((v for v in col if v), None)
        if lead is None:
            continue
        scale = int(fld.inv(lead))
        out.append(tuple(int(fld.mul(scale, v)) for v in col))
    return sorted(out)


@dataclass(frozen=True)
class NamedCode:
    """A reference code with its declared parameters and repair sets."""

    name: str
    code: LinearCode
    declared: tuple[int, int, int]  # (n, k, d)
    repair_sets: tuple[CoordSet, ...]
    delta: int
    description: str


_EXAMPLE_1_GEN = [
    [1, 0, 0, 0, 1, 0, 1, 1, 1, 1],
    [0, 1, 0, 0, 1, 1, 0, 1, 1, 1],
    [0, 0, 1, 0, 0, 1, 0, 1, 0, 1],
    [0, 0, 0, 1, 0, 0, 1, 0, 1, 1],
]

_EXAMPLE_3_GEN = [
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
]


def example_code(which: int) -> NamedCode:
    """One of the three built-in reference LRCs (1, 2, or 3)."""
    if which == 1:
        return NamedCode(
            name="example-1",
            code=linear_code(2, _EXAMPLE_1_GEN),
            declared=(10, 4, 4),
            repair_sets=(
                frozenset({0, 1, 2, 4, 5, 7}),
                frozenset({1, 2, 5, 6, 8, 9}),
                frozenset({0, 3, 5, 6, 7, 9}),
            ),
            delta=3,
            description="binary [10,4,4] with three size-6 repair sets of dimension 3",
        )
    if which == 2:
        block = simplex(3, 2)
        punct = puncture(block, {block.n - 1})
        g1, g2 = block.gen, punct.gen
        top = np.hstack([g1, np.zeros((3, 6), dtype=np.int16)])
        bot = np.hstack([np.zeros((3, 7), dtype=np.int16), g2])
        return NamedCode(
            name="example-2",
            code=linear_code(2, np.vstack([top, bot])),
            declared=(13, 6, 3),
            repair_sets=(
                frozenset(range(0, 7)),
                frozenset(range(7, 13)),
            ),
            delta=3,
            description="direct sum of a binary [7,3,4] code and its last-coordinate puncturing",
        )
    if which == 3:
        return NamedCode(
            name="example-3",
            code=linear_code(2, _EXAMPLE_3_GEN),
            declared=(10, 3, 3),
            repair_sets=(
                frozenset({0, 1, 2, 3}),
                frozenset({4, 5, 6}),
                frozenset({7, 8, 9}),
            ),
            delta=3,
            description="three repetition blocks of sizes 4, 3, 3 over GF(2)",
        )
    raise ValueError(f"example id must be 1, 2, or 3, got {which}")


EXAMPLE_IDS = (1, 2, 3)


@dataclass(frozen=True)
class OptimalityReport:
    """Which implemented bounds a code meets with equality."""

    name: str
    n: int
    k: int
    d: int
    delta: int
    r: int
    kappa: int
    k_bounds: dict
    d_bounds: dict
    met: tuple[str, ...]


def verify_optimality(named: NamedCode | LinearCode, delta: int | None = None,
                      profile: LocalityProfile | None = None) -> OptimalityReport:
    """Evaluate the locality-aware bounds at the code's computed locality and
    report which ones hold with equality.

    The bounds come from `bounds.bound_table`, the same table that
    `lrckit analyze` prints."""
    if isinstance(named, LinearCode):
        named = NamedCode(name="code", code=named, declared=(named.n, named.k, 0),
                          repair_sets=(), delta=delta if delta is not None else 2,
                          description="")
    code = named.code
    delta = named.delta if delta is None else delta
    if profile is None:
        profile = compute_locality(code, delta, size_cap=code.n)
    if not profile.feasible:
        raise ValueError(f"{named.name}: no locality profile at delta = {delta}")
    n, k, d = code.n, code.k, min_distance(code)
    r, kappa = profile.r, profile.kappa

    table = bound_table(n, d, code.q, delta, k=k, r=r, kappa=kappa)
    return OptimalityReport(
        name=named.name, n=n, k=k, d=d, delta=delta, r=r, kappa=kappa,
        k_bounds=table.k_bounds, d_bounds=table.d_bounds, met=table.met(k, d),
    )

"""Seeded request streams for the four benchmark workloads.

A workload is an endless stream of requests made of cycles.  Each cycle is a
fixed list of slots; a slot fixes what sets a request's cost (field size,
length, dimension, cap, grid size, the bound parameters that set how much a
bounds request computes), and the seed fills in the rest (generator
entries, coordinate order and basis, curve parameters) and shuffles the
slots within the cycle.  So every seed sends different inputs with nearly
the same cost mix, which keeps the figures comparable across seeds.  Runs
stop between cycles, so each measures whole cycles.

Request i is a pure function of (workload, seed, i).  Code files are written
into the caller's work directory; everything else travels in the request
dict, which is plain JSON.

Generators build their inputs with lrckit itself (field arithmetic, Simplex
codes, closures).  They run outside every timed region and touch no lrckit
cache that a timed request reads: each request loads or builds its own code
object.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze", "construct", "bounds-sweep", "curves")
DEFAULT_SEED = 1

# GF(q) tables each workload's requests use; built during set-up.
FIELDS = {
    "analyze": (2, 3, 4),
    "construct": (2, 3, 4),
    "bounds-sweep": (),
    "curves": (),
}

_WORKLOAD_ID = {name: idx for idx, name in enumerate(WORKLOADS)}


def _rng(seed: int, workload: str, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_ID[workload], *key])


def _ld(index: int) -> float:
    """Golden-ratio sequence in [0, 1): evenly spread, independent of the seed."""
    return (index * 0.6180339887498949) % 1.0


# --- code generation helpers -------------------------------------------------


def random_code(rng, q: int, n: int, k: int):
    """A uniformly random [n, k] code over GF(q) of full rank, no zero column."""
    from lrckit import linear_code

    while True:
        gen = rng.integers(0, q, size=(k, n))
        if not gen.any(axis=0).all():
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = linear_code(q, gen)
        if code.k == k:
            return code


def _invertible(rng, q: int, k: int) -> np.ndarray:
    from lrckit import linear_code

    while True:
        mat = rng.integers(0, q, size=(k, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if linear_code(q, mat).k == k:
                return mat


def scramble(rng, code, repair_sets):
    """The same code under a random coordinate order and generator basis.

    Returns (code, repair sets relabelled to the new coordinate order).
    """
    from lrckit import linear_code

    perm = rng.permutation(code.n)  # new coordinate j holds old coordinate perm[j]
    where = np.argsort(perm)
    mix = _invertible(rng, code.q, code.k)
    gen = code.field.matmul(mix, code.gen[:, perm])
    sets = tuple(frozenset(int(where[i]) for i in s) for s in repair_sets)
    return linear_code(code.field, gen), sets


@functools.lru_cache(maxsize=None)
def simplex_flats(m: int, q: int, kappa: int):
    """S(m, q) with its rank-kappa flats, the embedded S(kappa, q) supports."""
    from lrckit import closure, entropy, simplex

    code = simplex(m, q)
    flats = set()
    for combo in itertools.combinations(range(code.n), kappa):
        if entropy(code, combo) == kappa:
            flats.add(tuple(sorted(closure(code, combo))))
    return code, tuple(frozenset(f) for f in sorted(flats))


def _block(q: int, m: int, punctured: bool):
    from lrckit import puncture, simplex

    code = simplex(m, q)
    return puncture(code, {code.n - 1}) if punctured else code


def lrc_direct_sum(rng, blocks):
    """Direct sum of Simplex / punctured Simplex blocks, scrambled.

    blocks lists (q, m, punctured).  Each block's support is a declared
    repair set.
    """
    from lrckit import linear_code

    codes = [_block(q, m, p) for q, m, p in blocks]
    q = blocks[0][0]
    n = sum(c.n for c in codes)
    k = sum(c.k for c in codes)
    gen = np.zeros((k, n), dtype=np.int64)
    sets = []
    r0 = c0 = 0
    for c in codes:
        gen[r0:r0 + c.k, c0:c0 + c.n] = c.gen
        sets.append(frozenset(range(c0, c0 + c.n)))
        r0 += c.k
        c0 += c.n
    return scramble(rng, linear_code(q, gen), sets)


def _save(workdir: Path, i: int, code, repair_sets=None) -> str:
    from lrckit import save_code

    path = workdir / f"req{i}.json"
    save_code(code, path, repair_sets)
    return str(path)


# --- analyze ----------------------------------------------------------------

# (q, n, k, delta, cap); cap None is the default min(n, delta + k), and
# cap == n is the exhaustive scan.
_ANALYZE_RANDOM = (
    (2, 10, 3, 2, None), (2, 12, 4, 3, None), (2, 13, 5, 2, None),
    (2, 14, 5, 3, None), (2, 15, 6, 2, None), (2, 16, 6, 3, None),
    (3, 10, 3, 2, None), (3, 12, 4, 3, None), (3, 13, 5, 2, None),
    (4, 10, 3, 3, None), (4, 11, 4, 2, None), (4, 12, 4, 3, None),
    (2, 16, 16, 2, 3), (2, 20, 15, 3, 3), (3, 16, 10, 2, 3), (4, 16, 8, 3, 3),
    (2, 18, 14, 2, 3), (2, 16, 13, 3, 4),
    (2, 10, 4, 2, 10), (2, 11, 4, 3, 11), (3, 9, 3, 2, 9), (4, 8, 3, 3, 8),
)

# ("example", id) or ("simplex", m, q, kappa); delta of a Simplex flat is q^(kappa-1)
_ANALYZE_NAMED = (
    ("example", 1), ("example", 2), ("example", 3),
    ("simplex", 3, 2, 2), ("simplex", 4, 2, 3), ("simplex", 2, 3, 2), ("simplex", 3, 3, 2),
)


def _analyze_cycle(seed: int, c: int):
    slots = [("random", s) for s in _ANALYZE_RANDOM] + [("named", s) for s in _ANALYZE_NAMED]
    return [slots[j] for j in _rng(seed, "analyze", c).permutation(len(slots))]


def _analyze_request(seed: int, i: int, slot, workdir: Path) -> dict:
    from lrckit import example_code

    rng = _rng(seed, "analyze", 1 << 20, i)
    kind, spec = slot
    params: dict = {}
    if kind == "random":
        q, n, k, delta, cap = spec
        code, sets = random_code(rng, q, n, k), None
    elif spec[0] == "example":
        named = example_code(spec[1])
        code, sets = scramble(rng, named.code, named.repair_sets)
        delta, cap = named.delta, None
        params["declared"] = list(named.declared)
    else:
        _, m, q, kappa = spec
        base, flats = simplex_flats(m, q, kappa)
        code, sets = scramble(rng, base, flats)
        delta, cap = q ** (kappa - 1), None
        params["declared"] = [base.n, m, q ** (m - 1)]
    argv = ["analyze", _save(workdir, i, code, sets), "--delta", str(delta), "--json"]
    if cap is not None:
        argv += ["--cap", str(cap)]
    params.update(q=code.q, n=code.n, k=code.k, delta=delta)
    return {"kind": f"analyze-{kind}", "argv": argv, "params": params}


# --- construct --------------------------------------------------------------

# every cycle holds each of these once, so all cycles cost about the same
_SIMPLEX = ((2, 9), (2, 11), (2, 12), (3, 7), (4, 6))
# (q, k, n) for exact minimum distance near the enumeration cap
_MINDIST = ((2, 16, 64), (2, 18, 32), (2, 19, 24), (3, 11, 30), (3, 12, 26), (4, 8, 36))
# build-set codes: q, the (m, punctured) Simplex blocks to draw from, and the
# block count range; every draw lands in n 30..70, k 12..30
_LRC_FAMILIES = (
    (2, ((3, False), (3, True)), (5, 10)),
    (2, ((4, False), (4, True)), (3, 4)),
    (3, ((3, False), (3, True)), (4, 5)),
    (3, ((2, False),), (8, 15)),
    (4, ((2, False), (2, True)), (8, 14)),
    (4, ((3, True), (2, False)), (5, 7)),
)
_LRC_N = (30, 70)
_LRC_K = (12, 30)
_LRC_DELTA = 3
_BUILDS_PER_FAMILY = 6  # per cycle, at block counts and lambda spread over their ranges


def _construct_cycle(seed: int, c: int):
    slots = [("simplex", spec, None) for spec in _SIMPLEX]
    slots += [("min_distance", spec, None) for spec in _MINDIST]
    slots += [("build-set", fam, (f, o)) for f, fam in enumerate(_LRC_FAMILIES)
              for o in range(_BUILDS_PER_FAMILY)]
    return [slots[j] for j in _rng(seed, "construct", c).permutation(len(slots))]


def _construct_request(seed: int, i: int, slot, workdir: Path) -> dict:
    rng = _rng(seed, "construct", 1 << 20, i)
    kind, spec, place = slot
    if kind == "simplex":
        q, m = spec
        return {"kind": "simplex", "argv": ["simplex", "--m", str(m), "--q", str(q)],
                "params": {"q": q, "m": m}}
    if kind == "min_distance":
        q, k, n = spec
        code = random_code(rng, q, n, k)
        return {"kind": "min_distance", "argv": None, "code": _save(workdir, i, code),
                "params": {"q": q, "n": n, "k": k}}
    q, alphabet, (lo, hi) = spec
    f, o = place
    spread = ((5 * o + f) % _BUILDS_PER_FAMILY + 0.5) / _BUILDS_PER_FAMILY
    count = lo + int(spread * (hi - lo + 1))
    while True:
        blocks = [(q, *alphabet[int(j)]) for j in rng.integers(0, len(alphabet), size=count)]
        code, sets = lrc_direct_sum(rng, blocks)
        if _LRC_N[0] <= code.n <= _LRC_N[1] and _LRC_K[0] <= code.k <= _LRC_K[1]:
            break
    kappa = max(m for _, m, _ in blocks)
    lam = 1 + int((o + 0.5) / _BUILDS_PER_FAMILY * code.k)
    argv = ["build-set", "--code", _save(workdir, i, code, sets), "--delta", str(_LRC_DELTA),
            "--kappa", str(kappa), "--lambda", str(lam), "--json"]
    return {"kind": "build-set", "argv": argv,
            "params": {"q": q, "n": code.n, "k": code.k, "kappa": kappa, "lambda": lam,
                       "delta": _LRC_DELTA}}


# --- bounds-sweep -----------------------------------------------------------

# Families per cycle by length band: (lo, hi, families, d range).  Every
# cycle has the same lengths and the same shared/fresh pattern, so all
# cycles cost about the same.  The two small bands reuse six (d, q) pairs,
# so after the first cycle their k_opt lookups hit the cache.  From n = 160
# on every family takes a (d, q) pair no earlier family of the run used (d
# ranges are disjoint between bands), so its first request is cold; the
# pairs stay fresh for at least nine cycles.
_ALL_Q = (2, 3, 4, 5, 7, 8)
_BOUNDS_BANDS = (
    (40, 90, 15, (2, 5)),
    (90, 160, 12, (6, 11)),
    (160, 240, 6, (12, 20)),
    (240, 340, 3, (21, 30)),
    (340, 500, 1, (31, 42)),
)
_WARM_BANDS = 2
# field sizes by band and family; the 240-340 band alternates two triples of
# similar cost, and the top band stays at q = 3, where one cold request at
# n = 420 costs 1-3 s (q = 7, 8 would cost 2-4 s)
_BAND_Q = {3: ((2, 5, 8), (3, 4, 7)), 4: ((3,),)}
_SWEEP_LEN = 3  # requests in a shared family; a fresh family has one


def _bounds_pair(band: int, c: int, j: int) -> tuple[int, int]:
    """(d, q) of family j of a band in cycle c."""
    d_lo, d_hi = _BOUNDS_BANDS[band][3]
    span = d_hi - d_lo + 1
    if band < _WARM_BANDS:
        return d_lo + j % 6 % span, _ALL_Q[j % 6]
    qs = _BAND_Q.get(band, (_ALL_Q,))
    q = qs[c % len(qs)][j]
    return d_lo + (c // len(qs) + j) % span, q


def _bounds_cycle(seed: int, c: int):
    slots = []
    for band, (lo, hi, count, _) in enumerate(_BOUNDS_BANDS):
        for j in range(count):
            slot_id = c * 64 + len(slots)
            d, q = _bounds_pair(band, c, j)
            n = lo + int((j + 0.5) / count * (hi - lo))
            members = _SWEEP_LEN if len(slots) % 2 == 0 else 1
            slots.append([(slot_id, member, members > 1, n, d, q) for member in range(members)])
    return [s for f in _rng(seed, "bounds-sweep", c).permutation(len(slots)) for s in slots[f]]


def _bounds_request(seed: int, i: int, slot, workdir: Path) -> dict:
    """kappa, r and delta set how many shortened lengths a request visits,
    and d and q which k_opt cache entries families share, so they follow the
    schedule; the seed moves n by up to two and draws k, which only the
    distance bounds read."""
    slot_id, member, shared, n, d, q = slot
    n += int(_rng(seed, "bounds-sweep", 1 << 20, slot_id).integers(0, 3))  # one n per family
    rng = _rng(seed, "bounds-sweep", 1 << 21, slot_id, member)
    pick = slot_id % 64 * _SWEEP_LEN + member  # the same in every cycle
    delta = 2 + int(_ld(pick) * (min(6, d) - 1))
    r = 2 + int(_ld(pick + 7919) * 7)
    kappa = 2 + int(_ld(pick + 15485863) * 4)
    k = int(rng.integers(r, n // 2 + 1))
    argv = ["bounds", "--json", "--n", str(n), "--d", str(d), "--q", str(q),
            "--delta", str(delta), "--kappa", str(kappa), "--r", str(r), "--k", str(k)]
    return {"kind": "bounds-shared" if shared else "bounds-fresh", "argv": argv,
            "params": {"n": n, "d": d, "q": q, "delta": delta, "r": r, "kappa": kappa, "k": k}}


# --- curves -----------------------------------------------------------------

FIGURE_SETS = ((4, 3, 2), (6, 3, 2), (12, 9, 2))  # scripts/emit_figure_curves.py
FIGURE_CURVES = "prakash,cm_rdelta,abhmt,local_griesmer,reschain"
_CLOSED = ("singleton", "gopalan", "prakash", "abhmt", "local_griesmer")
_NUMERIC_PER_CYCLE = 4
_CLOSED_PER_CYCLE = 12


def _curves_cycle(seed: int, c: int):
    slots = [("figure", FIGURE_SETS[c % 3], 256, 2)]
    for j in range(_NUMERIC_PER_CYCLE):
        grid = 256 + 256 * j // (_NUMERIC_PER_CYCLE - 1)
        # MRRW (q = 2) and Plotkin base curves cost differently: half of each
        slots.append(("numeric", ("reschain", "cm_rdelta")[j % 2], grid, 2 if j < 2 else 3))
    for j in range(_CLOSED_PER_CYCLE):
        slots.append(("closed", None, 256 + 768 * j // (_CLOSED_PER_CYCLE - 1), 2 if j % 2 else 3))
    return [slots[j] for j in _rng(seed, "curves", c).permutation(len(slots))]


def _curves_request(seed: int, i: int, slot, workdir: Path) -> dict:
    rng = _rng(seed, "curves", 1 << 20, i)
    kind, what, grid, q = slot
    if kind == "figure":
        r, delta, q = what
        names = FIGURE_CURVES
    else:
        r = int(rng.integers(2, 13))
        delta = int(rng.integers(2, 10))
        if q != 2:
            q = int(rng.choice((3, 4)))
        closed = [str(x) for x in rng.choice(_CLOSED, size=3, replace=False)]
        closed.append("mrrw" if q == 2 else "plotkin")
        names = ",".join(([what] if what else []) + closed)
    ropt = "mrrw" if q == 2 else "plotkin"
    argv = ["asymptotic", "--r", str(r), "--delta", str(delta), "--q", str(q),
            "--bounds", names, "--ropt", ropt, "--grid", str(grid)]
    return {"kind": f"curves-{kind}", "argv": argv,
            "params": {"r": r, "delta": delta, "q": q, "ropt": ropt, "grid": grid,
                       "bounds": names.split(",")}}


# --- streams ----------------------------------------------------------------

_STREAMS = {
    "analyze": (_analyze_cycle, _analyze_request),
    "construct": (_construct_cycle, _construct_request),
    "bounds-sweep": (_bounds_cycle, _bounds_request),
    "curves": (_curves_cycle, _curves_request),
}


def requests(workload: str, seed: int, workdir):
    """Endless request stream; request i is the same for the same (seed, i)."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cycle, make = _STREAMS[workload]
    workdir = Path(workdir)
    i = 0
    for c in itertools.count():
        for slot in cycle(seed, c):
            req = make(seed, i, slot, workdir)
            req["i"] = i
            req["cycle"] = c
            yield req
            i += 1

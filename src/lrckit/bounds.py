"""Finite-length bounds for linear codes and locally repairable codes.

Pure integer functions: the Griesmer length bound and its dimension form,
the classical Singleton/Hamming/Plotkin dimension bounds and their composite
k_opt, the published locality bounds (Gopalan, Prakash, Cadambe-Mazumdar,
ABHMT), and the residual-chain bounds that feed the Griesmer length of the
local codes into the shortening argument.  `bound_table` evaluates every
locality bound that applies to one parameter set; the CLI reports and
`constructions.verify_optimality` all read their bounds from it.

The Griesmer sum is constant-tailed: once q^i >= d every term ceil(d/q^i)
is 1.  With T the L = O(log_q d) terms above 1 (those with q^i < d),
G(k, d) = sum(T[:k]) for k <= L and sum(T) + (k - L) beyond, and the
dimension form inverts that along the prefix sums of T.  The Hamming and
Plotkin dimensions are one exact integer floor-log each.  So every
dimension bound costs O(log_q d) integer steps plus the bigint arithmetic
of the sphere size, and the composite k_opt is memoised in an LRU cache of
4096 entries, which bounds the memory of long-lived sweeps.

Conventions shared by the composite bounds:
  * k_opt(n, d) = 0 when no nonzero code fits (n <= 0 or d > n);
  * terms of a minimization whose shortened length is <= 0 are skipped.

The residual-chain bounds minimize over the split parameter lam = a*kappa + b.
Every term is >= lam, so restricting the minimization to lam <= k (the range
the shortening argument actually supports) changes nothing: the plain
minimum computed here is already attained in that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb, log2

LOGCONVEX_CHOICES = ("singleton", "hamming", "plotkin", "best")


def _check_pos(name: str, v: int, minimum: int = 1) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")


@dataclass(frozen=True)
class BoundReport:
    """A named bound value plus the internal parameters attaining it."""

    name: str
    value: int
    witness: dict
    components: tuple[str, ...]


def _griesmer_terms(d: int, q: int) -> list[int]:
    """The Griesmer terms above 1: ceil(d/q^i) for every i with q^i < d."""
    terms = []
    p = 1
    while p < d:
        terms.append(-(-d // p))
        p *= q
    return terms


def griesmer_length(k: int, d: int, q: int) -> int:
    """Minimal length of a linear [*, k, d] code over GF(q): sum of ceil(d/q^i)."""
    _check_pos("k", k, 0)
    _check_pos("d", d)
    _check_pos("q", q, 2)
    terms = _griesmer_terms(d, q)
    return sum(terms[:k]) + max(0, k - len(terms))


def griesmer_dim(n: int, d: int, q: int) -> int:
    """Largest k' with griesmer_length(k', d, q) <= n; 0 when d > n."""
    _check_pos("n", n, 0)
    _check_pos("d", d)
    _check_pos("q", q, 2)
    terms = _griesmer_terms(d, q)
    total = 0
    for k, term in enumerate(terms):
        if total + term > n:
            return k
        total += term
    return len(terms) + n - total


def k_singleton(n: int, d: int, q: int) -> int:
    """Singleton bound on dimension: n - d + 1 (clamped at 0)."""
    return max(0, n - d + 1)


def hamming_ball(n: int, radius: int, q: int) -> int:
    """Number of words within Hamming distance `radius` of a fixed word."""
    return sum(comb(n, j) * (q - 1) ** j for j in range(radius + 1))


def _floor_log(m: int, q: int) -> int:
    """Largest k with q^k <= m, for integers m >= 1 and q >= 2."""
    # 2^(b-1) <= m < 2^b puts the answer within one of (b-1)/log2(q)
    k = int((m.bit_length() - 1) / log2(q))
    p = q**k
    while p > m:
        k -= 1
        p //= q
    while p * q <= m:
        k += 1
        p *= q
    return k


def k_hamming(n: int, d: int, q: int) -> int:
    """Hamming (sphere-packing) bound on dimension, exact integer arithmetic."""
    if n <= 0 or d > n:
        return 0
    t = (d - 1) // 2
    # q^k * ball <= q^n  <=>  q^k <= floor(q^n / ball), and ball <= q^n
    return _floor_log(q**n // hamming_ball(n, t, q), q)


def k_plotkin(n: int, d: int, q: int):
    """Plotkin bound on dimension: (value, applicable).

    Applicable iff d > (1 - 1/q) n; then |C| <= floor(d / (d - (1-1/q)n)) and
    the dimension bound is floor(log_q) of that cardinality.
    """
    if n <= 0 or d > n:
        return 0, False
    if q * d <= (q - 1) * n:
        return 0, False
    m_cap = (q * d) // (q * d - (q - 1) * n)
    return _floor_log(m_cap, q), True


@lru_cache(maxsize=4096)
def k_opt_components(n: int, d: int, q: int):
    """Composite dimension bound with the names of the active components.

    Returns (value, names).  The composite is the min of Singleton, Hamming,
    Griesmer-dimension, and Plotkin where applicable.
    """
    _check_pos("d", d)
    _check_pos("q", q, 2)
    if n <= 0 or d > n:
        return 0, ("no-code",)
    candidates = {
        "singleton": k_singleton(n, d, q),
        "hamming": k_hamming(n, d, q),
        "griesmer": griesmer_dim(n, d, q),
    }
    pk, ok = k_plotkin(n, d, q)
    if ok:
        candidates["plotkin"] = pk
    value = min(candidates.values())
    active = tuple(sorted(name for name, v in candidates.items() if v == value))
    return value, active


def k_opt(n: int, d: int, q: int) -> int:
    """Best implemented upper bound on the dimension of a length-n distance-d code."""
    return k_opt_components(n, d, q)[0]


# --- published locality bounds ---


def d_bound_gopalan(n: int, k: int, r: int) -> int:
    """Distance bound for locality r: n - k - ceil(k/r) + 2."""
    _check_pos("k", k)
    _check_pos("r", r)
    if r > k:
        raise ValueError(f"locality r = {r} exceeds dimension k = {k}")
    return n - k - ceil(k / r) + 2


def d_bound_prakash(n: int, k: int, r: int, delta: int) -> int:
    """Distance bound for locality (r, delta): n - k + 1 - (ceil(k/r) - 1)(delta - 1)."""
    _check_pos("delta", delta, 2)
    _check_pos("k", k)
    _check_pos("r", r)
    if r > k:
        raise ValueError(f"locality r = {r} exceeds dimension k = {k}")
    return n - k + 1 - (ceil(k / r) - 1) * (delta - 1)


def k_bound_cm(n: int, d: int, r: int, q: int):
    """Alphabet-dependent dimension bound for locality r.

    Minimizes t*r + k_opt(n - t(r+1), d) over integer 1 <= t <= n/(r+1);
    None when that range is empty (the minimization is vacuous).
    """
    _check_pos("r", r)
    _check_pos("d", d)
    best = None
    for t in range(1, n // (r + 1) + 1):
        length = n - t * (r + 1)
        if length <= 0:
            continue
        v = t * r + k_opt(length, d, q)
        if best is None or v < best:
            best = v
    return best


def k_bound_cm_rdelta(n: int, d: int, r: int, delta: int, q: int) -> int:
    """Extension of the alphabet-dependent bound to locality (r, delta).

    min over t >= 0 of t*r + k_opt(n - t(r + delta - 1), d); the t = 0 term
    makes the locality-free bound always included.
    """
    _check_pos("r", r)
    _check_pos("delta", delta, 2)
    _check_pos("d", d)
    best = k_opt(n, d, q)
    for t in range(1, n // (r + delta - 1) + 1):
        length = n - t * (r + delta - 1)
        if length <= 0:
            continue
        best = min(best, t * r + k_opt(length, d, q))
    return best


def local_dim_bound(r: int, delta: int, q: int) -> int:
    """kappa_B: best implemented dimension bound for a repair set of
    length r + delta - 1 and distance delta."""
    _check_pos("r", r)
    _check_pos("delta", delta, 2)
    return k_opt(r + delta - 1, delta, q)


def local_dim_bound_logconvex(r: int, delta: int, q: int, choice: str = "best") -> int:
    """kappa_A: dimension bound from a log-convex cardinality bound.

    choice is one of singleton/hamming/plotkin/best; the Plotkin choice is an
    error when d > (1 - 1/q) n fails at (r + delta - 1, delta).
    """
    _check_pos("r", r)
    _check_pos("delta", delta, 2)
    if choice not in LOGCONVEX_CHOICES:
        raise ValueError(f"choice must be one of {LOGCONVEX_CHOICES}, got {choice!r}")
    length = r + delta - 1
    if choice == "singleton":
        return k_singleton(length, delta, q)
    if choice == "hamming":
        return k_hamming(length, delta, q)
    pk, ok = k_plotkin(length, delta, q)
    if choice == "plotkin":
        if not ok:
            raise ValueError(
                f"Plotkin bound not applicable at (n = {length}, d = {delta}) over GF({q}): "
                f"requires d > (1 - 1/q) n"
            )
        return pk
    values = [k_singleton(length, delta, q), k_hamming(length, delta, q)]
    if ok:
        values.append(pk)
    return min(values)


def k_bound_abhmt(n: int, d: int, r: int, delta: int, q: int, choice: str = "best") -> int:
    """Log-convexity-based dimension bound:
    (ceil((n - d + 1)/(r + delta - 1)) + 1) * kappa_A."""
    _check_pos("d", d)
    if d > n:
        raise ValueError(f"d = {d} exceeds n = {n}")
    kappa_a = local_dim_bound_logconvex(r, delta, q, choice)
    blocks = ceil((n - d + 1) / (r + delta - 1))
    return (blocks + 1) * kappa_a


# --- residual-chain bounds ---


def _reschain_min(n: int, d: int, kappa: int, delta: int, q: int, lam_values):
    g_full = griesmer_length(kappa, delta, q)
    best_val = None
    best = None
    for lam in lam_values:
        a, b = divmod(lam, kappa)
        length = n - (a + 1) * g_full + griesmer_length(kappa - b, delta, q)
        if length <= 0:
            continue
        val = lam + k_opt(length, d, q)
        if best_val is None or val < best_val:
            best_val = val
            best = (lam, a, b, length)
    return best_val, best


def k_bound_reschain(n: int, d: int, kappa: int, delta: int, q: int) -> BoundReport:
    """Dimension bound for dimension-locality (kappa, delta).

    min over lam = a*kappa + b of
      lam + k_opt(n - (a+1) G(kappa, delta) + G(kappa - b, delta), d).
    The witness records the smallest lam attaining the minimum.
    """
    _check_pos("kappa", kappa)
    _check_pos("delta", delta, 2)
    _check_pos("d", d)
    if d > n:
        raise ValueError(f"d = {d} exceeds n = {n}")
    lam_max = k_opt(n, d, q)  # terms are >= lam, so larger lam cannot attain the min
    value, best = _reschain_min(n, d, kappa, delta, q, range(lam_max + 1))
    lam, a, b, length = best
    inner_value, inner = k_opt_components(length, d, q)
    witness = {
        "lambda": lam,
        "a": a,
        "b": b,
        "shortened_length": length,
        "inner_value": inner_value,
    }
    return BoundReport("reschain", value, witness, inner)


def k_bound_reschain_coarse(n: int, d: int, kappa: int, delta: int, q: int) -> BoundReport:
    """The same bound with lam restricted to multiples of kappa:
    min over t of t*kappa + k_opt(n - t G(kappa, delta), d)."""
    _check_pos("kappa", kappa)
    _check_pos("delta", delta, 2)
    _check_pos("d", d)
    if d > n:
        raise ValueError(f"d = {d} exceeds n = {n}")
    lam_max = k_opt(n, d, q)
    value, best = _reschain_min(n, d, kappa, delta, q, range(0, lam_max + 1, kappa))
    lam, a, b, length = best
    inner_value, inner = k_opt_components(length, d, q)
    witness = {
        "lambda": lam,
        "t": a,
        "shortened_length": length,
        "inner_value": inner_value,
    }
    return BoundReport("reschain_coarse", value, witness, inner)


def k_bound_reschain_rdelta(n: int, d: int, r: int, delta: int, q: int) -> BoundReport:
    """Dimension bound for locality (r, delta): the residual-chain bound
    evaluated at kappa = kappa_B(r, delta)."""
    kappa_b = local_dim_bound(r, delta, q)
    inner = k_bound_reschain(n, d, kappa_b, delta, q)
    witness = dict(inner.witness)
    witness["kappa_b"] = kappa_b
    return BoundReport("reschain_rdelta", inner.value, witness, inner.components)


def d_bound_local_griesmer(n: int, k: int, r: int, delta: int, q: int) -> int:
    """Singleton-type distance bound that charges each local block its
    Griesmer length: n - ceil(k/kappa_B) G(kappa_B, delta) + G(kappa_B - b, delta)
    with b = k - 1 - (ceil(k/kappa_B) - 1) kappa_B."""
    _check_pos("k", k)
    kappa_b = local_dim_bound(r, delta, q)
    blocks = ceil(k / kappa_b)
    b = k - 1 - (blocks - 1) * kappa_b
    return (
        n
        - blocks * griesmer_length(kappa_b, delta, q)
        + griesmer_length(kappa_b - b, delta, q)
    )


# --- the bound table ---


@dataclass(frozen=True)
class BoundTable:
    """Every locality bound that applies to one parameter set.

    k_bounds and d_bounds map bound names to values in display order;
    witnesses maps the residual-chain rows to their BoundReport witnesses.
    """

    k_bounds: dict
    d_bounds: dict
    witnesses: dict

    def met(self, k: int, d: int) -> tuple[str, ...]:
        """Sorted names of the bounds an [n, k, d] code meets with equality."""
        return tuple(sorted(
            [name for name, v in self.k_bounds.items() if v == k]
            + [name for name, v in self.d_bounds.items() if v == d]
        ))


def bound_table(n: int, d: int, q: int, delta: int, *, k: int | None = None,
                r: int | None = None, kappa: int | None = None) -> BoundTable:
    """Evaluate the locality bounds that apply to the given parameters.

    kappa adds the residual-chain rows reschain and reschain_coarse; r adds
    reschain_rdelta, cm_rdelta, cm (when its range is nonempty) and abhmt;
    r and k together add the distance bounds local_griesmer, plus prakash
    and gopalan when r <= k.  Rows are evaluated in that order, so the first
    invalid parameter raises the same ValueError whichever caller asks.
    """
    k_bounds: dict = {}
    d_bounds: dict = {}
    witnesses: dict = {}

    def add(rep: BoundReport) -> None:
        k_bounds[rep.name] = rep.value
        witnesses[rep.name] = rep.witness

    if kappa is not None:
        add(k_bound_reschain(n, d, kappa, delta, q))
        add(k_bound_reschain_coarse(n, d, kappa, delta, q))
    if r is not None:
        add(k_bound_reschain_rdelta(n, d, r, delta, q))
        k_bounds["cm_rdelta"] = k_bound_cm_rdelta(n, d, r, delta, q)
        cm = k_bound_cm(n, d, r, q)
        if cm is not None:
            k_bounds["cm"] = cm
        k_bounds["abhmt"] = k_bound_abhmt(n, d, r, delta, q, "best")
        if k is not None:
            d_bounds["local_griesmer"] = d_bound_local_griesmer(n, k, r, delta, q)
            if r <= k:
                d_bounds["prakash"] = d_bound_prakash(n, k, r, delta)
                d_bounds["gopalan"] = d_bound_gopalan(n, k, r)
    return BoundTable(k_bounds, d_bounds, witnesses)

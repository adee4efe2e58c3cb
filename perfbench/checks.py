"""Output checks behind the failed-request count.

Every request gets intrinsic checks, which hold on any seed:

* analyze: each locality witness contains its coordinate, passes
  `verify_repair_set`, and has |S| <= r + delta - 1 (size witnesses) or
  H(S) <= kappa (entropy witnesses); r and kappa are attained by some
  witness; every bound on k is >= k and every bound on d is >= d; the
  `optimal` list names exactly the bounds met with equality.
* construct: a Simplex code S(m, q) has length (q^m - 1)/(q - 1),
  dimension m and d = q^(m-1); a minimum distance satisfies the Singleton
  and Griesmer bounds; a built set is closed and meets its entropy and size
  guarantees.
* bounds-sweep: the dominance relations of scripts/dominance_sweep.py, and
  both minimizations stay at or below their locality-free term k_opt.
* curves: the requested columns over the requested grid, every value in
  [0, 1], every curve nonincreasing.

On the default seed, `summary(req, stdout)` is also compared with the
reference recorded under perfbench/reference: exact for integers, within
OBJECTIVE_TOL for curve values.  Witnesses are checked for validity only,
never for identity, so a search that returns other optimal witnesses
passes.
"""

from __future__ import annotations

import json
import re
from math import isclose

import numpy as np

OBJECTIVE_TOL = 1e-6  # lrckit.asymptotic.OBJECTIVE_TOL
CURVE_SAMPLES = 17  # grid rows kept per curve request in the reference


class Checker:
    def __init__(self):
        import lrckit
        from lrckit import bounds

        self.lrckit = lrckit
        self.bounds = bounds

    def check(self, req: dict, stdout: str) -> list[str]:
        """Problems found in one request's output; empty when it is correct."""
        kind = req["kind"]
        if kind.startswith("analyze"):
            return self._analyze(req, json.loads(stdout))
        if kind == "simplex":
            return self._simplex(req, stdout)
        if kind == "min_distance":
            return self._min_distance(req, int(stdout))
        if kind == "build-set":
            return self._build_set(req, json.loads(stdout))
        if kind.startswith("bounds"):
            return self._bounds(req, json.loads(stdout))
        if kind.startswith("curves"):
            return self._curves(req, stdout)
        return [f"unknown request kind {kind!r}"]

    # --- analyze ---

    def _analyze(self, req, rep) -> list[str]:
        lk = self.lrckit
        p = req["params"]
        code, _ = lk.load_code(req["argv"][1])
        bad = []
        n, k, d = rep["parameters"]
        delta = p["delta"]
        if (n, k) != (p["n"], p["k"]):
            bad.append(f"parameters {n, k} != input {p['n'], p['k']}")
        if "declared" in p and [n, k, d] != p["declared"]:
            bad.append(f"parameters {[n, k, d]} != declared {p['declared']}")
        if not 1 <= d <= n - k + 1 or self.bounds.griesmer_length(k, d, code.q) > n:
            bad.append(f"d = {d} breaks the Singleton or Griesmer bound")
        cap = int(req["argv"][req["argv"].index("--cap") + 1]) if "--cap" in req["argv"] \
            else min(n, delta + k)
        if rep["size_cap"] != cap or rep["cap_active"] != (cap < n):
            bad.append(f"size cap {rep['size_cap']}/{rep['cap_active']}, expected {cap}")
        for entry in rep.get("declared_repair_sets", []):
            if not entry["valid"]:
                bad.append(f"declared repair set {entry['coords']} reported invalid")
        loc = rep["locality"]
        if "infeasible_coordinates" in loc:
            if not loc["infeasible_coordinates"] or "k_bounds" in rep:
                bad.append("malformed infeasible report")
            return bad
        r, kappa = loc["r"], loc["kappa"]
        verified = {}

        def check_set(coords):
            key = tuple(coords)
            if key not in verified:
                verified[key] = lk.verify_repair_set(code, [c - 1 for c in coords], delta)
            return verified[key]

        sizes, ents = [], []
        for name, witnesses in (("size", loc["size_witness"]), ("entropy", loc["entropy_witness"])):
            if sorted(map(int, witnesses)) != list(range(1, n + 1)):
                bad.append(f"{name} witnesses do not cover every coordinate")
                continue
            for coord, coords in witnesses.items():
                chk = check_set(coords)
                if int(coord) not in coords or not chk.valid or len(coords) > cap:
                    bad.append(f"{name} witness {coords} for coordinate {coord} is invalid")
                if name == "size":
                    sizes.append(len(coords))
                else:
                    ents.append(chk.entropy)
        if sizes and max(sizes) != r + delta - 1:
            bad.append(f"largest size witness {max(sizes)} != r + delta - 1 = {r + delta - 1}")
        if ents and max(ents) != kappa:
            bad.append(f"largest witness entropy {max(ents)} != kappa = {kappa}")
        for name, v in rep["k_bounds"].items():
            if v < k:
                bad.append(f"bound {name} = {v} on k is below k = {k}")
        for name, v in rep["d_bounds"].items():
            if v < d:
                bad.append(f"bound {name} = {v} on d is below d = {d}")
        met = sorted([nm for nm, v in rep["k_bounds"].items() if v == k]
                     + [nm for nm, v in rep["d_bounds"].items() if v == d])
        if rep["optimal"] != met:
            bad.append(f"optimal list {rep['optimal']} != bounds met {met}")
        return bad

    # --- construct ---

    def _simplex(self, req, stdout) -> list[str]:
        q, m = req["params"]["q"], req["params"]["m"]
        match = re.match(r"S\((\d+),(\d+)\): \[(\d+), (\d+), (\d+)\]", stdout)
        if not match:
            return [f"unparsed simplex output {stdout[:80]!r}"]
        got = tuple(int(x) for x in match.groups())
        want = (m, q, (q**m - 1) // (q - 1), m, q ** (m - 1))
        return [] if got == want else [f"S({m},{q}) reported {got[2:]}, expected {want[2:]}"]

    def _min_distance(self, req, d) -> list[str]:
        p = req["params"]
        if 1 <= d <= p["n"] - p["k"] + 1 and \
                self.bounds.griesmer_length(p["k"], d, p["q"]) <= p["n"]:
            return []
        return [f"d = {d} breaks the Singleton or Griesmer bound for {p}"]

    def _build_set(self, req, out) -> list[str]:
        lk = self.lrckit
        p = req["params"]
        code, _ = lk.load_code(req["argv"][req["argv"].index("--code") + 1])
        coords = frozenset(c - 1 for c in out["coords"])
        lam, kappa, delta = p["lambda"], p["kappa"], p["delta"]
        a, b = divmod(lam, kappa)
        g = self.bounds.griesmer_length
        guaranteed = (a + 1) * g(kappa, delta, code.q) - g(kappa - b, delta, code.q)
        bad = []
        if (out["lambda"], out["kappa"], out["delta"]) != (lam, kappa, delta):
            bad.append("build parameters not echoed")
        if lk.closure(code, coords) != coords:
            bad.append("built set is not closed")
        if not out["entropy"] == lk.entropy(code, coords) <= out["guaranteed_entropy"] == lam:
            bad.append(f"entropy {out['entropy']} breaks the guarantee lambda = {lam}")
        if not out["size"] == len(coords) >= out["guaranteed_size"] == guaranteed:
            bad.append(f"size {out['size']} breaks the guarantee {guaranteed}")
        return bad

    # --- bounds-sweep ---

    def _bounds(self, req, out) -> list[str]:
        p = req["params"]
        bad = []
        want = {"reschain(kappa)", "reschain_coarse", "reschain_rdelta", "cm_rdelta",
                "abhmt(best)", "local_griesmer [d]", "k_opt"}
        if p["r"] <= p["k"]:
            want |= {"prakash [d]", "gopalan [d]"}
        if not want <= set(out):
            bad.append(f"missing bounds {sorted(want - set(out))}")
            return bad
        pairs = [("reschain(kappa)", "reschain_coarse"), ("reschain_rdelta", "cm_rdelta"),
                 ("reschain(kappa)", "k_opt"), ("cm_rdelta", "k_opt")]
        if "prakash [d]" in out:
            pairs.append(("local_griesmer [d]", "prakash [d]"))
        for lo, hi in pairs:
            if out[lo] > out[hi]:
                bad.append(f"{lo} = {out[lo]} exceeds {hi} = {out[hi]}")
        return bad

    # --- curves ---

    @staticmethod
    def _parse_csv(stdout):
        lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        return header, rows

    def _curves(self, req, stdout) -> list[str]:
        p = req["params"]
        header, rows = self._parse_csv(stdout)
        if header != ["delta_n", *p["bounds"]] or rows.shape != (p["grid"], len(header)):
            return [f"curve table {header} {rows.shape} does not match the request"]
        bad = []
        if not np.allclose(rows[:, 0], np.linspace(0.0, 1.0, p["grid"]), rtol=0, atol=1e-8):
            bad.append("delta_n column is not the requested grid")
        vals = rows[:, 1:]
        if vals.min() < 0.0 or vals.max() > 1.0:
            bad.append("a rate lies outside [0, 1]")
        rises = np.diff(vals, axis=0).max(axis=0)
        for name, rise in zip(header[1:], rises):
            if rise > OBJECTIVE_TOL:
                bad.append(f"curve {name} increases by {rise:.3g}")
        return bad

    # --- reference summaries ---

    def summary(self, req, stdout):
        """The exact figures compared with the reference on the default seed."""
        kind = req["kind"]
        if kind.startswith("analyze"):
            rep = json.loads(stdout)
            loc = rep["locality"]
            return {"parameters": rep["parameters"], "cap_active": rep["cap_active"],
                    "r": loc.get("r"), "kappa": loc.get("kappa"),
                    "infeasible": loc.get("infeasible_coordinates"),
                    "k_bounds": rep.get("k_bounds"), "d_bounds": rep.get("d_bounds")}
        if kind == "simplex":
            return stdout.strip()
        if kind == "min_distance":
            return int(stdout)
        if kind == "build-set":
            out = json.loads(stdout)
            return {"entropy": out["entropy"], "size": out["size"]}
        if kind.startswith("bounds"):
            return json.loads(stdout)
        header, rows = self._parse_csv(stdout)
        keep = np.unique(np.linspace(0, len(rows) - 1, CURVE_SAMPLES).round().astype(int))
        return {"columns": header, "rows": {str(i): rows[i].tolist() for i in keep}}


def differences(got, want, path="") -> list[str]:
    """Where `got` differs from the reference `want`; floats within OBJECTIVE_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path or 'output'} keys {sorted(got)} != reference {sorted(want)}"]
        return [msg for key in want for msg in differences(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [msg for j, (g, w) in enumerate(zip(got, want))
                for msg in differences(g, w, f"{path}[{j}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if isclose(got, want, rel_tol=0.0, abs_tol=OBJECTIVE_TOL) else \
            [f"{path} = {got} differs from reference {want}"]
    return [] if got == want else [f"{path or 'output'} = {got!r} != reference {want!r}"]

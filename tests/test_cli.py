"""CLI surface: every subcommand, exit codes, and output determinism."""

import contextlib
import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from lrckit import compute_locality, example_code, linear_code, save_code, verify_optimality
from lrckit.asymptotic import MAX_GRID_POINTS
from lrckit.constructions import EXAMPLE_IDS
from lrckit.locality import SEARCH_SUBSET_CAP, SEARCH_WORD_CAP

from conftest import random_code
from lrckit.cli import MAX_Q, build_parser, main
from lrckit.code_core import MAX_ENUM_CELLS


@pytest.fixture()
def ex1_file(tmp_path):
    ex = example_code(1)
    path = tmp_path / "ex1.json"
    save_code(ex.code, path, repair_sets=ex.repair_sets)
    return path


@pytest.fixture()
def ex3_file(tmp_path):
    ex = example_code(3)
    path = tmp_path / "ex3.json"
    save_code(ex.code, path, repair_sets=ex.repair_sets)
    return path


def test_analyze_text_report(ex1_file, capsys):
    rc = main(["analyze", str(ex1_file), "--delta", "3", "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "parameters: [10, 4, 4]" in out
    assert "r = 4   kappa = 3" in out
    assert "local_griesmer" in out and "met with equality" in out


def test_analyze_json_report(ex1_file, capsys):
    rc = main(["analyze", str(ex1_file), "--delta", "3", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parameters"] == [10, 4, 4]
    assert data["locality"]["r"] == 4
    assert data["locality"]["kappa"] == 3
    assert data["d_bounds"]["local_griesmer"] == 4
    assert "local_griesmer" in data["optimal"]
    assert all(entry["valid"] for entry in data["declared_repair_sets"])


def test_analyze_deterministic(ex1_file, capsys):
    main(["analyze", str(ex1_file), "--delta", "3", "--no-timestamp"])
    first = capsys.readouterr().out
    main(["analyze", str(ex1_file), "--delta", "3", "--no-timestamp"])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_missing_file(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.json"), "--delta", "3"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"q": 2, "k": 1, "n": 2, "generator": [[1, 9]]}')
    rc = main(["analyze", str(path), "--delta", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 1, column 2" in err


def test_analyze_rank_deficient_warns(tmp_path, capsys):
    path = tmp_path / "rankdef.json"
    path.write_text(json.dumps({
        "q": 2, "k": 2, "n": 4,
        "generator": [[1, 0, 1, 0], [1, 0, 1, 0]],
    }))
    with pytest.warns(UserWarning):
        rc = main(["analyze", str(path), "--delta", "2", "--no-timestamp"])
    assert rc == 0
    assert "parameters: [4, 1," in capsys.readouterr().out


def test_analyze_refuses_non_integer_repair_set_entry(tmp_path, capsys):
    path = tmp_path / "sets.json"
    path.write_text('{"q": 2, "k": 1, "n": 3, "generator": [[1, 1, 1]], '
                    '"repair_sets": [[2, 3], [1, true]]}')
    assert main(["analyze", str(path), "--delta", "2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: repair set 2: "
                            "entry 2 (True) is not an integer coordinate\n")


def test_bounds_command(capsys):
    rc = main(["bounds", "--n", "13", "--d", "3", "--q", "2",
               "--delta", "3", "--kappa", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reschain(kappa)" in out and " 6" in out


def test_bounds_command_json(capsys):
    rc = main(["bounds", "--n", "10", "--d", "3", "--q", "2",
               "--delta", "3", "--r", "2", "--k", "3", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["reschain_rdelta"] == 3
    assert data["cm_rdelta"] == 4


def test_bounds_needs_kappa_or_r(capsys):
    rc = main(["bounds", "--n", "13", "--d", "3", "--q", "2", "--delta", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "provide --kappa and/or --r" in captured.err


def test_bounds_rejects_k_above_n(capsys):
    rc = main(["bounds", "--n", "20", "--d", "3", "--q", "2",
               "--delta", "3", "--r", "2", "--k", "30"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k = 30 exceeds n = 20" in captured.err


@pytest.mark.parametrize("q", ["6", "1", "0", "-4"])
def test_bounds_rejects_non_prime_power_q(q, capsys):
    rc = main(["bounds", "--n", "13", "--d", "3", "--q", q, "--delta", "3", "--kappa", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"q = {q} is not a prime power" in captured.err


def test_bounds_refuses_q_above_cap_before_factoring(capsys):
    q = 2**61 - 1  # a prime: trial division to its square root would run for minutes
    t0 = time.perf_counter()
    rc = main(["bounds", "--n", "13", "--d", "3", "--q", str(q), "--delta", "3", "--kappa", "3"])
    assert time.perf_counter() - t0 < 2.0
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"q = {q} is above the cap {MAX_Q} on --q" in captured.err


def test_bounds_accepts_largest_prime_below_q_cap(capsys):
    q = 4294967291  # the largest prime below 2^32
    assert q < MAX_Q == 2**32
    rc = main(["bounds", "--n", "13", "--d", "3", "--q", str(q), "--delta", "3", "--kappa", "3"])
    assert rc == 0
    assert f"q={q}" in capsys.readouterr().out


def test_bounds_accepts_k_equal_to_n_and_prime_power_q(capsys):
    rc = main(["bounds", "--n", "20", "--d", "3", "--q", "9",
               "--delta", "3", "--r", "2", "--k", "20", "--json"])
    assert rc == 0
    assert "prakash [d]" in json.loads(capsys.readouterr().out)


def test_asymptotic_to_stdout(capsys):
    rc = main(["asymptotic", "--r", "4", "--delta", "3", "--q", "2",
               "--bounds", "prakash,local_griesmer", "--grid", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta_n,prakash,local_griesmer" in out


def test_asymptotic_to_file(tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    rc = main(["asymptotic", "--r", "4", "--delta", "3", "--q", "2",
               "--ropt", "mrrw", "--grid", "32", "--out", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert text.startswith("#")
    assert "reschain" in text.splitlines()[3]


def test_asymptotic_unknown_bound(capsys):
    rc = main(["asymptotic", "--r", "4", "--delta", "3", "--q", "2",
               "--bounds", "nope"])
    assert rc == 2


def test_asymptotic_mrrw_nonbinary(capsys):
    rc = main(["asymptotic", "--r", "4", "--delta", "3", "--q", "3",
               "--bounds", "reschain", "--ropt", "mrrw", "--grid", "8"])
    assert rc == 2
    assert "plotkin" in capsys.readouterr().err


def _asymptotic_refusal(argv, capsys) -> str:
    rc = main(["asymptotic", *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("q", ["1", "6"])
def test_asymptotic_rejects_non_prime_power_q(q, capsys):
    err = _asymptotic_refusal(["--r", "4", "--delta", "3", "--q", q, "--ropt", "plotkin",
                               "--bounds", "reschain,plotkin", "--grid", "8"], capsys)
    assert f"q = {q} is not a prime power" in err


def test_asymptotic_refuses_q_above_cap(capsys):
    q = 2**61 - 1
    err = _asymptotic_refusal(["--r", "4", "--delta", "3", "--q", str(q), "--ropt", "plotkin",
                               "--bounds", "plotkin", "--grid", "8"], capsys)
    assert f"q = {q} is above the cap {MAX_Q} on --q" in err


@pytest.mark.parametrize("r,bound", [("0", "gopalan"), ("-3", "prakash")])
def test_asymptotic_rejects_r_below_1(r, bound, capsys):
    err = _asymptotic_refusal(["--r", r, "--delta", "3", "--q", "2", "--bounds", bound,
                               "--grid", "8"], capsys)
    assert f"r must be an integer >= 1, got {r}" in err


def test_asymptotic_rejects_delta_below_2(capsys):
    # r + delta - 1 = 0 would divide by zero in the prakash line
    err = _asymptotic_refusal(["--r", "3", "--delta", "-2", "--q", "2", "--bounds", "prakash",
                               "--grid", "8"], capsys)
    assert "delta must be an integer >= 2, got -2" in err


def test_asymptotic_rejects_empty_bounds_list(capsys):
    err = _asymptotic_refusal(["--r", "4", "--delta", "3", "--q", "2", "--bounds", ",,",
                               "--grid", "8"], capsys)
    assert "no curves requested" in err


def test_asymptotic_mrrw_curve_nonbinary(capsys):
    # the mrrw column is the binary MRRW bound, not a bound for ternary codes
    err = _asymptotic_refusal(["--r", "4", "--delta", "3", "--q", "3",
                               "--bounds", "mrrw,plotkin", "--grid", "5"], capsys)
    assert "MRRW is defined for q = 2 only" in err


def test_asymptotic_refuses_grid_above_cap(capsys):
    err = _asymptotic_refusal(["--r", "4", "--delta", "3", "--q", "2", "--bounds", "reschain",
                               "--grid", str(MAX_GRID_POINTS + 1)], capsys)
    assert f"above the cap {MAX_GRID_POINTS}" in err


def test_simplex_command(tmp_path, capsys):
    out_file = tmp_path / "s32.json"
    rc = main(["simplex", "--m", "3", "--q", "2", "--out", str(out_file)])
    assert rc == 0
    assert "S(3,2): [7, 3, 4] over GF(2)" in capsys.readouterr().out
    data = json.loads(out_file.read_text())
    assert (data["n"], data["k"]) == (7, 3)


@pytest.mark.parametrize("m,q", [(15, 2), (20, 2), (25, 2), (4, 256), (10**9, 3)])
def test_simplex_refuses_above_cell_cap_before_building(m, q, capsys):
    t0 = time.perf_counter()
    rc = main(["simplex", "--m", str(m), "--q", str(q)])
    assert time.perf_counter() - t0 < 2.0
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"S({m},{q}) needs q^m * n codeword cells" in captured.err
    assert f"above the cap {MAX_ENUM_CELLS}" in captured.err


def _binary_code_file(tmp_path, k, n, seed):
    rng = np.random.RandomState(seed)
    gen = np.hstack([np.eye(k, dtype=int), rng.randint(0, 2, size=(k, n - k))])
    path = tmp_path / f"b{n}_{k}.json"
    save_code(linear_code(2, gen), path)
    return path


@pytest.mark.parametrize("k,n,delta,message", [
    (21, 40, 1, "delta must be >= 2, got 1"),
    (21, 40, 2, f"locality search enumerates q^k = {2**21} codewords, above the cap {SEARCH_WORD_CAP}"),
    (4, 60, 2, f"locality search visits 56048997 subsets of sizes 2 to 6, above the cap {SEARCH_SUBSET_CAP}"),
])
def test_analyze_refuses_locality_before_enumerating(tmp_path, capsys, k, n, delta, message):
    path = _binary_code_file(tmp_path, k, n, seed=k + n)
    t0 = time.perf_counter()
    rc = main(["analyze", str(path), "--delta", str(delta), "--no-timestamp"])
    assert time.perf_counter() - t0 < (1.0 if k == 21 else 2.0)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("m,q,message", [(0, 2, "m must be >= 1"), (3, 6, "not a prime power"),
                                         (3, 300, "outside supported range")])
def test_simplex_bad_m_or_q(m, q, message, capsys):
    assert main(["simplex", "--m", str(m), "--q", str(q)]) == 2
    assert message in capsys.readouterr().err


def test_build_set_command(ex3_file, capsys):
    rc = main(["build-set", "--code", str(ex3_file), "--delta", "3",
               "--kappa", "1", "--lambda", "2", "--no-timestamp"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entropy: 2" in out
    assert "guarantee >= 6" in out
    assert "trace:" in out


def test_build_set_json(ex3_file, capsys):
    rc = main(["build-set", "--code", str(ex3_file), "--delta", "3",
               "--kappa", "1", "--lambda", "2", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entropy"] <= 2
    assert data["size"] >= data["guaranteed_size"] == 6
    assert data["trace"][0]["action"] == "start"


def test_build_set_kappa_too_small(ex1_file, capsys):
    rc = main(["build-set", "--code", str(ex1_file), "--delta", "3",
               "--kappa", "2", "--lambda", "2"])
    assert rc == 2
    assert "dimension" in capsys.readouterr().err


def test_build_set_lambda_too_big(ex3_file, capsys):
    rc = main(["build-set", "--code", str(ex3_file), "--delta", "3",
               "--kappa", "1", "--lambda", "9"])
    assert rc == 2


def test_verify_paper_passes(capsys):
    rc = main(["verify-paper"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "all checks passed" in out


# --- byte-exact golden output ---
#
# tests/golden/ holds the exact stdout of `analyze`, `bounds`, `asymptotic`,
# `build-set` and `simplex` for fixed inputs.  Any refactor of the report code must reproduce it byte for byte;
# a deliberate output change rewrites the affected files in the same change.

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; analyze runs from a directory holding ex1.json .. ex3.json,
# so the file name printed in the report does not depend on the machine
GOLDEN_CASES = {
    **{f"analyze_ex{i}.txt": ["analyze", f"ex{i}.json", "--delta", "3", "--no-timestamp"]
       for i in EXAMPLE_IDS},
    **{f"analyze_ex{i}.json": ["analyze", f"ex{i}.json", "--delta", "3", "--json"]
       for i in EXAMPLE_IDS},
    "analyze_ex3_infeasible.txt": ["analyze", "ex3.json", "--delta", "3", "--cap", "2",
                                   "--no-timestamp"],
    "analyze_ex3_infeasible.json": ["analyze", "ex3.json", "--delta", "3", "--cap", "2",
                                    "--json"],
    **{f"bounds_{name}.{ext}": [
        "bounds", *argv, *(["--json"] if ext == "json" else [])]
       for name, argv in {
           "kappa": ["--n", "13", "--d", "3", "--q", "2", "--delta", "3", "--kappa", "3"],
           "r": ["--n", "40", "--d", "6", "--q", "3", "--delta", "3", "--r", "4"],
           "r_le_k": ["--n", "20", "--d", "4", "--q", "4", "--delta", "2", "--r", "3",
                      "--k", "9"],
           "r_gt_k": ["--n", "6", "--d", "2", "--q", "2", "--delta", "2", "--r", "5",
                      "--k", "3"],
           "all": ["--n", "30", "--d", "5", "--q", "2", "--delta", "3", "--kappa", "2",
                   "--r", "3", "--k", "10"],
       }.items()
       for ext in ("txt", "json")},
    # the three figure sets of scripts/emit_figure_curves.py, default curves
    **{f"asymptotic_fig_{r}_{delta}.csv": [
        "asymptotic", "--r", str(r), "--delta", str(delta), "--q", "2",
        "--ropt", "mrrw", "--grid", "256"]
       for r, delta in ((4, 3), (6, 3), (12, 9))},
    "asymptotic_plotkin_q3.csv": ["asymptotic", "--r", "5", "--delta", "4", "--q", "3",
                                  "--ropt", "plotkin", "--bounds", "reschain,cm_rdelta,plotkin",
                                  "--grid", "256"],
    "asymptotic_closed_q4.csv": ["asymptotic", "--r", "7", "--delta", "3", "--q", "4",
                                 "--ropt", "plotkin", "--grid", "512", "--bounds",
                                 "singleton,gopalan,prakash,abhmt,local_griesmer,plotkin"],
    "asymptotic_closed_q2_hamming.csv": ["asymptotic", "--r", "6", "--delta", "3", "--q", "2",
                                         "--lc", "hamming", "--grid", "512", "--bounds",
                                         "singleton,gopalan,abhmt,mrrw,plotkin"],
    # build-set on the declared repair sets.  lambda mod kappa > 0 in every
    # case, so the b > 0 start runs: a starting-set reschain-correction, or at
    # ex2_restart the lower-kappa round.  The rounds add absorb-repair-set and
    # reschain-correction steps.
    **{f"build_set_{name}.{ext}": [
        "build-set", "--code", code, "--delta", "3", "--kappa", kappa, "--lambda", lam,
        *(["--json"] if ext == "json" else ["--no-timestamp"])]
       for name, (code, kappa, lam) in {
           "ex1": ("ex1.json", "3", "4"),
           "ex2": ("ex2.json", "4", "5"),
           "ex2_restart": ("ex2.json", "5", "4"),
           "ex3": ("ex3.json", "2", "3"),
       }.items()
       for ext in ("txt", "json")},
    "simplex_3_2.txt": ["simplex", "--m", "3", "--q", "2"],
    "simplex_3_3.txt": ["simplex", "--m", "3", "--q", "3"],
}


def golden_output(name: str, workdir: Path) -> str:
    """stdout of the CLI for GOLDEN_CASES[name], run from `workdir`."""
    for i in EXAMPLE_IDS:
        ex = example_code(i)
        path = workdir / f"ex{i}.json"
        if not path.exists():
            save_code(ex.code, path, repair_sets=ex.repair_sets)
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(GOLDEN_CASES[name])
    finally:
        os.chdir(cwd)
    assert rc == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, tmp_path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert golden_output(name, tmp_path) == expected


# --- verify_optimality and analyze read the same bound table ---

def _analyze_json(code, delta, workdir, *extra):
    path = workdir / "code.json"
    save_code(code, path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["analyze", str(path), "--delta", str(delta), "--json", *extra]) == 0
    return json.loads(buf.getvalue())


def _assert_same_table(rep, report):
    assert list(rep.met) == report["optimal"]
    assert rep.k_bounds == report["k_bounds"]
    assert rep.d_bounds == report["d_bounds"]


@pytest.mark.parametrize("which", EXAMPLE_IDS)
def test_verify_optimality_matches_analyze_on_examples(which, tmp_path):
    ex = example_code(which)
    rep = verify_optimality(ex)  # locality at cap n
    _assert_same_table(rep, _analyze_json(ex.code, ex.delta, tmp_path, "--cap", str(ex.code.n)))
    assert "reschain_coarse" in rep.met


def _feasible_random_codes():
    rng = np.random.RandomState(43)
    out = []
    for q in (2, 2, 2, 3, 3, 4, 4):
        while True:
            code = random_code(rng, q, n_max=9, k_max=4)
            profile = compute_locality(code, 2)
            if profile.feasible and code.k >= 2:
                out.append((code, profile))
                break
    return out


_RANDOM_CASES = _feasible_random_codes()


@pytest.mark.parametrize("code,profile", _RANDOM_CASES,
                         ids=[f"q{c.q}-n{c.n}-k{c.k}-{i}" for i, (c, _) in enumerate(_RANDOM_CASES)])
def test_verify_optimality_matches_analyze_on_random_codes(code, profile, tmp_path):
    rep = verify_optimality(code, 2, profile)  # locality at the default cap, as analyze
    _assert_same_table(rep, _analyze_json(code, 2, tmp_path))


# --- one parser per process ---
#
# main reuses the parser build_parser() builds on its first call; these
# tests check that nothing carries over from one request to the next.

SHARED_PARSER_CASES = ["analyze_ex1.txt", "bounds_all.txt", "asymptotic_fig_4_3.csv",
                       "simplex_3_2.txt", "build_set_ex1.txt"]


def test_shared_parser_goldens_forward_and_reverse(tmp_path):
    for name in SHARED_PARSER_CASES + SHARED_PARSER_CASES[::-1]:
        assert golden_output(name, tmp_path) == (GOLDEN / name).read_text(encoding="utf-8")


def test_shared_parser_keeps_no_defaults_between_calls(ex1_file, capsys):
    main(["analyze", str(ex1_file), "--delta", "3", "--cap", "3", "--json"])
    assert json.loads(capsys.readouterr().out)["size_cap"] == 3
    # the default cap is min(n, delta + k) = min(10, 3 + 4)
    main(["analyze", str(ex1_file), "--delta", "3", "--no-timestamp"])
    assert "locality at delta = 3 (size cap 7, cap active):" in capsys.readouterr().out
    main(["bounds", "--n", "30", "--d", "5", "--q", "2", "--delta", "3", "--kappa", "2",
          "--r", "3", "--k", "10", "--json"])
    capsys.readouterr()
    main(["bounds", "--n", "13", "--d", "3", "--q", "2", "--delta", "3", "--kappa", "3"])
    assert capsys.readouterr().out.startswith("parameters: n=13 d=3 q=2 delta=3 kappa=3\n")


def test_shared_parser_still_refuses_bad_argv(capsys):
    good = ["bounds", "--n", "13", "--d", "3", "--q", "2", "--delta", "3", "--kappa", "3"]
    assert main(good) == 0
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "x", "--d", "3", "--q", "2", "--delta", "3", "--kappa", "3"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert main(good) == 0


def test_parser_built_once_per_process(capsys):
    build_parser.cache_clear()
    for i in range(50):
        assert main(["bounds", "--n", str(13 + i), "--d", "3", "--q", "2",
                     "--delta", "3", "--kappa", "3"]) == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 49)
    assert build_parser() is build_parser()

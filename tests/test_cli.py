"""CLI surface: every subcommand, exit codes, and output determinism."""

import json

import pytest

from lrckit import example_code, save_code
from lrckit.cli import main


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


def test_simplex_command(tmp_path, capsys):
    out_file = tmp_path / "s32.json"
    rc = main(["simplex", "--m", "3", "--q", "2", "--out", str(out_file)])
    assert rc == 0
    assert "S(3,2): [7, 3, 4] over GF(2)" in capsys.readouterr().out
    data = json.loads(out_file.read_text())
    assert (data["n"], data["k"]) == (7, 3)


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

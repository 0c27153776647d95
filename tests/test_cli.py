"""End-to-end tests of the command line interface via cli.main()."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coxcodes import cli, harness


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_json(capsys):
    code, out, err = run_cli(
        capsys, ["stats", "--family", "B", "2 -4 5 1 -3"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["family", "n", "inputs", "outputs", "status"]
    assert doc["family"] == "B" and doc["n"] == 5
    assert doc["inputs"]["element"] == [2, -4, 5, 1, -3]
    assert doc["outputs"]["inv_B"] == 13
    assert doc["outputs"]["N"] == 2
    assert doc["status"] == "ok"


def test_stats_output_is_deterministic(capsys):
    argv = ["stats", "--family", "D", "2,-4,5,1,-3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    doc = json.loads(first)
    assert doc["outputs"]["inv_D"] == 11
    assert doc["outputs"]["nmin_D"] == 4
    assert doc["outputs"]["sor'_D"] == doc["outputs"]["sor_D"]


def test_stats_text(capsys):
    code, out, _ = run_cli(
        capsys, ["stats", "--family", "A", "--format", "text", "2 4 5 1 3"]
    )
    assert code == 0
    assert out.splitlines()[0] == "family A, n = 5, element 2 4 5 1 3"
    assert "sor = 5" in out
    assert "Cyc = {1, 3}" in out


def test_stats_usage_errors(capsys):
    code, _, err = run_cli(capsys, ["stats", "1 2 3"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, ["stats", "--family", "A", "--n", "4", "1 2 3"])
    assert code == 2 and "does not match" in err
    code, _, err = run_cli(capsys, ["stats", "--family", "D", "1 -2 3"])
    assert code == 2 and "odd number" in err
    code, out, err = run_cli(capsys, ["stats", "--family", "A", "2 x 3"])
    assert (code, out) == (2, "")
    assert err == "error: invalid integer token 'x' in element\n"
    code, out, err = run_cli(capsys, ["stats", "--family", "A", ","])
    assert (code, out, err) == (2, "", "error: empty element\n")


def test_code_encode_after_flag(capsys):
    # payload after an option exercises the leftover-token recovery
    code, out, _ = run_cli(
        capsys, ["code", "encode", "bcode", "--family", "B", "3 -1 -6 -5 4 2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["code"] == [1, -1, 1, -4, -4, -3]
    assert doc["inputs"]["direction"] == "encode"


def test_code_decode(capsys):
    code, out, _ = run_cli(
        capsys,
        ["code", "decode", "acode", "--family", "B", "--format", "text",
         "1, 1, -3, -2, 3"],
    )
    assert code == 0
    assert out == "element: 2 -4 5 1 -3\n"


def test_code_family_inference(capsys):
    # ecode exists only for family D, so --family may be omitted
    code, out, _ = run_cli(capsys, ["code", "encode", "ecode", "2 -4 5 1 -3"])
    assert code == 0
    assert json.loads(out)["outputs"]["code"] == [1, 1, -3, -2, 3]
    code, _, err = run_cli(capsys, ["code", "encode", "lehmer", "2 1"])
    assert code == 2 and "needs --family" in err
    code, _, err = run_cli(capsys, ["code", "encode", "ecode", "--family", "A", "2 1"])
    assert code == 2 and "not A" in err


def test_code_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, ["code", "decode", "lehmer", "--family", "A", "1 3"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        capsys, ["code", "encode", "bcode", "--family", "A", "1 1 2"]
    )
    assert code == 2 and "error:" in err


def test_map_rho(capsys):
    code, out, _ = run_cli(capsys, ["map", "rho", "2 -4 5 1 -3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["image"] == [-2, -4, 5, -1, -3]
    assert doc["outputs"]["source_statistics"] == {"inv_D": 11, "nmin_D": 4}
    assert doc["outputs"]["image_statistics"] == {"sor_D": 11, "lt'_D": 4}


def test_map_rho_text(capsys):
    code, out, _ = run_cli(
        capsys, ["map", "rho", "--format", "text", "2 -4 5 1 -3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "image: -2 -4 5 -1 -3"
    assert "inv_D = 11 -> sor_D = 11" in lines
    assert "nmin_D = 4 -> lt'_D = 4" in lines


def test_map_inverse_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["map", "psi", "2 -4 5 1 -3"])
    assert code == 0
    image = json.loads(out)["outputs"]["image"]
    assert image == [2, -4, 5, -1, -3]
    code, out, _ = run_cli(
        capsys, ["map", "psi", "--inverse", " ".join(str(v) for v in image)]
    )
    assert code == 0
    assert json.loads(out)["outputs"]["image"] == [2, -4, 5, 1, -3]


def test_map_family_mismatch(capsys):
    code, _, err = run_cli(capsys, ["map", "phi", "--family", "B", "2 1"])
    assert code == 2 and "acts on family A" in err
    code, _, err = run_cli(capsys, ["map", "rho", "1 -2 3"])
    assert code == 2 and "error:" in err


def test_verify_text(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "type-d-bivariate", "--n", "2", "--format", "text"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS type-d-bivariate n=2 (checked 8)"
    assert any("1 + 2*q*t + q^2*t" in line for line in lines)


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "codes-d", "--n", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "verified"
    assert doc["outputs"]["passed"] is True


def test_verify_requires_n(capsys):
    code, _, err = run_cli(capsys, ["verify", "type-a-gf"])
    assert code == 2 and "needs --n" in err


def test_verify_refuses_family(capsys):
    # the check names its family; a --family would be silently ignored
    for family in ("A", "B"):
        code, out, err = run_cli(
            capsys, ["verify", "type-a-gf", "--family", family, "--n", "3"]
        )
        assert code == 2 and out == ""
        assert err == (
            "error: verify takes no --family; the check fixes its family\n"
        )


def test_verify_parallel_matches(capsys):
    argv = ["verify", "type-b-gf", "--n", "3"]
    _, seq, _ = run_cli(capsys, argv)
    _, par, _ = run_cli(capsys, argv + ["--parallel", "2"])
    assert json.loads(seq)["outputs"] == json.loads(par)["outputs"]


def test_bad_parallel_is_a_usage_error(capsys):
    for workers in ("0", "-1"):
        code, out, err = run_cli(
            capsys, ["verify", "type-a-gf", "--n", "3", "--parallel", workers]
        )
        assert code == 2 and out == "" and "workers" in err
        code, out, _ = run_cli(
            capsys,
            ["table", "inv", "sor", "--family", "A", "--n", "3", "--parallel", workers],
        )
        assert code == 2 and out == ""
        # the commands that never sweep refuse it too
        for argv in (
            ["stats", "--family", "A", "2 1 3"],
            ["code", "encode", "lehmer", "--family", "A", "1 2"],
            ["map", "phi", "2 1 3"],
        ):
            code, out, err = run_cli(capsys, argv + ["--parallel", workers])
            assert code == 2 and out == ""
            assert err == (
                f"error: workers must be a positive integer, got {int(workers)}\n"
            )


def test_cli_import_leaves_process_pool_unloaded():
    # the pool module is imported only by a sweep that uses workers, and
    # dataclasses (which imports inspect) not at all
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, coxcodes.cli; "
         "print('concurrent.futures.process' in sys.modules, 'dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "False False"


def test_verify_falsified_exit_code(capsys):
    def always_fails(n, workers=1):
        return harness.VerifyReport(
            name="always-fails", family="A", n=n, passed=False, checked=1,
            counterexample={"element": [1]},
        )

    harness.CHECKS["always-fails"] = always_fails
    try:
        code, out, _ = run_cli(
            capsys, ["verify", "always-fails", "--n", "1", "--format", "text"]
        )
    finally:
        del harness.CHECKS["always-fails"]
    assert code == 1
    assert out.splitlines()[0] == "FAIL always-fails n=1 (checked 1)"
    assert "counterexample" in out


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "inv_D", "nmin_D", "--family", "D", "--n", "2", "--format", "csv"],
    )
    assert code == 0
    assert out == "q,t,count\n0,0,1\n1,1,2\n2,1,1\n"


def test_table_json_resolves_aliases(capsys):
    code, out, _ = run_cli(
        capsys, ["table", "sor_D", "ltp_D", "--family", "D", "--n", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"] == {"stat1": "sor_D", "stat2": "lt'_D"}
    assert doc["outputs"]["text"] == "1 + 2*q*t + q^2*t"
    assert doc["outputs"]["terms"][0] == {"q": 0, "t": 0, "count": 1}


def test_table_usage_errors(capsys):
    code, _, err = run_cli(capsys, ["table", "inv", "rl-min", "--n", "3"])
    assert code == 2 and "needs --family" in err
    code, _, err = run_cli(capsys, ["table", "inv", "rl-min", "--family", "A"])
    assert code == 2 and "needs --n" in err
    code, _, err = run_cli(
        capsys, ["table", "inv", "bogus", "--family", "A", "--n", "3"]
    )
    assert code == 2 and "bogus" in err and "rl-min" in err
    code, _, err = run_cli(
        capsys, ["table", "inv", "rl-min", "--family", "A", "--n", "99"]
    )
    assert code == 2


def test_csv_rejected_outside_table(capsys):
    code, _, err = run_cli(
        capsys, ["stats", "--family", "A", "--format", "csv", "1 2"]
    )
    assert code == 2 and "only available for the table" in err


def test_csv_refused_before_the_check_runs(capsys, monkeypatch):
    def refuse(n, workers=1):
        raise AssertionError("the check ran")

    monkeypatch.setitem(harness.CHECKS, "type-b-gf", refuse)
    code, out, err = run_cli(
        capsys, ["verify", "type-b-gf", "--n", "7", "--format", "csv"]
    )
    assert code == 2 and out == ""
    assert err == "error: csv format is only available for the table command\n"


def test_stdin_payload(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 -1 -6 -5 4 2"))
    code, out, _ = run_cli(capsys, ["code", "encode", "bcode", "--family", "B"])
    assert code == 0
    assert json.loads(out)["outputs"]["code"] == [1, -1, 1, -4, -4, -3]


def test_empty_stdin_payload(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("  \n"))
    code, _, err = run_cli(capsys, ["stats", "--family", "A"])
    assert code == 2 and "no element given" in err


def test_unrecognized_token(capsys):
    code, _, err = run_cli(capsys, ["stats", "--family", "A", "1 2 3", "bogus"])
    assert code == 2 and "bogus" in err


def test_bad_subcommand_and_choice(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "no-such-check", "--n", "2"]) == 2
    capsys.readouterr()


def test_console_script_installed():
    exe = shutil.which("coxcodes")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "map", "phi", "--format", "text", "3 1 5 2 4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "image: 3 2 5 4 1"

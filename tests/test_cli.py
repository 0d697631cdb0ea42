"""Command line interface: JSON output shape, exit codes and determinism."""

import hashlib
import json

import pytest

from gkzeuler import cli


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_triangulate_json_and_exit_ok(capsys):
    code, out = _run(capsys, ["triangulate", "--config", "gamma2",
                              "--omega", "7,1,2,5"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["config"] == "gamma2"
    assert doc["omega"] == [7, 1, 2, 5]
    assert all(isinstance(s, list) for s in doc["simplices"])
    assert isinstance(doc["convergent"], bool)
    assert isinstance(doc["unimodular"], bool)


def test_triangulate_bad_omega_length(capsys):
    code, _ = _run(capsys, ["triangulate", "--config", "gamma2",
                            "--omega", "1,2"])
    assert code == cli.EXIT_BAD_INPUT


def test_triangulate_degenerate_lifting(capsys):
    code, _ = _run(capsys, ["triangulate", "--config", "gamma2",
                            "--omega", "0,0,0,0"])
    assert code == cli.EXIT_DEGENERATE


def test_unknown_config(capsys):
    code, _ = _run(capsys, ["triangulate", "--config", "doesnotexist",
                            "--omega", "1,2,3,4"])
    assert code == cli.EXIT_BAD_INPUT


def test_fan_scan_counts(capsys):
    code, out = _run(capsys, ["fan-scan", "--config", "gamma2",
                              "--samples", "300"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 3
    assert len(doc["triangulations"]) == 3


# sha256 of stdout, recorded before the refactor that merged the coset
# searches and the triangulation validation; exact arithmetic only, so the
# digests do not depend on the machine
_PINNED_SHA256 = {
    "fan-scan --config g1 --samples 300 --seed 5":
        "0b348b71f1a3732d3f7f7758244acc6489c67e0afee9f77807de65046e412ecf",
    "identities --degree 12":
        "235b6074611c835bde06ff034525ed495495a371a65bbdae16aae0256cb542db",
    "ladders --k 2 --n 5":
        "c83743158cd4d69f63b8a737cc14bdf0f55109c4b1433d446bd5b822cc7a925e",
}


def test_fan_scan_deterministic_bytes(capsys):
    argv = ["fan-scan", "--config", "g1", "--samples", "300", "--seed", "5"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    for command, digest in _PINNED_SHA256.items():
        _, out = _run(capsys, command.split())
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_ladders_and_exponents(capsys):
    code, out = _run(capsys, ["ladders", "--k", "2", "--n", "5",
                              "--ctilde=-1.5,0.1,0.2,0.3,0.4,0.5"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 6
    assert len(doc["exponents"]) == 6
    for ex in doc["exponents"]:
        assert all("," in key for key in ex)


def test_series_trusted_and_numeric_exit(capsys):
    base = ["series", "--config", "gauss", "--sigma", "1,2,3",
            "--delta", "0.377,0.211,0.613"]
    code, out = _run(capsys, base + ["--z", "1,1,1,0.05", "--order", "12"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["trusted"] is True
    assert isinstance(doc["value"], list) and len(doc["value"]) == 2
    code, _ = _run(capsys, base + ["--z", "1,1,1,2.5", "--order", "30"])
    assert code == cli.EXIT_NUMERIC
    # a shallow truncation is untrusted however z is rescaled along the row
    # space of A, which changes only the prefactor z_sigma^(-u0)
    for z in ("1,1,1,0.9", "1e-9,1,1e-9,0.9"):
        code, out = _run(capsys, base + ["--z", z, "--order", "4"])
        assert code == cli.EXIT_NUMERIC, z
        assert json.loads(out)["trusted"] is False


@pytest.mark.parametrize("sigma", ["0,1,2", "1,2", "1,2,9", "1,1,2"])
def test_series_bad_sigma(capsys, sigma):
    code = cli.main(["series", "--config", "gauss", "--sigma", sigma,
                     "--delta", "0.377,0.211,0.613", "--z", "1,1,1,0.05",
                     "--order", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("bad")


@pytest.mark.parametrize("argv", [
    # z lives in (C*)^N, and z and delta are finite
    "series --config gauss --sigma 1,2,3 --delta 0.3,0.2,0.6 "
    "--z 0,1,1,0.1 --order 4",
    "series --config gauss --sigma 1,2,3 --delta 0.3,0.2,0.6 "
    "--z nan,1,1,0.1 --order 4",
    "series --config gauss --sigma 1,2,3 --delta 0.3,0.2,0.6 "
    "--z inf,1,1,0.1 --order 4",
    "series --config gauss --sigma 1,2,3 --delta nan,0.2,0.6 "
    "--z 1,1,1,0.1 --order 4",
    # kvec needs one entry per column outside sigma
    "series --config g1 --sigma 2,3,4 --delta 0.3,0.2,0.6 --z 1,1,1,1,0.1 "
    "--order 8 --kvec 1",
    "series --config g1 --sigma 2,3,4 --delta 0.3,0.2,0.6 --z 1,1,1,1,0.1 "
    "--order 8 --kvec 1,2,3",
    "series --config gauss --sigma 1,2,3 --delta 0.377,0.211,0.613 "
    "--z 1,1,1,0.05 --order -1",
    "verify --case gauss --order -3",
    "fan-scan --config g1 --samples -2",
    "fan-scan --config g1 --samples 0",
    # ctilde needs n+1 entries, or n with --confluent
    "ladders --k 2 --n 5 --ctilde=1,2",
    "ladders --k 2 --n 5 --ctilde=1,2,3,4,5,6,7,8",
    "ladders --k 2 --n 5 --confluent --ctilde=1,2,3,4,5,6,7",
])
def test_bad_input_exits_two(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("bad")


@pytest.mark.parametrize("argv", [
    # a term overflows: z or the imaginary part of delta is too large
    "series --config gauss --sigma 1,2,3 --delta 0.3,0.2,0.6 "
    "--z 1,1,1,1e300 --order 5",
    "series --config gauss --sigma 1,2,3 --delta 0.3+1e300j,0.2,0.6 "
    "--z 1,1,1,0.1 --order 5",
    # one shell is the whole sum, so no series of the relation is trusted
    "verify --case e36 --order 0",
])
def test_numeric_failure_exits_four(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure")


def test_series_kvec_of_right_length(capsys):
    code, out = _run(capsys, ["series", "--config", "g1", "--sigma", "2,3,4",
                              "--kvec", "1,0", "--delta", "0.3,0.2,0.6",
                              "--z", "1,1,1,1,0.1", "--order", "8"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["sigma"] == [2, 3, 4]


def test_series_non_generic_parameter(capsys):
    code, _ = _run(capsys, ["series", "--config", "gauss",
                            "--sigma", "1,2,3", "--delta", "1,2,3",
                            "--z", "1,1,1,0.05", "--order", "8"])
    assert code == cli.EXIT_DEGENERATE


def test_verify_case_ok(capsys):
    code, out = _run(capsys, ["verify", "--case", "gauss", "--seed", "1"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["residual"] < doc["tol"]


def test_identities_exact(capsys):
    code, out = _run(capsys, ["identities", "--degree", "6", "--seed", "2"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(row["gauss_defect"] == "0" and row["kummer_defect"] == "0"
               for row in doc["identities"])


def test_report_all_cases(capsys):
    code, out = _run(capsys, ["report", "--seed", "0"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert sorted(r["case"] for r in doc["cases"]) == sorted(
        ["gauss", "kummer", "f1", "phi1", "e36", "e36c", "ag", "confluent"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "ladders.json"
    code, out = _run(capsys, ["ladders", "--k", "1", "--n", "3",
                              "--out", str(target)])
    assert code == cli.EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 2


def test_config_from_json_file(tmp_path, capsys):
    doc = {"k": 1, "n": 1, "blocks": [[], [[0, 1]]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, ["triangulate", "--config", str(path),
                              "--omega", "3,1"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["simplices"]


def test_entry_raises_system_exit():
    with pytest.raises(SystemExit):
        cli.entry()

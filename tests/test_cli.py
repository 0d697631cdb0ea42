"""Command line interface: JSON output shape, exit codes and determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzeuler import cli, errors
from gkzeuler.config import build_cayley, get_config, registry_names
from gkzeuler.errors import ExhaustedRetries, UndefinedRatio
from gkzeuler.intersection import case_names
from gkzeuler.triangulation import make_simplex
from oracles import series_by_direct_sum

_SRC = str(Path(__file__).resolve().parents[1] / "src")


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
# searches and the triangulation validation (the e36, e36c and h4 scans
# before the ray test took a round of rays at once); exact arithmetic only,
# so the digests do not depend on the machine
_PINNED_SHA256 = {
    "fan-scan --config g1 --samples 300 --seed 5":
        "0b348b71f1a3732d3f7f7758244acc6489c67e0afee9f77807de65046e412ecf",
    "fan-scan --config e36 --samples 40 --seed 1":
        "7215515694e3841e1f9ee0c31a5708b2946838ae6f3ac706b2862c2c4a5438bc",
    "fan-scan --config e36c --samples 40 --seed 1":
        "a6bf1ea2f347615d7bc304b3a04c93899afeccc220cbf2d02c68a18587b72ea4",
    "fan-scan --config h4 --samples 60 --seed 2":
        "89651e626badb09e044e078197e92cf79e73481956c5afbe3b7e440a08058d13",
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
    # ctilde needs n+1 entries, or n with --confluent, all finite
    "ladders --k 2 --n 5 --ctilde=1,2",
    "ladders --k 2 --n 5 --ctilde=1,2,3,4,5,6,7,8",
    "ladders --k 2 --n 5 --confluent --ctilde=1,2,3,4,5,6,7",
    "ladders --k 1 --n 3 --ctilde nan,1,2,3",
    "ladders --k 1 --n 3 --ctilde inf,1,2,3",
    # the log-Gamma table of one series pass has a bounded size: the
    # unimodular simplex (1, 2) of {long} needs 15,999,994 entries at order 8
    "series --config {long} --sigma 1,2 --delta 0.3,0.2 --z 1,1,0.5 "
    "--order 8",
    # the coset table of the volume 2^50 simplex (1, 2) of {wide} holds 10
    # entries at order 9, but C_int w reaches 9 (2^50 - 1) >= 2^53, where a
    # float is no longer exact
    "series --config {wide} --sigma 1,2 --delta 0.3,5.3e14 --z 1,1,0.5 "
    "--order 9",
    # with no column outside sigma, one row of each degree: the M + 1
    # shells are bounded too
    "series --config {q0} --sigma 1,2 --delta 0.3,0.2 --z 1,1 "
    "--order 100000000",
    "series --config {q0} --sigma 1,2 --delta 0.3,0.2 --z 1,1 "
    "--order 100000000000000000000",
    # so does a pass at an order beyond any machine integer, also in the
    # stacked pass of a relation
    "series --config gauss --sigma 1,2,3 --delta 0.377,0.211,0.613 "
    "--z 1,1,1,0.05 --order 100000000000000000000",
    "verify --case phi1 --order 100000000000000000000",
    # a directory as the config, and an --out file that cannot be written
    "fan-scan --config {tmp}",
    "ladders --k 1 --n 3 --out {tmp}/missing/x.json",
])
def test_bad_input_exits_two(capsys, tmp_path, argv):
    configs = {"long": [[], [[0, 1, 10 ** 6]]], "q0": [[], [[0, 1]]],
               "wide": [[], [[0, 2 ** 50, 1]]]}
    for name, blocks in configs.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"k": 1, "n": 1, "blocks": blocks}))
    t0 = time.perf_counter()
    code = cli.main(argv.format(tmp=tmp_path, **{
        name: tmp_path / f"{name}.json" for name in configs}).split())
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("bad")
    assert elapsed < 1.0


@pytest.mark.parametrize("dual", [False, True])
def test_series_at_volume_a_million_tables_its_coset_alone(capsys, tmp_path,
                                                           dual):
    # simplex (1, 2) has volume 10^6: its coset table holds the 9 entries
    # its coset reaches at order 8, not the 8 * 10^6 + 2 of the whole ranges
    blocks = [[], [[0, 10 ** 6, 1]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 1, "n": 1, "blocks": blocks}))
    delta, z = [0.3, 0.2], [1.0, 1.0, 0.5]
    code, out = _run(capsys, ["series", "--config", str(path), "--sigma",
                              "1,2", "--delta", "0.3,0.2", "--z", "1,1,0.5",
                              "--order", "8"] + ["--dual"] * dual)
    assert code == cli.EXIT_OK
    cfg = build_cayley(1, 1, blocks)
    want = series_by_direct_sum(cfg, make_simplex(cfg, (1, 2)), None, z,
                                delta, 8, dual)
    got = complex(*json.loads(out)["value"])
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("argv", [
    # C(404, 4) = 1,093,567,501 exponent vectors, 35 GB as int64, although
    # the log-Gamma table of the pass is small
    "verify --case e36 --order 400",
    # C(59, 30) = 5.9 * 10^16 ladders
    "ladders --k 30 --n 60",
    # one ladder of 10^9 cells
    "ladders --k 0 --n 1000000000",
    # C(447, 2) = 99,681 ladders, under 100,000, but 4.5 * 10^7 cells
    "ladders --k 2 --n 448",
    # one column of 1,415 cells, each summing 1,415 ctilde entries
    pytest.param("ladders --k 1414 --n 1415 --ctilde="
                 + ",".join(["0.5"] * 1416),
                 id="ladders --k 1414 --n 1415 --ctilde=0.5,...,0.5"),
    # one column of 50,000 cells: 2.5 * 10^9 ctilde terms
    pytest.param("ladders --k 49999 --n 50000 --ctilde="
                 + ",".join(["0"] * 50001),
                 id="ladders --k 49999 --n 50000 --ctilde=0,...,0"),
    # C(1999999, 10^6) alone takes half a minute to compute
    "ladders --k 1000000 --n 2000000",
    # C(1502, 2) = 1,127,251 exponent vectors, beyond the 2^20 row bound
    "series --config g1 --sigma 2,3,4 --kvec 1,0 --delta 0.3,0.2,0.6 "
    "--z 1,1,1,1,0.1 --order 1500",
    # the exact identities' cost grows steeply: degree 160 takes about 3.4 s
    "identities --degree 160",
    # a fan-scan draws one lifting per sample, without an end of its own
    "fan-scan --config g1 --samples 100001",
])
def test_oversized_enumerations_exit_two_promptly(capsys, argv):
    t0 = time.perf_counter()
    code = cli.main(argv.split())
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("bad")
    assert elapsed < 1.0


def test_one_long_ladder_runs(capsys):
    # 1,000 cells: a walk with one call per cell would pass the default
    # recursion limit
    code, out = _run(capsys, ["ladders", "--k", "0", "--n", "1000"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["ladders"] == [[[0, j] for j in range(1, 1001)]]


def test_one_long_column_runs_promptly(capsys):
    # 200,000 cells in one column; a grid over all of {0..k} x {0..n}
    # would hold 4 * 10^10 cells
    t0 = time.perf_counter()
    code, out = _run(capsys, ["ladders", "--k", "199999", "--n", "200000"])
    assert code == cli.EXIT_OK and time.perf_counter() - t0 < 10.0
    assert json.loads(out)["ladders"][0][-1] == [0, 200000]


def test_exponents_at_the_term_bound_run(capsys):
    # one column of 1,414 cells sums 1,999,396 ctilde entries, in bound
    code, out = _run(capsys, ["ladders", "--k", "1413", "--n", "1414",
                              "--ctilde=" + ",".join(["0.5"] * 1415)])
    assert code == cli.EXIT_OK
    assert json.loads(out)["exponents"][0]["0,1414"] == 0.5 * 1414


def test_series_below_the_row_bound_runs(capsys):
    # C(1002, 2) = 501,501 exponent vectors, under the 2^20 row bound
    code, out = _run(capsys, ["series", "--config", "g1", "--sigma", "2,3,4",
                              "--kvec", "1,0", "--delta", "0.3,0.2,0.6",
                              "--z", "1,1,1,1,0.1", "--order", "1000"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["terms_summed"] == 250500


@pytest.mark.parametrize("doc", [
    "[]",
    '{"k": "1", "n": 1, "blocks": [[], [[0, 1, 2]]]}',
    '{"k": 1, "n": 1, "blocks": 5}',
    '{"k": 1, "n": 1, "blocks": [[], [0, 1, 2]]}',
    '{"k": 1, "n": 1, "blocks": [[], [[0, 1, 2]]], "c": 5}',
    '{"k": 1, "n": 1, "blocks": [[], [[0, 1, 2]]], "gamma": [["a", "b"]]}',
    # a float or a boolean entry is not read as an integer
    '{"k": 1, "n": 1, "blocks": [[], [[0, 1.5, 2]]]}',
    '{"k": 1, "n": 1, "blocks": [[], [[0, true, 2]]]}',
    '{"k": 1, "n": 1, "blocks": [[], [[0, Infinity, 2]]]}',
    # no column at all
    '{"k": 0, "n": 0, "blocks": [[]]}',
    # a block of fewer than two columns
    '{"k": 1, "n": 1, "blocks": [[], [[]]]}',
])
def test_bad_config_document_exits_two(capsys, recwarn, tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    code = cli.main(["fan-scan", "--config", str(path), "--samples", "5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("bad")
    # outside pytest a warning would print two more stderr lines
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    # a term overflows: z or the imaginary part of delta is too large
    "series --config gauss --sigma 1,2,3 --delta 0.3,0.2,0.6 "
    "--z 1,1,1,1e300 --order 5",
    "series --config gauss --sigma 1,2,3 --delta 0.3+1e300j,0.2,0.6 "
    "--z 1,1,1,0.1 --order 5",
    # one shell is the whole sum, so no series of the relation is trusted
    "verify --case e36 --order 0",
    # an exponent sum overflows, and JSON has no Infinity
    "ladders --k 1 --n 3 --ctilde=1e308,1e308,1e308,1e308",
])
def test_numeric_failure_exits_four(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure")


def test_volume_beyond_int64_is_exact(capsys, tmp_path):
    # det, adj and C_int are Python ints: simplex (1, 2) has volume 2^70,
    # written as a decimal string
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 1, "n": 1,
                                "blocks": [[], [[0, 2 ** 70, 1]]]}))
    code, out = _run(capsys, ["triangulate", "--config", str(path),
                              "--omega", "3,1,7"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["simplices"] == [[1, 2]]
    assert doc["volumes"] == ["1180591620717411303424"]
    code, out = _run(capsys, ["fan-scan", "--config", str(path),
                              "--samples", "20"])
    assert code == cli.EXIT_OK
    assert [(t["simplices"], t["volumes"], t["convergent"], t["unimodular"])
            for t in json.loads(out)["triangulations"]] == [
        ([[1, 3], [2, 3]], [1, "1180591620717411303423"], True, False),
        ([[1, 2]], ["1180591620717411303424"], True, False)]


def test_series_kvec_beyond_int64_names_its_coset(capsys):
    # kvec = (10^20 + 1, 0) lies in the coset of (1, 0) of the volume-2
    # simplex, so the series is the same
    base = ["series", "--config", "g1", "--sigma", "2,3,4",
            "--delta", "0.3,0.2,0.6", "--z", "1,1,1,1,0.1", "--order", "8"]
    code, huge = _run(capsys, base + ["--kvec", "100000000000000000001,0"])
    assert code == cli.EXIT_OK
    assert huge == _run(capsys, base + ["--kvec", "1,0"])[1]


def test_series_at_a_volume_beyond_int64(capsys, tmp_path):
    # r = 2^70: the coset table of each column steps by r from the first
    # K = (C_int k)_i mod r of its range; only w = 0 lies in Lambda_0 at
    # order 0, and no term in Lambda_1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 1, "n": 1,
                                "blocks": [[], [[0, 2 ** 70, 1]]]}))
    base = ["series", "--config", str(path), "--sigma", "1,2",
            "--delta", "0.3,5.3e20", "--z", "1,1,0.5", "--order", "0"]
    terms = []
    for kvec in ("0", "1"):
        cli.main(base + ["--kvec", kvec])
        terms.append(json.loads(capsys.readouterr().out)["terms_summed"])
    assert terms == [1, 0]


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


@pytest.mark.parametrize("seed", ["2048839220", "2072859882"])
def test_verify_phi1_redraws_c_near_a_non_generic_value(capsys, seed):
    # both seeds drew c within 2.3e-7 and 9.8e-8 of g1, so that an entry of
    # A_sigma^{-1} delta lay near an integer and the residual missed tol
    code, out = _run(capsys, ["verify", "--case", "phi1", "--seed", seed])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    g1, g2, c = doc["delta"]
    assert min(abs(c - t) for t in (g1, g1 + g2, g1 + g2 - 1)) >= 5e-4
    assert doc["residual"] < doc["tol"] / 100


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


def _fresh(argv, timeout=None):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-m", "gkzeuler.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:            # argparse rejected the argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_per_process_answers_like_fresh_processes(capsys,
                                                             monkeypatch):
    # the parser is built once per process; a rejected argv must leave it as
    # it was, so every answer matches a new interpreter's
    monkeypatch.setenv("COLUMNS", "80")
    rejected = ["verify", "--case", "nope"]
    valid = ["verify", "--case", "kummer", "--seed", "3"]
    answers = [_in_process(capsys, argv)
               for argv in (rejected, valid, rejected, ["--help"])]
    assert cli.build_parser() is cli.build_parser()
    assert answers[0] == answers[2]
    code, out, err = answers[0]
    assert code == cli.EXIT_BAD_INPUT and out == ""
    assert err.splitlines()[-1].startswith("gkzeuler verify: error:")
    assert answers[1][0] == cli.EXIT_OK and answers[1][2] == ""
    assert answers[3][0] == 0 and answers[3][1].startswith("usage:")
    for argv, answer in zip((rejected, valid, ["--help"]),
                            (answers[0], answers[1], answers[3])):
        assert _fresh(argv) == answer, argv


def test_lattice_check_of_large_entries_ends_promptly(tmp_path):
    # the full-lattice check is one column reduction, so entries that grow
    # under Euclid steps do not stall loading a config
    cases = [
        ({"k": 1, "n": 4, "blocks": [[], [[8, 2, 4, -5, -5, -9, 3],
                                          [-8, 5, -4, 1, -3, -5, -8],
                                          [-4, 7, 5, 3, 4, -5, 9],
                                          [6, -2, 0, -9, 5, 5, 1]]]},
         cli.EXIT_BAD_INPUT,
         "bad input: columns do not span the full lattice\n"),
        ({"k": 1, "n": 3, "blocks": [[], [
            [-320874, 987817, -683647, -171996, 365108],
            [-898737, -848091, 722337, 123826, -802595],
            [-233095, 222195, -878368, 907787, 64169]]]},
         cli.EXIT_OK, ""),
    ]
    for i, (doc, code, err) in enumerate(cases):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(doc))
        answer = _fresh(["fan-scan", "--config", str(path), "--samples", "20"],
                        timeout=20)
        assert (answer[0], answer[2]) == (code, err), i


# the exit code and stderr prefix of every error class main maps
_EXIT_TABLE = [
    (errors.BadDimensions, 2, "bad input"),
    (errors.LatticeNotFull, 2, "bad input"),
    (errors.NotATriangulation, 2, "bad input"),
    (errors.NotConvergent, 2, "bad input"),
    (errors.NotUnimodular, 2, "bad input"),
    (errors.SingularMatrix, 2, "bad input"),
    (KeyError, 2, "bad input"),
    (ValueError, 2, "bad input"),
    (OSError, 2, "bad input"),
    (errors.DegenerateLifting, 3, "degenerate parameters"),
    (errors.DegenerateParameter, 3, "degenerate parameters"),
    (errors.NonGenericParameter, 3, "degenerate parameters"),
    (errors.PoleAtNonpositiveInteger, 3, "degenerate parameters"),
    (errors.SineZero, 3, "degenerate parameters"),
    (errors.UndefinedRatio, 3, "degenerate parameters"),
    (errors.ZeroDenominator, 3, "degenerate parameters"),
    (errors.DivergentTail, 4, "numerical failure"),
    (errors.ExhaustedRetries, 4, "numerical failure"),
    (errors.ScaleTooSmall, 4, "numerical failure"),
    (OverflowError, 4, "numerical failure"),
    (errors.GkzError, 2, "error"),
]


@pytest.mark.parametrize("exc, code, prefix", [
    (ExhaustedRetries("no generic lifting found in 1000 tries"),
     cli.EXIT_NUMERIC, "numerical failure"),
    (UndefinedRatio("Gamma pole at alpha+beta=-2"),
     cli.EXIT_DEGENERATE, "degenerate parameters"),
] + [pytest.param(cls("a message"), code, prefix, id=cls.__name__)
     for cls, code, prefix in _EXIT_TABLE])
def test_exhausted_retries_and_undefined_ratio_exit_codes(capsys, monkeypatch,
                                                          exc, code, prefix):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "enumerate_regular_triangulations", fail)
    assert _in_process(capsys, ["fan-scan", "--config", "g1"]) == \
        (code, "", f"{prefix}: {exc}\n")


def test_exit_table_names_every_error_class():
    # a new error class must take its exit code from a category in the table
    def leaves(cls):
        subs = cls.__subclasses__()
        return set().union(*map(leaves, subs)) if subs else {cls}

    assert leaves(errors.GkzError) <= {cls for cls, _, _ in _EXIT_TABLE}


# runs each argv of sys.argv[1] through cli.main in order; prints, per argv,
# the exit code and whether scipy has been imported by then
_SCIPY_PROBE = """
import contextlib, io, json, sys
from gkzeuler import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([cli.main(argv), "scipy" in sys.modules])
print(json.dumps(seen))
"""


def test_only_the_series_commands_load_scipy():
    # the exact commands never import scipy; the first Gamma evaluation does
    exact = [["triangulate", "--config", "gamma2", "--omega", "7,1,2,5"],
             ["fan-scan", "--config", "e36c", "--samples", "20"],
             ["ladders", "--k", "2", "--n", "5", "--ctilde=1,2,3,4,5,6"],
             ["identities", "--degree", "6"]]
    series = ["series", "--config", "gauss", "--sigma", "1,2,3",
              "--delta", "0.377,0.211,0.613", "--z", "1,1,1,0.05",
              "--order", "12"]
    verify = ["verify", "--case", "gauss"]
    env = dict(os.environ, PYTHONPATH=_SRC)
    for last in (series, verify):
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, json.dumps(exact + [last])],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, False]] * 4 + [[0, True]]


# the entries of the property test's number lists: the plain ones let a
# request through to the computation, the others probe the input checks
_PLAIN = ["2", "3", "0.3", "0.61", "0.17"]
_ANY = _PLAIN + ["0", "1", "-1", "1e300", "1e-300", "nan", "inf", "-inf", "",
                 str(10 ** 20)]
_CONFIGS = registry_names() + ["nosuchconfig"]


def _entries(size, pool):
    return st.lists(st.sampled_from(pool), min_size=size,
                    max_size=size).map(",".join)


def _numbers(size, plain):
    """A list of `size` plain entries; unless `plain`, also a list of `size`
    entries of any kind, or a list of another length."""
    if plain:
        return _entries(size, _PLAIN)
    return st.one_of(_entries(size, _PLAIN), _entries(size, _ANY),
                     st.integers(0, 6).flatmap(lambda n: _entries(n, _ANY)))


def _ints(size, low, high, plain):
    """`size` integers in [low, high]; unless `plain`, also _numbers(size)."""
    exact = st.lists(st.integers(low, high), min_size=size,
                     max_size=size).map(lambda v: ",".join(map(str, v)))
    return exact if plain else st.one_of(exact, _numbers(size, plain))


def _sigma(d, N, plain):
    """A d-subset of 1..N; unless `plain`, also _numbers(d)."""
    subset = st.permutations(range(1, N + 1)).map(
        lambda p: ",".join(map(str, sorted(p[:d]))))
    return subset if plain else st.one_of(subset, _numbers(d, plain))


@st.composite
def _argv(draw):
    """An argv that argparse accepts, every value given as --flag=value;
    half of them carry only plain numbers, so that they reach the
    computation."""
    command = draw(st.sampled_from(["triangulate", "fan-scan", "ladders",
                                    "series", "verify", "identities"]))
    name = draw(st.sampled_from(_CONFIGS))
    d, N = (get_config(name).d, get_config(name).N) \
        if name in registry_names() else (3, 4)
    plain = draw(st.booleans())
    small = st.integers(-1, 3)
    if command == "triangulate":
        args = [f"--config={name}", f"--omega={draw(_ints(N, -3, 20, plain))}"]
    elif command == "fan-scan":
        args = [f"--config={name}", f"--samples={draw(small)}"]
    elif command == "ladders":
        n = draw(st.one_of(st.integers(1, 5),
                           st.sampled_from([999, 1000, 10 ** 9])))
        # k = 0 and k = n - 1 give one ladder of n cells
        k = draw(st.one_of(st.sampled_from([0, n - 1, n]), st.integers(0, n)))
        confluent = draw(st.booleans())
        args = [f"--k={k}", f"--n={n}"] + (["--confluent"] if confluent
                                           else [])
        if draw(st.booleans()):
            # at most 6 entries: a --ctilde is drawn whole for n <= 5 only,
            # as a strategy cannot draw 1,000 entries; at n >= 999 it has
            # the wrong length and exits 2 after the ladders are listed
            size = min(n if confluent else n + 1, 6)
            args.append(f"--ctilde={draw(_numbers(size, plain))}")
    elif command == "series":
        args = [f"--config={name}", f"--sigma={draw(_sigma(d, N, plain))}",
                f"--delta={draw(_numbers(d, plain))}",
                f"--z={draw(_numbers(N, plain))}",
                f"--order={draw(st.integers(-1, 6))}"]
        if draw(st.booleans()):
            args.append(f"--kvec={draw(_ints(N - d, 0, 2, plain))}")
        if draw(st.booleans()):
            args.append("--dual")
    elif command == "verify":
        args = [f"--case={draw(st.sampled_from(case_names()))}",
                f"--order={draw(st.integers(-1, 8))}"]
    else:
        args = [f"--degree={draw(small)}"]
    seed = draw(st.sampled_from([0, 1, 7, 10 ** 20]))
    return [command, *args, f"--seed={seed}"]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argv=_argv())
def test_every_argv_keeps_the_output_contract(argv):
    # one JSON line on stdout and nothing on stderr, or nothing on stdout
    # and one line on stderr; a warning would print more stderr lines
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if out:
        assert code in (cli.EXIT_OK, cli.EXIT_RESIDUAL, cli.EXIT_NUMERIC)
        assert out.count("\n") == 1 and out.endswith("\n") and err == ""
        _strict_json(out)
    else:
        assert code in (cli.EXIT_BAD_INPUT, cli.EXIT_DEGENERATE,
                        cli.EXIT_NUMERIC)
        assert err.count("\n") == 1 and err.endswith("\n")

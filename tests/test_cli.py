"""Command-line interface: outputs, formats, exit codes, round-trips."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from ffba.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from ffba.indices import MAX_J_CUTOFF

THETA = "frac=periodic:[0,1]|[0]"
GAMMA = "frac=periodic:[1,0,1]|[0]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# construction and verification
# ---------------------------------------------------------------------------

def test_gamma_worked_example(capsys):
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA,
                         "--ell", "1")
    assert code == EXIT_OK
    assert doc["gamma_prefix"] == [1, 0, 1]
    assert doc["policy"] == "lexmin"
    assert doc["truncated"] is False
    assert [s["i"] for s in doc["stages"]] == [1, 3]
    assert doc["stages"][1]["b"] == [0, 0, 1]


def test_gamma_seeded_policy(capsys):
    code, doc = run_json(capsys, "gamma", "--q", "5",
                         "--theta", "frac=periodic:[0,1,2,3]|[1]",
                         "--ell", "2", "--policy", "seeded-random",
                         "--seed", "7")
    assert code == EXIT_OK and doc["policy"] == "seeded-random:7"
    code2, doc2 = run_json(capsys, "gamma", "--q", "5",
                           "--theta", "frac=periodic:[0,1,2,3]|[1]",
                           "--ell", "2", "--policy", "seeded-random",
                           "--seed", "7")
    assert doc2["gamma_prefix"] == doc["gamma_prefix"]


def test_gamma_seed_implies_seeded_policy(capsys):
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA,
                         "--ell", "1", "--seed", "3")
    assert code == EXIT_OK and doc["policy"] == "seeded-random:3"


def test_verify_worked_example(capsys):
    code, doc = run_json(capsys, "verify", "--q", "2", "--theta", THETA,
                         "--gamma", GAMMA, "--max-deg", "8")
    assert code == EXIT_OK
    assert doc["value"] == {"exp": -2}
    assert doc["witness"] == [0, 1]
    assert doc["precision_limited"] is False


def test_verify_expectation_gates_exit_code(capsys):
    ok, _, _ = run(capsys, "verify", "--q", "2", "--theta", THETA,
                   "--gamma", GAMMA, "--max-deg", "8", "--expect-exp", "-2")
    assert ok == EXIT_OK
    bad, _, _ = run(capsys, "verify", "--q", "2", "--theta", THETA,
                    "--gamma", GAMMA, "--max-deg", "8", "--expect-exp", "-3")
    assert bad == EXIT_VERIFY
    low, _, _ = run(capsys, "verify", "--q", "2", "--theta", THETA,
                    "--gamma", GAMMA, "--max-deg", "8", "--min-exp", "-2")
    assert low == EXIT_OK
    high, _, _ = run(capsys, "verify", "--q", "2", "--theta", THETA,
                     "--gamma", GAMMA, "--max-deg", "8", "--min-exp", "-1")
    assert high == EXIT_VERIFY


def test_witness_exit_codes(capsys):
    code, doc = run_json(capsys, "witness", "--q", "2", "--theta", THETA,
                         "--gamma", GAMMA)
    assert code == EXIT_OK and doc["found"] and doc["witness"] == [0, 1]
    code, _, _ = run(capsys, "witness", "--q", "2",
                     "--theta", "frac=periodic:[]|[0]",
                     "--gamma", "frac=periodic:[1]|[0]")
    assert code == EXIT_VERIFY


# ---------------------------------------------------------------------------
# inspection commands
# ---------------------------------------------------------------------------

def test_expand_reports_period(capsys):
    code, doc = run_json(capsys, "expand", "--q", "3", "--num", "[1]",
                         "--den", "[2,1]", "--prec", "6")
    assert code == EXIT_OK
    assert doc["frac_prefix"] == [1] * 6
    assert (doc["preperiod"], doc["period"]) == (0, 1)
    assert doc["text"] == "q=3; frac=rational:[1]/[2,1]"


def test_expand_reports_a_large_period(capsys):
    # x^20 + x^3 + 1 is primitive over F_2
    den = [1, 0, 0, 1] + [0] * 16 + [1]
    code, doc = run_json(capsys, "expand", "--q", "2", "--num", "[1]",
                         "--den", json.dumps(den), "--prec", "4")
    assert code == EXIT_OK
    assert (doc["preperiod"], doc["period"]) == (0, 2 ** 20 - 1)


def test_expand_refuses_a_period_search_past_the_cap(capsys):
    """A full search at deg 60 over F_2 would need 2^30 baby steps; the
    search looks only for periods up to the cap, with a table of about a
    thousand remainders, and refuses when none turns up."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "expand", "--q", "2", "--num", "[1]",
                             "--den", json.dumps([1, 1] + [0] * 58 + [1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE and out == "" and peak < 2 ** 22
    assert err.startswith("ffba: error:") and "Traceback" not in err


def test_hankel_matrix_and_rank(capsys):
    code, doc = run_json(capsys, "hankel", "--q", "2", "--theta", THETA,
                         "--rows", "3", "--cols", "3")
    assert code == EXIT_OK
    assert doc["matrix"] == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    assert doc["rank"] == 2 and doc["block_heights"] == [3]


def test_indices_text_contains_walk(capsys):
    code, out, _ = run(capsys, "indices", "--q", "2", "--theta", THETA,
                       "--ell", "1")
    assert code == EXIT_OK
    assert "m=1, i=3, j=2" in out
    assert 'rationality: "rational_certified"' in out


def test_m0_depth_flag(capsys):
    code, doc = run_json(capsys, "m0", "--q", "2", "--theta", THETA,
                         "--depth", "8")
    assert code == EXIT_OK
    assert doc["m0"] == 1 and doc["violation"] == [1, 2]
    assert len(doc["spectrum"]) == 8


def test_liminf_theta_meets_k(capsys):
    code, doc = run_json(capsys, "liminf-theta", "--q", "2", "--k", "3")
    assert code == EXIT_OK
    assert doc["ones_at"] == [2, 6, 14]
    assert doc["meets_k"] is True
    assert doc["alternations"][:2] == [[1, 2], [3, 4]]
    code, _, _ = run(capsys, "liminf-theta", "--q", "2", "--k", "9",
                     "--prec", "6")
    assert code == EXIT_VERIFY


def test_measure_exact_fraction(capsys):
    code, doc = run_json(capsys, "measure", "--q", "2", "--ell", "2",
                         "--ellp", "1", "--stages", "5")
    assert code == EXIT_OK
    assert (doc["measure_num"], doc["measure_den"]) == (1, 32)


def test_dimension_limit_and_finite(capsys):
    code, out, _ = run(capsys, "dimension", "--q", "2", "--ell", "2")
    assert code == EXIT_OK and "bound: 0.5" in out
    code, doc = run_json(capsys, "dimension", "--q", "2", "--ell", "2",
                         "--stages", "1000")
    assert code == EXIT_OK
    assert abs(doc["bound"] - 0.5) < 1e-12
    assert abs(doc["finite_stage_bound"] - (1 - 1001 / 2000)) < 1e-12
    assert doc["measure_num"] == 1 and doc["measure_den"] == 2 ** 1000


def test_weights_table(capsys):
    code, doc = run_json(capsys, "weights", "--d", "2", "--weight",
                         "r:1/3,2/3", "--h-max", "6")
    assert code == EXIT_OK
    evals = [row["eval"] for row in doc["table"]]
    assert evals[0] == [0, 0] and evals[6] == [2, 4]
    assert doc["deviation"]["lo"] == [-1, 3]


# ---------------------------------------------------------------------------
# certificate round-trips
# ---------------------------------------------------------------------------

def test_certificate_check_roundtrip_file(tmp_path, capsys):
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA,
                         "--ell", "1")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_OK and out["ok"] is True
    assert all(c["ok"] for c in out["checks"])


def test_certificate_check_stdin(tmp_path, capsys, monkeypatch):
    import io
    import sys
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA,
                         "--ell", "1")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run_json(capsys, "certificate-check", "--file", "-")
    assert code == EXIT_OK and out["ok"] is True


def test_certificate_check_flags_tampering(tmp_path, capsys):
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA,
                         "--ell", "1")
    doc["gamma_prefix"][0] = 0
    doc["stages"][0]["gamma_digits"] = [0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_VERIFY and out["ok"] is False
    assert any(not c["ok"] for c in out["checks"])


def test_certificate_check_rejects_lowered_ell(tmp_path, capsys):
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA,
                         "--ell", "1")
    doc["ell"] = 0
    path = tmp_path / "ell0.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_VERIFY and out["ok"] is False
    assert {"name": "stage0_i_bound", "ok": False,
            "detail": "i=1, previous j 0, ell=0"} in out["checks"]


def test_huge_field_orders_are_usage_errors(tmp_path, capsys):
    """A field order past the supported maximum, on the command line or in
    a certificate document, is refused before it is factored."""
    q = str(2 ** 61 - 1)
    code, out, err = run(capsys, "expand", "--q", q, "--num", "[1]", "--den", "[1,1]")
    assert code == EXIT_USAGE and "outside supported range" in err
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA, "--ell", "1")
    doc["q"] = int(q)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_USAGE and "malformed field" in err


@pytest.mark.parametrize("extra", [2, 5])
def test_certificate_check_fails_a_width_past_theta_data(tmp_path, capsys, extra):
    golden = Path(__file__).with_name("golden_certificates.json")
    doc = next(c["certificate"] for c in json.loads(golden.read_text())
               if c["label"] == "d=2 q=2 r:1/3,2/3 seeded-random")
    doc["stages"][-1]["width"] += extra
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_VERIFY and out["ok"] is False
    failed = [c for c in out["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == [f"stage{len(doc['stages']) - 1}_row_shape"]
    assert "past theta's data" in failed[0]["detail"]


def _b_out_of_range(doc):
    doc["stages"][0]["b"] = [3]


def _digit_out_of_range(doc):
    doc["gamma_prefix"][0] = 3
    doc["stages"][0]["gamma_digits"] = [3]


def _width_missing(doc):
    del doc["stages"][0]["width"]


def _ell_not_int(doc):
    doc["ell"] = "1"


def _d_disagrees(doc):
    doc["d"] = 2


def _unknown_status(doc):
    doc["stages"][0]["status"] = "bogus"


def _zero_denominator(doc):
    doc["theta"][0]["frac"] = {"kind": "rational", "num": [1], "den": [0]}


def _weight_zero_denominator(doc):
    doc["weight"] = {"kind": "real", "d": 1, "r": [[1, 0]]}


def _theta_not_an_object(doc):
    doc["theta"] = [[0]]


def _frac_not_an_object(doc):
    doc["theta"][0]["frac"] = 3


@pytest.mark.parametrize("mutate", [_b_out_of_range, _digit_out_of_range,
                                    _width_missing, _ell_not_int, _d_disagrees,
                                    _unknown_status, _zero_denominator,
                                    _weight_zero_denominator, _theta_not_an_object,
                                    _frac_not_an_object])
def test_certificate_check_rejects_malformed_input(tmp_path, capsys, mutate):
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA,
                         "--ell", "1")
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("ffba: error:") and "Traceback" not in err


@pytest.mark.parametrize("modulus", [[1.0, 0, 1], [1, 0, True], [1, 0, "1"]])
def test_certificate_check_refuses_a_modulus_of_non_ints(tmp_path, capsys, modulus):
    golden = Path(__file__).with_name("golden_certificates.json")
    doc = next(c["certificate"] for c in json.loads(golden.read_text())
               if c["label"] == "window q=9 lexmin")
    path = tmp_path / "modulus.json"
    path.write_text(json.dumps({**doc, "modulus": modulus}))
    code, out, err = run(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert "malformed field" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "expand", "--q", "6", "--num", "[1]",
                       "--den", "[0,1]")
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run(capsys, "verify", "--q", "2", "--theta",
                       "q=3; frac=[1]", "--gamma", GAMMA, "--max-deg", "2")
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run(capsys, "certificate-check", "--file",
                       "/nonexistent/cert.json")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["hankel", "--q", "2", "--theta", "frac=[5,1,0,1]", "--rows", "2", "--cols", "2"],
    ["measure", "--q", "1", "--ell", "1", "--stages", "2"],
    ["dimension", "--q", "1", "--ell", "2"],
    ["verify", "--q", "2", "--theta", THETA, "--gamma", GAMMA, "--max-deg", "-3"],
    ["hankel", "--q", "2", "--theta", "frac=rational:[1]/[0]", "--rows", "2", "--cols", "2"],
    ["weights", "--d", "2", "--weight", "r:1/0,1"],
])
def test_out_of_range_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("ffba: error:") and "Traceback" not in err


@pytest.mark.parametrize("key, code", [("i", EXIT_VERIFY), ("width", EXIT_USAGE)])
def test_certificate_check_refuses_huge_extents_quickly(tmp_path, capsys, key, code):
    """A huge i fails the row shape check before the weight is evaluated
    there; a width past the j_cutoff cap is a malformed document."""
    _, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA, "--ell", "1")
    doc["stages"][-1][key] = 10 ** 9
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, "certificate-check", "--file", str(path))
    assert got == code and "Traceback" not in err


def test_j_cutoff_above_the_verifier_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "gamma", "--q", "2", "--theta", THETA, "--ell", "1",
                         "--j-cutoff", str(MAX_J_CUTOFF + 1))
    assert code == EXIT_USAGE and out == "" and err.startswith("ffba: error:")
    code, _, _ = run(capsys, "gamma", "--q", "2", "--theta", THETA, "--ell", "1",
                     "--j-cutoff", str(MAX_J_CUTOFF))
    assert code == EXIT_OK


def test_argparse_usage_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--q", "2", "--theta", THETA])   # missing --ell
    assert exc.value.code == EXIT_USAGE


def test_text_format_is_default(capsys):
    code, out, _ = run(capsys, "measure", "--q", "2", "--ell", "2",
                       "--stages", "3")
    assert code == EXIT_OK
    assert "measure_num: 1" in out and "measure_den: 8" in out


def test_repeated_calls_share_no_parsed_state(capsys):
    """main builds its parser once; appended --theta/--gamma lists and
    option defaults must still start afresh on every call."""
    two = ("--theta", THETA, "--theta", "frac=periodic:[1]|[0,1]")
    code, doc = run_json(capsys, "gamma", "--q", "2", *two, "--weight", "equal",
                         "--ell", "1", "--seed", "3")
    assert code == EXIT_OK and doc["d"] == 2 and doc["policy"] == "seeded-random:3"
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA, "--ell", "1")
    assert code == EXIT_OK and doc["d"] == 1 and doc["policy"] == "lexmin"
    assert doc["gamma_prefix"] == [1, 0, 1]
    code, doc = run_json(capsys, "verify", "--q", "2", *two, "--gamma", GAMMA,
                         "--gamma", "frac=[1]", "--max-deg", "4")
    assert code == EXIT_OK and len(doc["scan_caps"]) == 2
    code, doc = run_json(capsys, "verify", "--q", "2", "--theta", THETA,
                         "--gamma", GAMMA, "--max-deg", "8")
    assert code == EXIT_OK and doc["value"] == {"exp": -2} and doc["witness"] == [0, 1]
    code, out, _ = run(capsys, "measure", "--q", "2", "--ell", "2", "--stages", "3")
    assert code == EXIT_OK and "measure_den: 8" in out      # text is the default again


def test_certificate_check_states_the_proved_bound(tmp_path, capsys):
    """t^-2 has c = q^-2: an ok report states bound_exponent -(1 + ell) in
    JSON and text; a failing mutant states no bound."""
    code, doc = run_json(capsys, "gamma", "--q", "2", "--theta", THETA, "--ell", "1")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_OK and out["bound_exponent"] == -2
    code, text, _ = run(capsys, "certificate-check", "--file", str(path))
    assert "bound_exponent: -2" in text.splitlines()
    doc["stages"][1]["b"] = [1, 0, 1]
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "certificate-check", "--file", str(path))
    assert code == EXIT_VERIFY and "bound_exponent" not in out
    code, text, _ = run(capsys, "certificate-check", "--file", str(path))
    assert "bound_exponent" not in text

"""Command-line interface: output shapes and exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

import anthyphairesis
from anthyphairesis import check, from_document, parse
from anthyphairesis.cli import run
from conftest import DIGIT_LIMIT

needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int/str digit limit here")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("ANTH_MAX_STEPS", raising=False)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_json(out):
    def reject_float(_):
        raise AssertionError("float literal in CLI JSON output")

    return json.loads(out, parse_float=reject_float)


# --- anth ---------------------------------------------------------------------


def test_anth_nonsquare(capsys):
    code, out, _ = run_cli(capsys, "anth", "17")
    assert code == 0
    assert "sqrt(17) = [4; (8)]" in out
    assert "incommensurable" in out
    assert "preperiod 1, period 1" in out


def test_anth_square(capsys):
    code, out, _ = run_cli(capsys, "anth", "16")
    assert code == 0
    assert "sqrt(16) = 4 = [4]" in out
    assert "commensurable" in out
    assert "1 division" in out and "1 divisions" not in out


def test_anth_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "anth", "13", "--json")
    assert code == 0
    cert = parse(out)
    assert check(cert)
    doc = load_json(out)
    assert doc["kind"] == "periodic_anth"
    assert doc["C"] == "13"
    assert doc["period_quotients"] == ["1", "1", "1", "1", "6"]


def test_anth_square_json(capsys):
    code, out, _ = run_cli(capsys, "anth", "16", "--json")
    assert code == 0
    doc = load_json(out)
    assert doc["kind"] == "finite_anth"
    assert (doc["m"], doc["n"]) == ("4", "1")
    assert check(parse(out))


def test_anth_invalid_input(capsys):
    code, _, err = run_cli(capsys, "anth", "-5")
    assert code == 2
    assert "error" in err.lower()


# --- pair / gcd -----------------------------------------------------------------


def test_pair_text(capsys):
    code, out, _ = run_cli(capsys, "pair", "17", "5")
    assert code == 0
    assert "[3; 2, 2]" in out
    assert "ratio 17 : 5" in out


def test_pair_fractions(capsys):
    code, out, _ = run_cli(capsys, "pair", "17/4", "3/4")
    assert code == 0
    assert "ratio 17 : 3" in out


def test_pair_json(capsys):
    code, out, _ = run_cli(capsys, "pair", "17", "5", "--json")
    assert code == 0
    doc = load_json(out)
    assert (doc["m"], doc["n"]) == ("17", "5")
    assert doc["quotients"] == ["3", "2", "2"]


def test_pair_rejects_bad_input(capsys):
    assert run_cli(capsys, "pair", "3", "5")[0] == 2
    assert run_cli(capsys, "pair", "5", "5")[0] == 2
    assert run_cli(capsys, "pair", "abc", "5")[0] == 2
    assert run_cli(capsys, "pair", "5", "0")[0] == 2


def test_gcd_plain(capsys):
    code, out, _ = run_cli(capsys, "gcd", "170", "50")
    assert code == 0
    assert "gcd(170, 50) = 10" in out


def test_gcd_trace(capsys):
    code, out, _ = run_cli(capsys, "gcd", "170", "50", "--trace")
    assert code == 0
    assert "170 = 3*50 + 20" in out
    assert "50 = 2*20 + 10" in out
    assert "20 = 2*10" in out
    assert "gcd(170, 50) = 10" in out


def test_gcd_zero_argument(capsys):
    code, out, _ = run_cli(capsys, "gcd", "0", "7")
    assert code == 0
    assert "= 7" in out
    assert run_cli(capsys, "gcd", "0", "0")[0] == 2
    assert run_cli(capsys, "gcd", "7", "7", "--trace")[0] == 2


def test_gcd_json(capsys):
    code, out, _ = run_cli(capsys, "gcd", "170", "50", "--json")
    assert code == 0
    cert = parse(out)
    assert check(cert)
    assert load_json(out)["gcd"] == "10"


# --- convergents -------------------------------------------------------------------


def test_convergents_text(capsys):
    code, out, _ = run_cli(capsys, "convergents", "2", "-n", "4")
    assert code == 0
    assert "17/12" in out
    lines = out.strip().splitlines()
    assert lines[-1].split()[-1] == "1"  # pell residual of 17/12


def test_convergents_json(capsys):
    code, out, _ = run_cli(capsys, "convergents", "2", "-n", "4", "--json")
    assert code == 0
    doc = load_json(out)
    assert doc["quotients"] == ["1", "2", "2", "2"]
    last = doc["convergents"][-1]
    assert (last["p"], last["q"], last["pell_residual"]) == ("17", "12", "1")


def test_convergents_finite_expansion(capsys):
    code, out, _ = run_cli(capsys, "convergents", "16", "-n", "10")
    assert code == 0
    assert "only 1 convergent exists" in out
    assert "4/1" in out


def test_convergents_bad_count(capsys):
    assert run_cli(capsys, "convergents", "2", "-n", "0")[0] == 2


def test_convergents_reads_only_the_quotients_it_shows(capsys, monkeypatch):
    # sqrt(10^2001 + 1) has a period far past the budget; six quotients need no search
    monkeypatch.setenv("ANTH_MAX_STEPS", "1000")
    code, out, _ = run_cli(capsys, "convergents", "1" + "0" * 2000 + "1", "-n", "6")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]
    for row in rows:
        p = row.split()[1].split("/")[0]
        assert 1001 <= len(p) <= 1003


# --- certify / check ----------------------------------------------------------------


def test_certify_anth(capsys):
    code, out, _ = run_cli(capsys, "certify", "17", "--method", "anth")
    assert code == 0
    assert "proved" in out


def test_certify_residue_inconclusive_is_exit_1(capsys):
    code, out, _ = run_cli(capsys, "certify", "17", "--method", "residue")
    assert code == 1
    assert "inconclusive (8k+1)" in out


def test_certify_residue_json_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "certify", "17", "--method", "residue", "--json")
    assert code == 1
    doc = load_json(out)
    assert doc["status"] == "inconclusive"
    assert doc["reason"] == "8k+1"


def test_certify_residue_proved(capsys):
    code, out, _ = run_cli(capsys, "certify", "12", "--method", "residue", "--json")
    assert code == 0
    cert = parse(out)
    assert check(cert)
    assert load_json(out)["class_label"] == "4n"


def test_certify_parity(capsys):
    assert run_cli(capsys, "certify", "8", "--method", "parity")[0] == 0
    code, out, _ = run_cli(capsys, "certify", "7", "--method", "parity")
    assert code == 0  # not applicable is not a failure
    assert "n/a" in out


def test_certify_square_residue_is_domain_error(capsys):
    assert run_cli(capsys, "certify", "16", "--method", "residue")[0] == 2


def test_certify_oracle(capsys):
    code, out, _ = run_cli(capsys, "certify", "17", "--method", "oracle")
    assert code == 0 and "yes" in out
    code, out, _ = run_cli(capsys, "certify", "16", "--method", "oracle")
    assert code == 0 and "no" in out


def test_check_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "anth", "13", "--json")
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert out.startswith("OK")


def test_check_tampered_certificate(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "anth", "13", "--json")
    doc = json.loads(out)
    doc["period_quotients"][0] = "2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "FAIL" in err


def test_check_unparseable_certificate(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"kind": "parity"', encoding="utf-8")
    assert run_cli(capsys, "check", str(path))[0] == 2
    assert run_cli(capsys, "check", str(tmp_path / "missing.json"))[0] == 2


def test_check_deeply_nested_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: not valid JSON: nested too deeply\n"


def test_check_non_utf8_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "caf\xe9"}')
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


@needs_digit_limit
def test_check_numeral_past_the_digit_limit_is_exit_2(tmp_path, capsys):
    doc = load_json(run_cli(capsys, "pair", "17", "5", "--json")[1])
    doc["m"] = "1" + "0" * DIGIT_LIMIT
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: m: ")


@needs_digit_limit
def test_integers_too_long_for_text_are_exit_2(capsys):
    big = str(10 ** (DIGIT_LIMIT - 1))  # parses, but its square is too long to print
    k = DIGIT_LIMIT // 2 - 1  # sqrt(10^2k + 1) = [10^k; (2*10^k)]: p gains k digits a step
    for argv in (
        ("pair", big, f"1/{big}"),
        ("pair", big, f"1/{big}", "--json"),
        ("convergents", str(10 ** (2 * k) + 1), "-n", "6"),
        ("convergents", str(10 ** (2 * k) + 1), "-n", "6", "--json"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv[0]
        assert out == ""
        assert err.startswith("error: ")


@needs_digit_limit
def test_pair_operand_past_the_digit_limit_is_named_not_echoed(capsys):
    operand = "1" + "0" * DIGIT_LIMIT
    code, out, err = run_cli(capsys, "pair", operand, "3")
    assert code == 2
    assert out == ""
    assert err == (
        f"error: operand of {len(operand)} characters is past the {DIGIT_LIMIT}-digit "
        "limit for integer string conversion\n"
    )


# --- table -----------------------------------------------------------------------


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "3", "--to", "17", "--json")
    assert code == 0
    doc = load_json(out)
    assert len(doc["rows"]) == 15
    by_c = {row["C"]: row for row in doc["rows"]}
    assert by_c["17"]["residue"]["status"] == "inconclusive"
    assert by_c["8"]["parity"]["status"] == "proved"
    assert by_c["16"]["is_square"] is True
    for row in doc["rows"]:
        cert = from_document(row["certificate"])
        assert check(cert)
        if not row["is_square"]:
            assert row["verdict"] == "incommensurable"
            assert row["expansion"]["preperiod_len"] == "1"


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "--from", "2", "--to", "17")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 17  # header + 16 rows
    assert lines[0].split()[:3] == ["C", "expansion", "verdict"]
    seventeen = [l for l in lines if l.startswith("17")][0]
    assert "[4; (8)]" in seventeen
    assert "inconclusive (8k+1)" in seventeen


def test_table_text_and_json_agree(capsys):
    _, text_out, _ = run_cli(capsys, "table", "--from", "2", "--to", "17")
    _, json_out, _ = run_cli(capsys, "table", "--from", "2", "--to", "17", "--json")
    rows = load_json(json_out)["rows"]
    for row in rows:
        quots = [int(q) for q in row["expansion"]["quotients"]]
        if row["expansion"]["periodic"]:
            pre = int(row["expansion"]["preperiod_len"])
            per = ", ".join(str(q) for q in quots[pre : pre + int(row["expansion"]["period_len"])])
            head = ", ".join(str(q) for q in quots[:pre])
            shown = f"[{head}; ({per})]"
        else:
            shown = f"[{quots[0]}]" if len(quots) == 1 else None
        if shown is not None:
            assert shown in text_out


def test_table_bad_range(capsys):
    assert run_cli(capsys, "table", "--from", "5", "--to", "4")[0] == 2
    assert run_cli(capsys, "table", "--from", "1", "--to", "4")[0] == 2


# --- budget and argument errors ------------------------------------------------------


def test_budget_env_exhaustion_is_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("ANTH_MAX_STEPS", "2")
    assert run_cli(capsys, "anth", "13")[0] == 3


def test_budget_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("ANTH_MAX_STEPS", "abc")
    assert run_cli(capsys, "anth", "13")[0] == 2
    monkeypatch.setenv("ANTH_MAX_STEPS", "0")
    assert run_cli(capsys, "anth", "13")[0] == 2
    monkeypatch.setenv("ANTH_MAX_STEPS", "1000")
    assert run_cli(capsys, "anth", "13")[0] == 0


def test_argparse_errors_are_exit_2(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "certify", "17")[0] == 2  # --method is required


def test_help_is_exit_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "anthyphairesis", "anth", "17"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "incommensurable" in proc.stdout


def run_module(*argv):
    # the installed package layout is not assumed: point the child at this source tree
    src = os.path.dirname(os.path.dirname(anthyphairesis.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "anthyphairesis", *argv], capture_output=True, text=True, env=env
    )


def test_module_entry_point_gcd_check_and_bad_argument(tmp_path):
    proc = run_module("gcd", "170", "50")
    assert (proc.returncode, proc.stdout) == (0, "gcd(170, 50) = 10\n")
    proc = run_module("anth", "13", "--json")
    assert proc.returncode == 0
    path = tmp_path / "c.json"
    path.write_text(proc.stdout, encoding="utf-8")
    proc = run_module("check", str(path))
    assert proc.returncode == 0 and proc.stdout.startswith("OK")
    proc = run_module("gcd", "170", "fifty")
    assert proc.returncode == 2 and "invalid int value" in proc.stderr

import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from pisotcoding.cli import (
    EXIT_MATH,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    main,
    parse_element,
    parse_matrix,
    parse_poly,
)
import pisotcoding.cli as cli
import pisotcoding.forms as forms
from pisotcoding.errors import ConvergenceFailure, CounterexampleFound
from pisotcoding.numberfield import make_field


class TestParsers:
    def test_poly_klist(self):
        assert parse_poly("1,1") == (1, 1)
        assert parse_poly("3,-1") == (3, -1)

    def test_poly_string(self):
        assert parse_poly("x^2-x-1") == (1, 1)
        assert parse_poly("x^3 - 3x^2 - 4x - 1") == (3, 4, 1)
        assert parse_poly("x^4-x^3-1") == (1, 0, 0, 1)

    def test_poly_string_requires_monic(self):
        with pytest.raises(ValueError):
            parse_poly("2x^2-x-1")

    def test_matrix(self):
        assert parse_matrix("1,1/1,0") == ((1, 1), (1, 0))

    def test_element_grammar(self, golden):
        assert parse_element(golden, "1-1/b") == golden.one - golden.pow_beta(-1)
        assert parse_element(golden, "(-1+2*b)/5") == golden.xi0
        assert parse_element(golden, "b^-2") == golden.pow_beta(-2)
        assert parse_element(golden, "beta^2 - beta - 1") == golden.zero
        assert parse_element(golden, "3/7") == golden.from_rational(3) / 7

    def test_element_errors(self, golden):
        with pytest.raises(ValueError):
            parse_element(golden, "b +")
        with pytest.raises(ValueError):
            parse_element(golden, "q")


class TestCommands:
    def test_field_golden(self, capsys):
        assert main(["field", "1,1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(-1 + 2*b)/5" in out
        assert "D = N(g'(beta)) = -5" in out

    def test_field_degree_8(self, capsys):
        assert main(["field", "1,1,1,1,1,1,1,1"]) == EXIT_OK

    def test_field_unit_check(self, capsys):
        assert main(["field", "3,4,1", "--unit", "3+1/b", "--unit", "b"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("True") >= 2

    def test_expand_purely_periodic(self, capsys):
        assert main(["expand", "3,-1", "1-1/b"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "|1"

    def test_zbeta_count(self, capsys):
        assert main(["--json", "zbeta", "1,0,0,1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["count"] == 6

    def test_form_with_search(self, capsys):
        assert main(["--json", "form", "1,1,0/2,3,1/1,1,1", "--search", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["k"] == [5, -4, 1]
        assert [1, 0, 0] in [s["n"] for s in doc["result"]["solutions"]]
        assert doc["result"]["certificate"] is not None

    def test_form_classify_without_proof_is_unknown(self, capsys):
        # f = -2x^2 + 5y^2 takes no value +-1 up to height 20, but the search
        # alone proves nothing, and the power factor of n = 1 is 1
        argv = ["--json", "form", "3,5/2,3", "--search", "20", "--classify", "1"]
        assert main(argv) == EXIT_OK
        cls = json.loads(capsys.readouterr().out)["result"]["classification"]
        assert (cls["status"], cls["nn"]) == ("unknown", 1)
        assert cls["reason"] == "no unimodular form value found up to height 20"

    @pytest.mark.parametrize("matrix", [
        "1,0,0,1/1,0,0,0/0,1,0,0/0,0,1,0",  # quartic companion: numpy slabs, 201^4 points
        "1,1,1,1,1/1,0,0,0,0/0,1,0,0,0/0,0,1,0,0/0,0,0,1,0",  # 5x5: exact loop, 201^5 points
    ])
    def test_form_default_height_over_budget_is_rejected(self, matrix, capsys):
        start = time.perf_counter()
        assert main(["form", matrix]) == EXIT_MATH
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("rejected: ") and "budget" in err

    def test_dseq(self, capsys):
        assert main(["dseq", "1,1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d' = 11" in out and "d  = |10" in out

    def test_sample_deterministic(self, capsys):
        assert main(["--seed", "5", "sample", "1,1", "-n", "25"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["--seed", "5", "sample", "1,1", "-n", "25"]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert "11" not in first

    def test_coding_summary(self, capsys):
        assert main(["--json", "coding", "1,1", "--xi", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["predicted_preimage_count"] == 5
        assert doc["result"]["fundamental"] is False

    def test_automaton(self, capsys):
        assert main(["--json", "automaton", "0,1,1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["states"] == 5


class TestExitCodes:
    def test_reducible_is_math_rejection(self, capsys):
        assert main(["field", "0,4"]) == EXIT_MATH
        assert main(["field", "x^4-2x^3-x^2+2x+1"]) == EXIT_MATH  # (x^2 - x - 1)^2

    def test_not_pisot_is_math_rejection(self, capsys):
        assert main(["field", "1,3"]) == EXIT_MATH
        assert main(["field", "x^2+x+3"]) == EXIT_MATH  # no real root

    def test_zbeta_requires_unit(self, capsys):
        assert main(["zbeta", "2,2"]) == EXIT_MATH

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["sample", "1,1"])  # missing -n
        assert ei.value.code == EXIT_USAGE

    @pytest.mark.parametrize("element", ["1", "-1/3", "b"])
    def test_expand_out_of_range_is_math_rejection(self, element, capsys):
        # a leading minus and a digit is read as an element, not an option
        assert main(["expand", "1,1", element]) == EXIT_MATH
        assert capsys.readouterr().err == "rejected: beta_expand requires 0 <= x < 1\n"

    def test_bad_element_is_usage(self, capsys):
        assert main(["expand", "1,1", "nonsense^^"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "1,1", "--unit", "(" * 400 + "b" + ")" * 400],
            ["expand", "1,1", "0+" + "-" * 3000 + "1"],
        ],
        ids=["400-parentheses", "3000-minus-signs"],
    )
    def test_deep_nesting_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: expression nested too deeply\n"

    @pytest.mark.parametrize("lift", [False, True], ids=["int-limit", "no-int-limit"])
    @pytest.mark.parametrize("text", ["7" * 5000, "b^" + "7" * 5000], ids=["number", "exponent"])
    def test_overlong_integer_is_usage_error(self, text, lift, capsys):
        # the same message whether or not the interpreter limits int(str):
        # limit 0 lifts it, as Python 3.10 before 3.10.7 has none
        old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if lift and old:
            sys.set_int_max_str_digits(0)
        try:
            assert main(["expand", "1,1", text]) == EXIT_USAGE
        finally:
            if lift and old:
                sys.set_int_max_str_digits(old)
        assert capsys.readouterr().err == "error: integer longer than 4300 digits\n"

    @pytest.mark.parametrize("text", ["b^1000000000", "b^-1000000000", "(b^1000)^1000000", "(1/b^1000)^-1000000"])
    def test_oversize_power_is_usage_error(self, text, capsys):
        # the size is estimated from the exponent and the base's bit lengths
        # before any squaring, so a short exponent cannot ask for minutes
        started = time.perf_counter()
        assert main(["expand", "1,1", text]) == EXIT_USAGE
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().err == f"error: power estimated past {cli._MAX_POWER_BITS} bits\n"

    @pytest.mark.parametrize("poly", ["1", "x^0", "x"])
    def test_degree_below_two_is_usage_error(self, poly, capsys):
        assert main(["field", poly]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: degree must be at least 2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--orbit-cap", "3", "expand", "1,1", "1/7"],
            ["--period-cap", "1", "zbeta", "1,0,0,1"],
            ["--orbit-cap", "2", "wf-check", "1,0,0,1"],
            ["--orbit-cap", "2", "dseq", "1,1,1"],
            ["--orbit-cap", "10", "tails", "1,1", "--n-list", "20"],
        ],
    )
    def test_exceeded_orbit_cap_is_math_rejection(self, argv, capsys):
        assert main(argv) == EXIT_MATH
        assert capsys.readouterr().err.startswith("rejected: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["form", "1,1/1,0", "--search", "1", "--classify", "-1"],
            ["form", "1,1/1,0", "--search", "-1"],
            ["form", "1,1/1,0", "--nn", "-1"],
            ["tails", "1,1", "--trials", "-1", "--n-list", "5"],
            ["tails", "1,1", "--n-list", "5,0"],
            ["tails", "1,1", "--jobs", "0"],
            ["coding", "1,1", "--simulate", "--trials", "5", "--n-digits", "-2"],
            ["coding", "1,1", "--simulate", "--trials", "-5"],
            ["coding", "1,1", "--simulate", "--resolution-bits", "1024"],
            ["coding", "1,1", "--simulate", "--resolution-bits", "0"],
            ["coding", "1,1", "--jobs", "0"],
            ["sample", "1,1", "-n", "-1"],
        ],
    )
    def test_bad_count_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == EXIT_USAGE
        assert "error: argument " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["automaton", "1000000000,1"],
            ["tails", "10,1", "--n-list", "5", "--trials", "10"],
            ["tails", "1000000,1", "--n-list", "5", "--trials", "10"],
        ],
    )
    def test_oversize_work_is_rejected_by_its_budget(self, argv, capsys):
        # the automaton table (states x alphabet) and estimate_L1's words are
        # counted before any is built
        started = time.perf_counter()
        assert main(argv) == EXIT_MATH
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        assert err.startswith("rejected: ") and "budget" in err

    @pytest.mark.parametrize(
        "argv", [["sample", "1000000000,1", "-n", "3"], ["coding", "1000000000,1", "--simulate", "--trials", "3"]]
    )
    def test_huge_alphabet_answers(self, argv, capsys):
        # the chain keeps two weights per state, whatever the alphabet
        started = time.perf_counter()
        assert main(argv) == EXIT_OK
        assert time.perf_counter() - started < 5.0

    def test_convergence_failure_is_math_rejection(self, monkeypatch, capsys):
        def fail(automaton):
            raise ConvergenceFailure("power iteration did not reach the tolerance")

        monkeypatch.setattr(cli.shift, "max_entropy_chain", fail)
        assert main(["automaton", "1,1"]) == EXIT_MATH
        assert capsys.readouterr().err == "rejected: power iteration did not reach the tolerance\n"

    def test_counterexample_is_math_rejection(self, monkeypatch, capsys):
        def fail(spec, **kwargs):
            raise CounterexampleFound(report=None)

        monkeypatch.setattr(cli.coding_mod, "injectivity_experiment", fail)
        assert main(["coding", "1,1", "--simulate", "--trials", "5"]) == EXIT_MATH
        assert capsys.readouterr().err == "rejected: unexplained collision in injectivity experiment\n"

    def test_large_power_is_out_of_range(self, capsys):
        # beta^100000 is decided to be >= 1, past the 2^16-bit tables
        assert main(["expand", "1,1", "b^100000"]) == EXIT_MATH
        assert capsys.readouterr().err == "rejected: beta_expand requires 0 <= x < 1\n"


class TestConfig:
    def test_json_reports_identical(self, capsys):
        args = ["--json", "--seed", "9", "coding", "1,1", "--simulate", "--trials", "20", "--n-digits", "16"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_config_file(self, tmp_path, capsys):
        cfile = tmp_path / "conf"
        cfile.write_text("seed=77\nprecision=96\n")
        assert main(["--json", "--config", str(cfile), "sample", "1,1", "-n", "8"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 77
        assert doc["config"]["precision"] == 96

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfile = tmp_path / "conf"
        cfile.write_text("seed=77\nunimodular_height=3\nwf_depth=12\n")
        argv = ["--json", "--config", str(cfile), "--seed", "5", "--height", "4", "form", "1,1/1,0"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["config"]["seed"], doc["config"]["unimodular_height"]) == (5, 4)
        assert doc["config"]["wf_depth"] == 12
        assert doc["result"]["search_height"] == 4

    def test_env_seed_override(self, monkeypatch, capsys):
        monkeypatch.setenv("PISOTCODING_SEED", "1234")
        assert main(["--json", "--seed", "5", "sample", "1,1", "-n", "4"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 1234

    def test_invalid_config_value(self, capsys):
        assert main(["--precision", "-5", "field", "1,1"]) == EXIT_USAGE

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        # the flag's spelling and a misspelt key are names of no setting
        cfile = tmp_path / "conf"
        cfile.write_text("seed=3\norbit-cap=5\nprecison=7\n")
        assert main(["--config", str(cfile), "field", "1,1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'orbit-cap', 'precison'" in err

    def test_json_certificate_revalidates(self, capsys):
        assert main(["--json", "wf-check", "1,0,0,1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        cert = doc["result"]["certificate"]
        assert cert["status"] == "proven"
        # round-trip: rebuild records from the JSON and re-check exactly
        from fractions import Fraction

        from pisotcoding import Expansion, expansion_value, is_finite, value_of

        field = make_field([1, 0, 0, 1])
        for rec in cert["records"]:
            alpha = field.element([Fraction(c) for c in rec["alpha"]])
            f_val = value_of(field, tuple(rec["f_word"]))
            assert is_finite(alpha + f_val)
            s_exp = Expansion.parse(rec["sum_expansion"])
            assert expansion_value(field, s_exp) == alpha + f_val


def test_tails_command(capsys):
    assert main(["--json", "--seed", "2", "tails", "1,1", "--n-list", "6,8", "--trials", "20"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["rows"]
    assert all(0.0 <= r["unchanged_fraction"] <= 1.0 for r in doc["result"]["rows"])


def test_wf_check_text(capsys):
    assert main(["wf-check", "3,-1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "not_finitary" in out and "proven" in out


def test_coding_n_coord(capsys):
    assert main(["--json", "coding", "1,1", "--n-coord", "0,1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["fundamental"] is True
    assert doc["result"]["predicted_preimage_count"] == 1


def test_python_dash_m_runs_the_cli(capsys):
    assert main(["--json", "field", "1,1"]) == EXIT_OK
    want = capsys.readouterr().out
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run(
        [sys.executable, "-m", "pisotcoding", "--json", "field", "1,1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert got.returncode == EXIT_OK
    assert got.stdout == want


def test_closed_stdout_exits_141_silently():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)  # no reader exists before the child writes
    try:
        got = subprocess.run(
            [sys.executable, "-m", "pisotcoding", "field", "1,1"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(w)
    assert got.returncode == EXIT_PIPE
    assert got.stderr == b""


def test_readme_tour_runs(capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"## CLI quick tour\n.*?```\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("pisotcoding ")]
    assert len(lines) >= 10
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == EXIT_OK, line


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tour_entries():
    """The benchmark tour's seed-independent commands, with their pinned
    result digests (perfbench/cli_tour.py and perfbench/reference.json)."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        tour = importlib.import_module("cli_tour").TOUR
    finally:
        sys.path.pop(0)
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        pinned = json.load(fh)["cli-tour"]["result_sha256"]
    return [pytest.param(argv, pinned[label], id=label) for label, argv, seeded in tour if not seeded]


@pytest.mark.parametrize("argv, want", _tour_entries())
def test_tour_result_bytes_match_reference(argv, want, capsys):
    # a report whose bytes drift from the benchmark reference fails here too
    assert main(["--json", *argv]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == want


def test_form_certifies_its_field_once(monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_field(*args, **kwargs)

    monkeypatch.setattr(cli, "make_field", counting)
    monkeypatch.setattr(forms, "make_field", counting)
    argv = ["form", "1,1,0/2,3,1/1,1,1", "--search", "2", "--nn", "5", "--classify", "2"]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1

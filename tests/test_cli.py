import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epsmult
from epsmult.cli import build_parser, console_main, main
from epsmult.errors import ParseError
from epsmult.ideal_core import MonomialIdeal, parse_ideal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestH0Command:
    def test_counter_length(self, capsys):
        code, out = run(capsys, "h0", "--ideal", "x*y^2, x^2")
        assert code == 0
        assert json.loads(out) == {"length": 2, "method": "box-enumeration"}

    def test_methods_and_witnesses(self, capsys):
        code, out = run(capsys, "h0", "--ideal", "x*y^2, x^2",
                        "--method", "box", "--witnesses")
        payload = json.loads(out)
        assert code == 0
        assert payload["length"] == 2
        assert sorted(map(tuple, payload["witnesses"])) == [(1, 0), (1, 1)]

class TestExitCodes:
    def test_parse_error_is_1(self, capsys):
        assert main(["h0", "--ideal", "x ** 2"]) == 1

    def test_usage_error_is_1(self, capsys):
        assert main(["h0"]) == 1

    @pytest.mark.parametrize("ideal, factor", [("x^\u0663, y^2", "x^\u0663"),
                                               ("x\u0663^2, y^2", "x\u0663^2")])
    def test_ideal_digits_not_in_ascii_is_1(self, capsys, ideal, factor):
        # Arabic-Indic digits were read as an exponent 3 (length 6) and as the variable x3
        assert main(["h0", "--ideal", ideal]) == 1
        assert capsys.readouterr() == ("", f"eps: error: cannot parse monomial factor {factor!r}\n")

    def test_blank_ideal_is_1(self, capsys):
        assert main(["h0", "--ideal", ", ,"]) == 1
        assert capsys.readouterr() == ("", "eps: error: cannot parse ideal ', ,'\n")

    @pytest.mark.parametrize("ideal", ["[[1.5,2],[2,0]]", "[[true,2],[2,0]]", '[["1",2]]'])
    def test_non_integer_json_exponent_is_1(self, capsys, ideal):
        assert main(["h0", "--ideal", ideal]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["h0", "--ideal", "0", "--dim", "0"],
        ["h0", "--ideal", "[]", "--dim", "0"],
        ["h0", "--ideal", "1", "--dim", "0"],
        ["h0", "--ideal", "1", "--dim", "-2"],
        ["h0", "--ideal", "[[1,2]]", "--dim", "-1"],
        ["mixed", "--ideals", "x*y; x^2,y", "--grid", "1:5", "--dim", "0"],
    ])
    def test_nonpositive_dim_is_1(self, capsys, argv):
        # one message, before the ideal text is read
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"eps: error: ambient dimension must be a positive integer, got {argv[-1]}\n"

    @pytest.mark.parametrize("argv", [
        ["h0", "--ideal", "x^2, y^2"],
        ["newton", "--ideal", "x^2, y^2"],
        ["family", "eval", "--spec", "/nonexistent.json", "--n", "1"],
    ])
    @pytest.mark.parametrize("seconds", ["-1", "-30"])
    def test_negative_timeout_is_1(self, capsys, argv, seconds):
        # a negative limit used to arm no alarm and run unbounded with exit 0
        assert main(argv + ["--timeout", seconds]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"eps: error: timeout must be a non-negative integer, got {seconds}\n"

    def test_timeout_past_c_int_is_1(self, capsys):
        # 2^31 used to end in an OverflowError traceback from signal.alarm
        argv = ["h0", "--ideal", "x*y^2, x^2"]
        assert main(argv + ["--timeout", "2147483648"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "eps: error: timeout must be at most 2147483647 seconds, got 2147483648\n"
        assert main(argv + ["--timeout", "2147483647"]) == 0
        assert json.loads(capsys.readouterr().out)["length"] == 2

    def test_timeout_is_3_with_empty_stdout(self, capsys):
        # the alarm fires inside the Takayama scan of a 60^3 box
        argv = ["h0", "--method", "takayama", "--ideal", "x^60, y^60, z^60", "--timeout", "1"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "eps: timed out after 1s\n"

    @pytest.mark.parametrize("normalizer", ["n^(1/0)", "n^(3/00)", "n^(1/0)*ln(n)"])
    def test_zero_denominator_normalizer_is_2(self, capsys, tmp_path, normalizer):
        # Fraction("1/0") used to end in a ZeroDivisionError traceback
        spec = tmp_path / "counter.json"
        spec.write_text('{"d": 2, "rule": {"type": "counter", "a": "n^2"}}')
        argv = ["family", "run", "--spec", str(spec), "--range", "1:3", "--normalizer", normalizer]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"eps: precondition violated: cannot parse normalizer {normalizer!r}; "
                       "use n^p or n^p*ln(n)\n")

    @pytest.mark.parametrize("normalizer", ["n^\u0662", "n^(\u0663/2)", "n^(1/1\u0662)*ln(n)"])
    def test_normalizer_digits_not_in_ascii_is_2(self, capsys, tmp_path, normalizer):
        # "n^\u0662" used to exit 0, normalizing by n^2 and echoing the text
        spec = tmp_path / "counter.json"
        spec.write_text('{"d": 2, "rule": {"type": "counter", "a": "n^2"}}')
        argv = ["family", "run", "--spec", str(spec), "--range", "1:3", "--normalizer", normalizer]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"eps: precondition violated: cannot parse normalizer {normalizer!r}; "
                       "use n^p or n^p*ln(n)\n")

    def test_table_spec_infers_d_from_the_widths(self, capsys, tmp_path):
        spec = tmp_path / "table.json"
        spec.write_text(json.dumps({"rule": {"type": "table", "ideals": [[[0, 0]], [[1, 2], [2, 0]]]}}))
        assert main(["family", "eval", "--spec", str(spec), "--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["ideal"] == [[1, 2], [2, 0]]
        spec.write_text(json.dumps({"rule": {"type": "table", "ideals": [[[0, 0]], [[1, 2, 0]]]}}))
        assert main(["family", "eval", "--spec", str(spec), "--n", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "eps: error: table rule needs an explicit d\n"

    def test_zero_timeout_means_no_limit(self, capsys):
        assert main(["h0", "--ideal", "x^2, y^2", "--timeout", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"length": 4, "method": "box-enumeration"}

    def test_non_integer_family_exponent_is_1(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": 2, "rule": {"type": "power", "ideal": [[1, 2]]}}))
        assert main(["family", "eval", "--spec", str(spec), "--n", "1"]) == 0
        spec.write_text(json.dumps({"d": 2, "rule": {"type": "power", "ideal": [[1.7, 2]]}}))
        assert main(["family", "eval", "--spec", str(spec), "--n", "1"]) == 1

    @pytest.mark.parametrize("rule, index", [
        ({"type": "power", "ideal": [[1, 2]]}, "2"),
        ({"type": "product_grid", "ideals": [[[1, 2], [2, 0]], [[0, 1], [1, 0]]]}, "2,2"),
        ({"type": "counter", "a": "n^2"}, "2"),
        ({"type": "hyperbola", "variant": "lower"}, "2"),
    ])
    def test_family_width_mismatch_is_1(self, capsys, tmp_path, rule, index):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": 3, "rule": rule}))
        assert main(["family", "eval", "--spec", str(spec), "--n", index]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["eval", "check"])
    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_seed_degree_below_one_is_1(self, capsys, tmp_path, command, degree):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "noetherian", "seeds": {degree: [[1, 0]]}}))
        flag = "--n" if command == "eval" else "--N"
        assert main(["family", command, "--spec", str(spec), flag, "2"]) == 1
        assert capsys.readouterr().out == ""

    def test_product_grid_without_factors_is_1(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": 2, "type": "product_grid", "ideals": []}))
        assert main(["family", "eval", "--spec", str(spec), "--n", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "eps: error: product grid needs at least one factor\n"

    @pytest.mark.parametrize("key", ["01", " 2", "1_0", "+1", "1.0"])
    def test_seed_degree_not_in_plain_decimal_is_1(self, capsys, tmp_path, key):
        # int("1_0") is 10 and int("01") is 1; the key must be the degree's own digits
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "noetherian", "seeds": {key: [[1, 0]], "1": [[0, 1]]}}))
        assert main(["family", "run", "--spec", str(spec), "--range", "1:3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"eps: error: noetherian seed degree {key!r} is not a plain decimal >= 1\n"

    def test_unknown_counter_formula_is_2_before_any_ideal(self, capsys, tmp_path, monkeypatch):
        from epsmult import families
        monkeypatch.setattr(families, "_eval", lambda *args: pytest.fail("ideal built"))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "counter", "a": "n^4"}))
        assert main(["family", "run", "--spec", str(spec), "--range", "1:3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "eps: precondition violated: unknown counter formula 'n^4'\n"

    @pytest.mark.parametrize("text", [",", " ", " , "])
    def test_empty_index_is_1(self, capsys, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "power", "ideal": [[1, 2], [2, 0]]}))
        assert main(["family", "eval", "--spec", str(spec), "--n", text]) == 1
        assert main(["delta", "--ideal", "x*y^2, x^2", "--point", text]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("point, message", [
        ("0,5,1", "point '0,5,1' has length 3, not 2"),
        ("4", "point '4' has length 1, not 2"),
        ("0,-1", "point '0,-1' has a negative entry"),
        ("1,a", "bad index '1,a'"),
        ("0,1_0", "bad index '0,1_0'"),
        ("0,٥", "bad index '0,٥'"),
    ])
    def test_delta_point_mismatch_is_1(self, capsys, point, message):
        # a point outside the ideal's ring is a parse error, as a --dim mismatch is
        assert main(["delta", "--ideal", "x*y^2, x^2", "--point", point]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"eps: error: {message}\n"

    @pytest.mark.parametrize("grid", ["1:1_2", "١:٥"])
    def test_grid_not_in_plain_decimal_is_1(self, capsys, grid):
        assert main(["mixed", "--ideals", "x*y^2, x^2", "--grid", grid]) == 1
        assert capsys.readouterr() == ("", f"eps: error: bad range {grid!r}; expected A:B\n")

    INT_FLAGS = [
        (["h0", "--ideal", "x"], "--timeout"),
        (["h0", "--ideal", "x"], "--dim"),
        (["epsilon", "--ideal", "x^2, y^2"], "--nmax"),
        (["epsilon", "--ideal", "x^2, y^2"], "--period-max"),
        (["epsilon", "--ideal", "x^2, y^2"], "--start"),
        (["epsilon", "--ideal", "x^2, y^2"], "--holdout"),
        (["mixed", "--ideals", "x; y", "--grid", "1:3"], "--degree"),
        (["mixed", "--ideals", "x; y", "--grid", "1:3"], "--period-max"),
        (["mixed", "--ideals", "x; y", "--grid", "1:3"], "--start"),
        (["mixed", "--ideals", "x; y", "--grid", "1:3"], "--holdout"),
        (["family", "check", "--spec", "spec.json"], "--N"),
        (["family", "growth", "--spec", "spec.json"], "--n"),
        (["delta", "--ideal", "x", "--point", "1"], "--q"),
        (["repro", "--case", "irrational"], "--seed"),
    ]

    @pytest.mark.parametrize("argv, flag", INT_FLAGS)
    @pytest.mark.parametrize("text", ["1_0", "٩", "x"])
    def test_integer_flag_not_in_plain_decimal_is_1(self, capsys, argv, flag, text):
        # `--timeout 1_0` used to set a 10 s limit and `--nmax ٩` to fit to n = 9
        assert main([*argv, flag, text]) == 1
        assert capsys.readouterr() == ("", f"eps: error: argument {flag}: invalid int value: {text!r}\n")

    def test_integers_keep_their_sign_and_spaces(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"d": 2, "rule": {"type": "counter", "a": "n^2"}}')
        assert main(["h0", "--ideal", "x^2, y^2", "--dim", " +2 ", "--timeout", "-0"]) == 0
        assert json.loads(capsys.readouterr().out)["length"] == 4
        assert main(["family", "run", "--spec", str(spec), "--range", " +1: 3 "]) == 0
        assert [e["index"] for e in json.loads(capsys.readouterr().out)["entries"]] == [1, 2, 3]
        assert main(["family", "eval", "--spec", str(spec), "--n", " -1"]) == 2
        assert capsys.readouterr().err == "eps: precondition violated: family indices must be non-negative\n"

    @pytest.mark.parametrize("argv, label", [
        (["epsilon", "--ideal", "0", "--dim", "2"], "1"),
        (["mixed", "--ideals", "0; x", "--dim", "2", "--grid", "1:12", "--degree", "2"], "(1, 1)"),
    ])
    def test_zero_ideal_names_its_index(self, capsys, argv, label):
        # a one-index family reads I_1, not I_(1,); a grid keeps its tuple
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"eps: precondition violated: I_{label} is the zero ideal\n")

    def test_mixed_without_ideals_is_1(self, capsys):
        assert main(["mixed", "--ideals", ";", "--grid", "1:3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "eps: error: no ideals given\n"

    @pytest.mark.parametrize("flags, message", [
        (["eval", "--n", "2", "--range", "1:3"], "give exactly one of --n or --range"),
        (["eval"], "give exactly one of --n or --range"),
        (["run", "--range", "5:2"], "empty range '5:2'"),
        (["run", "--range", "a:b"], "bad range 'a:b'; expected A:B"),
        # int() reads `1_0` as 10 and other scripts' digits as their values
        (["run", "--range", "1_0:1_2"], "bad range '1_0:1_2'; expected A:B"),
        (["run", "--range", "٣:٥"], "bad range '٣:٥'; expected A:B"),
        (["eval", "--n", "1_0"], "bad index '1_0'"),
        (["eval", "--n", "٣"], "bad index '٣'"),
    ])
    def test_bad_family_indices_are_1(self, capsys, tmp_path, flags, message):
        spec = tmp_path / "spec.json"
        spec.write_text('{"d": 2, "rule": {"type": "counter", "a": "n^2"}}')
        command, *rest = flags
        assert main(["family", command, "--spec", str(spec), *rest]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"eps: error: {message}\n"

    def test_broken_spec_json_is_1(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"d": 2,')
        assert main(["family", "eval", "--spec", str(spec), "--n", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"eps: error: bad JSON in {spec}: ")

    def test_precondition_error_is_2(self, capsys):
        assert main(["h0", "--ideal", "0", "--dim", "2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["mixed", "--ideals", "x*y^2, x^2; x*y, y^3", "--grid", "1:10", "--holdout", "-3"],
        ["mixed", "--ideals", "x*y^2, x^2; x*y, y^3", "--grid", "1:10", "--period-max", "0"],
        ["epsilon", "--ideal", "x*y^2, x^2", "--method", "fit", "--holdout", "-5"],
    ])
    def test_bad_fit_argument_is_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("degree", ["1", "-1"])
    def test_mixed_degree_below_d_is_2_before_the_table(self, capsys, monkeypatch, degree):
        from epsmult import asymptotics
        monkeypatch.setattr(asymptotics, "length_table",
                            lambda *args: pytest.fail("length table built"))
        assert main(["mixed", "--ideals", "x*y^2, x^2; x*y, y^3", "--grid", "1:10",
                     "--degree", degree]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        # d = 5 with the defaults: powers 6..12, 2 held out, 5 left for 6 unknowns
        ["--ideal", "x1, x2, x3, x4, x5"],
        ["--ideal", "x*y^2, x^2", "--nmax", "4"],
        ["--ideal", "x*y^2, x^2", "--nmax", "5", "--holdout", "0", "--method", "both"],
    ])
    def test_epsilon_fit_window_is_2_before_the_table(self, capsys, monkeypatch, argv):
        from epsmult import asymptotics
        monkeypatch.setattr(asymptotics, "length_table", lambda *args: pytest.fail("length table built"))
        assert main(["epsilon", *argv]) == 2
        assert capsys.readouterr().out == ""

    MIXED = ["mixed", "--ideals", "x*y^2, x^2; x*y, y^3"]

    @pytest.mark.parametrize("argv, message", [
        ([*MIXED, "--grid", "1:10", "--period-max", "0"], "fit period_max must be at least 1, got 0"),
        ([*MIXED, "--grid", "1:10", "--holdout", "-3"], "fit holdout must be at least 0, got -3"),
        # 6 unknowns in two indices and 4 held out: the window 3..4 x 3..4 has 4 points
        ([*MIXED, "--grid", "1:4"], "4 indices in the window; a degree-2 fit with 4 held out needs 10"),
        (["epsilon", "--ideal", "x*y^2, x^2", "--method", "fit", "--period-max", "0"],
         "fit period_max must be at least 1, got 0"),
    ])
    def test_fit_argument_is_2_before_the_table(self, capsys, monkeypatch, argv, message):
        from epsmult import asymptotics
        monkeypatch.setattr(asymptotics, "length_table", lambda *args: pytest.fail("length table built"))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"eps: precondition violated: {message}\n"

    def test_epsilon_fit_window_just_large_enough(self, capsys):
        # 3 unknowns in d = 2: powers 3..7 fit 3 and hold out 2
        code, out = run(capsys, "epsilon", "--ideal", "x*y^2, x^2", "--nmax", "7")
        assert code == 0 and json.loads(out)["epsilon"] == "2/1"

    def test_unwritable_csv_path_is_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        assert main(["h0", "--ideal", "x*y^2, x^2", "--csv", str(path)]) == 1
        assert capsys.readouterr().err \
            == f"eps: error: cannot write {path}: No such file or directory\n"

    def test_inconclusive_is_3(self, capsys, monkeypatch):
        from epsmult import cli as cli_mod
        from epsmult.errors import NoFitError

        def boom(args):
            raise NoFitError("nope", best_period=2, first_fail=(5,))
        monkeypatch.setattr(cli_mod, "cmd_h0", boom)
        assert main(["h0", "--ideal", "x"]) == 3


_FACTOR = st.builds(lambda v, e: v if e is None else f"{v}^{e}",
                    st.sampled_from(["x", "y", "z", "x1", "x2", "x3"]),
                    st.none() | st.integers(0, 10**6))
_TERM = st.lists(_FACTOR, max_size=3).map(lambda fs: "*".join(fs) or "1")
IDEAL_TEXT = st.one_of(
    st.lists(_TERM, min_size=1, max_size=4).map(", ".join),
    st.lists(st.lists(st.integers(-2, 50), min_size=1, max_size=3), max_size=4).map(json.dumps),
    # raw text; an index of two or more digits would ask for a huge ambient ring
    st.text("xyz123^*,[] .-0", max_size=10).filter(lambda s: not re.search(r"x\d\d", s)),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([["h0"], ["h0", "--method", "box"], ["newton"]]),
       IDEAL_TEXT, st.none() | st.integers(0, 3))
def test_exit_codes_on_random_ideal_strings(command, ideal, dim):
    argv = command + ["--ideal", ideal] + ([] if dim is None else ["--dim", str(dim)])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2, 3)


def test_closed_pipe_is_silent_and_keeps_the_code():
    # the reader end is closed before the run starts, so every write hits EPIPE
    reader, writer = os.pipe()
    os.close(reader)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsmult.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "epsmult.cli", "newton", "--ideal", "x, y"],
                              stdout=writer, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(writer)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_takayama_timeout_past_int32_exponents():
    # a box side past 2^31: the scan must start at once so that --timeout fires
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epsmult.__file__)))
    proc = subprocess.run([sys.executable, "-m", "epsmult.cli", "h0", "--method", "takayama",
                           "--timeout", "1", "--ideal", "[[2147483655,0,0],[0,1,0],[0,0,1]]"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "eps: timed out after 1s\n"


class TestEpsilonCommand:
    def test_both_methods_agree(self, capsys):
        code, out = run(capsys, "epsilon", "--ideal", "x^2, y^2", "--method", "both")
        payload = json.loads(out)
        assert code == 0
        assert payload["epsilon"] == "4/1"
        assert payload["methods_agree"] is True

    def test_disagreeing_methods_are_3(self, capsys, monkeypatch):
        from epsmult import cli as cli_mod
        real = cli_mod.out_region
        monkeypatch.setattr(cli_mod, "out_region",
                            lambda ideal: dataclasses.replace(real(ideal), epsilon=Fraction(5)))
        code, out = run(capsys, "epsilon", "--ideal", "x^2, y^2", "--method", "both")
        payload = json.loads(out)
        assert code == 3
        assert payload["methods_agree"] is False
        assert (payload["epsilon_fit"], payload["epsilon_volume"]) == ("4/1", "5/1")

    def test_volume_only(self, capsys):
        code, out = run(capsys, "epsilon", "--ideal", "x*y^2, x^2", "--method", "volume")
        payload = json.loads(out)
        assert payload["epsilon_volume"] == "2/1" and payload["volume"] == "1/1"


class TestNewtonCommand:
    def test_csv_flattens_lists_by_position(self, capsys):
        code, out = run(capsys, "newton", "--ideal", "x*y^2, x^2", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        values = dict(rows[1:])
        assert len(values) == len(rows) - 1
        assert values["facets.0.normal.1"] == "1"
        assert values["facets.2.offset"] == "4"
        assert values["vertices.1.0"] == "2/1"
        assert values["epsilon"] == "2/1"

    def test_full_report(self, capsys):
        code, out = run(capsys, "newton", "--ideal", "[[1,2],[2,0]]")
        payload = json.loads(out)
        assert code == 0
        assert {"normal": [2, 1], "offset": 4} in payload["facets"]
        assert payload["spread"] == 2
        assert payload["epsilon"] == "2/1"

    def test_single_flag(self, capsys):
        code, out = run(capsys, "newton", "--ideal", "x*y", "--spread")
        assert json.loads(out) == {"spread": 1}

    # name -> (d, generators, power)
    IDEALS = {
        "x^3": (2, [(3, 0)], 1),
        "x^2*y": (2, [(2, 1)], 1),
        "x*y^2, x^2": (2, [(1, 2), (2, 0)], 1),
        "x*y, y^3": (2, [(1, 1), (0, 3)], 1),
        "x^4, x^2*y, y^3": (2, [(4, 0), (2, 1), (0, 3)], 1),
        "x^6, x*y, y^6": (2, [(6, 0), (1, 1), (0, 6)], 1),
        "x^5, x^3*y, x*y^2, y^4": (2, [(5, 0), (3, 1), (1, 2), (0, 4)], 1),
        **{f"(xy, yz, x^2z)^{n}": (3, [(1, 1, 0), (0, 1, 1), (2, 0, 1)], n)
           for n in range(1, 5)},
        **{f"(x1^2x4, x2^2x4, x3^2x4, x1x2x3)^{n}":
           (4, [(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 1, 0)], n)
           for n in (1, 2)},
    }
    # sha256 of the full `eps newton` report (facets, vertices, spread,
    # epsilon, volume, box bound) of each ideal above
    PINNED = {
        "(x1^2x4, x2^2x4, x3^2x4, x1x2x3)^1":
            "78264fd12d767824b89d8392c1901f1486fcd0501fb55f89192a59d1d03b681f",
        "(x1^2x4, x2^2x4, x3^2x4, x1x2x3)^2":
            "33a67fa7bee10bb528cd9d1bddc24eeefdf4799af51e774c2d840a3b1f9ce255",
        "(xy, yz, x^2z)^1":
            "8f36eb1142043ae9f8f34e5878c3daf8e1c23b47acb72e33b20a8c844371623a",
        "(xy, yz, x^2z)^2":
            "b68a50b9318f59d9dc84e7949dd7f42678b20ea7c95f1a94faf6fe12fcdfd885",
        "(xy, yz, x^2z)^3":
            "a0a99d7074145beafaaa391f9b3348ddc35a72f129da88617f2333d6c25e420c",
        "(xy, yz, x^2z)^4":
            "bdfbdf384c8f667e09092f9a2efb529b07fdd334f941db4e7acf04630cfb1284",
        "x*y, y^3":
            "483e446534c0762568e0e8899f3cadda3e7fba957ab7586a507db91eb0840551",
        "x*y^2, x^2":
            "1f0ff863c114aefa55564f665311ad64f306251253192768bd48d9b511bfa121",
        "x^2*y":
            "fe4b0c7c5d73d7109c2fde1882e2413787ef4e4eca9713f7f65e6676330f9d67",
        "x^3":
            "9b6e571e13405137a08c1add31adc4f14fc1274a15f771ca267089c2f5b4475b",
        "x^4, x^2*y, y^3":
            "c44321cde215c4baadbc4e9153c487bbac3d525591aa0f7f6857732fdb727bcf",
        "x^5, x^3*y, x*y^2, y^4":
            "29505e26ddc3a16bb5d33428b2b1ed42c7bac0afb5b5a32dd67171bf8a71a841",
        "x^6, x*y, y^6":
            "507f25991dceaaf5f1555fdeb099d3d2295aa6fc3d22cfbbda460d32d991b686",
    }

    @pytest.mark.parametrize("name", sorted(IDEALS))
    def test_output_is_pinned(self, capsys, name):
        d, gens, n = self.IDEALS[name]
        power = MonomialIdeal.from_gens(d, gens).power(n)
        code, out = run(capsys, "newton", "--ideal", json.dumps([list(g) for g in power.gens]))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[name]


class TestMixedCommand:
    def test_grid(self, capsys):
        code, out = run(capsys, "mixed", "--ideals", "x*y^2, x^2; x*y^2, x^2",
                        "--grid", "1:8", "--degree", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["mixed"] == {"0,2": "2/1", "1,1": "2/1", "2,0": "2/1"}

    def test_one_ideal_is_its_epsilon(self, capsys):
        code, out = run(capsys, "mixed", "--ideals", "x*y^2, x^2", "--grid", "1:12",
                        "--degree", "2")
        assert code == 0
        assert json.loads(out)["mixed"] == {"2": "2/1"}
        code, out = run(capsys, "epsilon", "--ideal", "x*y^2, x^2")
        assert json.loads(out)["epsilon"] == "2/1"

    # sha256 of the full `eps mixed` stdout (degree, period, mixed values,
    # leading form) on each grid
    PINNED = {
        ("x*y^2, x^2; x*y, y^3", "1:10"):
            "27fa6bb34862f8b40ae2f89d5413efa8e750ab726896f162b38644031d15ca6a",
        ("x*y^2, x^2; x^3*y, y^2", "1:10"):
            "4a401268159d935418d9514251bbfbef0a37e7fedfb8e7093fe16a9bcdff879b",
        ("x^3, x*y^2; x^2, x*y^3; x^2*y, y^2", "1:8"):
            "9e55cb6496be72f1d7537081d6e1e55ed91f2151781cd871c8deebea4e5d8a85",
    }

    @pytest.mark.parametrize("ideals, grid", sorted(PINNED))
    def test_output_is_pinned(self, capsys, ideals, grid):
        code, out = run(capsys, "mixed", "--ideals", ideals, "--grid", grid)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[(ideals, grid)]

    # sha256 of `eps mixed` on the 20^3 grid of three d = 2 factors: 8,000
    # lengths, from a table that holds a few of its ideals at a time
    GRID20_SHA256 = "3589435084d5725d5d744f664ce32d98bb9bb0f4ab670b41a9e9fa2aedfe0317"

    def test_twenty_cube_grid_is_pinned(self, capsys):
        code, out = run(capsys, "mixed", "--ideals", "x*y^2, x^2; y^3, x^2*y; y^2, x^3*y",
                        "--grid", "1:20", "--degree", "2", "--period-max", "4", "--holdout", "4",
                        "--start", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GRID20_SHA256


class TestFamilyCommands:
    @pytest.fixture
    def counter_spec(self, tmp_path):
        path = tmp_path / "counter.json"
        path.write_text('{"d": 2, "rule": {"type": "counter", "a": "n^2"}}')
        return str(path)

    def test_eval(self, capsys, counter_spec):
        code, out = run(capsys, "family", "eval", "--spec", counter_spec, "--n", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["ideal"] == [[1, 9], [2, 0]]
        assert parse_ideal(payload["text"]) == MonomialIdeal.from_gens(2, [(1, 9), (2, 0)])

    def test_check(self, capsys, counter_spec):
        code, out = run(capsys, "family", "check", "--spec", counter_spec,
                        "--N", "20", "--mode", "graded")
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True

    def test_growth(self, capsys, counter_spec):
        code, out = run(capsys, "family", "growth", "--spec", counter_spec, "--n", "6")
        payload = json.loads(out)
        assert payload["minimal_c_linear"] == 7

    def test_growth_over_a_range(self, capsys, counter_spec):
        code, out = run(capsys, "family", "growth", "--spec", counter_spec, "--range", "1:3")
        assert code == 0
        assert [e["n"] for e in json.loads(out)["entries"]] == [1, 2, 3]

    def test_run_with_normalizer(self, capsys, counter_spec):
        code, out = run(capsys, "family", "run", "--spec", counter_spec,
                        "--range", "1:10", "--normalizer", "n^3")
        payload = json.loads(out)
        assert code == 0
        assert payload["trend"] == "decreasing"
        assert payload["entries"][0] == {"index": 1, "length": 1, "normalized": 1.0}

    def test_run_csv_output(self, capsys, counter_spec):
        code, out = run(capsys, "family", "run", "--spec", counter_spec,
                        "--range", "1:3", "--normalizer", "n^2", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "index,length,normalized"
        assert lines[1] == "1,1,1.0"

    def test_csv_to_file(self, capsys, counter_spec, tmp_path):
        target = tmp_path / "out.csv"
        code, _ = run(capsys, "family", "run", "--spec", counter_spec,
                      "--range", "1:3", "--csv", str(target))
        assert code == 0
        assert target.read_text().splitlines()[0] == "index,length"

    def test_missing_spec_file(self, capsys):
        assert main(["family", "eval", "--spec", "/nonexistent.json", "--n", "1"]) == 1

    @pytest.mark.parametrize("flags", [["--csv", "out.csv"], ["--timeout", "5"], ["--json"]])
    def test_flags_before_the_subcommand_are_rejected(self, capsys, counter_spec, tmp_path,
                                                      monkeypatch, flags):
        # only the subcommands take the common flags; the group must not
        # accept them and then drop them
        monkeypatch.chdir(tmp_path)
        assert main(["family", *flags, "eval", "--spec", counter_spec, "--n", "2"]) == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("rule, index, count", [
        ({"type": "power", "ideal": [[1, 0], [0, 1]]}, "500", 501),
        ({"type": "product_grid", "ideals": [[[1, 0], [0, 1]], [[1, 2], [2, 0]]]}, "600,1", 602),
    ])
    def test_deep_index_evaluates(self, capsys, tmp_path, rule, index, count):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": 2, "rule": rule}))
        code, out = run(capsys, "family", "eval", "--spec", str(spec), "--n", index)
        assert code == 0
        assert len(json.loads(out)["ideal"]) == count

    # sha256 of `eps family run` on the recursive limit family over 2..100:
    # the lengths, the normalized values and the trend tag
    LIMIT_RUN_SHA256 = "71b06c9618c31b7774d6c47a56fbc86d8bfb2c218c2bbc3755d5fb464686b9d5"

    def test_limit_family_run_is_pinned(self, capsys, tmp_path):
        spec = tmp_path / "limit.json"
        spec.write_text('{"type": "limit_recursive"}')
        code, out = run(capsys, "family", "run", "--spec", str(spec), "--range", "2:100",
                        "--normalizer", "n^2*ln(n)")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.LIMIT_RUN_SHA256

    # sha256 of `eps family run` on the powers of (xy, yz, x^2z) in d = 3 over
    # 1..12: lengths 0, 1, 4, 9, 17, 29, 45, 66, 93, 126, 166, 214
    POWER3_RUN_SHA256 = "3a5a4d7a9d29a651ad3ecf501ed807300d71d1b3f452600d878edb69c30c40f7"

    def test_d3_power_family_run_is_pinned(self, capsys, tmp_path):
        spec = tmp_path / "power3.json"
        spec.write_text('{"d": 3, "rule": {"type": "power", "ideal": [[1,1,0],[0,1,1],[2,0,1]]}}')
        code, out = run(capsys, "family", "run", "--spec", str(spec), "--range", "1:12")
        assert code == 0
        assert [e["length"] for e in json.loads(out)["entries"]] == \
            [0, 1, 4, 9, 17, 29, 45, 66, 93, 126, 166, 214]
        assert hashlib.sha256(out.encode()).hexdigest() == self.POWER3_RUN_SHA256

    def test_threads_flag_is_gone(self, capsys, counter_spec):
        assert main(["family", "run", "--spec", counter_spec, "--range", "1:3",
                     "--threads", "2"]) == 1
        assert main(["mixed", "--ideals", "x*y^2, x^2; x*y^2, x^2", "--grid", "1:3",
                     "--threads", "2"]) == 1
        assert capsys.readouterr().out == ""

    def test_seed_is_only_for_repro(self, capsys, counter_spec):
        assert main(["h0", "--ideal", "x*y^2, x^2", "--seed", "3"]) == 1
        assert main(["newton", "--ideal", "x*y^2, x^2", "--seed", "3"]) == 1
        assert main(["family", "run", "--spec", counter_spec, "--range", "1:3",
                     "--seed", "3"]) == 1
        assert capsys.readouterr().out == ""
        assert main(["repro", "--case", "example-counter", "--seed", "3"]) == 0


def _subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _help(parser, path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args([*path, "-h"])
    return out.getvalue()


COMMANDS = ["h0", "newton", "epsilon", "mixed", "family", "delta", "repro"]
FAMILY = ["eval", "check", "growth", "run"]


class TestParserTree:
    """A run builds only the parser of its command; help and errors read as
    in the whole tree, which `build_parser([])` builds."""

    @pytest.mark.parametrize("path", [[], *([c] for c in COMMANDS),
                                      *(["family", f] for f in FAMILY)])
    def test_help_is_the_whole_trees(self, capsys, path):
        with pytest.raises(SystemExit) as info:
            main([*path, "-h"])
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == _help(build_parser([]), path)

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["family"], "the following arguments are required: family_cmd"),
        (["h0", "--ideal", "x", "--bogus"], "unrecognized arguments: --bogus"),
        # a flag of a family subcommand that this run does not build
        (["family", "run", "--spec", "spec.json", "--range", "1:3", "--N", "3"],
         "unrecognized arguments: --N 3"),
    ])
    def test_errors_keep_their_text(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"eps: error: {message}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            build_parser([]).parse_args(argv)

    @pytest.mark.parametrize("argv, dest, names", [
        (["bogus"], "command", COMMANDS),
        (["family", "bogus"], "family_cmd", FAMILY),
    ])
    def test_unknown_name_lists_every_choice(self, capsys, argv, dest, names):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        with pytest.raises(ParseError) as info:
            build_parser([]).parse_args(argv)
        assert (out, err) == ("", f"eps: error: {info.value}\n")
        assert err.startswith(f"eps: error: argument {dest}: invalid choice: ")
        assert all(name in err for name in names)

    def test_a_run_builds_one_path(self):
        tree = build_parser([])
        assert list(_subcommands(tree)) == COMMANDS
        assert list(_subcommands(_subcommands(tree)["family"])) == FAMILY
        run = build_parser(["family", "run", "--spec", "spec.json", "--range", "1:3"])
        assert list(_subcommands(run)) == ["family"]
        assert list(_subcommands(_subcommands(run)["family"])) == ["run"]
        assert list(_subcommands(build_parser(["h0", "--ideal", "x"]))) == ["h0"]
        # a token after `family` that names no subcommand builds all four
        partial = build_parser(["family", "--json", "run"])
        assert list(_subcommands(_subcommands(partial)["family"])) == FAMILY


class TestDeltaCommand:
    def test_faces_and_betti(self, capsys):
        code, out = run(capsys, "delta", "--ideal", "x*y^2, x^2", "--point", "0,5")
        payload = json.loads(out)
        assert code == 0
        assert payload["faces"] == [[], [2]]
        assert payload["betti"]["-1"] == 0

    def test_void(self, capsys):
        code, out = run(capsys, "delta", "--ideal", "x*y^2, x^2", "--point", "2,0")
        payload = json.loads(out)
        assert payload["void"] is True and payload["faces"] == []


class TestReproCommand:
    def test_irrational_case(self, capsys):
        code, out = run(capsys, "repro", "--case", "irrational")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True

    def test_console_entry_point(self, capsys, monkeypatch):
        # the `eps` script that pyproject.toml installs
        monkeypatch.setattr(sys, "argv", ["eps", "repro", "--case", "irrational"])
        with pytest.raises(SystemExit) as info:
            console_main()
        assert info.value.code == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_mixed_grid_case(self, capsys):
        code, out = run(capsys, "repro", "--case", "mixed-grid")
        assert code == 0

    # sha256 of each case's stdout: a change to any number, key or float
    # formatting of a reproduction shows up here
    PINNED = {
        "example-counter": "b5fb2f92f51799fec6ab0019986345c71f0d87eb4f9502753fc419125beb0009",
        "example-limit": "ccc2aea2de6d0d5140ded214fc7c05cbb9e405190656d308d64af2e5f9d1c169",
        "jm-volume": "5044ea4fe8d3a0e601714606d608f7c6d31031cba53f1cdf81b1eced9bde497e",
        "mixed-grid": "baa70df1665a582e6abec1361d5ec66fe535b7496171952964f26efb4738135e",
        "irrational": "233c2620492ae427fe1ae3b11bf2a44905d3b8c3332ce859c43c79d286b297b7",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_is_pinned(self, capsys, case):
        code, out = run(capsys, "repro", "--case", case)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[case]

    def test_example_limit_adds_only_exact_length(self, capsys):
        # with exact_length cut out, the output is the one pinned before it was added
        code, out = run(capsys, "repro", "--case", "example-limit")
        assert code == 0
        exact = json.loads(out)["exact_length"]
        assert exact["pass"] and exact["equals_staircase"] and exact["lower_mismatches"] == []
        cut = re.sub(r'"exact_length": \{[^{}]*\}, ', "", out)
        assert hashlib.sha256(cut.encode()).hexdigest() == (
            "507b26f49f74a9933139d630544ac047964e49f791786344dfdd645b05049a5d")


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, out1 = run(capsys, "newton", "--ideal", "x*y^2, x^2")
        _, out2 = run(capsys, "newton", "--ideal", "x*y^2, x^2")
        assert out1 == out2

    def test_rationals_are_canonical(self, capsys):
        _, out = run(capsys, "epsilon", "--ideal", "x^2, y^4", "--method", "volume")
        payload = json.loads(out)
        num, den = payload["epsilon"].split("/")
        from math import gcd
        assert gcd(int(num), int(den)) == 1 and int(den) > 0

"""Spec-file parsing, commands, exit codes, output determinism."""

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ascart
from ascart import (
    GF,
    Poly,
    cartier_matrix,
    cli,
    parse_spec_text,
    sweep,
    validate,
    zeta,
)
from ascart import cartier, invariants, rational
from ascart.cartier import CartierMatrix
from ascart.cli import main
from ascart.errors import (
    AscartError,
    DuplicatePoleLocation,
    NotInSpan,
    ParseError,
    PoleOrderDivisibleByP,
)
from ascart.zeta import SlopePolygon

CURVES = Path(__file__).resolve().parent.parent / "curves"
GOLDEN = Path(__file__).resolve().parent / "golden"
SCALE = GOLDEN / "scale"

CUBIC = "p = 7\npole inf: 0 0 0 1\n"
TWO_POLE = "p = 3\npole inf: 0 0 1\npole 1: 1\n"


def write(tmp_path, text, name="c.curve"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# the spec grammar's pieces, well-formed and not, for fuzzing the parser
_ELEMENT = st.one_of(
    st.integers(-30, 30).map(str),
    st.lists(st.integers(-3, 9), max_size=4).map(lambda ds: "(" + ",".join(map(str, ds)) + ")"),
)
_JUNK = st.one_of(
    st.sampled_from(["(1,2", "()", "(,)", "(a,1)", "((0,1))", "zz", "1.5", "inf", ":", "#"]),
    st.text(max_size=4),
)
_ELEMENTS = st.lists(_ELEMENT, min_size=1, max_size=6).map(" ".join)
_TOKENS = st.lists(st.one_of(_ELEMENT, _JUNK), max_size=6).map(" ".join)
_GRAMMAR_LINE = st.one_of(
    st.builds("field_degree = {}".format, st.integers(-2, 5)),
    st.builds("pole inf: {}".format, _ELEMENTS),
    st.builds("pole {}: {}".format, _ELEMENT, _ELEMENTS),
)
_SPEC_LINE = st.one_of(
    _GRAMMAR_LINE,
    st.builds("field_degree = {}".format, _JUNK),
    st.builds("pole {}: {}".format, st.one_of(_ELEMENT, _JUNK), _TOKENS),
    st.builds("pole {} {}".format, _ELEMENT, _TOKENS),
    st.builds("{} = {}".format, st.sampled_from(["p", "q", ""]), st.one_of(_ELEMENT, _JUNK)),
    st.text(max_size=20),
)
_LINES = st.lists(_SPEC_LINE, max_size=8).map("\n".join)
# p first and then grammar lines, so that most specs reach validation
_SPEC = st.builds(
    lambda p, tail: "\n".join([f"p = {p}", *tail]),
    st.sampled_from([2, 3, 5, 7, 13]),
    st.lists(_GRAMMAR_LINE, min_size=1, max_size=5),
)


class TestParse:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=200), _LINES, _SPEC))
    def test_fuzzed_text_raises_only_input_errors(self, text):
        """Any text either parses or raises an AscartError, which the CLI
        maps to exit 2; nothing else escapes, not even a ValueError."""
        try:
            parse_spec_text(text)
        except AscartError:
            pass

    def test_cubic(self):
        spec = parse_spec_text(CUBIC)
        assert spec.field == GF(7)
        assert validate(spec).orders == (3,)

    def test_comments_and_blanks(self):
        spec = parse_spec_text("# curve\n\np = 7  # char\n\npole inf: 0 0 0 1\n")
        assert validate(spec).g == 6

    def test_negative_and_large_ints_reduced(self):
        spec = parse_spec_text("p = 5\npole inf: 0 -1 6\n")
        assert spec.poles[0].coeffs == (GF(5)(0), GF(5)(4), GF(5)(1))

    def test_extension_field_tuples(self):
        spec = parse_spec_text(
            "p = 3\nfield_degree = 2\npole inf: 1 (0,1) 2\npole (0,1): (1,1)\n"
        )
        F = GF(3, 2)
        assert spec.field == F
        assert spec.poles[1].location == F.gen

    def test_duplicate_pole_location(self):
        with pytest.raises(DuplicatePoleLocation):
            parse_spec_text("p = 5\npole inf: 0 1\npole 3: 1\npole 3: 2\n")

    def test_validation_runs(self):
        with pytest.raises(PoleOrderDivisibleByP):
            parse_spec_text("p = 3\npole inf: 0 0 0 1\n")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("pole inf: 0 1\n", "p must be set"),
            ("p = 7\np = 7\npole inf: 0 1\n", "twice"),
            ("p = 3\nfield_degree = 2\nfield_degree = 1\npole inf: 0 1\n", "field_degree given twice"),
            ("p = 7\nwidth = 2\npole inf: 0 1\n", "unknown key"),
            ("p = 7\npole inf 0 1\n", "pole"),
            ("p = 7\npole inf: (1,2\n", "unterminated"),
            ("p = 7\npole inf: zz\n", "bad field element"),
            ("p = 7\npole inf:\n", "no coefficients"),
            ("p = 7\nnonsense line\n", "cannot parse"),
            ("p = 7\n", "no poles"),
            ("", "does not set p"),
            ("p = 3\nfield_degree = 1\npole inf: 0 1\nfield_degree = 2\n", "before the poles"),
            # a digit tuple is read as written, never reduced
            ("p = 3\nfield_degree = 2\npole inf: 0 (5,7) 1\n", "'(5,7)' has a digit outside [0, 3)"),
            ("p = 3\nfield_degree = 2\npole inf: 0 (-1,0) 1\n", "'(-1,0)' has a digit outside"),
            ("p = 3\nfield_degree = 2\npole (0,3): 1\npole inf: 0 1\n", "outside [0, 3)"),
            ("p = 3\nfield_degree = 3\npole inf: 0 (1,,2) 1\n", "bad digit tuple '(1,,2)'"),
            ("p = 3\nfield_degree = 2\npole inf: 0 (1,) 1\n", "bad digit tuple"),
            ("p = 3\nfield_degree = 2\npole inf: 0 () 1\n", "bad digit tuple"),
            # every integer is an optional '-' and ASCII digits, as int() alone is not
            ("p = 1_3\npole inf: 0 1\n", "line 1: bad integer '1_3'"),
            ("p = +13\npole inf: 0 1\n", "bad integer '+13'"),
            ("p = 13\nfield_degree = \u0662\npole inf: 0 1\n", "bad integer"),
            ("p = 13\npole inf: 0 1_0 1\n", "line 2: bad field element '1_0'"),
            ("p = 13\npole inf: 0 \u0661 1\n", "bad field element '\u0661'"),
            ("p = 13\npole inf: 0 +1 1\n", "bad field element '+1'"),
            ("p = 13\npole inf: 0 --1 1\n", "bad field element '--1'"),
            ("p = 13\npole inf: 0 " + "9" * 5000 + " 1\n", "bad field element"),
            ("p = 13\nfield_degree = 2\npole inf: 0 (+1) 1\n", "bad digit tuple '(+1)'"),
            ("p = 13\nfield_degree = 2\npole inf: 0 (1_0) 1\n", "bad digit tuple '(1_0)'"),
            ("p = 13\nfield_degree = 2\npole inf: 0 (\u0661,0) 1\n", "bad digit tuple"),
            ("p = 13\nfield_degree = 2\npole (+1): 1\npole inf: 0 1\n", "bad digit tuple"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_spec_text(text)
        assert fragment in str(exc.value)

    def test_shipped_examples_parse(self):
        for path in CURVES.glob("*.curve"):
            if path.name == "p5_x3.curve":
                continue  # valid too, just not theorem-applicable
            spec = parse_spec_text(path.read_text())
            assert validate(spec).g >= 0


class TestCommands:
    def test_info(self, tmp_path, capsys):
        assert main(["info", write(tmp_path, CUBIC)]) == 0
        out = capsys.readouterr().out
        assert "genus g = 6" in out
        assert "p-rank s = 0" in out

    def test_info_invalid_returns_2(self, tmp_path, capsys):
        path = write(tmp_path, "p = 3\npole inf: 0 0 0 1\n")
        assert main(["info", path]) == 2
        assert "invalid curve" in capsys.readouterr().out

    def test_info_json(self, tmp_path, capsys):
        assert main(["info", write(tmp_path, TWO_POLE), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["genus"] == 3 and data["p_rank"] == 2 and data["valid"]

    def test_info_json_digit_out_of_range(self, tmp_path, capsys):
        """(5,7) over GF(3^2) is refused, not read as (2,1)."""
        path = write(tmp_path, "p = 3\nfield_degree = 2\npole inf: 0 (5,7) 1\n")
        assert main(["info", path, "--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "valid": False, "error": "line 3: '(5,7)' has a digit outside [0, 3)"}

    @pytest.mark.parametrize("command", [["info"], ["info", "--json"], ["anumber"]])
    def test_non_utf8_spec_is_invalid_input(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.curve"
        path.write_bytes("# Cartier, \u00e9t\u00e9\np = 7\npole inf: 0 0 0 1\n".encode("latin-1"))
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        message = "'utf-8' codec can't decode byte 0xe9 in position 11: invalid continuation byte"
        if command == ["info", "--json"]:
            assert json.loads(out) == {"valid": False, "error": message} and err == ""
        elif command == ["info"]:
            assert (out, err) == (f"invalid curve: {message}\n", "")
        else:
            assert (out, err) == ("", f"error: {message}\n")

    def test_missing_file_returns_2(self, capsys):
        assert main(["info", "/nonexistent.curve"]) == 2

    def test_missing_file_json_envelope(self, capsys):
        assert main(["info", "/nonexistent.curve", "--json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["valid"] is False and "No such file" in data["error"]

    def test_matrix_json_round_trip(self, tmp_path, capsys):
        assert main(["matrix", write(tmp_path, CUBIC), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        M = CartierMatrix.from_json(data)
        assert M.dimension == 6
        assert M.field(M.digits[0, 4]) == GF(7)(1)  # row dx, column y^2 dx
        assert M.field(M.digits[2, 5]) == GF(7)(3)  # row y dx, column y^3 dx
        assert M.to_json() == data

    def test_matrix_both_pipelines(self, tmp_path, capsys):
        assert main(["matrix", write(tmp_path, TWO_POLE), "--pipeline", "both"]) == 0
        assert "pipelines agree: True" in capsys.readouterr().out

    def test_anumber(self, tmp_path, capsys):
        assert main(["anumber", write(tmp_path, CUBIC), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "genus": 6, "rank": 2, "a_rank": 4, "a_formula": 4, "match": True,
        }

    def test_anumber_formula_only(self, tmp_path, capsys):
        assert main(["anumber", write(tmp_path, CUBIC), "--method", "formula"]) == 0
        assert "= 4" in capsys.readouterr().out

    def test_anumber_rank_only(self, tmp_path, capsys):
        path = write(tmp_path, "p = 5\npole inf: 0 0 0 1\n")  # formula N/A
        assert main(["anumber", path, "--method", "rank", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"genus", "rank", "a_rank"}

    @pytest.mark.parametrize("text,flags,code,expected", [
        (CUBIC, ["--method", "rank"], 0, "g = 6\nrank(M) = 2\na (corank) = 4\n"),
        ("p = 5\npole inf: 0 0 0 1\n", ["--method", "rank"], 0,
         "g = 4\nrank(M) = 0\na (corank) = 4\n"),
        (CUBIC, [], 0, "g = 6\nrank(M) = 2\na (corank) = 4\n"
                       "a (pole-order formula) = 4\nmatch: True\n"),
        ("p = 5\npole inf: 0 0 0 1\n", [], 0, "g = 4\nrank(M) = 0\na (corank) = 4\n"
         "pole-order formula: not applicable (p != 1 mod L)\n"),
    ], ids=["rank", "rank-formula-na", "both", "both-formula-na"])
    def test_anumber_text(self, text, flags, code, expected, tmp_path, capsys):
        """The text of --method rank and of the default (both), byte for
        byte, with the exit code."""
        assert main(["anumber", write(tmp_path, text), *flags]) == code
        assert capsys.readouterr().out == expected

    def test_anumber_text_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(invariants, "theorem_a_value", lambda p, orders: 5)
        assert main(["anumber", write(tmp_path, CUBIC)]) == 1
        assert capsys.readouterr().out == ("g = 6\nrank(M) = 2\na (corank) = 4\n"
                                           "a (pole-order formula) = 5\nmatch: False\n")

    def test_anumber_formula_not_applicable(self, tmp_path):
        path = write(tmp_path, "p = 5\npole inf: 0 0 0 1\n")
        assert main(["anumber", path, "--method", "formula"]) == 2

    def test_verify_ok(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, CUBIC)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_condition_not_satisfied(self, tmp_path, capsys):
        path = write(tmp_path, "p = 5\npole inf: 0 0 0 1\n")
        assert main(["verify", path]) == 2
        assert "not 1 mod" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("p = 5\npole inf: 3\n", "f is regular at infinity"),
        ("p = 5\npole 1: 3\n", "the first pole must be at infinity"),
    ])
    def test_verify_missing_infinite_pole(self, tmp_path, capsys, text, message):
        """The hint names the substitution that moves a pole to infinity."""
        assert main(["verify", write(tmp_path, text)]) == 2
        hint = "substitute x -> e + 1/x to move a pole e of f there"
        assert capsys.readouterr().err == f"error: {message}; {hint}\n"

    def test_zeta(self, tmp_path, capsys):
        path = write(tmp_path, "p = 3\npole inf: 0 0 1\n")
        assert main(["zeta", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["l"] == [1, 0, 3]
        assert data["newton"] == [[1, 2, 2]]
        assert data["hodge"] == [[1, 2, 1]]
        assert data["comparison"] == "equal"
        assert data["counts"] == [4]

    def test_oracle(self, tmp_path, capsys):
        assert main(["oracle", write(tmp_path, TWO_POLE), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pipelines_agree"]

    def test_shipped_gf9_curve(self, capsys):
        assert main(["verify", str(CURVES / "p3_gf9_twopole.curve")]) == 0


class TestSweepCommand:
    ARGS = ["sweep", "--p", "7", "--orders", "3", "--samples", "8", "--seed", "5"]

    def test_deterministic_bytes(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first
        assert "pass: True" in first
        assert "generator: sha256-split/mt19937" in first

    def test_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--csv", str(csv_path)]) == 0
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sample,seed,a,s,g,rank"
        assert len(lines) == 9
        for line in lines[1:]:
            sample, seed, a, s, g, rank = line.split(",")
            assert (a, s, g, rank) == ("4", "0", "6", "2")

    def test_json(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is True
        assert data["theorem_a"] == 4
        assert len(data["results"]) == 8

    @pytest.mark.parametrize("orders, theorem", [("3", 4), ("4,3", None)])
    def test_family_is_read_once(self, orders, theorem, capsys, monkeypatch):
        """One order_invariants call per sweep gives the digit cap's genus,
        the theorem's condition and m(p-1); the JSON keeps its keys, as
        the invariants are no field of the config."""
        calls = []

        def counted(p, orders):
            calls.append((p, orders))
            return invariants_of(p, orders)

        invariants_of = sweep.order_invariants
        monkeypatch.setattr(sweep, "order_invariants", counted)
        assert main(["sweep", "--p", "7", "--orders", orders, "--samples", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert calls == [(7, tuple(int(d) for d in orders.split(",")))]
        assert list(data) == ["p", "field_degree", "orders", "samples", "seed", "generator",
                              "theorem_a", "distinct_a", "pass", "results"]
        assert data["theorem_a"] == theorem

    def test_exploratory_regime(self, capsys):
        # 3 != 1 mod 4: per-sample values reported, no verdict
        assert main(["sweep", "--p", "3", "--orders", "4", "--samples", "5",
                     "--seed", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is None
        assert data["theorem_a"] is None
        assert len(data["results"]) == 5

    def test_extension_field(self, capsys):
        assert main(["sweep", "--p", "3", "--orders", "2,1", "--field-degree",
                     "2", "--samples", "5", "--seed", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is True
        assert all(r["a"] == 1 and r["s"] == 2 for r in data["results"])

    def test_invalid_orders(self, capsys):
        assert main(["sweep", "--p", "3", "--orders", "3", "--samples", "2"]) == 2
        assert main(["sweep", "--p", "3", "--orders", "2,,1"]) == 2

    def test_field_too_small(self, capsys):
        # 4 distinct finite poles cannot fit in GF(3), nor 3 in GF(2)
        assert main(["sweep", "--p", "3", "--orders", "2,1,1,1,1", "--samples", "1"]) == 2
        assert main(["sweep", "--p", "2", "--orders", "1,1,1,1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "fewer than 4 finite poles" in err
        assert "fewer than 3 finite poles" in err

    def test_unwritable_csv_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        def sampled(config):
            raise AssertionError("swept before opening the CSV")

        monkeypatch.setattr(cli, "run_sweep", sampled)
        missing = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--p", "7", "--orders", "3", "--samples", "2",
                     "--csv", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "No such file or directory" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--p", "4", "--orders", "3"], "4 is not prime"),
            (["--p", "7", "--orders", "0"], "pole orders must be >= 1"),
            (["--p", "7", "--orders", "7"], "pole 0 has order 7 divisible by p=7"),
            (["--p", "2", "--orders", "1,1,1,1"], "fewer than 3 finite poles"),
            (["--p", "1031", "--orders", "3"],
             "genus 1030 over GF(1031) exceeds the 1048576-digit cap"),
        ],
    )
    def test_invalid_config_leaves_the_csv_alone(self, args, message, tmp_path, capsys):
        csv_path = tmp_path / "kept.csv"
        csv_path.write_bytes(b"sample,seed\n0,1\n")
        assert main(["sweep", *args, "--csv", str(csv_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert csv_path.read_bytes() == b"sample,seed\n0,1\n"

    @pytest.mark.parametrize("args, stderr", [
        (["--orders", "3,x"], "error: invalid literal for int() with base 10: 'x'\n"),
        (["--orders", "2,,1"], "error: invalid literal for int() with base 10: ''\n"),
        (["--orders", "3", "--samples", "0"], "error: sample count must be >= 1\n"),
        (["--orders", "3,-1"], "error: pole orders must be >= 1\n"),
        (["--orders", "3", "--field-degree", "0"], "error: extension degree must be >= 1\n"),
        # each order is an optional '-' and ASCII digits, as in a spec file
        (["--orders", "\u0663"], "error: invalid literal for int() with base 10: '\u0663'\n"),
        (["--orders", "1_0,+1"], "error: invalid literal for int() with base 10: '1_0'\n"),
        (["--orders", "3,+1"], "error: invalid literal for int() with base 10: '+1'\n"),
        (["--orders", "3, 1"], "error: invalid literal for int() with base 10: ' 1'\n"),
    ])
    def test_invalid_argument_is_an_input_error(self, args, stderr, capsys, monkeypatch):
        """Each bad argument raises an AscartError, exit 2 with its stderr
        byte for byte, not a bare ValueError, which would exit 3."""
        def refused(config):
            raise AssertionError("a bad argument reached the sweep")

        monkeypatch.setattr(cli, "run_sweep", refused)
        assert main(["sweep", "--p", "7", *args]) == 2
        assert capsys.readouterr() == ("", stderr)

    @pytest.mark.parametrize("option, value", [
        ("--p", "x"), ("--p", "+7"), ("--p", "\u0667"), ("--field-degree", "0_1"),
        ("--samples", "1_0"), ("--samples", " 2"), ("--seed", "+5"), ("--seed", "\u0665"),
    ])
    def test_integer_option_follows_the_spec_file_rule(self, option, value, capsys,
                                                        monkeypatch):
        """--p, --field-degree, --samples and --seed are an optional '-' and
        ASCII digits, or argparse refuses them, exit 2, in its words for
        type=int."""
        monkeypatch.setattr(cli, "run_sweep", lambda config: pytest.fail("swept"))
        argv = {"--p": "7", "--orders": "3", option: value}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *(token for pair in argv.items() for token in pair)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"ascart sweep: error: argument {option}: invalid int value: "
                            f"{value!r}\n")

    def test_oversized_sweep_is_refused_before_any_draw(self, capsys, monkeypatch):
        """The digit cap follows from (p, orders) alone: refusing it draws
        no curve, however large the orders."""
        drawn = []
        monkeypatch.setattr(sweep, "random_curve", lambda *args: drawn.append(args))
        assert main(["sweep", "--p", "7", "--orders", "200000", "--samples", "1"]) == 2
        assert capsys.readouterr() == ("", "error: Cartier matrix of genus 599997 over GF(7) "
                                           "exceeds the 1048576-digit cap on g^2*k\n")
        assert drawn == []

    @pytest.mark.parametrize("orders", ["0", "3,0", "3,-1"])
    def test_order_below_one_rejected_before_sampling(self, orders, capsys):
        assert main(["sweep", "--p", "7", "--orders", orders]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "pole orders must be >= 1" in err

    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        def broken(p, orders):
            raise ZeroDivisionError("integer division or modulo by zero")

        monkeypatch.setattr(sweep, "theorem_a_value", broken)
        assert main(self.ARGS) == 3
        out, err = capsys.readouterr()
        assert out == "" and "internal error (ZeroDivisionError)" in err

    @pytest.mark.parametrize("orders", ["3", "4,1"])  # p = 1 mod L, and not
    def test_p_rank_off_deuring_shafarevich_is_internal(self, orders, capsys, monkeypatch):
        """A p-rank other than m(p-1) is a bug, on either side of p = 1 mod
        L: exit 3, never a mismatch, and nothing on stdout."""
        real = sweep.p_rank_stable
        monkeypatch.setattr(sweep, "p_rank_stable", lambda M: real(M) + 1)
        assert main(["sweep", "--p", "7", "--orders", orders, "--samples", "2"]) == 3
        out, err = capsys.readouterr()
        s = orders.count(",") * (7 - 1)  # m(p-1)
        assert out == ""
        assert f"internal error (AssertionError): sample 0: p-rank {s + 1} is not m(p-1) = {s}" in err


FORMATS = {"txt": (), "json": ("--json",)}

_ZETA = "captured from brute-force enumeration over F_(q^s) for every s <= g"
_MATRIX = ("captured while the rational pipeline still found denominator roots by "
           "scanning the whole field")
_SWEEP = ("captured from the element-wise elimination that rank and p-rank used "
          "for extension fields before the regular representation")
_ORACLE = "the two Cartier pipelines agree on this curve"
_FULL_SERIES = "the local pipeline where H at infinity is a full series, not a polynomial"


def _spec(stem):
    return str(SCALE / f"{stem}.curve")


def _sweep(p, orders):
    return ("sweep", "--p", str(p), "--orders", orders, "--samples", "1", "--seed", "1")


class Golden(NamedTuple):
    """A pinned CLI output: `ascart *argv` exits 0 and prints the golden file
    byte for byte, within bound seconds when a bound is set."""

    argv: tuple[str, ...]
    golden: Path
    reason: str
    bound: float | None = None


GOLDENS = [
    *(Golden(("zeta", str(curve), *flags), GOLDEN / "zeta" / f"{curve.stem}.{fmt}", _ZETA)
      for curve in sorted(CURVES.glob("*.curve")) for fmt, flags in FORMATS.items()),
    *(Golden(("matrix", str(curve), "--pipeline", "both", *flags),
             GOLDEN / "matrix" / f"{curve.stem}.{fmt}", _MATRIX)
      for curve in sorted(CURVES.glob("*.curve")) + sorted((GOLDEN / "matrix").glob("*.curve"))
      for fmt, flags in FORMATS.items()),
    *(Golden(("sweep", "--p", "5", "--orders", "4,2", "--field-degree", "2", "--samples", "20",
              "--seed", "3", *flags), GOLDEN / "sweep" / f"p5_k2_o4-2_n20_s3.{fmt}", _SWEEP)
      for fmt, flags in FORMATS.items()),
    # Scale rows, text only: the theorem near the digit cap and zeta over
    # GF(3^14), each within a time bound that fails the row on a hang.
    Golden(("zeta", _spec("p3_gf2187_o1-1")), SCALE / "zeta_p3_gf2187_o1-1.txt",
           "whole-field enumeration of GF(3^14), 4.78 million elements; N_1 checked "
           "against the scalar reference in tests/naive_zeta.py", 300),
    Golden(("verify", _spec("p101_o5-4-2")), SCALE / "verify_p101_o5-4-2.txt",
           "the local pipeline at g = 600, gathered dot products over series of up "
           "to 501 terms", 30),
    Golden(("oracle", _spec("p61_o5-3")), SCALE / "oracle_p61_o5-3.txt",
           _ORACLE + ": g = 240, every image decomposed unreduced at the one finite pole",
           60),
    Golden(("verify", _spec("p61_o5-3")), SCALE / "verify_p61_o5-3.txt",
           "the rank and a-number of the g = 240 curve", 60),
    Golden(("oracle", _spec("p101_o5-4-2")), SCALE / "oracle_p101_o5-4-2.txt",
           _ORACLE + ": the rational pipeline's Kronecker products at g = 600", 60),
    Golden(("oracle", _spec("p1009_o3")), SCALE / "oracle_p1009_o3.txt",
           _ORACLE + ": y^1009 - y = x^3 + 5x, g = 1008, at the digit cap", 60),
    Golden(("oracle", _spec("p1009_o1-1")), SCALE / "oracle_p1009_o1-1.txt",
           _ORACLE + ": g = 1008 with every image of the rational pipeline live, "
           "1008 of 1008", 60),
    Golden(("oracle", _spec("p5_gf25_o9-3-2")), SCALE / "oracle_p5_gf25_o9-3-2.txt",
           _ORACLE + ": two finite poles over GF(5^2), dense field elements", 60),
    Golden(("oracle", _spec("p3_gf2187_o8-5-2")), SCALE / "oracle_p3_gf2187_o8-5-2.txt",
           _ORACLE + ": two finite poles over GF(3^7), dense field elements", 60),
    Golden(("anumber", _spec("p3_gf2187_o8-5-2")), SCALE / "anumber_p3_gf2187_o8-5-2.txt",
           "the a-number of the GF(3^7) curve, where the formula does not apply", 60),
    Golden(_sweep(1009, "3"), SCALE / "sweep_p1009_o3_n1_s1.txt",
           "a sweep at the digit cap, g = 1008: the rank's pivot certificate and the "
           "p-rank's triangular check with a zero diagonal", 30),
    Golden(_sweep(673, "2,1"), SCALE / "sweep_p673_o2-1_n1_s1.txt",
           _FULL_SERIES + ", cut to the 671 of 1345 terms C reads", 30),
    Golden(_sweep(1009, "1,1"), SCALE / "sweep_p1009_o1-1_n1_s1.txt",
           _FULL_SERIES + ", cut to the 2 of 1009 terms C reads", 30),
    Golden(_sweep(409, "2,1,1"), SCALE / "sweep_p409_o2-1-1_n1_s1.txt",
           "the local pipeline with two finite poles, every H_l a full series, g = 1020",
           30),
    Golden(_sweep(103, "5,4,2"), SCALE / "sweep_p103_o5-4-2_n1_s1.txt",
           "the rank's elimination at scale, g = 612, where L = 20 does not divide p - 1",
           60),
]


class _GoldenRows:
    """One test for every row of GOLDENS, run in process through main.  The
    Test*Golden classes below only pick the rows whose golden file lies in
    their directory, so each golden keeps its test id.  The bound is a
    SIGALRM timer that fails the row when it fires, so a hang fails at the
    bound; pytest's Failed is a BaseException, which the CLI's catch-all
    does not turn into exit 3."""

    def pytest_generate_tests(self, metafunc):
        rows = [row for row in GOLDENS if row.golden.parent.name == self.directory]
        metafunc.parametrize("row", rows, ids=[f"{row.golden.suffix[1:]}-{row.golden.stem}"
                                               for row in rows])

    def test_byte_identical(self, row, capsys):
        def overdue(signum, frame):
            pytest.fail(f"ascart {' '.join(row.argv)} ran past its {row.bound} s bound")

        previous = signal.signal(signal.SIGALRM, overdue)
        signal.setitimer(signal.ITIMER_REAL, row.bound or 0)  # 0: no timer
        try:
            code = main(list(row.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0, row.reason
        assert capsys.readouterr().out.encode() == row.golden.read_bytes(), row.reason


class TestZetaGolden(_GoldenRows):
    directory = "zeta"


class TestMatrixGolden(_GoldenRows):
    directory = "matrix"


class TestSweepGolden(_GoldenRows):
    directory = "sweep"


class TestScaleGolden(_GoldenRows):
    directory = "scale"


class TestExitCodes:
    def test_huge_prime_rejected_before_primality_test(self, tmp_path, capsys):
        path = write(tmp_path, "p = 1000000000000000003\npole inf: 0 1\n")
        assert main(["info", path]) == 2
        assert "exceeds the 10000000-element cap" in capsys.readouterr().err

    def test_inconsistent_counts_is_internal(self, tmp_path, capsys, monkeypatch):
        fake = {1: [5, 0, 0, 0, 0], 2: [0, 25, 0, 0, 0]}
        monkeypatch.setattr(zeta, "_trace_distributions",
                            lambda spec, levels: [fake[s] for s in levels])
        assert main(["zeta", write(tmp_path, "p = 5\npole inf: 0 0 0 1\n")]) == 3
        assert "internal error (InconsistentCounts)" in capsys.readouterr().err

    def test_not_shrinkable_is_internal(self, tmp_path, capsys, monkeypatch):
        odd = SlopePolygon(((Fraction(1, 2), 3),))  # 3 is not divisible by p - 1 = 2
        monkeypatch.setattr(cli, "newton_polygon", lambda L, q: odd)
        assert main(["zeta", write(tmp_path, "p = 3\npole inf: 0 0 1\n")]) == 3
        assert "internal error (NotShrinkable)" in capsys.readouterr().err

    def test_not_in_span_is_internal(self, tmp_path, capsys, monkeypatch):
        def broken(spec, pipeline="local"):
            raise NotInSpan("monomial falls outside the basis")

        monkeypatch.setattr(cli, "cartier_matrix", broken)
        assert main(["matrix", write(tmp_path, CUBIC)]) == 3
        assert "internal error (NotInSpan)" in capsys.readouterr().err

    def test_foreign_pole_in_rational_pipeline_is_internal(self, tmp_path, capsys, monkeypatch):
        # a Cartier image with a pole at x = 2, where the curve has none
        def stray(spec, num, image, factors):
            lin = Poly.x(spec.field) - Poly.constant(spec.field, 2)
            return Poly.constant(spec.field, 1), lin

        monkeypatch.setattr(rational, "_rational_image", stray)
        with pytest.raises(NotInSpan):
            cartier_matrix(parse_spec_text(TWO_POLE), "rational")
        assert main(["matrix", write(tmp_path, TWO_POLE), "--pipeline", "rational"]) == 3
        assert "internal error (NotInSpan)" in capsys.readouterr().err

    def test_value_error_is_internal(self, capsys, monkeypatch):
        """Only an AscartError is invalid input: a ValueError from inside a
        pipeline is a bug, exit 3."""
        def broken(spec, orders):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cartier, "local_matrix", broken)
        assert main(["anumber", str(CURVES / "p7_x3.curve")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "internal error (ValueError): operands could not be broadcast together" in err

    def test_assertion_is_internal(self, tmp_path, capsys, monkeypatch):
        def broken(spec, pipeline="local"):
            raise AssertionError("twisted ranks increased")

        monkeypatch.setattr(cli, "a_number", broken)
        assert main(["anumber", write(tmp_path, CUBIC)]) == 3
        assert "internal error (AssertionError)" in capsys.readouterr().err

    def test_repeated_field_degree_is_invalid_input(self, tmp_path, capsys):
        path = write(tmp_path, "p = 3\nfield_degree = 2\nfield_degree = 1\npole inf: 0 1\n")
        assert main(["info", path]) == 2
        assert "field_degree given twice" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["anumber", "verify"])
    def test_pipeline_both_only_for_matrix(self, command, tmp_path, capsys):
        # an a-number comes from one matrix; only `matrix` compares two
        with pytest.raises(SystemExit) as exc:
            main([command, write(tmp_path, CUBIC), "--pipeline", "both"])
        assert exc.value.code == 2
        assert "invalid choice: 'both'" in capsys.readouterr().err

    def test_info_json_oversized_field(self, tmp_path, capsys):
        path = write(tmp_path, "p = 101\nfield_degree = 4\npole inf: 0 1\n")
        assert main(["info", path, "--json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "valid": False,
            "error": "field GF(101^4) exceeds the 10000000-element cap",
        }

    def test_zeta_over_the_cap_fails_before_enumerating(self, capsys, monkeypatch):
        # GF(3^7), D = g = 3: the sums need GF(3^21), over the cap
        def enumerated(spec, levels):
            raise AssertionError(f"enumerated F_(q^s) for s in {list(levels)}")

        monkeypatch.setattr(zeta, "_trace_distributions", enumerated)
        assert main(["zeta", str(GOLDEN / "matrix" / "p3_gf2187_o2-1.curve")]) == 2
        assert "GF(3^21) exceeds the 10000000-element cap" in capsys.readouterr().err

    def test_local_series_past_int64_is_invalid_input(self, tmp_path, capsys):
        # (p-1)*7 + 1 terms times (p-1)^2 is about 5.6e19 > 2^63, but the
        # digit cap, the one size check, refuses the curve first: g = 6000006
        path = write(tmp_path, "p = 2000003\npole inf: 0 0 0 0 0 0 0 1\n")
        assert main(["matrix", path]) == 2
        assert "genus 6000006 over GF(2000003) exceeds the 1048576-digit cap" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["anumber", "matrix", "verify", "oracle"])
    def test_genus_zero_past_the_series_bound_runs(self, tmp_path, capsys, command):
        # y^p - y = x has g = 0, so no series of p terms is built
        assert main([command, write(tmp_path, "p = 2200013\npole inf: 0 1\n")]) == 0
        assert capsys.readouterr().err == ""

    def test_genus_zero_sweep_past_the_series_bound_runs(self, capsys):
        assert main(["sweep", "--p", "2200013", "--orders", "1", "--samples", "1"]) == 0
        assert "pass: True" in capsys.readouterr().out

    def test_oversized_curve_is_invalid_input(self, tmp_path):
        # g = 100002: without the cap the local pipeline's sign table alone
        # is 33 GiB, a MemoryError (exit 3) under this address-space limit
        path = write(tmp_path, "p = 100003\npole inf: 0 0 0 1\n")
        limit = 2 * 10**9
        proc = subprocess.run(
            [sys.executable, "-m", "ascart.cli", "matrix", path],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(ascart.__file__).parents[1]),
                 "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            "error: Cartier matrix of genus 100002 over GF(100003) "
            "exceeds the 1048576-digit cap on g^2*k\n"
        )

    def test_info_json_huge_prime(self, tmp_path, capsys):
        path = write(tmp_path, "p = 1000000000000000003\npole inf: 0 1\n")
        assert main(["info", path, "--json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["valid"] is False and "element cap" in data["error"]


# grammar lines in the order the parser wants, so that most specs are
# curves, with at most four coefficients per pole, so that the pipelines stay
# quick; zeta and sweep stay out, their cost grows with q^min(D, g)
_SMALL_COEFFS = st.lists(st.integers(-30, 30).map(str), min_size=1, max_size=4).map(" ".join)
_SMALL_SPEC = st.builds(
    "p = {}\nfield_degree = {}\npole inf: {}\n{}".format,
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(1, 3),
    _SMALL_COEFFS,
    st.lists(st.builds("pole {}: {}".format, st.integers(-30, 30), _SMALL_COEFFS),
             max_size=3).map("\n".join),
)


@settings(max_examples=60, deadline=None)
@given(
    text=st.one_of(st.text(max_size=100), _LINES, _SMALL_SPEC),
    command=st.sampled_from([
        ["info"], ["info", "--json"], ["matrix", "--pipeline", "both"], ["anumber"],
        ["verify", "--json"], ["oracle"],
    ]),
)
def test_fuzzed_cli_never_reports_an_internal_error(text, command):
    """Any spec text ends in exit 0, 1 or 2 for every command: a malformed
    or oversized curve is invalid input, never an internal error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.curve")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:]])
    assert code in (0, 1, 2), err.getvalue()

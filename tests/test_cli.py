"""Command-line interface: exit codes, JSON IO, error messages."""

import json
import os
import subprocess
import sys

import pytest

import theta_loci
from theta_loci.cli import main
from theta_loci.pipeline import CASES


def _refused(argv, value, capsys):
    """argparse refuses argv with exit 1, as for any malformed input, naming
    value; 2 is the code of a NONGENERIC report."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == "" and repr(value) in out.err


def test_malformed_arguments_exit_1(capsys):
    _refused(["run", "--case", "c5w25", "--seed", "x"], "x", capsys)
    _refused(["run", "--case", "c6"], "c6", capsys)
    with pytest.raises(SystemExit) as exc:
        main(["verlinde", "--g", "2", "--k", "2", "--level", "3"])
    assert exc.value.code == 1 and "--level 3" in capsys.readouterr().err


def test_answers_too_long_to_print_exit_1(capsys):
    """An answer with an integer longer than Python prints is a named error,
    not a traceback, and nothing of it is printed."""
    rows = lambda top, low: ",".join(map(str, range(top, low, -1)))  # noqa: E731
    for argv in (["bott", "--type", "A", "--weight", rows(200, 0)],
                 ["bott", "--type", "C", "--weight", rows(300, 150)],
                 ["schur-dim", "--lambda", rows(300, 0), "--n", "300"]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and f"{sys.get_int_max_str_digits()} digits" in out.err
    # below the limit the answer prints whole
    assert main(["schur-dim", "--lambda", rows(40, 0), "--n", "40"]) == 0
    assert len(capsys.readouterr().out.strip()) > 200


def test_over_long_integers_in_input_exit_1(tmp_path, capsys):
    """An integer with more digits than Python reads, on the command line or
    in an input file, is a named error that gives the limit, not a
    traceback."""
    limit = f"limit of {sys.get_int_max_str_digits()}"
    big = "9" * 5000

    def refused(argv, named):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        out = capsys.readouterr()
        assert code == 1 and out.out == "" and named in out.err, out.err
        assert limit in out.err and "_parse_int" not in out.err, out.err

    refused(["schur-dim", "--lambda", "2,1", "--n", big], "argument --n:")
    refused(["verlinde", "--g", "-" + big, "--k", "1"], "argument --g:")
    refused(["schur-dim", "--lambda", big, "--n", "3"], "--lambda entry 0")
    refused(["bott", "--type", "A", "--weight", "1," + big], "--weight entry 1")
    path = tmp_path / "input.json"
    for text, named in (
            ('{"prime": %s, "variables": ["x"], "generators": ["x"]}' % big,
             "'prime'"),
            ('{"prime": 101, "variables": ["x"], "generators": ["x^%s"]}' % big,
             "generators[0]"),
            ('{"prime": 101, "variables": ["x"], "generators": ["%s*x"]}' % big,
             "generators[0]")):
        path.write_text(text)
        refused(["gb", str(path)], named)
    term = '{"weight": [1, -%s], "twist": 0, "h": 0}' % big
    for text, named in (
            ('{"space": {"type": "A", "N": %s}, "terms": []}' % big, "'N'"),
            ('{"space": {"type": "C", "n": 4}, "terms": [%s]}' % term,
             "terms[0] field 'weight' entry 1")):
        path.write_text(text)
        refused(["bott", "resolution", "--file", str(path)], named)


def test_unreadable_json_files_exit_1(tmp_path, capsys):
    """A JSON file that is not UTF-8 text, or that nests deeper than the
    decoder recurses, is a named error, not a traceback."""
    path = tmp_path / "input.json"
    for data, named in ((b"\xff\xfe{}", "cannot read"),
                        (b"[" * 100000 + b"]" * 100000, "nests too deeply")):
        path.write_bytes(data)
        for argv in (["gb", str(path)], ["bott", "resolution", "--file", str(path)]):
            assert main(argv) == 1
            out = capsys.readouterr()
            assert out.out == "" and named in out.err, out.err


def test_schur_dim_cli(capsys):
    assert main(["schur-dim", "--lambda", "2,1,1,1,1", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "35"
    assert main(["schur-dim", "--lambda", "2,1", "--n", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "n = -1" in out.err
    # the empty string is the empty partition; an empty entry is an error
    assert main(["schur-dim", "--lambda", "", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # an entry is an optional sign and ASCII digits: no digit-group
    # underscores, no other scripts' digits
    for lam in ("2,1,", "1_0,2", "\u0663,1"):
        assert main(["schur-dim", "--lambda", lam, "--n", "3"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and repr(lam) in out.err
    assert main(["schur-dim", "--lambda", "+2,1", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    # integer options follow the same rule: int() would read n = 3 here
    _refused(["schur-dim", "--lambda", "2,1", "--n", "\u0663"], "\u0663", capsys)
    assert main(["schur-dim", "--lambda", "2,1", "--n", "+3"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_verlinde_cli(capsys):
    assert main(["verlinde", "--g", "2", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    # int() would read g = 10 and print 1024
    _refused(["verlinde", "--g", "1_0", "--k", "1"], "1_0", capsys)
    # too large an answer is a usage error, not a traceback
    assert main(["verlinde", "--g", "2000", "--k", "5"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "2^4096" in out.err


def test_bott_weight_cli(capsys):
    # the parser is built once per process: a flag given in one call must
    # not carry over to the next
    for _ in range(2):
        code = main(["bott", "--type", "A",
                     "--weight", "5,7,6,4,3,2,1,0,-1", "--rho-added"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"vanishes": False, "degree": 2,
                       "dominant_weight": [-1] * 9, "dimension": 1}
        assert main(["bott", "--type", "A", "--weight", "5,7,6,4,3,2,1,0,-1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"vanishes": False, "degree": 1,
                       "dominant_weight": [6, 6, 6, 4, 3, 2, 1, 0, -1],
                       "dimension": 13192058880}
    # an empty entry would silently change GL_N; it is an input error, and so
    # is an entry that is not an optional sign and ASCII digits
    for weight in ("1,,2", "2,1,", ",1", "1_0,2", "\u0663,1"):
        assert main(["bott", "--type", "A", "--weight", weight]) == 1
        out = capsys.readouterr()
        assert out.out == "" and repr(weight) in out.err
    assert main(["bott", "--type", "A", "--weight", "+2,1"]) == 0
    assert json.loads(capsys.readouterr().out)["dominant_weight"] == [2, 1]


def test_bott_resolution_cli(tmp_path, capsys):
    terms = {
        "space": {"type": "C", "n": 4},
        "terms": [
            {"weight": [], "twist": 0, "h": 0},
            {"weight": [1, 1, 1], "twist": -3, "h": 1},
            {"weight": [2], "twist": -4, "h": 2},
            {"weight": [1, 1], "twist": -6, "h": 3},
            {"weight": [1], "twist": -7, "h": 4, "mult": 1},
        ],
    }
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(terms))
    assert main(["bott", "resolution", "--file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degeneration_verified"] is True
    assert out["h"] == [1, 0, 3, 0, 0, 0, 0, 0]


def test_bott_edge_answers(tmp_path, capsys):
    """bott --weight 0,1 is the vanishing answer, printed at exit 0.  A
    resolution term whose mult has as many nines as Python prints digits
    (4300 by default), twisted by 1 on P^2, has h^0 = 3 * mult, one digit
    more: a named error at exit 1, with nothing printed."""
    assert main(["bott", "--weight", "0,1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"vanishes": True}
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "terms.json"
    path.write_text(json.dumps({"space": {"type": "A", "N": 3}, "terms": [
        {"weight": [], "twist": 0, "h": 0},
        {"weight": [], "twist": 1, "h": 1, "mult": int("9" * limit)}]}))
    assert main(["bott", "resolution", "--file", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"the answer has an integer of more than {limit} digits" in out.err


def test_bott_mode_is_chosen_by_the_positional(tmp_path, capsys):
    """bott resolution reads --file and refuses --weight, --type (the type
    comes from the file) and --rho-added; plain bott reads --weight, as type
    A unless --type says otherwise, and refuses --file; each refusal is
    named, at exit 1."""
    path = tmp_path / "terms.json"
    path.write_text(json.dumps({"space": {"type": "A", "N": 3},
                                "terms": [{"weight": [], "twist": 0, "h": 0}]}))
    for argv, named in (
            (["bott", "resolution", "--weight", "1,0"], "--weight"),
            (["bott", "resolution", "--weight", "1,0", "--file", str(path)],
             "--weight"),
            (["bott", "resolution", "--file", str(path), "--type", "A"], "--type"),
            (["bott", "resolution", "--file", str(path), "--type", "C"], "--type"),
            (["bott", "resolution", "--file", str(path), "--rho-added"],
             "--rho-added"),
            (["bott", "resolution"], "--file"),
            (["bott", "--weight", "1,0", "--file", str(path)], "--file"),
            (["bott", "--file", str(path)], "--file"),
            (["bott"], "--weight")):
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and named in out.err, (argv, out.err)
    assert main(["bott", "resolution", "--file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["h"] == [1, 0, 0]
    outputs = []
    for family in ([], ["--type", "A"], ["--type", "C"]):
        assert main(["bott", "--weight", "0,2,0"] + family) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1] != outputs[2]
    assert outputs[0]["dimension"] == 3 and outputs[2]["dimension"] == 14


def test_bott_resolution_malformed(tmp_path, capsys):
    space = {"type": "A", "N": 9}
    term = {"weight": [], "twist": 0, "h": 0}
    cases = [
        ({"space": space, "terms": [{"twist": 0, "h": 0}]}, "weight"),
        (5, "JSON object"),
        ({"space": 3, "terms": [term]}, "'space'"),
        ({"space": space, "terms": 5}, "'terms'"),
        ({"space": space, "terms": [5]}, "terms[0]"),
        ({"space": space, "terms": [dict(term, weight=1)]}, "'weight'"),
        ({"space": space, "terms": [dict(term, weight=["1"])]}, "'weight'"),
        ({"space": space, "terms": [dict(term, twist=1.5)]}, "'twist'"),
        ({"space": space, "terms": [dict(term, mult="2")]}, "'mult'"),
        # multiplicities and positions that no resolution has
        ({"space": {"type": "A", "N": 3}, "terms": [
            term, {"weight": [], "twist": -3, "h": 1, "mult": -3}]}, "terms[1] field 'mult'"),
        ({"space": space, "terms": [dict(term, mult=0)]}, "terms[0] field 'mult'"),
        ({"space": space, "terms": [term, dict(term, twist=1, h=-1)]}, "terms[1] field 'h'"),
    ]
    for n in ("x", 2.5, True, 0):
        cases.append(({"space": {"type": "A", "N": n}, "terms": [term]}, "'N'"))
    cases.append(({"space": {"type": "C", "n": -1}, "terms": [term]}, "'n'"))
    path = tmp_path / "bad.json"
    for payload, field in cases:
        path.write_text(json.dumps(payload))
        assert main(["bott", "resolution", "--file", str(path)]) == 1, payload
        assert field in capsys.readouterr().err, payload


def test_vinberg_cli(capsys):
    assert main(["vinberg", "dim", "--terms", "[1,2,3]+[4,5,6]"]) == 0
    assert capsys.readouterr().out.strip() == "26"
    assert main(["vinberg", "dim", "--terms", "[1,2,3]+[2,1,3]"]) == 0
    assert capsys.readouterr().out.strip() == "0"  # e123 - e123
    assert main(["vinberg", "dim", "--terms", "[12,3]+[4,5,6]"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "'[12,3]" in out.err
    assert main(["vinberg", "table"]) == 0
    out = capsys.readouterr().out
    assert "A2+3A1" in out and " 35" in out
    assert main(["vinberg", "supports", "--type", "3A1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 2
    assert main(["vinberg", "supports", "--type", "A2+3A1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 1
    assert out["representatives"] == [
        [[1, 2, 3], [4, 5, 6], [1, 4, 7], [2, 5, 7], [3, 6, 7]]]
    # an option the action never reads is a named error, not ignored
    for argv, named in ((["vinberg", "table", "--terms", "[1,2,3]"], "--terms"),
                        (["vinberg", "table", "--type", "3A1"], "--type"),
                        (["vinberg", "dim", "--terms", "[1,2,3]", "--type", "3A1"],
                         "--type"),
                        (["vinberg", "supports", "--type", "3A1", "--terms", "[1,2,3]"],
                         "--terms")):
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and f"vinberg {argv[1]} takes no {named}" in out.err, out.err


def test_bott_type_c_cli(capsys):
    # leading-dash weights need the = form (argparse)
    code = main(["bott", "--type", "C", "--weight=-3,1,1,1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"vanishes": False, "degree": 3,
                   "dominant_weight": [0, 0, 0, 0], "dimension": 1}
    code = main(["bott", "--type", "C", "--weight", "1,4,3,2", "--rho-added"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 3


def test_gb_cli(tmp_path, capsys):
    payload = {"prime": 101, "variables": ["x", "y", "z"],
               "generators": ["x*z", "y*z"]}
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(payload))
    assert main(["gb", str(path), "--saturate", "z", "--hilbert"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["basis"] == ["y", "x"]
    assert out["dim"] == 1
    assert out["degree"] == 1

    payload = {"prime": 101, "variables": ["t", "x", "y"],
               "generators": ["t - x^2", "t - y"]}
    path.write_text(json.dumps(payload))
    assert main(["gb", str(path), "--eliminate", "t"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["basis"] == ["x^2 + 100*y"]
    # an empty entry is an error naming the option, not a dropped entry
    for names in (",,,", "t,", "t,,x", " "):
        assert main(["gb", str(path), "--eliminate", names]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "--eliminate" in out.err and repr(names) in out.err


def test_gb_cli_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"prime": 101, "variables": ["x"]}))
    assert main(["gb", str(path)]) == 1
    assert "generators" in capsys.readouterr().err

    path.write_text(json.dumps({"prime": 100, "variables": ["x"],
                                "generators": []}))
    assert main(["gb", str(path)]) == 1
    assert "prime" in capsys.readouterr().err

    for text in ("not json", "[1, 2]"):
        path.write_text(text)
        assert main(["gb", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    # mistyped fields are named, not tracebacks
    for fields, named in (({"prime": "101"}, "prime"), ({"prime": 101.0}, "prime"),
                          ({"generators": [5]}, "generators[0]"),
                          ({"variables": ["x", 2]}, "variables"),
                          ({"generators": ["x*y +", "x -"]}, "generators[0]")):
        payload = {"prime": 101, "variables": ["x", "y"], "generators": ["x"]}
        path.write_text(json.dumps({**payload, **fields}))
        assert main(["gb", str(path)]) == 1
        assert named in capsys.readouterr().err

    # a variable name parse cannot read back is refused, not misread: with
    # "x*y" read as a product, this input would print the basis ["1"]
    for names in (["x", "y", "x*y"], ["x", "2"], ["x y"], [""], ["x^2"]):
        path.write_text(json.dumps({"prime": 101, "variables": names,
                                    "generators": ["x*y - 1", "x"]}))
        assert main(["gb", str(path)]) == 1
        err = capsys.readouterr().err
        assert "variables" in err and repr(names[-1]) in err


def test_run_cli_exit_codes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["run", "--case", "c5w25", "--seed", "3",
                 "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "PASS"
    assert payload["case"] == "c5w25"
    # int() would read seed 1
    _refused(["run", "--case", "c5w25", "--seed", "\u0661"], "\u0661", capsys)


def test_run_cli_nongeneric_exit_2(capsys):
    code = main(["run", "--case", "c5w25", "--prime", "2", "--seed", "6"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "NONGENERIC"


def test_non_prime_modulus_exit_1(capsys):
    """A modulus that is not prime is a named error before any section is
    drawn (0 once divided the draw), for every case and for the gallery."""
    for prime in (-7, 0, 1, 4, 9, 2 ** 61):
        runs = [["run", "--case", case] for case in CASES]
        for argv in runs + [["example", "--name", "nodal"]]:
            assert main(argv + [f"--prime={prime}"]) == 1, (argv, prime)
            out = capsys.readouterr()
            assert out.out == "" and f"modulus {prime} " in out.err, (argv, out.err)


def test_example_cli(capsys):
    assert main(["example", "--name", "pentagon"]) == 0
    out = capsys.readouterr().out
    assert "status PASS" in out
    assert main(["example", "--name", "triangle", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "PASS"


def test_package_imports_without_numpy():
    """The package is pure Python: importing it and the CLI loads no numpy."""
    src = os.path.dirname(os.path.dirname(theta_loci.__file__))
    code = ("import sys, theta_loci, theta_loci.cli; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr

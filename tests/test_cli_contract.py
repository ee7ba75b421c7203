"""The CLI's exit contract, over drawn argument lists.

Every call of cli.main returns, or raises SystemExit, with 0 (all verdicts
pass), 1 (a named refusal) or 2 (a NONGENERIC report), never with another
exception; a refusal names on stderr the option or value it refuses.
Arguments are drawn valid, malformed and oversized, at small sizes, and
main runs in-process.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_loci.cli import main
from theta_loci.pipeline import GALLERY
from theta_loci.vinberg import SUPPORT_TYPES

BIG = "9" * 5000  # more digits than Python reads as an int

INTEGERS = st.one_of(
    st.integers(-3, 14).map(str),
    st.sampled_from(["", "x", "2.5", "+3", "1_0", "\u0663", BIG, "-" + BIG]))
PRIMES = st.one_of(st.integers(-1, 14).map(str), st.sampled_from(["32003", "x", BIG]))
INTEGER_LISTS = st.one_of(
    st.lists(st.integers(-4, 6), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["1,,2", "2,1,", "a", "1_0", "\u0663,1", "1," + BIG]))
BRACKETS = st.sampled_from(["[1,2,3]+[4,5,6]", "[1,2,3]", "-[3,2,1]+2*[1,4,5]",
                            "[12,3]", "[1,1,2]", "[1,2,8]", "", "x", f"[1,2,{BIG}]"])


def _options(draw, required: dict, optional: dict) -> list[str]:
    """Options drawn from {flag: values}, each as --flag=value (so a value
    may start with a dash) or, for a value of True, as a bare flag.  A
    required option is left out one time in ten, an optional one half the
    time."""
    out = []
    for choices, keep in ((required, st.integers(0, 9).map(bool)), (optional, st.booleans())):
        for flag, values in choices.items():
            if draw(keep):
                value = draw(values)
                out.append(flag if value is True else f"{flag}={value}")
    return out


@st.composite
def argument_lists(draw, calibration: str) -> list[str]:
    command = draw(st.sampled_from(["run", "example", "bott", "vinberg",
                                    "schur-dim", "verlinde"]))
    formats = st.sampled_from(["json", "text", "xml"])
    if command == "run":
        argv = [command] + _options(draw, {"--case": st.sampled_from(["c5w25", "c6"])}, {
            "--prime": PRIMES, "--seed": INTEGERS, "--chart": INTEGERS, "--format": formats})
    elif command == "example":
        argv = [command] + _options(draw, {"--name": st.sampled_from(GALLERY + ("hexagon",))},
                                    {"--prime": PRIMES, "--format": formats})
    elif command == "bott":
        if draw(st.booleans()):
            argv = [command, "resolution"] + _options(draw, {
                "--file": st.sampled_from([calibration, calibration + ".missing"])},
                {"--type": st.sampled_from(["A", "C"]), "--rho-added": st.just(True)})
        else:
            argv = [command] + _options(draw, {"--weight": INTEGER_LISTS}, {
                "--type": st.sampled_from(["A", "C", "B"]), "--rho-added": st.just(True),
                "--file": st.just(calibration)})
    elif command == "vinberg":
        action = draw(st.sampled_from(["table", "dim", "supports", "orbit"]))
        types = st.sampled_from(SUPPORT_TYPES + ("5A1", ""))
        options = {"--terms": BRACKETS, "--type": types}
        read = {"dim": "--terms", "supports": "--type"}.get(action)
        argv = [command, action] + _options(
            draw, {k: v for k, v in options.items() if k == read},
            {k: v for k, v in options.items() if k != read})
    elif command == "schur-dim":
        argv = [command] + _options(draw, {"--lambda": INTEGER_LISTS, "--n": INTEGERS}, {})
    else:
        argv = [command] + _options(draw, {"--g": st.one_of(INTEGERS, st.just("2000")),
                                           "--k": st.one_of(INTEGERS, st.just("41"))}, {})
    if draw(st.integers(0, 9)) == 0:
        argv.append("--level=3")  # an option no command has
    return argv


def _named(message: str, argv: list[str]) -> bool:
    """Does the error message name an option or value of argv, or the
    answer that was too long to print?"""
    if "the answer" in message:
        return True
    tokens = []
    for arg in argv:
        flag, _, value = arg.partition("=")
        tokens += [flag, value] if flag.startswith("--") else [arg]
    message += "\n" + message.replace(" ", "")  # (2, 1) names the list 2,1
    return any(re.search(rf"(?<![\w.+-]){re.escape(t)}(?![\w.])", message)
               for t in tokens if t and len(t) <= 40)


@pytest.fixture(scope="module")
def calibration(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cli") / "p7.json"
    path.write_text(json.dumps({"space": {"type": "C", "n": 4}, "terms": [
        {"weight": w, "twist": t, "h": h}
        for w, t, h in (([], 0, 0), ([1, 1, 1], -3, 1), ([2], -4, 2),
                        ([1, 1], -6, 3), ([1], -7, 4))]}))
    return str(path)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_every_call_exits_0_1_or_2_and_names_what_it_refuses(calibration, data):
    argv = data.draw(argument_lists(calibration))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        message = "\n".join(line for line in err.getvalue().splitlines()
                            if "error:" in line)
        assert out.getvalue() == "" and _named(message, argv), (argv, err.getvalue())
    else:
        assert out.getvalue() and err.getvalue() == "", (argv, err.getvalue())

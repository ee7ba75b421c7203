"""Seeded job streams for the benchmark workloads, and their reference checks.

A job is a plain dict, so job lists can be written to JSON as they are:

    {"kind": <check to apply>, "call": "cli" | "schur_module_rank",
     "argv": [...] | "args": [...], "files": {name: json data}, "expect": {...}}

`files` are written into the run's work directory before timing starts, and
each "{name}" in `argv` is replaced by the written file's path.

Every reference in `expect` comes from the paper's stated invariants or from
arithmetic done here, never from the package under test.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations, count

WORKLOADS = ("w39", "c3c3c3", "small_jobs")


class CheckError(Exception):
    """A job's output disagrees with its reference."""


# ---------------------------------------------------------------------------
# references computed here


# The ten GL_7 orbits of degree-3 alternating tensors on C^7: representative
# triples and orbit dimensions, as printed in the paper's table.
ORBIT_ROWS = (
    ((), 0),
    (((1, 2, 3),), 13),
    (((1, 2, 3), (1, 4, 5)), 20),
    (((1, 2, 3), (1, 4, 5), (1, 6, 7)), 21),
    (((1, 2, 3), (1, 4, 5), (2, 4, 6)), 25),
    (((1, 2, 3), (4, 5, 6)), 26),
    (((1, 2, 3), (1, 4, 5), (1, 6, 7), (3, 5, 7)), 28),
    (((1, 2, 3), (4, 5, 6), (1, 4, 7)), 31),
    (((1, 2, 3), (4, 5, 6), (1, 4, 7), (2, 5, 7)), 34),
    (((1, 2, 3), (4, 5, 6), (1, 4, 7), (2, 5, 7), (3, 6, 7)), 35),
)
ORBIT_DIMS = [dim for _, dim in ORBIT_ROWS]

# Support classes up to S_7, by root-system type (paper: 3A1 -> 2, 4A1 -> 1).
SUPPORT_COUNTS = {"A1": 1, "2A1": 1, "3A1": 2, "4A1": 1, "A2": 1,
                  "A2+A1": 1, "A2+2A1": 1, "A2+3A1": 1}

VERLINDE = {(2, 1): 4, (3, 1): 8, (2, 2): 10}

# Structure-sheaf resolutions of the two calibration loci and their
# cohomology: the rank-6 locus on P^8 and the symplectic locus on P^7.
CALIBRATION = (
    ({"type": "A", "N": 9}, [
        ((), 0, 0), ((1, 1, 1, 1, 1, 1, 0, 0), -3, 1),
        ((2, 1, 1, 1, 1, 1, 1, 0), -4, 2), ((2, 0, 0, 0, 0, 0, 0, 0), -4, 3),
        ((0, 0, 0, 0, 0, 0, 0, -2), -5, 3), ((2, 1, 1, 1, 1, 1, 1, 0), -7, 4),
        ((1, 1, 0, 0, 0, 0, 0, 0), -7, 5), ((), -9, 6)],
     [1, 2, 1, 0, 0, 0, 0, 0, 0]),
    ({"type": "C", "n": 4}, [
        ((), 0, 0), ((1, 1, 1), -3, 1), ((2,), -4, 2), ((1, 1), -6, 3),
        ((1,), -7, 4)],
     [1, 0, 3, 0, 0, 0, 0, 0]),
)


def hook_content_dim(lam, n: int) -> int:
    """dim of the Schur module S_lam C^n by the hook content formula."""
    lam = [x for x in lam if x]
    conj = [sum(1 for x in lam if x > j) for j in range(lam[0])] if lam else []
    out = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            out *= Fraction(n + j - i, hook)
    return int(out)


def ci_numerator(degrees) -> dict[int, int]:
    """Coefficients of prod (1 - t^d), the numerator of a complete intersection."""
    coeffs = {0: 1}
    for d in degrees:
        nxt = dict(coeffs)
        for e, c in coeffs.items():
            nxt[e + d] = nxt.get(e + d, 0) - c
        coeffs = {e: c for e, c in nxt.items() if c}
    return coeffs


_TTERM = re.compile(r"^(\d+)?\*?(t(?:\^(\d+))?)?$")


def parse_t_poly(text: str) -> dict[int, int]:
    """Parse a numerator such as `1 - 4*t^2 + t^8` into {power: coeff}."""
    out: dict[int, int] = {}
    for sign, body in re.findall(r"(^-?|[+-])\s*([^\s+-]+)", text.strip()):
        m = _TTERM.match(body)
        if m is None or (m.group(1) is None and m.group(2) is None):
            raise CheckError(f"cannot read numerator term {body!r} in {text!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        power = 0 if not m.group(2) else int(m.group(3) or 1)
        out[power] = out.get(power, 0) + (-coeff if "-" in sign else coeff)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# inputs


def _sorted_sign(triple):
    """The sorted triple and the sign of the permutation that sorts it."""
    inversions = sum(1 for a, b in combinations(triple, 2) if a > b)
    return tuple(sorted(triple)), (-1 if inversions % 2 else 1)


def permuted_terms(triples, sigma) -> str:
    """`--terms` text for the image of sum e_T under the index permutation sigma."""
    parts = []
    for t in triples:
        image, sign = _sorted_sign([sigma[x - 1] for x in t])
        parts.append(("-" if sign < 0 else "+") + "[" + ",".join(map(str, image)) + "]")
    return "".join(parts).lstrip("+")


def _poly_text(poly: dict, names) -> str:
    terms = []
    for exps, c in sorted(poly.items(), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        terms.append(f"{c}*" + "*".join(factors) if factors else str(c))
    return " + ".join(terms)


def _substitute_quadric(q: dict, images, p: int) -> dict:
    """q(A z) for a quadric q and the linear forms images[i] = row i of A."""
    out: dict = {}
    n = len(images)
    for exps, c in q.items():
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        a, b = images[idx[0]], images[idx[1]]
        for j in range(n):
            for k in range(n):
                coeff = c * a[j] * b[k] % p
                if coeff:
                    e = [0] * n
                    e[j] += 1
                    e[k] += 1
                    key = tuple(e)
                    out[key] = (out.get(key, 0) + coeff) % p
    return {e: c for e, c in out.items() if c}


def complete_intersection(rng: random.Random, nvars: int, ncodim: int, p: int):
    """Generators of a random homogeneous quadric complete intersection.

    f_i = z_i^2 + (random quadric in z_i..z_n without z_i^2) has leading term
    z_i^2 in degrevlex; pairwise coprime leading terms make the f_i a Groebner
    basis with the Hilbert series of a complete intersection.  A random
    invertible change of coordinates A = L U (unit triangular factors) keeps
    that and hides the structure.  Any nonzero linear form in z_{c+1}..z_n
    avoids every leading term, so it is a nonzerodivisor (Bayer-Stillman);
    its image under A saturates the ideal to itself.  Returns the generator
    dicts and that saturating linear form.
    """
    gens = []
    for i in range(ncodim):
        q = {}
        for a in range(i, nvars):
            for b in range(a, nvars):
                e = [0] * nvars
                e[a] += 1
                e[b] += 1
                q[tuple(e)] = 1 if a == b == i else rng.randrange(p)
        gens.append({e: c for e, c in q.items() if c})
    lower = [[1 if i == j else (rng.randrange(1, p) if j < i else 0)
              for j in range(nvars)] for i in range(nvars)]
    upper = [[1 if i == j else (rng.randrange(1, p) if j > i else 0)
              for j in range(nvars)] for i in range(nvars)]
    rows = [[sum(lower[i][k] * upper[k][j] for k in range(nvars)) % p
             for j in range(nvars)] for i in range(nvars)]
    tail = [0] * ncodim + [rng.randrange(1, p) for _ in range(nvars - ncodim)]
    form = [sum(tail[i] * rows[i][j] for i in range(nvars)) % p for j in range(nvars)]
    return [_substitute_quadric(g, rows, p) for g in gens], form


def _gb_job(rng: random.Random, name: str, nvars: int, ncodim: int, p: int,
            saturate: bool):
    names = [f"x{i}" for i in range(1, nvars + 1)]
    gens, form = complete_intersection(rng, nvars, ncodim, p)
    argv = ["gb", "{" + name + "}", "--hilbert"]
    if saturate:
        argv += ["--saturate", " + ".join(f"{c}*{v}" for c, v in zip(form, names) if c)]
    return {"kind": "gb", "call": "cli", "argv": argv,
            "files": {name: {"prime": p, "variables": names,
                             "generators": [_poly_text(g, names) for g in gens]}},
            "expect": {"numerator": {str(e): c for e, c in
                                     sorted(ci_numerator([2] * ncodim).items())},
                       "dim": nvars - ncodim, "degree": 2 ** ncodim}}


# Section primes: the CLI default 101, except for c3c3c3.  Genericity is an
# open condition, so a random section over F_p is NONGENERIC with probability
# of order 1/p.  At p = 101 one c3c3c3 draw in about 170 was (seed
# 1346821147), which would fail runs, so c3c3c3 sections are drawn over
# F_32003.  NONGENERIC draws still count as failures and are never re-drawn.
SECTION_PRIMES = {"w39": 101, "c5w25": 101, "c3c3c3": 32003}


def _case_job(case: str, seed: int) -> dict:
    return {"kind": case, "call": "cli",
            "argv": ["run", "--case", case, "--prime", str(SECTION_PRIMES[case]),
                     "--seed", str(seed)],
            "expect": {}}


def small_jobs_pass(rng: random.Random, tag: int) -> list[dict]:
    """One fixed-composition pass of short calls; inputs drawn from rng.

    The counts are set from measured call times (bench/README.md gives the
    shares) so that no one kind of call carries most of a pass: the pipeline
    calls (c5w25, gallery), the gb calls, and the short bott, vinberg and
    verlinde calls, whose time is mostly the CLI's fixed cost, each take
    roughly a third.  The median job lies inside the block of bott
    resolution and vinberg dim calls.
    """
    jobs = [_case_job("c5w25", rng.randrange(1, 1 << 31)) for _ in range(4)]
    jobs += [{"kind": "example", "call": "cli",
              "argv": ["example", "--name", name, "--format", "json"],
              "expect": {"name": name}}
             for name in ("nodal", "triangle", "pentagon", "nonreduced", "cuspidal")]
    for i in range(6):
        jobs.append(_gb_job(rng, f"gb_{tag}_{i}", 5, 3, (101, 32003)[i % 2],
                            saturate=i >= 3))
    for i, (space, terms, h) in enumerate(CALIBRATION * 10):
        name = f"resolution_{i % len(CALIBRATION)}"
        jobs.append({"kind": "bott_resolution", "call": "cli",
                     "argv": ["bott", "resolution", "--file", "{" + name + "}"],
                     "files": {name: {"space": space, "terms": [
                         {"weight": list(w), "twist": t, "h": hh, "mult": 1}
                         for w, t, hh in terms]}},
                     "expect": {"h": h}})
    for _ in range(8):
        n = rng.randrange(2, 4)
        lam = sorted((rng.randrange(4) for _ in range(3)), reverse=True)
        lam = [x for x in lam if x]
        jobs.append({"kind": "schur", "call": "schur_module_rank", "args": [lam, n],
                     "expect": {"rank": hook_content_dim(lam, n)}})
    for triples, dim in (rng.choice(ORBIT_ROWS[1:]) for _ in range(14)):
        sigma = list(range(1, 8))
        rng.shuffle(sigma)
        jobs.append({"kind": "vinberg_dim", "call": "cli",
                     "argv": ["vinberg", "dim", "--terms=" + permuted_terms(triples, sigma)],
                     "expect": {"dim": dim}})
    jobs += [{"kind": "vinberg_table", "call": "cli", "argv": ["vinberg", "table"],
              "expect": {"dims": ORBIT_DIMS}}] * 4
    for typ in rng.sample(sorted(SUPPORT_COUNTS), 4):
        jobs.append({"kind": "vinberg_supports", "call": "cli",
                     "argv": ["vinberg", "supports", "--type", typ],
                     "expect": {"count": SUPPORT_COUNTS[typ]}})
    for (g, k), value in list(VERLINDE.items()) * 4:
        jobs.append({"kind": "verlinde", "call": "cli",
                     "argv": ["verlinde", "--g", str(g), "--k", str(k)],
                     "expect": {"value": value}})
    return jobs


def job_passes(workload: str, seed: int):
    """Endless stream of passes (lists of jobs) for a workload and seed.

    A run only ever stops between passes, so each pass is one job for the
    pipeline workloads and one full fixed-composition mix for small_jobs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    for tag in count():
        if workload == "small_jobs":
            yield small_jobs_pass(rng, tag)
        else:
            yield [_case_job(workload, rng.randrange(1, 1 << 31))]


# ---------------------------------------------------------------------------
# checks


def _records(report: dict) -> dict:
    return {r["name"]: r for r in report["records"]}


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _check_w39(out: str, expect: dict) -> None:
    report = json.loads(out)
    recs = _records(report)
    _need(recs["I"]["generator_profile"] == {"3": 1},
          f"I profile {recs['I']['generator_profile']} != {{3: 1}}")
    _need(recs["J"]["codim"] == 6, f"J codim {recs['J']['codim']} != 6")
    _need(recs["J"]["degree"] == 18, f"J degree {recs['J']['degree']} != 18")
    _need(recs["K"].get("note") == "unit ideal", f"K is {recs['K'].get('note')!r}")


def _check_c3c3c3(out: str, expect: dict) -> None:
    report = json.loads(out)
    recs = _records(report)
    a, b = recs["component_in_z456_zero"], recs["component_in_z123_zero"]
    _need(a["codim"] is not None and b["codim"] is not None, "a component is the unit ideal")
    verdict = {v["name"]: v["actual"] for v in report["verdicts"]}
    _need(verdict.get("visible_components") == "2",
          f"visible components: {verdict.get('visible_components')!r}")
    _need(a["degree"] + b["degree"] == 12, f"total degree {a['degree'] + b['degree']} != 12")
    prof = recs["component_intersection"]["generator_profile"]
    _need(prof == {"1": 6, "3": 1}, f"intersection profile {prof} != {{1: 6, 3: 1}}")


def _check_c5w25(out: str, expect: dict) -> None:
    rec = _records(json.loads(out))["pfaffian4"]
    num = parse_t_poly(rec["numerator"])
    _need(num == {0: 1, 2: -5, 3: 5, 5: -1}, f"numerator {rec['numerator']!r}")


_GALLERY_VERDICTS = {
    "nodal": {"parameterization": "on curve", "node_membership": "on curve"},
    "triangle": {"conic1_membership": "on curve", "conic2_membership": "on curve",
                 "line_membership": "on curve"},
    "pentagon": {"coordinate_lines": "5", "pentagon_cycle": "5-cycle"},
    "nonreduced": {"cubic_membership": "on curve"},
    "cuspidal": {},
}


def _check_example(out: str, expect: dict) -> None:
    report = json.loads(out)
    rec = _records(report)["pfaffian4"]
    _need(rec["hilbert_polynomial"] == "5*t", f"HP {rec['hilbert_polynomial']!r}")
    actual = {v["name"]: v["actual"] for v in report["verdicts"]}
    for name, want in _GALLERY_VERDICTS[expect["name"]].items():
        _need(actual.get(name) == want, f"{name}: {actual.get(name)!r} != {want!r}")


def _check_gb(out: str, expect: dict) -> None:
    data = json.loads(out)
    want = {int(e): c for e, c in expect["numerator"].items()}
    _need(parse_t_poly(data["numerator"]) == want, f"numerator {data['numerator']!r}")
    _need(data["dim"] == expect["dim"], f"dim {data['dim']} != {expect['dim']}")
    _need(data["degree"] == expect["degree"], f"degree {data['degree']} != {expect['degree']}")


def _check_bott_resolution(out: str, expect: dict) -> None:
    data = json.loads(out)
    _need(data["degeneration_verified"] is True, "degeneration not verified")
    _need(data.get("h") == expect["h"], f"h {data.get('h')} != {expect['h']}")


def _check_int(key: str):
    def check(out: str, expect: dict) -> None:
        _need(out.strip() == str(expect[key]), f"{out.strip()!r} != {expect[key]}")
    return check


def _check_vinberg_table(out: str, expect: dict) -> None:
    dims = [int(line.split()[2]) for line in out.strip().splitlines()[1:]]
    _need(dims == expect["dims"], f"dims {dims}")


def _check_vinberg_supports(out: str, expect: dict) -> None:
    got = json.loads(out)["count"]
    _need(got == expect["count"], f"count {got} != {expect['count']}")


CHECKS = {
    "w39": _check_w39, "c3c3c3": _check_c3c3c3, "c5w25": _check_c5w25,
    "example": _check_example, "gb": _check_gb,
    "bott_resolution": _check_bott_resolution, "schur": _check_int("rank"),
    "vinberg_dim": _check_int("dim"), "vinberg_table": _check_vinberg_table,
    "vinberg_supports": _check_vinberg_supports, "verlinde": _check_int("value"),
}


def check(job: dict, exit_code: int, out: str) -> None:
    """Raise CheckError unless the job exited 0 and its output matches."""
    _need(exit_code == 0, f"exit code {exit_code}")
    try:
        CHECKS[job["kind"]](out, job["expect"])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise CheckError(f"unreadable output: {exc!r}") from exc

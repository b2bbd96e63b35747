"""The four workloads: seeded query lists and the check of every answer.

Each workload is a list of `Query` objects.  A query carries the argv given
to `uclogic.cli.main`, a description of its input (n, m, degree) and a check
that turns the exit code and the JSON output into an error message, or None
when the answer is right.  References never come from `uclogic`:

- circuits, kernel: a committed pool (`refs/<workload>.json`) written once by
  `make_refs.py` with the outcome evaluator of `oracle.py` and sympy; the
  seed picks circuits from the pool and their order.
- pl-corpus: the benchmark's own truth tables.
- enumerate: circuits generated from the seed; the rows are counted and
  their probabilities summed, and `eval` is recomputed by `oracle.py`.

Every list is stratified round-robin: stratum s contributes the r-th query
of its own stream to round r, and consecutive queries of a stream go to
different circuits with rotating commands (`latin`).  Whatever prefix a
time-boxed run completes therefore has nearly the same mix of sizes and
commands on every seed, spread over as many circuits as it has queries; the
seed only changes which circuits fill each stratum.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import gen
import oracle

REFS = Path(__file__).resolve().parent / "refs"
HALF = Fraction(1, 2)
EPS = Fraction(1, 10**6)  # the cli default --eps

Check = Callable[[Optional[int], Optional[dict]], Optional[str]]


@dataclass
class Query:
    argv: list[str]
    check: Check
    info: dict = field(default_factory=dict)


# --- pool definitions (used by make_refs.py) -------------------------------

# (family, n variables, m unreliable gates); "comparator" is (iff C? C), the
# shape of the paper's examples, whose success rate is 1 at nu = 1, so
# abduction, rate decision and optimisation reach their affirmative paths.
# "random" is the circuit C? alone, which mostly draws negative verdicts.
FAMILIES = ("comparator", "random")
CIRCUIT_STRATA = [(fam, n, m) for fam in FAMILIES for n in (3, 4, 5)
                  for m in (6, 7, 8, 9)]
KERNEL_STRATA = [(fam, n, m) for fam in FAMILIES for n in (5, 6)
                 for m in (2, 3, 4)]
POOL_VARIANTS = {"circuits": 8, "kernel": 16}
MAJ_SHARE = 0.25
RELIABLE = {"circuits": 0, "kernel": 3}
ENUM_STRATA = [(n, m) for n in (3, 4, 5) for m in (8, 9, 10, 11)]
ENUM_VARIANTS = 16

# the kernel's bounds span degrees 8-16 in every stratum, so the degree mix
# of a run does not depend on the seed
KERNEL_DEGREES = (8, 12, 16)
CIRCUIT_COMMANDS = ["entails@1", "sat", "witness", "abduce", "decide-rate",
                    "optimize"]
KERNEL_COMMANDS = ["entails@8", "entails@12", "entails@16", "abduce",
                   "optimize"]
ABDUCE = {"circuits": (Fraction(7, 10), 6), "kernel": (Fraction(7, 10), 32)}
RATE_MU = Fraction(3, 5)


def pool_circuit(workload: str, family: str, n: int, m: int, variant: int):
    """The pool's circuit of one stratum and variant, and its ambition
    bounds by degree (coefficients, constant first), reproducible from the
    names alone."""
    rng = random.Random(f"{workload}/{family}/{n}/{m}/{variant}")
    c = gen.random_circuit(rng, n, m, MAJ_SHARE, RELIABLE[workload])
    if family == "comparator":
        c = ("gate", "iff", 2, False, (c, _reliable_copy(c)))
    if workload == "kernel":
        gammas = {d: gen.ambition_bound(rng, d) for d in KERNEL_DEGREES}
    else:
        gammas = {1: [Fraction(0), Fraction(1)]}  # mu <= nu
    return c, gammas


def _reliable_copy(f: tuple) -> tuple:
    if f[0] != "gate":
        return f
    _, kind, arity, _, children = f
    return ("gate", kind, arity, False, tuple(_reliable_copy(c) for c in children))


# --- building the query lists ----------------------------------------------


def interleave(streams: list[list[Query]]) -> list[Query]:
    """Round-robin over the strata streams, in a fixed stratum order."""
    out = []
    for r in range(max(len(s) for s in streams)):
        out.extend(s[r] for s in streams if r < len(s))
    return out


def latin(variants: list, commands: list[str], s: int) -> list[tuple]:
    """Every (variant, command) pair of stratum s, ordered in blocks: block b
    takes each variant once, variant i with command (b + i + s) mod C.  So a
    prefix of a block uses distinct circuits and rotates the commands, and
    strata side by side in one round send different commands."""
    c = len(commands)
    return [(v, commands[(b + i + s) % c])
            for b in range(c) for i, v in enumerate(variants)]


def build(workload: str, seed: int) -> list[Query]:
    rng = random.Random(f"{seed}/{workload}")
    if workload in ("circuits", "kernel"):
        return _build_pool_workload(workload, rng)
    if workload == "pl-corpus":
        return _build_pl_corpus(rng)
    if workload == "enumerate":
        return _build_enumerate(seed)
    raise ValueError(f"unknown workload {workload!r}")


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json") as fh:
        return json.load(fh)


def _build_pool_workload(workload: str, rng: random.Random) -> list[Query]:
    refs = load_refs(workload)
    commands = CIRCUIT_COMMANDS if workload == "circuits" else KERNEL_COMMANDS
    by_stratum: dict[str, list[dict]] = {}
    for item in refs["items"]:
        by_stratum.setdefault(item["stratum"], []).append(item)
    streams = []
    for s, key in enumerate(sorted(by_stratum)):
        items = _matched_order(by_stratum[key], rng)
        streams.append([_pool_query(workload, item, cmd)
                        for item, cmd in latin(items, commands, s)])
    return interleave(streams)


def _matched_order(items: list[dict], rng: random.Random) -> list[dict]:
    """The stratum's circuits paired by their number of distinct success
    polynomials, which sets the cost of optimize and of the kernel; the seed
    picks one circuit of each pair for the front of the stream and the other
    for the back.  So a run's prefix always holds one circuit of each pair,
    and the same command goes to a like circuit on every seed."""
    ranked = sorted(items, key=lambda it: (it["distinct_polynomials"], it["id"]))
    pairs = [ranked[j:j + 2] for j in range(0, len(ranked), 2)]
    for pair in pairs:
        rng.shuffle(pair)
    return [p[0] for p in pairs] + [p[1] for p in pairs if len(p) > 1]


def _build_pl_corpus(rng: random.Random) -> list[Query]:
    corpus = gen.pl_corpus()
    order = list(range(len(corpus)))
    rng.shuffle(order)
    out = []
    for i in order:
        f = corpus[i]
        names = sorted(gen.variables(f))
        valid, satisfiable = oracle.truth_table(f, names)
        text = gen.format_formula(f)
        info = {"id": f"pl{i}", "n": len(names), "m": 0, "degree": 0}
        out.append(Query(["entails", "-f", text, "--json"],
                         _expect_verdict(valid), info))
        out.append(Query(["sat", "-f", text, "--json"],
                         _expect_verdict(satisfiable), info))
    return out


def _build_enumerate(seed: int) -> list[Query]:
    streams = []
    for s, (n, m) in enumerate(ENUM_STRATA):
        circuits = []
        for i in range(ENUM_VARIANTS):
            crng = random.Random(f"{seed}/enumerate/{n}/{m}/{i}")
            f = gen.random_circuit(crng, n, m, MAJ_SHARE, 2)
            valuation = {x: crng.random() < 0.5 for x in gen.var_names(n)}
            nu = Fraction(crng.randint(51, 100), 100)
            mu = Fraction(crng.randint(51, 100), 100)
            circuits.append((f"e{n}.{m}.{i}", f, valuation, nu, mu))
        stream = []
        for (ident, f, valuation, nu, mu), cmd in latin(circuits, ["outcomes", "eval"], s):
            text = gen.format_formula(f)
            info = {"id": ident, "n": n, "m": m, "degree": 0}
            if cmd == "outcomes":
                stream.append(Query(["outcomes", "-f", text, "--json"],
                                    _check_outcomes(m), info))
                continue
            assign = ",".join(f"{x}={int(b)}" for x, b in sorted(valuation.items()))
            stream.append(Query(
                ["eval", "-f", text, "--assign", assign, "--nu", str(nu),
                 "--mu", str(mu), "--json"],
                _check_eval(f, m, valuation, nu, mu), info))
        streams.append(stream)
    return interleave(streams)


# --- checks -----------------------------------------------------------------


def _verdict_error(code, out, expected: bool) -> Optional[str]:
    want = 0 if expected else 1
    if code != want:
        return f"exit code {code}, expected {want}"
    if out is None or out.get("verdict") != int(expected):
        return f"verdict {out and out.get('verdict')}, expected {int(expected)}"
    return None


def _expect_verdict(expected: bool) -> Check:
    return lambda code, out: _verdict_error(code, out, expected)


def _envelope(item: dict, x: Fraction) -> Fraction:
    """min(1, min_v P_v(x)) from the item's misfire counts."""
    return min([Fraction(1)] + [oracle.peval(oracle.counts_to_coeffs(c), x)
                                for c in item["counts"].values()])


def _pool_query(workload: str, item: dict, cmd: str) -> Query:
    exp = item["expected"]
    info = {"id": item["id"], "n": item["n"], "m": item["m"], "degree": 0,
            "family": item["family"]}
    cmd, _, degree = cmd.partition("@")
    argv = [cmd, "-f", item["formula"], "--json"]
    if cmd == "entails":
        info["degree"] = int(degree)
        argv += ["--gamma", f"mu <= {item['gammas'][degree]}"]
        return Query(argv, _expect_verdict(exp["entails"][degree]), info)
    if cmd == "sat":
        return Query(argv, _expect_verdict(exp["sat"]), info)
    if cmd == "witness":
        return Query(argv, _check_witness(item), info)
    if cmd == "abduce":
        mu, k = ABDUCE[workload]
        argv += ["--mu", str(mu), "--k", str(k)]
        return Query(argv, _check_abduce(exp["abduce"], k), info)
    if cmd == "decide-rate":
        argv += ["--mu", str(RATE_MU)]
        return Query(argv, _expect_verdict(exp["decide_rate"]), info)
    if cmd == "optimize":
        return Query(argv, _check_optimize(item), info)
    raise ValueError(cmd)


def _check_witness(item: dict) -> Check:
    expected = item["expected"]["sat"]

    def check(code, out):
        err = _verdict_error(code, out, expected)
        if err or not expected:
            return err
        w = out["payload"]["witness"]
        val = {k: bool(v) for k, v in w["valuation"].items()}
        names = item["vars"]
        if sorted(val) != names:
            return f"witness valuation {val} does not cover {names}"
        nu, mu = Fraction(w["nu"]), Fraction(w["mu"])
        if not (HALF < nu <= 1 and HALF < mu <= 1):
            return f"witness (nu, mu) = ({nu}, {mu}) out of (1/2, 1]"
        p = oracle.counts_to_coeffs(item["counts"][oracle.valuation_key(val)])
        if mu > oracle.peval(p, nu):
            return f"witness mu {mu} exceeds the success rate at nu {nu}"
        return None
    return check


def _cell(j: int, k: int) -> tuple[Fraction, Fraction]:
    return HALF + Fraction(j, 2 * k), HALF + Fraction(j + 1, 2 * k)


def _check_abduce(kept: list[int], k: int) -> Check:
    def check(code, out):
        err = _verdict_error(code, out, bool(kept))
        if err:
            return err
        got = [(Fraction(iv["lo"]), Fraction(iv["hi"]), iv["lo_open"], iv["hi_open"])
               for iv in out["payload"]["intervals"]]
        want = [_cell(j, k) + (True, False) for j in kept]
        if got != want:
            return f"abduced cells {got}, expected {want}"
        return None
    return check


def _algebraic_value(a: dict) -> Fraction:
    return Fraction(a["value"] if a["kind"] == "rational" else a["approx"])


def _check_optimize(item: dict) -> Check:
    exp = item["expected"]["optimize"]

    def check(code, out):
        err = _verdict_error(code, out, exp["feasible"])
        if err:
            return err
        pay = out["payload"]
        sup = Fraction(exp["sup"])
        tol = Fraction(1, 10**30)
        if pay["attained"] != exp["attained"]:
            return f"attained {pay['attained']}, expected {exp['attained']}"
        mu_star = _algebraic_value(pay["mu_star"])
        if abs(mu_star - sup) > 2 * EPS:
            return f"mu* ~ {float(mu_star)}, expected ~ {float(sup)}"
        if not exp["feasible"]:
            return None
        nu, mu = (Fraction(pay["certified_pair"][k]) for k in ("nu", "mu"))
        if not (HALF < nu <= 1 and HALF < mu):
            return f"certified pair ({nu}, {mu}) out of range"
        if mu > _envelope(item, nu):
            return f"certified mu {mu} exceeds the envelope at nu {nu}"
        if sup - mu > EPS + tol:
            return f"certified mu {mu} is more than eps below sup ~ {float(sup)}"
        return None
    return check


def _check_outcomes(m: int) -> Check:
    def check(code, out):
        err = _verdict_error(code, out, True)
        if err:
            return err
        rows = out["payload"]["rows"]
        if len(rows) != 2 ** m:
            return f"{len(rows)} outcome rows, expected 2^{m}"
        if len({r["pattern"] for r in rows}) != len(rows):
            return "repeated outcome pattern"
        total: list[Fraction] = []
        for r in rows:
            p = oracle.parse_poly(r["probability"])
            total += [Fraction(0)] * (len(p) - len(total))
            for i, c in enumerate(p):
                total[i] += c
        if oracle.trim(total) != [1]:
            return f"row probabilities sum to {total}, not 1"
        if oracle.parse_poly(out["payload"]["total"]) != [1]:
            return f"reported total {out['payload']['total']}"
        return None
    return check


def _check_eval(f: tuple, m: int, valuation: dict, nu: Fraction, mu: Fraction) -> Check:
    def check(code, out):
        p = oracle.counts_to_coeffs(oracle.misfire_counts(f, m, valuation))
        value = oracle.peval(p, nu)
        err = _verdict_error(code, out, mu <= value)
        if err:
            return err
        pay = out["payload"]
        if oracle.parse_poly(pay["success_polynomial"]) != p:
            return f"success polynomial {pay['success_polynomial']}"
        if Fraction(pay["value"]) != value:
            return f"value {pay['value']}, expected {value}"
        return None
    return check

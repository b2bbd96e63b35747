"""Command-line front end.

Exit codes: 0 affirmative verdict, 1 negative verdict, 2 usage, parse,
input or output error, 3 resource guard (the gate or the variable limit).  With
--json a single object is written to stdout, the same bytes for the same
arguments; rationals render exactly as "p/q", decimals only as annotations
at the configured eps.  `outcomes` writes each of its 2^m rows as it is
made, so its memory does not grow with the gate count.  Every check runs
before the first byte is written, and a reader that closes the pipe early
ends the run quietly, with the command's exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from math import comb
from typing import Any, Iterable, Iterator, Optional

from . import algorithms
from .algebraic import AlgebraicNumber
from .errors import ParseError, ResourceLimitError, UCLError
from .formulas import format_cformula, parse_cformula, variables
from .polynomials import MAX_COEFF_BITS, Polynomial, format_polynomial
from .roots import Interval
from .semantics import (
    DEFAULT_MAX_GATES,
    Interpretation,
    check_valuation,
    outcome_parts,
    parse_ambition,
    success_polynomial,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _fraction(text: str) -> Fraction:
    # Refused before it is built, by the polynomial parser's literal rule
    # 10^(d-1) > 2^(3(d-1)): a run of d digits spells over 3(d - 1) bits, and
    # a decimal exponent e over 3|e|.  Six digits of e are read, as more
    # spell a value far over the limit.
    body, _, exp = text.lower().replace("_", "").partition("e")
    sizes = [len(run) - 1 for run in re.findall(r"\d+", body)]
    if e := re.search(r"\d+", exp):
        sizes.append(int(e.group().lstrip("0")[:6] or 0))
    if 3 * max(sizes, default=0) > MAX_COEFF_BITS:
        raise argparse.ArgumentTypeError(
            f"not a rational number of at most {MAX_COEFF_BITS} bits: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _parse_valuation(text: str) -> dict[str, bool]:
    out: dict[str, bool] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"valuation entry {item!r} is not name=value")
        value = value.strip().lower()
        if value in ("1", "t", "true"):
            out[name.strip()] = True
        elif value in ("0", "f", "false"):
            out[name.strip()] = False
        else:
            raise ParseError(f"valuation value {value!r} must be 0/1/T/F")
    return out


def _interval_json(iv: Interval) -> dict[str, Any]:
    return {
        "lo": str(iv.lo),
        "hi": str(iv.hi),
        "lo_open": iv.lo_open,
        "hi_open": iv.hi_open,
    }


def _algebraic_json(a: AlgebraicNumber, eps: Fraction) -> dict[str, Any]:
    if a.is_rational:
        return {"kind": "rational", "value": str(a.rational_value)}
    return {
        "kind": "algebraic",
        "defining": format_polynomial(a.defining),
        "interval": _interval_json(a.interval),
        "approx": str(float(a.approximate(eps))),
    }


def _valuation_json(v) -> dict[str, bool]:
    return {name: bool(val) for name, val in sorted(v.items())}


class _Runner:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.eps: Fraction = args.eps
        self.max_gates = args.max_gates
        if self.max_gates is None:
            env = os.environ.get("UCL_MAX_GATES")
            self.max_gates = int(env) if env else DEFAULT_MAX_GATES
        if self.max_gates < 0:
            raise ValueError(
                f"the gate limit must be non-negative, got {self.max_gates}"
            )

    def formula(self):
        return parse_cformula(self.args.formula)

    def run(self) -> tuple[int, Iterable[str]]:
        """(exit code, the output as text chunks).  Every check has run when
        this returns, so an error leaves stdout empty."""
        if self.args.command == "outcomes":
            return self.cmd_outcomes()
        # every other command gives (exit code, verdict, payload, lines)
        code, verdict, payload, lines = getattr(
            self, "cmd_" + self.args.command.replace("-", "_"))()
        if self.args.json:
            return code, [json.dumps({
                "command": self.args.command,
                "verdict": verdict,
                "payload": payload,
                "eps": str(self.eps),
            }) + "\n"]
        return code, ["\n".join(lines) + "\n"]

    def cmd_entails(self):
        psi = self.formula()
        gamma = tuple(parse_ambition(g) for g in self.args.gamma)
        verdict = algorithms.enta(
            algorithms.EntaQuery(psi, gamma), max_gates=self.max_gates
        )
        lines = [
            "entailed" if verdict else "not entailed: some interpretation "
            "satisfies the ambition formulas but not the circuit formula"
        ]
        return (EXIT_YES if verdict else EXIT_NO, int(verdict),
                {"formula": format_cformula(psi),
                 "gamma": [str(g) for g in gamma]}, lines)

    def cmd_witness(self):
        psi = self.formula()
        start = (
            _parse_valuation(self.args.start_valuation)
            if self.args.start_valuation
            else None
        )
        result = algorithms.pmc(
            psi,
            mode=self.args.mode,
            start_valuation=start,
            max_gates=self.max_gates,
        )
        if result.found:
            payload = {
                "found": True,
                "witness": {
                    "valuation": _valuation_json(result.valuation),
                    "nu": str(result.nu),
                    "mu": str(result.mu),
                },
                "mode": self.args.mode,
            }
            val = " ".join(
                f"{n}={'T' if b else 'F'}"
                for n, b in sorted(result.valuation.items())
            )
            lines = [
                "satisfiable",
                f"  valuation: {val if val else '(no variables)'}",
                f"  nu = {result.nu}  (~{float(result.nu):.6g})",
                f"  mu = {result.mu}  (~{float(result.mu):.6g})",
            ]
            return EXIT_YES, 1, payload, lines
        return (EXIT_NO, 0, {"found": False, "mode": self.args.mode},
                ["unsatisfiable: no interpretation satisfies the formula"])

    def cmd_sat(self):
        verdict = algorithms.sat(self.formula(), max_gates=self.max_gates)
        return (EXIT_YES if verdict else EXIT_NO, int(verdict), {},
                ["satisfiable" if verdict else "unsatisfiable"])

    def cmd_abduce(self):
        result = algorithms.arr(
            self.formula(), self.args.mu, self.args.k, max_gates=self.max_gates
        )
        payload = {
            "mu": str(self.args.mu),
            "k": self.args.k,
            "intervals": [_interval_json(iv) for iv in result.intervals],
        }
        if result.intervals:
            lines = ["reliability intervals guaranteeing the target rate:"]
            lines += [f"  {iv}" for iv in result.intervals]
            return EXIT_YES, 1, payload, lines
        return (EXIT_NO, 0, payload,
                ["no grid interval guarantees the target success rate"])

    def cmd_decide_rate(self):
        verdict = algorithms.rrd(
            self.formula(), self.args.mu, max_gates=self.max_gates
        )
        lines = [
            "yes: some reliability rate achieves the target under every valuation"
            if verdict
            else "no: no single reliability rate achieves the target"
        ]
        return (EXIT_YES if verdict else EXIT_NO, int(verdict),
                {"mu": str(self.args.mu)}, lines)

    def cmd_optimize(self):
        opt = algorithms.osc(self.formula(), eps=self.eps, max_gates=self.max_gates)
        payload: dict[str, Any] = {
            "feasible": opt.feasible,
            "attained": opt.attained,
            "nu_star": _algebraic_json(opt.nu_star, self.eps) if opt.nu_star else None,
            "mu_star": _algebraic_json(opt.mu_star, self.eps) if opt.mu_star else None,
            "certified_pair": (
                {"nu": str(opt.certified_pair[0]), "mu": str(opt.certified_pair[1])}
                if opt.certified_pair
                else None
            ),
            "diagnostic": opt.diagnostic,
        }
        if opt.feasible:
            lines = [
                "feasible",
                f"  nu* = {opt.nu_star}",
                f"  mu* = {opt.mu_star}",
                f"  certified rational pair: nu = {opt.certified_pair[0]}, "
                f"mu = {opt.certified_pair[1]}",
            ]
            return EXIT_YES, 1, payload, lines
        return EXIT_NO, 0, payload, [opt.diagnostic]

    def cmd_eval(self):
        psi = self.formula()
        valuation = _parse_valuation(self.args.assign or "")
        check_valuation(valuation, variables(psi))
        interp = Interpretation(valuation, self.args.nu, self.args.mu)
        p = success_polynomial(psi, valuation, max_gates=self.max_gates)
        value = p(interp.nu)
        verdict = interp.mu <= value  # satisfies(interp, psi), from the one p
        payload = {
            "satisfied": verdict,
            "success_polynomial": format_polynomial(p),
            "value": str(value),
        }
        lines = [
            f"success polynomial: {format_polynomial(p)}",
            f"value at nu = {interp.nu}: {value} (~{float(value):.6g})",
            "satisfied" if verdict else
            f"not satisfied: {value} < mu = {interp.mu}",
        ]
        return (EXIT_YES if verdict else EXIT_NO, int(verdict), payload, lines)

    def cmd_outcomes(self):
        """The 2^m rows, each one fill of a per-formula row template, as
        text chunks made one row at a time; the checks run before this
        returns."""
        template, slots, by_correct = outcome_parts(
            self.formula(), max_gates=self.max_gates)
        m = len(slots)
        total = format_polynomial(sum(
            (p.scale(comb(m, l)) for l, p in enumerate(by_correct)),
            Polynomial()))
        probabilities = [format_polynomial(p) for p in by_correct]
        if self.args.json:
            # JSON escapes character by character and leaves "%" alone, so
            # the escaped pieces fill into the escaped whole
            row = (f'{{"pattern": "%s", "formula": "{_escape(template)}", '
                   f'"probability": "%s"}}')
            slots = [(_escape(a), _escape(b)) for a, b in slots]
            probabilities = [_escape(p) for p in probabilities]
            head = '{"command": "outcomes", "verdict": 1, "payload": {"rows": ['
            sep, empty = ", ", ""
            tail = (f'], "total": {json.dumps(total)}}}, '
                    f'"eps": {json.dumps(str(self.eps))}}}\n')
        else:
            row = f"%7s | {template} | %s"
            head = "pattern | outcome | probability\n"
            sep, empty = "\n", "-"
            tail = f"\ntotal probability: {total}\n"
        return EXIT_YES, itertools.chain(
            _rows(head + row, sep + row, slots, probabilities, empty), [tail])


def _escape(text: str) -> str:
    """text as inside a JSON string, the bytes json.dumps writes for it."""
    return json.dumps(text)[1:-1]


def _rows(
    first: str, row: str, slots: list[tuple[str, str]],
    probabilities: list[str], empty: str,
) -> Iterator[str]:
    """Row i fills `first` (i = 0) or `row` with its pattern, i in m binary
    digits (`empty` when m = 0), its slot names and the probability of its
    count of correct gates, the count of '0's."""
    width = f"0{len(slots)}b"
    for i, names in enumerate(itertools.product(*slots)):
        bits = format(i, width) if slots else empty
        yield first % (bits, *names, probabilities[bits.count("0")])
        first = row


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucl",
        description="Exact reasoner for circuits with unreliable gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-f", "--formula", required=True, help="circuit formula")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--eps", type=_fraction, default=Fraction(1, 10**6),
                       help="approximation tolerance for decimal annotations")
        p.add_argument("--max-gates", type=int, default=None,
                       help="unreliable-gate limit, which bounds the degree of "
                            "success polynomials and the 2^count rows of "
                            "'outcomes' (default 24; env UCL_MAX_GATES)")

    p = sub.add_parser("entails", help="ambition-constrained validity")
    common(p)
    p.add_argument("--gamma", action="append", default=[],
                   help="ambition formula 'mu <= P' (repeatable)")

    p = sub.add_parser("witness", help="construct a satisfying interpretation")
    common(p)
    p.add_argument("--mode", choices=("faithful", "fast"), default="faithful")
    p.add_argument("--start-valuation", default=None,
                   help="valuation examined first, e.g. 'x=1,y=0'")

    p = sub.add_parser("sat", help="satisfiability")
    common(p)

    p = sub.add_parser("abduce", help="reliability-rate interval abduction")
    common(p)
    p.add_argument("--mu", type=_fraction, required=True,
                   help="target success rate in (1/2, 1]")
    p.add_argument("--k", type=int, required=True, help="grid resolution")

    p = sub.add_parser("decide-rate", help="single-rate achievability")
    common(p)
    p.add_argument("--mu", type=_fraction, required=True,
                   help="target success rate in (1/2, 1]")

    p = sub.add_parser("optimize", help="maximum achievable success rate")
    common(p)

    p = sub.add_parser("eval", help="check one interpretation against the formula")
    common(p)
    p.add_argument("--assign", required=True, help="valuation, e.g. 'x1=1,x2=0'")
    p.add_argument("--nu", type=_fraction, required=True)
    p.add_argument("--mu", type=_fraction, required=True)

    p = sub.add_parser("outcomes", help="enumerate outcomes and probabilities")
    common(p)
    return parser


# Built by the first main() call and reused: parse_args leaves the parser
# unchanged (an `append` option copies its default list), so main stays
# re-entrant.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code, chunks = _Runner(args).run()
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UCLError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if sys.stdout is None:  # started with stdout closed, as print allows
        return code
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except OSError as exc:
        # A closed pipe (`ucl outcomes | head`) leaves the rest of the output
        # no reader; any other error, a full disk say, is reported.  Stdout
        # now points at devnull, so the flush at interpreter exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

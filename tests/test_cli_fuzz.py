"""Seeded mutation fuzzing of the command line, in process.

A fixed number of queries over all eight commands, from random circuit
formulas with tokens dropped, duplicated or swapped, and with perturbed
option values, among them a gate limit now and then.  Every query must end
in exit code 0-3, with no traceback, within a time budget.
"""

import io
import random
import re
import signal
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest
from formula_gen import random_cformula
from uclogic.cli import main
from uclogic.formulas import format_cformula, variables

SEED = 20240521
QUERIES = 500
BUDGET_S = 3

COMMANDS = ("entails", "witness", "sat", "abduce", "decide-rate", "optimize",
            "eval", "outcomes")
# option values: mostly valid ones, one in five out of range or malformed
VALUES = {
    "rate": (("3/4", "7/10", "1", "5/8", "51/100", "999/1000"),
             ("1/2", "0", "-1/3", "2", "1/0", "x", "", "0.75", "1/" + "7" * 30)),
    "k": (("1", "3", "4", "8", "16"), ("0", "-2", "x", "10" * 6)),
    "eps": (("1/1000", "1/1000000", "1/" + str(2**100)),
            ("0", "-1/2", "2", "x", "1/" + "9" * 400)),
    "gates": (("2", "4", "8"), ("0", "-1", "x")),
}
BOUND_TERMS = ("nu", "1/2", "nu^2", "(1 - nu)", "3/4*nu^3", "2*nu - 1",
               "(nu - 7/10)^2", "nu^12", "-nu", "1", "(1 - (1 - nu)^3)^4",
               "2*(10*nu - 7)^2")
TOKEN_RE = re.compile(r"[()]|[^\s()]+")


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _mutate(rng, text):
    """text with up to three tokens dropped, duplicated or swapped."""
    tokens = TOKEN_RE.findall(text)
    for _ in range(rng.randint(0, 3)):
        if not tokens:
            break
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        op = rng.choice(("drop", "duplicate", "swap"))
        if op == "drop":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


def _value(rng, kind):
    valid, odd = VALUES[kind]
    return rng.choice(odd if rng.random() < 0.2 else valid)


def _bound(rng):
    terms = [rng.choice(BOUND_TERMS) for _ in range(rng.randint(1, 3))]
    text = "mu <= " + " + ".join(terms)
    return _mutate(rng, text) if rng.random() < 0.3 else text


def _assignment(rng, names):
    items = [f"{n}={rng.choice('01TF')}" for n in sorted(names)
             if rng.random() < 0.95]
    if rng.random() < 0.1:
        items.append(rng.choice(("zz=1", "x1=2", "x1", "=1")))
    return ",".join(items)


def _query(rng):
    f = random_cformula(rng, max_depth=6, names=("x1", "x2", "x3", "x4", "x5"),
                        unreliable_prob=0.5, max_gates=rng.randint(0, 10))
    text = format_cformula(f)
    if rng.random() < 0.3:
        text = _mutate(rng, text)
    command = rng.choice(COMMANDS)
    argv = [command, "-f", text]
    if command == "entails":
        argv += [a for _ in range(rng.randint(0, 2)) for a in ("--gamma", _bound(rng))]
    if command in ("abduce", "decide-rate", "eval"):
        argv += ["--mu", _value(rng, "rate")]
    if command == "abduce":
        argv += ["--k", _value(rng, "k")]
    if command == "eval":
        argv += ["--nu", _value(rng, "rate"),
                 "--assign", _assignment(rng, variables(f))]
    if command == "witness" and rng.random() < 0.5:
        argv += ["--mode", rng.choice(("fast", "faithful")),
                 "--start-valuation", _assignment(rng, variables(f))]
    if rng.random() < 0.3:
        argv += ["--eps", _value(rng, "eps")]
    if rng.random() < 0.1:
        argv += ["--max-gates", _value(rng, "gates")]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")
def test_mutated_queries_end_in_an_exit_code():
    rng = random.Random(SEED)
    failures = []
    codes = set()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for _ in range(QUERIES):
            argv = _query(rng)
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
            except _Timeout:
                code = f"over {BUDGET_S} s"
            except Exception:
                code = traceback.format_exc()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if code not in (0, 1, 2, 3) or "Traceback" in err.getvalue():
                failures.append((argv, code, err.getvalue()))
            codes.add(code)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, failures[:5]
    assert codes == {0, 1, 2, 3}

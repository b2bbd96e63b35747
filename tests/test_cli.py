import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
import uclogic
from formula_gen import random_cformula
from uclogic.algorithms import MAX_EPS_BITS, MAX_GRID_CELLS
from uclogic.cli import main
from uclogic.errors import UCLError
from uclogic.formulas import (
    MAX_DEPTH, apply_pattern, fau, format_cformula, parse_cformula, variables,
)
from uclogic.polynomials import Polynomial, format_polynomial, parse_polynomial
from uclogic.semantics import (
    MAX_VARIABLES,
    Interpretation,
    pattern_probability,
    satisfies,
)

PMC_SCENARIO = "(iff (or (or (not? x) (not? x)) (not? x)) (or x (not x)))"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_entails_published_example(capsys):
    code, doc = run_json(
        capsys, "entails", "-f", "(iff (or? x1 x2) (or x1 x2))",
        "--gamma", "mu <= nu",
    )
    assert code == 0 and doc["verdict"] == 1
    assert doc["command"] == "entails"
    assert doc["payload"]["gamma"] == ["mu <= nu"]


def test_entails_negative_exit_code(capsys):
    code, doc = run_json(capsys, "entails", "-f", "(or? x (not? x))")
    assert code == 1 and doc["verdict"] == 0


def test_witness_json_is_exact_and_lossless(capsys):
    code, doc = run_json(
        capsys, "witness", "-f", PMC_SCENARIO, "--start-valuation", "x=1"
    )
    assert code == 0
    w = doc["payload"]["witness"]
    assert F(w["nu"]) == F(2, 3) and F(w["mu"]) == F(19, 27)
    assert w["valuation"] == {"x": True}


def test_witness_unsat(capsys):
    code, doc = run_json(capsys, "witness", "-f", "(and x (not x))")
    assert code == 1 and doc["payload"] == {"found": False, "mode": "faithful"}


def test_witness_human_output(capsys):
    code, out, _ = run(capsys, "witness", "-f", PMC_SCENARIO,
                       "--start-valuation", "x=1")
    assert code == 0
    assert "nu = 2/3" in out and "mu = 19/27" in out


def test_abduce_published_example(capsys):
    code, doc = run_json(
        capsys, "abduce", "-f", "(or? x (not? x))", "--mu", "7/10", "--k", "4"
    )
    assert code == 0
    ivs = doc["payload"]["intervals"]
    assert len(ivs) == 1
    assert ivs[0] == {"lo": "7/8", "hi": "1", "lo_open": True, "hi_open": False}


def test_abduce_empty_result_exits_one(capsys):
    code, doc = run_json(capsys, "abduce", "-f", "x", "--mu", "3/4", "--k", "3")
    assert code == 1 and doc["payload"]["intervals"] == []


def test_decide_rate(capsys):
    code, _ = run_json(capsys, "decide-rate", "-f", "(or? x (not? x))",
                       "--mu", "7/10")
    assert code == 0
    code, _ = run_json(capsys, "decide-rate", "-f", "x", "--mu", "7/10")
    assert code == 1


def test_optimize_feasible(capsys):
    code, doc = run_json(capsys, "optimize", "-f", "(iff (or? x1 x2) (or x1 x2))")
    assert code == 0
    p = doc["payload"]
    assert p["feasible"] and p["attained"]
    assert p["mu_star"] == {"kind": "rational", "value": "1"}
    assert p["certified_pair"] == {"nu": "1", "mu": "1"}


def test_optimize_infeasible_diagnostic(capsys):
    code, doc = run_json(capsys, "optimize", "-f", PMC_SCENARIO)
    assert code == 1
    p = doc["payload"]
    assert not p["feasible"]
    assert p["mu_star"] == {"kind": "rational", "value": "7/8"}
    assert "not attained" in p["diagnostic"]


def test_eval_command(capsys):
    code, doc = run_json(
        capsys, "eval", "-f", "(or? x (not? x))",
        "--assign", "x=0", "--nu", "3/4", "--mu", "5/8",
    )
    assert code == 0
    assert doc["payload"]["value"] == "5/8"
    assert doc["payload"]["success_polynomial"] == "2*nu^2 - 2*nu + 1"
    code, _ = run_json(
        capsys, "eval", "-f", "(or? x (not? x))",
        "--assign", "x=0", "--nu", "3/4", "--mu", "2/3",
    )
    assert code == 1


def test_outcomes_table(capsys):
    code, doc = run_json(capsys, "outcomes", "-f", "(or? x (not? x))")
    assert code == 0
    rows = doc["payload"]["rows"]
    assert len(rows) == 4
    assert rows[0] == {
        "pattern": "00",
        "formula": "(or x (not x))",
        "probability": "nu^2",
    }
    assert doc["payload"]["total"] == "1"


def _outcomes_by_pattern(psi):
    """Rows and total of `outcomes`, one pattern at a time: apply_pattern,
    pattern_probability and a sum over all 2^m patterns."""
    rows, total = [], Polynomial()
    for bits in itertools.product((False, True), repeat=len(fau(psi))):
        p = pattern_probability(bits)
        rows.append({
            "pattern": "".join("1" if b else "0" for b in bits),
            "formula": format_cformula(apply_pattern(psi, bits)),
            "probability": format_polynomial(p),
        })
        total = total + p
    return rows, format_polynomial(total)


def test_outcomes_match_per_pattern_route(capsys):
    rng = random.Random(2024)
    sizes = set()
    for _ in range(30):
        psi = random_cformula(rng, max_depth=5, unreliable_prob=0.6, max_gates=8)
        sizes.add(len(fau(psi)))
        text = format_cformula(psi)
        rows, total = _outcomes_by_pattern(psi)
        code, out, _ = run(capsys, "outcomes", "-f", text)
        lines = [f"{r['pattern'] or '-':>7} | {r['formula']} | {r['probability']}"
                 for r in rows]
        assert code == 0
        assert out == "\n".join(["pattern | outcome | probability", *lines,
                                 f"total probability: {total}"]) + "\n"
        code, out, _ = run(capsys, "outcomes", "-f", text, "--json")
        assert out == json.dumps({
            "command": "outcomes", "verdict": 1,
            "payload": {"rows": rows, "total": total},
            "eps": "1/1000000",
        }) + "\n"
    assert {0, 8} <= sizes and len(sizes) >= 6


def _outcomes_outputs(psi):
    """The text and the --json output of `outcomes` from the per-pattern
    route."""
    rows, total = _outcomes_by_pattern(psi)
    lines = [f"{r['pattern'] or '-':>7} | {r['formula']} | {r['probability']}"
             for r in rows]
    text = "\n".join(["pattern | outcome | probability", *lines,
                      f"total probability: {total}"]) + "\n"
    doc = json.dumps({
        "command": "outcomes", "verdict": 1,
        "payload": {"rows": rows, "total": total},
        "eps": "1/1000000",
    }) + "\n"
    return text, doc


def _not_chain(m: int) -> str:
    psi = "x"
    for _ in range(m):
        psi = f"(not? {psi})"
    return psi


def test_outcomes_bytes_beyond_eight_gates(capsys):
    """No gate (the pattern is "" and the text row shows '-'), constants,
    and twelve gates of mixed connectives, in both modes."""
    twelve = "x"
    for i, conn in enumerate(["and?", "or?", "xor?", "nand?", "imp?", "iff?"] * 2):
        twelve = f"({conn} {twelve} y{i % 3})"
    for text in ["(iff x (or y T))", "(and? T (or? x F))",
                 "(maj3? T F (not? x))", twelve]:
        psi = parse_cformula(text)
        expected_text, expected_doc = _outcomes_outputs(psi)
        assert run(capsys, "outcomes", "-f", text) == (0, expected_text, "")
        assert run(capsys, "outcomes", "-f", text, "--json") == (
            0, expected_doc, "")
    assert len(fau(parse_cformula(twelve))) == 12
    _, out, _ = run(capsys, "outcomes", "-f", "(iff x (or y T))")
    assert out.splitlines()[1] == "      - | (iff x (or y T)) | 1"


def test_outcomes_total_is_the_sum_of_the_rows(capsys, monkeypatch):
    for m in range(13):
        code, doc = run_json(capsys, "outcomes", "-f", _not_chain(m))
        payload = doc["payload"]
        assert code == 0 and len(payload["rows"]) == 2 ** m
        total = Polynomial()
        for text, n in Counter(r["probability"] for r in payload["rows"]).items():
            total = total + parse_polynomial(text).scale(n)
        assert payload["total"] == format_polynomial(total) == "1", m
    # the total is summed from the probabilities, not written as "1"
    import uclogic.cli
    from uclogic.semantics import outcome_parts

    def doubled(*args, **kwargs):
        template, slots, by_correct = outcome_parts(*args, **kwargs)
        return template, slots, [p.scale(2) for p in by_correct]

    monkeypatch.setattr(uclogic.cli, "outcome_parts", doubled)
    code, doc = run_json(capsys, "outcomes", "-f", _not_chain(3))
    assert doc["payload"]["total"] == "2"


class _Sink(io.TextIOBase):
    """A stdout that counts its writes and keeps nothing."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return len(text)


def test_outcomes_memory_stays_flat(capsys):
    """The 2^16 rows are written as they are made: neither the rows nor the
    JSON document are held."""
    main(["outcomes", "-f", _not_chain(1), "--json"])  # builds the parser
    capsys.readouterr()
    sink = _Sink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(["outcomes", "-f", _not_chain(16), "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2 ** 20, peak
    assert sink.writes > 1


def _child_env():
    """The environment of a `python -m uclogic.cli` child that imports
    this uclogic."""
    src = str(Path(uclogic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_closed_pipe_ends_quietly(monkeypatch):
    """A reader that stops early, as `ucl outcomes | head -2` does, ends the
    run with the command's exit code and no traceback; so does a stdout
    closed from the start."""
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["outcomes", "-f", "(or? x y)"]) == 0
    assert main(["sat", "-f", "(and x (not x))"]) == 1
    monkeypatch.undo()
    for extra in ([], ["--json"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "uclogic.cli", "outcomes",
             "-f", _not_chain(14), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        try:
            first = proc.stdout.readline() if not extra else proc.stdout.read(64)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert first.startswith(b"pattern" if not extra else b'{"command"')
        assert b"Traceback" not in err, err.decode()
        assert code == 0, (extra, err.decode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_exits_two():
    """Output to a full device ends in one error line and exit code 2, the
    usage code, not in a traceback and exit code 1, the negative verdict."""
    for argv in (["outcomes", "-f", "(or? x y)"],
                 ["sat", "-f", "(or? x y)", "--json"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "uclogic.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, env=_child_env(), timeout=60)
        err = proc.stderr.decode()
        assert proc.returncode == 2, (argv, err)
        assert "Traceback" not in err, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: cannot write output: "), err


def test_parse_error_exits_two(capsys):
    code, out, err = run(capsys, "sat", "-f", "(and x)")
    assert code == 2 and "error" in err


def test_bad_value_exits_two(capsys):
    code, out, err = run(capsys, "decide-rate", "-f", "x", "--mu", "1/3")
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "eval", "-f", "(or x y)", "--assign", "x=1",
                         "--nu", "3/4", "--mu", "3/4")
    assert code == 2 and "misses" in err
    code, out, err = run(capsys, "eval", "-f", "(and? x y)",
                         "--assign", "x=1,y=0,z=1,w=0", "--nu", "3/4", "--mu", "3/4")
    assert code == 2 and "not in the formula: ['w', 'z']" in err


def test_witness_start_valuation_names_unknown_variable(capsys):
    code, _, err = run(capsys, "witness", "-f", "x", "--start-valuation", "x=1,zz=0")
    assert code == 2 and "not in the formula: ['zz']" in err
    code, _, _ = run(capsys, "witness", "-f", "x", "--start-valuation", "x=1")
    assert code == 0


def test_ambition_degree_limit_exits_two(capsys):
    # a position counts from the first character after "<="
    for bound, message in {
        "nu^3000": "exponent 3000 exceeds the degree limit of 256 (at position 4)",
        "nu^99999999999":
            "exponent 99999999999 exceeds the degree limit of 256 (at position 4)",
        "nu^200 * nu^200":
            "polynomial degree 400 exceeds the limit of 256 (at position 8)",
    }.items():
        started = time.perf_counter()
        code, _, err = run(capsys, "entails", "-f", "(or? x y)",
                           "--gamma", f"mu <= {bound}")
        assert code == 2 and err == f"error: {message}\n", bound
        assert time.perf_counter() - started < 1.0, bound
    for bound in ("nu^16", "1 - (1 - nu)^16", "nu^8 * (2 - nu)^8 / 256"):
        code, _, err = run(capsys, "entails", "-f", "(or? x y)",
                           "--gamma", f"mu <= {bound}")
        assert code in (0, 1), (bound, err)


def test_ambition_coefficient_limit_exits_two(capsys):
    for bound, position in {
        "(2^256)^256": 9,
        "(((2^256)^256)^256)^256": 11,
        # distinct denominators: the power's is their lcm's power
        "(1/1073741789 + nu/1073741783 + nu^2/1073741827)^120": 50,
    }.items():
        started = time.perf_counter()
        code, _, err = run(capsys, "entails", "-f", "(or? x y)",
                           "--gamma", f"mu <= {bound}")
        assert code == 2 and err == (
            "error: coefficients over the limit of 4096 bits "
            f"(at position {position})\n"), bound
        assert time.perf_counter() - started < 1.0, bound


def test_eps_limit_exits_two(capsys):
    # an irrational optimum, so the certified pair refines it to about eps
    psi = "(nand? (not (xor? y y)) (iff? (xor (not y) x) x))"
    started = time.perf_counter()
    code, _, err = run(capsys, "optimize", "-f", psi,
                       "--eps", f"1/{2**MAX_EPS_BITS}")
    assert code == 2 and "limit of 1024 bits" in err
    assert time.perf_counter() - started < 1.0
    # the smallest accepted eps finishes well within a minute (about 3 s)
    eps = F(1, 2**MAX_EPS_BITS - 1)
    started = time.perf_counter()
    code, doc = run_json(capsys, "optimize", "-f", psi, "--eps", str(eps))
    assert code == 0 and time.perf_counter() - started < 60
    assert doc["payload"]["mu_star"]["kind"] == "algebraic"
    pair = doc["payload"]["certified_pair"]
    assert F(pair["mu"]) > F(1, 2) and F(doc["eps"]) == eps


def test_grid_limit_exits_two(capsys):
    started = time.perf_counter()
    for k in (MAX_GRID_CELLS + 1, 1000000):
        code, out, err = run(capsys, "abduce", "-f", "(or? x (not? x))",
                             "--mu", "7/10", "--k", str(k))
        assert code == 2 and not out
        assert f"limit of {MAX_GRID_CELLS} grid cells" in err
    assert time.perf_counter() - started < 1.0
    code, doc = run_json(capsys, "abduce", "-f", "(or? x (not? x))",
                         "--mu", "7/10", "--k", str(MAX_GRID_CELLS))
    assert code == 0
    assert doc["payload"]["intervals"][-1] == {
        "lo": f"{2 * MAX_GRID_CELLS - 1}/{2 * MAX_GRID_CELLS}", "hi": "1",
        "lo_open": True, "hi_open": False}


def test_kernel_benchmark_bounds_parse():
    refs = Path(__file__).resolve().parent.parent / "bench" / "refs" / "kernel.json"
    bounds = [b for item in json.loads(refs.read_text())["items"]
              for b in item["gammas"].values()]
    assert bounds
    for b in bounds:
        parse_polynomial(b)


def _nested(depth):
    text = "(not? y)"
    for i in range(depth - 1):
        text = f"(and {text} (not x))" if i % 2 else f"(or {text} x)"
    return text


def test_deep_nesting_exits_two(capsys):
    for depth in (MAX_DEPTH + 1, 1500):
        code, out, err = run(capsys, "sat", "-f", _nested(depth))
        assert code == 2 and f"nested deeper than {MAX_DEPTH} levels" in err
    code, _, err = run(capsys, "entails", "-f", "x",
                       "--gamma", "mu <= " + "(" * 1500 + "nu" + ")" * 1500)
    assert code == 2 and err == (
        "error: expression nested deeper than 100 levels (at position 101)\n")
    # the deepest accepted formula runs through every recursive traversal
    for argv in (["entails"], ["outcomes"], ["witness"],
                 ["eval", "--assign", "x=1,y=0", "--nu", "3/4", "--mu", "3/4"]):
        code, _, err = run(capsys, argv[0], "-f", _nested(MAX_DEPTH), *argv[1:])
        assert code in (0, 1), (argv, err)


def test_every_library_error_exits_two(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise UCLError("refused")

    monkeypatch.setattr("uclogic.algorithms.sat", fail)
    code, _, err = run(capsys, "sat", "-f", "x")
    assert code == 2 and "error: refused" in err


def test_gate_guard_exits_three(capsys):
    code, out, err = run(
        capsys, "outcomes", "-f", "(and? (and? x y) (and? x y))",
        "--max-gates", "2",
    )
    assert code == 3 and "error" in err


def test_gate_guard_comes_before_the_outcome_template(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("outcome template made above the gate limit")

    monkeypatch.setattr("uclogic.semantics.outcome_template", refuse)
    psi = "(and? (and? x y) (and? x y))"
    code, out, err = run(capsys, "outcomes", "-f", psi, "--max-gates", "2")
    assert (code, out) == (3, "")
    assert "3 unreliable gates, exceeding the limit of 2" in err
    monkeypatch.setenv("UCL_MAX_GATES", "2")
    code, out, _ = run(capsys, "outcomes", "-f", psi, "--json")
    assert (code, out) == (3, "")


def test_gate_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("UCL_MAX_GATES", "2")
    code, _, err = run(capsys, "outcomes", "-f", "(and? (and? x y) (and? x y))")
    assert code == 3
    monkeypatch.setenv("UCL_MAX_GATES", "5")
    code, _, _ = run(capsys, "outcomes", "-f", "(and? (and? x y) (and? x y))")
    assert code == 0
    # read on every call, not once with the parser
    monkeypatch.setenv("UCL_MAX_GATES", "2")
    code, _, err = run(capsys, "sat", "-f", "(and? (and? x y) (and? x y))")
    assert code == 3 and "exceeding the limit of 2" in err
    monkeypatch.delenv("UCL_MAX_GATES")
    code, _, _ = run(capsys, "sat", "-f", "(and? (and? x y) (and? x y))")
    assert code == 0


def test_gate_guard_exits_three_on_query_command(capsys):
    code, _, err = run(
        capsys, "entails", "-f", "(and? (and? x y) (and? x y))",
        "--max-gates", "2",
    )
    assert code == 3
    assert "3 unreliable gates, exceeding the limit of 2" in err
    assert "2^" not in err


def test_negative_gate_limit_exits_two(capsys, monkeypatch):
    code, _, err = run(capsys, "sat", "-f", "x", "--max-gates", "-1")
    assert code == 2 and "non-negative" in err
    monkeypatch.setenv("UCL_MAX_GATES", "-1")
    code, _, err = run(capsys, "sat", "-f", "x")
    assert code == 2 and "non-negative" in err
    code, _, _ = run(capsys, "sat", "-f", "x", "--max-gates", "0")
    assert code == 0


def test_query_commands_do_not_enumerate_outcomes(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("outcomes enumerated")

    monkeypatch.setattr("uclogic.semantics.outcomes", refuse)
    psi = "(iff (or? x1 x2) (or x1 x2))"
    for argv in (
        ["entails", "-f", psi, "--gamma", "mu <= nu"],
        ["sat", "-f", psi],
        ["witness", "-f", psi],
        ["abduce", "-f", psi, "--mu", "7/10", "--k", "2"],
        ["decide-rate", "-f", psi, "--mu", "7/10"],
        ["optimize", "-f", psi],
        ["eval", "-f", psi, "--assign", "x1=1,x2=0", "--nu", "3/4", "--mu", "3/4"],
    ):
        code, _, err = run(capsys, *argv)
        assert code in (0, 1), (argv, err)



def _and_chain(n: int) -> str:
    psi = "x1"
    for i in range(2, n + 1):
        psi = f"(and {psi} x{i})"
    return psi


def test_variable_limit_exits_three(capsys, monkeypatch):
    code, _, err = run(capsys, "sat", "-f", _and_chain(MAX_VARIABLES))
    assert code == 0, err

    def refuse(*args, **kwargs):
        raise AssertionError("table work above the variable limit")

    monkeypatch.setattr("uclogic.semantics._classes", refuse)
    monkeypatch.setattr("uclogic.semantics._variable_masks", refuse)
    over = _and_chain(MAX_VARIABLES + 1)
    for argv in (["sat", "-f", over],
                 ["entails", "-f", over, "--gamma", "mu <= nu"],
                 ["witness", "-f", over],
                 ["optimize", "-f", over, "--json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == (f"error: formula has {MAX_VARIABLES + 1} variables, "
                       f"exceeding the limit of {MAX_VARIABLES} for a table "
                       f"over all 2^{MAX_VARIABLES + 1} valuations\n")
    monkeypatch.undo()
    # one valuation is no table: eval answers above the limit
    assign = ",".join(f"x{i}=1" for i in range(1, MAX_VARIABLES + 2))
    code, doc = run_json(capsys, "eval", "-f", over, "--assign", assign,
                         "--nu", "3/4", "--mu", "3/4")
    assert code == 0 and doc["payload"]["success_polynomial"] == "1"


def test_eval_computes_one_success_polynomial(capsys, monkeypatch):
    import uclogic.cli
    from uclogic.semantics import success_polynomial

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return success_polynomial(*args, **kwargs)

    monkeypatch.setattr(uclogic.cli, "success_polynomial", counted)
    monkeypatch.setattr("uclogic.semantics.success_polynomial", counted)
    rng = random.Random(71)
    verdicts = set()
    for _ in range(30):
        psi = random_cformula(rng, max_gates=5)
        valuation = {n: rng.random() < 0.5 for n in sorted(variables(psi))}
        nu, mu = F(rng.randint(51, 100), 100), F(rng.randint(51, 100), 100)
        assign = ",".join(f"{n}={int(b)}" for n, b in valuation.items())
        calls.clear()
        code, doc = run_json(capsys, "eval", "-f", format_cformula(psi),
                             "--assign", assign, "--nu", str(nu), "--mu", str(mu))
        assert len(calls) == 1
        expected = satisfies(Interpretation(valuation, nu, mu), psi)
        assert (code, doc["verdict"]) == ((0, 1) if expected else (1, 0))
        verdicts.add(expected)
    assert verdicts == {True, False}

EVERY_COMMAND = [
    ["entails", "-f", "(iff (or? x1 x2) (or x1 x2))", "--gamma", "mu <= nu"],
    ["entails", "-f", "(or? x (not? x))"],
    ["witness", "-f", PMC_SCENARIO, "--start-valuation", "x=1"],
    ["witness", "-f", "(and x (not x))", "--mode", "fast"],
    ["sat", "-f", "x", "--eps", "1/1000"],
    ["abduce", "-f", "(or? x (not? x))", "--mu", "7/10", "--k", "4"],
    ["decide-rate", "-f", "(or? x (not? x))", "--mu", "7/10"],
    ["optimize", "-f", "(nand? (not (xor? y y)) (iff? (xor (not y) x) x))"],
    ["optimize", "-f", PMC_SCENARIO, "--eps", "1/1000"],
    ["eval", "-f", "(or? x (not? x))", "--assign", "x=0", "--nu", "3/4",
     "--mu", "5/8"],
    ["outcomes", "-f", "(and? x (or? y x))"],
]


def test_json_is_deterministic(capsys):
    """--json writes the same bytes for the same arguments: the command,
    the verdict, the payload and eps, and nothing that varies per run."""
    for argv in EVERY_COMMAND:
        code, first, err = run(capsys, *argv, "--json")
        assert code in (0, 1) and not err, argv
        again = run(capsys, *argv, "--json")
        assert again == (code, first, err), argv
        doc = json.loads(first)
        assert list(doc) == ["command", "verdict", "payload", "eps"], argv
        assert doc["command"] == argv[0]
        eps = argv[argv.index("--eps") + 1] if "--eps" in argv else "1/1000000"
        assert doc["eps"] == eps


def test_parser_keeps_no_state_between_calls(capsys):
    code, doc = run_json(capsys, "entails", "-f", "(or? x y)",
                         "--gamma", "mu <= nu", "--gamma", "mu <= nu^2")
    assert code in (0, 1)
    assert doc["payload"]["gamma"] == ["mu <= nu", "mu <= nu^2"]
    code, doc = run_json(capsys, "entails", "-f", "(or? x y)")
    assert code == 1 and doc["payload"]["gamma"] == []
    code, doc = run_json(capsys, "entails", "-f", "(or? x y)",
                         "--gamma", "mu <= nu")
    assert doc["payload"]["gamma"] == ["mu <= nu"]


def test_parser_recovers_after_a_rejected_call(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entails", "--gamma", "mu <= nu"])  # no -f
    assert exc.value.code == 2
    assert "-f/--formula" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["abduce", "-f", "x", "--mu", "two", "--k", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, doc = run_json(capsys, "sat", "-f", "x")
    assert code == 0 and doc["eps"] == "1/1000000"
    code, doc = run_json(capsys, "abduce", "-f", "(or? x (not? x))",
                         "--mu", "7/10", "--k", "4")
    assert code == 0 and doc["payload"]["k"] == 4


def test_queries_leave_no_cyclic_garbage(capsys):
    """One query of every command frees all it made by reference counting:
    with the collector off, a collection afterwards finds nothing."""
    f = ["-f", "(iff (or? x1 x2) (or x1 x2))"]
    queries = [
        ["entails", *f, "--gamma", "mu <= nu"],
        ["witness", *f, "--json"],
        ["sat", *f],
        ["abduce", *f, "--mu", "3/4", "--k", "8", "--json"],
        ["decide-rate", *f, "--mu", "3/4"],
        ["optimize", *f, "--json"],
        ["eval", *f, "--assign", "x1=1,x2=0", "--nu", "3/4", "--mu", "1/2"],
        ["outcomes", *f, "--json"],
    ]
    for argv in queries:  # first calls build the parser and fill caches
        main(argv)
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        for argv in queries:
            main(argv)
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        gc.enable()

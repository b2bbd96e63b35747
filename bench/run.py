"""Benchmark of the `ucl` reasoner, driven in-process through
`uclogic.cli.main(argv)`.

    python3 bench/run.py --workload circuits --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all [--seed 1] [--seconds 25]   # every metric
    python3 bench/run.py --self-check                        # smoke test

One client in a closed loop: it sends one query, waits for the verdict and
sends the next, until its calls have taken `--seconds` of wall time and at
least 100 queries are done, so that ten samples lie beyond the 90th
percentile.  Every call is timed from outside (the program's own
`elapsed_ms` is ignored) and the end-to-end times are reported at a fixed
reference machine speed (see PROBE_REF_S).  Between calls the client checks
each answer against references that do not come from uclogic; that checking
is not part of the timed wall time.  The last line of standard output is
the result object; a fuller record goes to `.bench_out/` in the checkout.

With `--trace 1` the same loop runs with every layer wrapped (see
`spans.py`), and the metrics are per-layer counts and raw times per query.
The traced run's `trace.queries_per_s` (at the reference speed) against the
untraced `queries_per_s` is the tracing overhead; `--all` prints it.

Which layer metric should move which end-to-end metric, on which workload:

- cli.build_parser.s, cli.main.self_s: queries_per_s on pl-corpus, enumerate
- formulas.parse_cformula.*: pl-corpus; formulas.apply_pattern.*: enumerate
- semantics.*: latency_p50_ms, queries_per_s on circuits;
  semantics.outcomes.yielded must stay 2^m per query on enumerate
- decide.*: latency_p90_ms on kernel and circuits
- roots.*: queries_per_s on kernel (cached Sturm chains cut
  roots.sturm_sequence.calls)
- algebraic.*: latency_p90_ms on kernel
- polynomials.*: kernel (integer coefficients)
- algorithms.*.self_s (certification, the faithful nu search): circuits,
  kernel
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["circuits", "kernel", "pl-corpus", "enumerate"]
MIN_QUERIES = 100
SETUP_REPS = 7
# Machine speed.  The time of a fixed piece of pure-Python work (`probe`) is
# sampled between queries; on the 2-vCPU 2.1 GHz Xeon machine that defined
# this benchmark (Python 3.11.7) it takes PROBE_REF_S at full speed.  That
# machine's speed drifts by 25 % and more over seconds to minutes with the
# load of other tenants, and every wall-clock figure of a fixed input set
# moved with it.  So the reported times are scaled to the reference speed:
# each is divided by the run's slowdown, mean probe time / PROBE_REF_S.  Raw
# figures and the slowdown are kept in the run's record.
PROBE_REF_S = 0.00057
PROBE_EVERY_S = 0.05  # busy time between two probes
# one small query through parsing, the success table, the kernel and JSON
WARM_UP = ["entails", "-f", "(iff (or? x1 x2) (or x1 x2))", "--gamma",
           "mu <= nu", "--json"]

END_TO_END = [
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    out = [("trace.queries_per_s", "1/s")]
    out += [(f"layer.{layer}.self_s", "s/query") for layer in spans.LAYERS]
    out += [("cli.build_parser.s", "s/query"), ("cli.main.self_s", "s/query")]
    for name in ("formulas.parse_cformula", "formulas.apply_pattern",
                 "semantics.success_table", "semantics.success_polynomial",
                 "decide.exists_sat", "decide.lower_envelope_max",
                 "roots.sturm_sequence", "roots.count_roots",
                 "roots.isolate_roots", "algebraic.sign_of_poly_at",
                 "algebraic.compare", "algebraic.evaluate_poly_at"):
        out += [(f"{name}.calls", "count/query"), (f"{name}.s", "s/query")]
    out += [
        ("semantics.outcomes.yielded", "count/query"),
        ("semantics.success_table.rows", "count/query"),
        ("semantics.distinct_poly_ratio", "ratio"),
        ("decide.exists_sat.found_ratio", "ratio"),
        ("algebraic.refined.calls", "count/query"),
        ("polynomials.divmod.calls", "count/query"),
        ("polynomials.square_free.calls", "count/query"),
        ("polynomials.max_degree", "count"),
        ("polynomials.max_coeff_bits", "bits"),
    ]
    for proc in ("enta", "sat", "pmc", "arr", "rrd", "osc"):
        name = f"algorithms.{proc}"
        out += [(f"{name}.calls", "count/query"), (f"{name}.s", "s/query"),
                (f"{name}.self_s", "s/query")]
    return out


# --- one workload in this process -------------------------------------------


def fresh_import():
    """Import uclogic from the checkout's src/, dropping any loaded copy."""
    for name in [k for k in sys.modules if k == "uclogic" or k.startswith("uclogic.")]:
        del sys.modules[name]
    cli = importlib.import_module("uclogic.cli")
    if Path(cli.__file__).resolve().parent != SRC / "uclogic":
        raise ImportError(f"uclogic imported from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """Time one cli.main call; returns (seconds, exit code, stdout, error).
    Any exception is an answer too: code None with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code, error = exc.code, err.getvalue()
    except Exception:
        code, error = None, traceback.format_exc()
    return time.perf_counter() - started, code, out.getvalue(), error


def probe() -> float:
    """Seconds taken by a fixed piece of Fraction, dict and str work, with
    the collector off so the program's heap does not change the figure; the
    least of three tries, so caches left cold by the last query do not."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            acc = Fraction(0)
            seen = {}
            for i in range(1, 120):
                acc += Fraction(i, i + 1) * Fraction(3, 7)
                seen[(i, i % 7)] = str(acc.numerator % 97)
            times.append(time.perf_counter() - started)
        return min(times)
    finally:
        gc.enable()


def slowdown(probes: list[float]) -> float:
    """Mean probe time, the top and bottom tenth dropped, over the
    reference: above 1 when the machine runs slow."""
    xs = sorted(probes)
    cut = len(xs) // 10
    xs = xs[cut:len(xs) - cut]
    return sum(xs) / len(xs) / PROBE_REF_S


def set_up(workload: str, seed: int):
    """Import uclogic, build the inputs with their references, warm up."""
    started = time.perf_counter()
    cli = fresh_import()
    queries = workloads.build(workload, seed)
    call(cli, WARM_UP)
    return time.perf_counter() - started, cli, queries


def flip_verdict(check):
    """The check seen through a program that answers the opposite verdict."""
    def flipped(code, out):
        if code in (0, 1):
            code = 1 - code
        if out is not None and out.get("verdict") in (0, 1):
            out = dict(out, verdict=1 - out["verdict"])
        return check(code, out)
    return flipped


def check(query, code, text: str, error: str):
    """Why the answer is wrong, or None."""
    if error or code is None:
        return f"exit code {code}: {error.strip()[-400:]}"
    try:
        return query.check(code, json.loads(text) if text.strip() else None)
    except Exception:
        return "checking raised " + traceback.format_exc()[-400:]


def run_workload(args) -> dict:
    reps = 1 if args.smoke else SETUP_REPS
    setups, setup_slowdowns = [], []
    for _ in range(reps):
        gc.collect()  # no set-up pays for the garbage of the one before
        before = probe()
        elapsed, cli, queries = set_up(args.workload, args.seed)
        around = (before + probe()) / 2 / PROBE_REF_S
        setups.append(elapsed)
        setup_slowdowns.append(around)
    first_query_at = time.perf_counter() - PROCESS_START
    if args.inject_fault:
        queries[0].check = flip_verdict(queries[0].check)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(sys.modules["uclogic"])
    min_queries = 10 if args.smoke else MIN_QUERIES
    latencies, commands, used, failures = [], [], set(), []
    checked: dict[tuple, object] = {}  # the queries repeat once the list wraps
    busy = 0.0
    probes, next_probe = [probe()], PROBE_EVERY_S
    while True:
        index = len(latencies) % len(queries)
        query = queries[index]
        dt, code, text, error = call(cli, query.argv)
        busy += dt
        latencies.append(dt)
        commands.append(query.argv[0])
        used.add(index)
        # checking is the client's own work between queries: not timed
        key = (index, code, hash(text), error)
        if key not in checked:
            checked[key] = check(query, code, text, error)
        if checked[key]:
            failures.append({"query": query.argv, "input": query.info,
                             "problem": checked[key]})
        if busy >= next_probe:
            probes.append(probe())
            next_probe = busy + PROBE_EVERY_S
        if busy >= args.seconds and (len(latencies) >= min_queries
                                     or busy >= 2 * args.seconds):
            break
    if tracer is not None:
        tracer.uninstall()

    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10) if n >= 2 else latencies * 9
    slow = slowdown(probes)
    raw = {
        "queries_per_s": n / busy,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": deciles[8] * 1000,
        "setup_s": statistics.median(setups),
    }
    if args.trace:
        metrics = layer_metrics(tracer, n, n * slow / busy)
    else:
        metrics = {
            "queries_per_s": raw["queries_per_s"] * slow,
            "latency_p50_ms": raw["latency_p50_ms"] / slow,
            "latency_p90_ms": raw["latency_p90_ms"] / slow,
            "setup_s": statistics.median(
                t / k for t, k in zip(setups, setup_slowdowns)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = dict(END_TO_END + per_layer_names())
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_of(ROOT),
        "result": result,
        "error_rate": len(failures) / n,
        "samples": {"latency": n,
                    "beyond_p90": sum(1 for x in latencies if x > deciles[8])},
        "busy_s": busy,
        "raw_wall_clock": raw,
        "slowdown": slow,
        "probes": len(probes),
        "setup_runs_s": setups,
        "setup_slowdowns": setup_slowdowns,
        "process_start_to_first_query_s": first_query_at,
        "queries_built": len(queries),
        "distinct_queries_run": len(used),
        "per_command": per_command(commands, latencies),
        "latencies_ms": [[queries[i % len(queries)].info["id"], cmd, dt * 1000]
                         for i, (cmd, dt) in enumerate(zip(commands, latencies))],
        "inputs": {queries[i].info["id"]: {k: queries[i].info[k]
                                           for k in ("n", "m", "degree")}
                   for i in sorted(used)},
        "failures": failures[:20],
    }
    write_record(args, record, tracer)
    return result


def per_command(commands: list[str], latencies: list[float]) -> dict:
    by: dict[str, list[float]] = {}
    for cmd, dt in zip(commands, latencies):
        by.setdefault(cmd, []).append(dt)
    return {k: {"count": len(v), "median_ms": statistics.median(v) * 1000}
            for k, v in sorted(by.items())}


def layer_metrics(tracer: "spans.Tracer", n: int, qps: float) -> dict:
    c, calls, busy, own = tracer.counters, tracer.calls, tracer.busy, tracer.self_time
    values = {"trace.queries_per_s": qps}
    for layer, t in tracer.layer_self_time().items():
        values[f"layer.{layer}.self_s"] = t / n
    table_calls = calls["semantics.success_table"]
    exists_calls = calls["decide.exists_sat"]
    special = {
        "semantics.outcomes.yielded": c["semantics.outcomes.yielded"] / n,
        "semantics.success_table.rows": c["semantics.success_table.rows"] / n,
        "semantics.distinct_poly_ratio": (
            c["semantics.success_table.distinct"] / c["semantics.success_table.rows"]
            if table_calls else 0.0),
        "decide.exists_sat.found_ratio": (
            c["decide.exists_sat.found"] / exists_calls if exists_calls else 0.0),
        "polynomials.max_degree": c["polynomials.max_degree"],
        "polynomials.max_coeff_bits": c["polynomials.max_coeff_bits"],
    }
    for name, _ in per_layer_names():
        if name in values:
            continue
        if name in special:
            values[name] = special[name]
            continue
        base, kind = name.rsplit(".", 1)
        values[name] = {"calls": calls[base], "s": busy[base],
                        "self_s": own[base]}[kind] / n
    return values


def commit_of(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def write_record(args, record: dict, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    if tracer is not None:
        # one spans file per workload, so repeated runs do not pile them up
        spans_file = OUT / f"{args.workload}.spans.jsonl"
        record["spans"] = {"total": tracer.span_count,
                           "written": tracer.dump(spans_file),
                           "file": spans_file.name}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)


# --- several workloads, each in a fresh process ----------------------------


def run_child(workload: str, seed: int, seconds: float, trace_on: bool,
              extra: list[str] = ()) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace_on)), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_all(seed: int, seconds: float, extra: list[str] = ()) -> bool:
    ok = True
    for workload in WORKLOADS:
        plain = run_child(workload, seed, seconds, False, extra)
        traced = run_child(workload, seed, seconds, True, extra)
        ok &= plain["correct"] and traced["correct"]
        print(f"== {workload}  (seed {seed}, {seconds} s; "
              f"{plain['attempted']} queries, {plain['failed']} failed)")
        print(f"  {'error_rate':34s} {plain['failed'] / plain['attempted']:14.6g} ratio")
        print(f"  {'latency samples':34s} {plain['attempted']:14d} count")
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        tm = traced["metrics"]
        overhead = plain["metrics"]["queries_per_s"]["value"] / tm["trace.queries_per_s"]["value"]
        print(f"  {'tracing overhead (untraced/traced)':34s} {overhead:14.6g} x")
        layers = {k: v["value"] for k, v in tm.items()
                  if k.startswith("layer.") and k.endswith(".self_s")}
        top = max(layers, key=layers.get)
        print(f"  {'largest self-time layer':34s} {top.split('.')[1]:>14s}")
    return ok


def self_check() -> bool:
    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}: {what}", flush=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report([(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END,
           "BENCHMARK.json end_to_end matches the metrics emitted")
    report([(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names(),
           "BENCHMARK.json per_layer matches the metrics emitted")
    report([w["name"] for w in spec["workloads"]] == WORKLOADS,
           "BENCHMARK.json workloads match")
    for workload in WORKLOADS:
        for trace_on, names in ((False, END_TO_END), (True, per_layer_names())):
            started = time.perf_counter()
            res = run_child(workload, 1, 1, trace_on, ["--smoke"])
            report(res["correct"] and res["failed"] == 0
                   and [(k, v["unit"]) for k, v in res["metrics"].items()] == names,
                   f"{workload} trace={int(trace_on)} smoke run, "
                   f"{res['attempted']} queries correct, "
                   f"{time.perf_counter() - started:.1f} s")
    res = run_child("circuits", 1, 1, False, ["--smoke", "--inject-fault"])
    report(not res["correct"] and res["failed"] >= 1,
           f"an injected wrong verdict is caught: error_rate "
           f"{res['failed']}/{res['attempted']}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one set-up and at least 10 queries, for self-checks")
    p.add_argument("--inject-fault", action="store_true",
                   help="check the first query as if its verdict were flipped")
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced, and print "
                        "every metric")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "uclogic" / "__init__.py").is_file():
        print(f"error: no uclogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return 0 if self_check() else 1
    if args.all:
        extra = ["--smoke"] if args.smoke else []
        return 0 if report_all(args.seed, args.seconds, extra) else 1
    if args.workload is None:
        p.error("--workload is required")
    result = run_workload(args)
    print(f"{args.workload}: {result['attempted']} queries, "
          f"{result['failed']} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

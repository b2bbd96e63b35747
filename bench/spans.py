"""Span tracing of uclogic's layers from the outside.

`Tracer.install()` wraps each layer's public functions and replaces every
reference to the original, in every loaded `uclogic` module and in the
`Polynomial` and `AlgebraicNumber` classes, so calls through names imported
by another module (`algorithms.success_table`, `decide.isolate_roots`,
`algebraic.count_roots`, `cli.build_parser`, ...) are traced too.

A span is (id, parent id, name, start, end).  A stack of open spans gives
each span's parent and the time its children took, so self time (duration
minus children) is right for nested and recursive calls; busy time counts
only the outermost span of a recursive name.  Spans stay in memory (up to
`keep` of them) and are written out by `dump`; the aggregates cover all.
The layer of a span is its module name, the part before the first dot.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute): the functions wrapped, named "<module>.<attribute>"
FUNCTIONS = [
    ("cli", "build_parser"), ("cli", "main"),
    ("formulas", "parse_cformula"), ("formulas", "apply_pattern"),
    ("semantics", "success_table"), ("semantics", "success_polynomial"),
    ("decide", "exists_sat"), ("decide", "lower_envelope_max"),
    ("roots", "sturm_sequence"), ("roots", "count_roots"),
    ("roots", "isolate_roots"),
    ("algebraic", "evaluate_poly_at"),
    ("algorithms", "enta"), ("algorithms", "sat"), ("algorithms", "pmc"),
    ("algorithms", "arr"), ("algorithms", "rrd"), ("algorithms", "osc"),
]
# (module, class, method): traced as "<module>.<method>"
METHODS = [
    ("algebraic", "AlgebraicNumber", "refined"),
    ("algebraic", "AlgebraicNumber", "sign_of_poly_at"),
    ("algebraic", "AlgebraicNumber", "compare"),
    ("polynomials", "Polynomial", "divmod"),
    ("polynomials", "Polynomial", "square_free"),
]
# generators: each step of the iteration is a span
GENERATORS = [("semantics", "outcomes")]
LAYERS = ["cli", "formulas", "semantics", "decide", "roots", "algebraic",
          "polynomials", "algorithms"]


def _coeff_bits(coeffs) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)


class Tracer:
    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, children's time]
        self._next_id = 0
        self._spans = {"id": array("q"), "parent": array("q"),
                       "name": array("i"), "start": array("d"), "end": array("d")}
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, 0.0, time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, name: str, name_id: int, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, children, start = frame
        duration = end - start
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - children
        if self._depth[name] == 0:
            self.busy[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if span_id < self.keep:
            s = self._spans
            s["id"].append(span_id)
            s["parent"].append(parent[0] if parent else -1)
            s["name"].append(name_id)
            s["start"].append(start)
            s["end"].append(end)

    def wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, name_id, frame)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, name_id, frame)
                tracer.counters[name + ".yielded"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # --- counters at the layer boundaries -----------------------------------

    def _after_table(self, args, table) -> None:
        self.counters["semantics.success_table.rows"] += len(table)
        self.counters["semantics.success_table.distinct"] += len({p for _, p in table})

    def _after_exists_sat(self, args, result) -> None:
        self.counters["decide.exists_sat.found"] += bool(result[0])

    def _after_divmod(self, args, result) -> None:
        a, b = args[0], args[1]
        c = self.counters
        c["polynomials.max_degree"] = max(c["polynomials.max_degree"],
                                          a.degree, b.degree)
        c["polynomials.max_coeff_bits"] = max(
            c["polynomials.max_coeff_bits"],
            _coeff_bits(a.coeffs), _coeff_bits(b.coeffs))

    # --- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced names of the imported `package` (uclogic)."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in LAYERS}
        after = {"semantics.success_table": self._after_table,
                 "decide.exists_sat": self._after_exists_sat,
                 "polynomials.divmod": self._after_divmod}
        replace: dict[int, object] = {}
        for mod, attr in FUNCTIONS:
            name = f"{mod}.{attr}"
            fn = getattr(mods[mod], attr)
            replace[id(fn)] = self.wrap(name, fn, after.get(name))
        for mod, attr in GENERATORS:
            fn = getattr(mods[mod], attr)
            replace[id(fn)] = self.wrap_generator(f"{mod}.{attr}", fn)
        owners: list[object] = [
            m for k, m in list(sys.modules.items())
            if k == package.__name__ or k.startswith(package.__name__ + ".")
        ]
        for mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            name = f"{mod}.{attr}"
            fn = vars(cls)[attr]
            replace[id(fn)] = self.wrap(name, fn, after.get(name))
            if cls not in owners:
                owners.append(cls)
        # every binding of an original, e.g. both Polynomial.divmod and its
        # alias Polynomial.__divmod__, or cli's import of parse_cformula
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if id(value) in replace:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, replace[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- results -------------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def dump(self, path) -> int:
        """Write the kept spans as JSON lines, a header line naming the
        fields and the span names first; returns how many spans."""
        s = self._spans
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": list(s), "names": self.names}) + "\n")
            for row in zip(*s.values()):
                fh.write(json.dumps(row) + "\n")
        return len(s["id"])

    @property
    def span_count(self) -> int:
        return self._next_id

"""uclogic: exact reasoning about logic circuits with unreliable gates.

Circuit formulas mix reliable and unreliable connectives; each unreliable
gate produces the correct output with probability nu and the complemented
output otherwise.  The package decides ambition-constrained validity,
constructs model witnesses, abduces reliability-rate intervals, and
maximizes the achievable success rate, all by exact rational and algebraic
computation.
"""

from .algebraic import AlgebraicNumber, evaluate_poly_at
from .algorithms import (
    AbductionResult,
    EntaQuery,
    Optimum,
    WitnessResult,
    arr,
    enta,
    osc,
    pmc,
    rrd,
    sat,
)
from .decide import SignCondition, exists_sat, lower_envelope_max
from .errors import (
    GateLimitError,
    ParseError,
    ResourceLimitError,
    UCLError,
    VariableLimitError,
)
from .formulas import (
    App,
    CFormula,
    Connective,
    Const,
    Var,
    apply_pattern,
    eval_pl,
    fau,
    format_cformula,
    parse_cformula,
    variables,
)
from .polynomials import (
    Polynomial,
    format_polynomial,
    parse_polynomial,
    simplest_between,
)
from .roots import Interval, count_roots, isolate_roots, sturm_sequence
from .semantics import (
    AmbitionFormula,
    Interpretation,
    Outcome,
    OutcomeFormula,
    outcome_probability,
    outcomes,
    parse_ambition,
    satisfies,
    success_polynomial,
    success_table,
)

__version__ = "0.1.0"

__all__ = [
    "AbductionResult",
    "AlgebraicNumber",
    "AmbitionFormula",
    "App",
    "CFormula",
    "Connective",
    "Const",
    "EntaQuery",
    "GateLimitError",
    "Interpretation",
    "Interval",
    "Optimum",
    "Outcome",
    "OutcomeFormula",
    "ParseError",
    "Polynomial",
    "ResourceLimitError",
    "SignCondition",
    "UCLError",
    "Var",
    "VariableLimitError",
    "WitnessResult",
    "apply_pattern",
    "arr",
    "count_roots",
    "enta",
    "eval_pl",
    "evaluate_poly_at",
    "exists_sat",
    "fau",
    "format_cformula",
    "format_polynomial",
    "isolate_roots",
    "lower_envelope_max",
    "osc",
    "outcome_probability",
    "outcomes",
    "parse_ambition",
    "parse_cformula",
    "parse_polynomial",
    "pmc",
    "rrd",
    "sat",
    "satisfies",
    "simplest_between",
    "sturm_sequence",
    "success_polynomial",
    "success_table",
    "variables",
]

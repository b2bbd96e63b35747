"""Dense univariate polynomials over exact rationals, in one integer form.

A polynomial sum_i c_i nu^i is held as integer numerators nums[i] = c_i den,
constant term first and with no trailing zero, over one denominator den > 0
that shares no factor with all of them, so equal polynomials have equal
(nums, den).  Arithmetic, evaluation (`horner`) and signs run in integers
on this form; `coeffs` makes Fractions for printing and division over Q.
The variable prints as ``nu``.

The square-free part is decided modulo the prime 2^61 - 1 first: when the
prime does not divide the leading numerator and gcd(p, p') is a constant
there, p is square-free over Q.  Only otherwise does `square_free` run the
remainder sequence over Q (`roots.sturm_sequence`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import ParseError

Rat = Union[Fraction, int]

# The prime of the square-free test.  It is far above MAX_DEGREE, so p'
# keeps its degree modulo the prime whenever p does.
SQUARE_FREE_PRIME = 2**61 - 1


def horner(nums: Iterable[int], x: Rat) -> tuple[int, int]:
    """(h, b^(d+1)) for x = a/b and d + 1 integer coefficients nums, constant
    term first: h = sum_i nums[i] a^i b^(d-i) by homogeneous Horner, so h
    has the sign of sum_i nums[i] x^i, which is h / b^d."""
    a, b = x.numerator, x.denominator
    acc = 0
    b_power = 1
    for n in reversed(nums):
        acc = acc * a + n * b_power
        b_power *= b
    return acc, b_power


def _coprime_to_derivative(nums: tuple[int, ...]) -> bool:
    """True only if gcd(p, p') is a constant for p = sum_i nums[i] nu^i;
    False leaves it open.  Decided by Euclid in GF(P), P the prime above:
    when P does not divide the leading coefficient, the image of gcd(p, p')
    over Q divides both images and keeps its degree, so the gcd mod P is
    at least as high."""
    P = SQUARE_FREE_PRIME
    if nums[-1] % P == 0:
        return False
    a = [n % P for n in nums]
    b = [i * n % P for i, n in enumerate(nums)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        # a mod b, leading terms first; b's leading coefficient is nonzero
        inv = pow(b[-1], P - 2, P)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * inv % P
            if c:
                for j in range(db + 1):
                    a[i - db + j] = (a[i - db + j] - c * b[j]) % P
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) == 1


class Polynomial:
    # The one stored form (see the module docstring): equality and the hash
    # look at (nums, den) only.  Memos filled on first use: the square-free
    # part and the hash.  A square-free polynomial's memo is True rather than
    # itself, so that no polynomial refers to itself and none is left to the
    # cyclic garbage collector.
    __slots__ = ("nums", "den", "_square_free", "_hash")

    def __new__(cls, coeffs: Iterable[Rat] = ()) -> "Polynomial":
        cs = list(coeffs)
        den = math.lcm(*(c.denominator for c in cs))
        return _over([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def constant(cls, c: Rat) -> "Polynomial":
        return cls([c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, made anew on every read."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nums, self.den))
        return self._hash

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = math.lcm(self.den, other.den)
        a, b = (p.nums if p.den == den else [n * (den // p.den) for n in p.nums]
                for p in (self, other))
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _over(out, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _over([-n for n in self.nums], self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return _over(out, self.den * other.den)

    def scale(self, k: Rat) -> "Polynomial":
        return _over([n * k.numerator for n in self.nums], self.den * k.denominator)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sign_at(self, x: Rat) -> int:
        """Sign of p(x) at a rational x, in integers."""
        acc, _ = horner(self.nums, x)
        return (acc > 0) - (acc < 0)

    def __call__(self, x: Rat) -> Fraction:
        # p(x) = h * b / (den * b^(d+1)) for (h, b^(d+1)) = horner(nums, x)
        acc, b_power = horner(self.nums, x)
        return Fraction(acc * x.denominator, self.den * b_power)

    def eval_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Enclosure of the image of [lo, hi] (interval Horner, exact ends),
        in integers with both ends over one denominator b."""
        b = math.lcm(lo.denominator, hi.denominator)
        ends = ((lo * b).numerator, (hi * b).numerator)
        nums, den = self.nums, self.den
        alo = ahi = 0
        b_power = 1
        for n in reversed(nums):
            prods = [a * e for a in (alo, ahi) for e in ends]
            alo, ahi = min(prods) + n * b_power, max(prods) + n * b_power
            b_power *= b
        return Fraction(alo * b, den * b_power), Fraction(ahi * b, den * b_power)

    def derivative(self) -> "Polynomial":
        return _over([i * n for i, n in enumerate(self.nums)][1:], self.den)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, divisor = list(self.coeffs), other.coeffs
        dq = len(rem) - len(divisor)
        if dq < 0:
            return Polynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = divisor[-1]
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(divisor):
                    rem[i + j] -= c * b
        return Polynomial(quot), Polynomial(rem[: other.degree])

    __divmod__ = divmod

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "Polynomial":
        return self.scale(Fraction(self.den, self.nums[-1])) if self.nums else self

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def square_free(self) -> "Polynomial":
        """Largest square-free divisor (same distinct roots), computed once:
        p itself when the test modulo SQUARE_FREE_PRIME finds it coprime to
        p'; else p / monic(g) for g the last member of p's remainder
        sequence (`roots.sturm_sequence`), gcd(p, p') up to a constant, and
        p itself when g is a constant."""
        if self._square_free is None:
            q = self
            if self.degree >= 1 and not _coprime_to_derivative(self.nums):
                from .roots import sturm_sequence  # roots imports this module
                g = sturm_sequence(self)[-1]
                if g.degree >= 1:
                    q = self.exact_div(g.monic())
                    q._square_free = True
            self._square_free = True if q is self else q
        return self if self._square_free is True else self._square_free

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _over(nums: list[int], den: int) -> Polynomial:
    """sum_i nums[i] nu^i / den, for den > 0, in the stored form."""
    while nums and nums[-1] == 0:
        nums.pop()
    if den != 1 and (g := math.gcd(den, *nums)) != 1:
        nums, den = [n // g for n in nums], den // g
    p = object.__new__(Polynomial)
    p.nums, p.den = tuple(nums), den
    p._square_free = p._hash = None  # the memos, not yet filled
    return p


ZERO = Polynomial()
ONE = Polynomial([1])
NU = Polynomial([0, 1])


def format_polynomial(p: Polynomial, var: str = "nu") -> str:
    """Canonical sparse text, descending powers: ``2*nu^2 - 2*nu + 1``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k, c in reversed(list(enumerate(p.coeffs))):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# Deepest accepted nesting of parentheses and unary minus signs; the parser
# recurses up to four times per level.
MAX_DEPTH = 100

# Highest accepted degree of a parsed polynomial, and highest exponent.  The
# kernel's exact root isolation slows steeply with the degree (at 1024 a
# single entailment takes seconds), and the checks run before the product or
# power that would exceed the limit is computed.
MAX_DEGREE = 256

# Largest accepted bit length of a numerator or denominator in a parsed
# polynomial; a power is checked before it is computed, as for the degree.
MAX_COEFF_BITS = 4096

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


# The parser's values are sparse, exponent -> nonzero coefficient, so that
# a product with a monomial is a shift and a scale, a power of a monomial is
# one power of its coefficient, and a sum touches only the exponents of its
# terms: a canonical bound `c*nu^k + ...` parses in time linear in its text.
Sparse = dict[int, Fraction]


def _degree(p: Sparse) -> int:
    return max(p, default=-1)


def _coeff_bits(coeffs: Iterable[Fraction]) -> int:
    """Largest bit length of a numerator or denominator of coeffs."""
    sizes = (max(abs(c.numerator), c.denominator) for c in coeffs)
    return max(sizes, default=0).bit_length()


def _mul(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            out[k] = out[k] + x * y if k in out else x * y
    return {k: c for k, c in out.items() if c}


def _pow(p: Sparse, n: int) -> Sparse:
    if len(p) == 1:
        ((j, c),) = p.items()
        return {j * n: c**n}
    result: Sparse = {0: Fraction(1)}
    for bit in bin(n)[2:]:
        result = _mul(result, result)
        if bit == "1":
            result = _mul(result, p)
    return result


class _PolyParser:
    """Recursive descent over +, -, *, /, ^ and parentheses."""

    def __init__(self, text: str, var: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.var = var
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of polynomial expression")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError(f"unexpected token {tok!r}", pos)
        return Polynomial([p.get(k, 0) for k in range(_degree(p) + 1)])

    def expr(self) -> Sparse:
        if self.peek() == "-":
            self.next()
            acc = {k: -c for k, c in self.term().items()}
        else:
            if self.peek() == "+":
                self.next()
            acc = self.term()
        # Each sum is checked, as a whole; only the first term and the
        # coefficients the last term touched can be over the limit there.
        unchecked = list(acc)
        while self.peek() in ("+", "-"):
            op, pos = self.next()
            t = self.term()
            for k, c in t.items():
                if k in acc:
                    c = acc[k] + c if op == "+" else acc[k] - c
                elif op == "-":
                    c = -c
                if c:
                    acc[k] = c
                else:
                    del acc[k]
            touched = (acc[k] for k in (*unchecked, *t) if k in acc)
            self.check_bits(_coeff_bits(touched), pos)
            unchecked = []
        return acc

    def term(self) -> Sparse:
        acc = self.power()
        while self.peek() in ("*", "/"):
            op, pos = self.next()
            rhs = self.power()
            if op == "*":
                self.check_degree(_degree(acc) + _degree(rhs), pos)
                acc = self.check_coeffs(_mul(acc, rhs), pos)
            else:
                if list(rhs) != [0]:
                    raise ParseError("division only by a nonzero constant", pos)
                k = 1 / rhs[0]
                acc = self.check_coeffs({e: c * k for e, c in acc.items()}, pos)
        return acc

    def power(self) -> Sparse:
        base = self.atom()
        if self.peek() in ("^", "**"):
            _, pos = self.next()
            tok, tpos = self.next()
            if not tok.isdigit():
                raise ParseError("exponent must be a natural number", tpos)
            n = int(tok)
            if n > MAX_DEGREE:
                raise ParseError(
                    f"exponent {n} exceeds the degree limit of {MAX_DEGREE}", tpos
                )
            degree = _degree(base)
            self.check_degree(degree * n, tpos)
            # base = B / L for integers B over one denominator L, so base^n
            # = B^n / L^n, and a coefficient of B^n sums at most t^n products
            # of n of the t = degree + 1 integer coefficients of B
            b = Polynomial(base.values())
            size = max([b.den, *map(abs, b.nums)])
            bits = n * (size.bit_length() + (degree + 1).bit_length())
            self.check_bits(bits, tpos)
            return _pow(base, n)
        return base

    def check_degree(self, degree: int, pos: int) -> None:
        if degree > MAX_DEGREE:
            raise ParseError(
                f"polynomial degree {degree} exceeds the limit of {MAX_DEGREE}", pos
            )

    def check_bits(self, bits: int, pos: int) -> None:
        if bits > MAX_COEFF_BITS:
            raise ParseError(
                f"coefficients over the limit of {MAX_COEFF_BITS} bits", pos
            )

    def check_coeffs(self, p: Sparse, pos: int) -> Sparse:
        self.check_bits(_coeff_bits(p.values()), pos)
        return p

    def atom(self) -> Sparse:
        tok, pos = self.next()
        if tok in ("(", "-"):
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    f"expression nested deeper than {MAX_DEPTH} levels", pos
                )
            self.depth += 1
            if tok == "(":
                p = self.expr()
                close, cpos = self.next()
                if close != ")":
                    raise ParseError("expected ')'", cpos)
            else:
                p = {k: -c for k, c in self.atom().items()}
            self.depth -= 1
            return p
        if tok.isdigit():
            self.check_bits(3 * (len(tok) - 1), pos)  # 10^(d-1) > 2^(3(d-1))
            c = int(tok)
            return self.check_coeffs({0: Fraction(c)} if c else {}, pos)
        if tok == self.var:
            return {1: Fraction(1)}
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse_polynomial(text: str, var: str = "nu") -> Polynomial:
    """Parse the canonical dialect plus parenthesized arithmetic."""
    return _PolyParser(text, var).parse()


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly between lo and hi.

    Stern-Brocot / continued-fraction descent; lo < hi required.
    """
    if not lo < hi:
        raise ValueError("empty open interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    n = lo.numerator // lo.denominator
    if lo == n:
        if hi > n + 1:
            return Fraction(n + 1)
        # (n, hi): smallest m with n + 1/m inside
        inv = 1 / (hi - n)
        m = inv.numerator // inv.denominator + 1
        return n + Fraction(1, m)
    if hi > n + 1:
        return Fraction(n + 1)
    return n + 1 / simplest_between(1 / (hi - n), 1 / (lo - n))

"""Exact base fields: the rationals and cyclotomic extensions Q(zeta_m).

Every quantity in this package is an element of a single active field per
session.  Rational scalars are plain ``Rat`` objects (the compiled kernel
from ``cendlab._speedups`` when available, ``fractions.Fraction``
otherwise).  Cyclotomic scalars are ``CycElem``: an integer vector of
coefficients in the power basis 1, zeta, ..., zeta^(phi(m)-1), reduced
modulo the m-th cyclotomic polynomial, over one positive denominator, in
lowest terms.  The form is canonical, so equality of forms is exact
equality of values.  CycElem arithmetic runs on Python ints and does not
go through ``Rat``, so the compiled kernel speeds up QQ only.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction


class FieldError(ValueError):
    """Raised on malformed scalars or operations across distinct fields."""


if os.environ.get("CENDLAB_PURE"):
    Rat = Fraction
    RATIONAL_BACKEND = "fractions"
else:
    try:
        from cendlab._speedups import Rat  # type: ignore[no-redef]

        RATIONAL_BACKEND = "compiled"
    except ImportError:
        Rat = Fraction
        RATIONAL_BACKEND = "fractions"


def totient(m: int) -> int:
    if m < 1:
        raise FieldError(f"conductor must be positive, got {m}")
    count = 0
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            count += 1
    return count


def _poly_trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return list(coeffs[:end])


def _poly_divexact_int(a, b):
    # Exact division of integer polynomials, used only where the quotient
    # is known to be integral (cyclotomic factor towers).
    a = _poly_trim(a)
    b = _poly_trim(b)
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    lead = b[-1]
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % lead != 0:
            raise FieldError("non-exact polynomial division")
        q = c // lead
        out[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise FieldError("non-exact polynomial division")
    return out


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic."""
    if m < 1:
        raise FieldError(f"conductor must be positive, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _parse_rational_str(text: str):
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        try:
            num, den = int(num_s), int(den_s)
        except ValueError:
            raise FieldError(f"bad rational literal {text!r}") from None
        if den == 0:
            raise FieldError(f"zero denominator in {text!r}")
        return Rat(num, den)
    try:
        return Rat(int(text))
    except ValueError:
        raise FieldError(f"bad rational literal {text!r}") from None


def format_rational(x) -> str:
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


class RationalField:
    """The field Q.  Elements are ``Rat`` values."""

    name = "QQ"
    conductor = None

    def __init__(self):
        self.zero = Rat(0)
        self.one = Rat(1)

    def scalar(self, x):
        if type(x) is Rat:
            return x
        if isinstance(x, int):
            return Rat(x)
        if isinstance(x, str):
            return _parse_rational_str(x)
        if isinstance(x, (Fraction, Rat)):
            return Rat(x.numerator, x.denominator)
        raise FieldError(f"cannot coerce {x!r} into {self.name}")

    def is_element(self, x) -> bool:
        return isinstance(x, (Rat, Fraction))

    def to_str(self, x) -> str:
        return format_rational(x)

    def to_json(self, x):
        return format_rational(x)

    def from_json(self, obj):
        if isinstance(obj, (str, int)):
            return self.scalar(obj)
        raise FieldError(f"bad rational JSON value {obj!r}")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class CycElem:
    """Element of Q(zeta_m): the coefficient of zeta^k is num[k] / den.

    ``num`` is a tuple of phi(m) ints and ``den`` a positive int, kept in
    lowest terms (gcd(den, *num) == 1), so the form is canonical and
    equality of values is equality of (num, den).  Arithmetic runs on the
    integers alone; ``coeffs``, the rational coefficients, is derived for
    printing, JSON and hashing.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        self.field = field
        self.num = num  # tuple of int, length phi(m)
        self.den = den  # positive int

    @property
    def coeffs(self):
        den = self.den
        return tuple(Rat(a, den) for a in self.num)

    def _operand(self, other):
        # other as an element of this field, or None when it is no scalar
        if type(other) is not CycElem:
            if isinstance(other, int):
                return self.field.scalar(other)
            if not isinstance(other, CycElem):
                return None
        if other.field is not self.field and other.field.conductor != self.field.conductor:
            raise FieldError(
                f"conductor mismatch: {self.field.conductor} vs {other.field.conductor}"
            )
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return _lowest(self.field, [x + y for x, y in zip(self.num, other.num)], a)
        return _lowest(
            self.field, [x * b + y * a for x, y in zip(self.num, other.num)], a * b
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return _lowest(self.field, [x - y for x, y in zip(self.num, other.num)], a)
        return _lowest(
            self.field, [x * b - y * a for x, y in zip(self.num, other.num)], a * b
        )

    def __rsub__(self, other):
        if isinstance(other, int):
            return self.field.scalar(other) - self
        return NotImplemented

    def __neg__(self):
        return CycElem(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.field._mul(self, self.field._inverse(other))

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return self.field.scalar(other) / self
        return NotImplemented

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if type(other) is not CycElem:
            if isinstance(other, int):
                num = self.num
                return self.den == 1 and num[0] == other and not any(num[1:])
            if not isinstance(other, CycElem):
                return NotImplemented
        return (
            self.field.conductor == other.field.conductor
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.conductor, self.coeffs))

    def __repr__(self):
        return self.field.to_str(self)


def _lowest(field, num, den):
    """The CycElem num / den in lowest terms with a positive denominator."""
    if den != 1:
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return CycElem(field, tuple(num), den)


class CyclotomicField:
    """The field Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

    Phi_m is monic with integer coefficients, so the reductions of x^k
    modulo Phi_m, and the powers of zeta, are integer vectors; a product
    of two elements is an integer convolution, the reduction, and one gcd.
    """

    def __init__(self, m: int):
        if m < 1:
            raise FieldError(f"conductor must be positive, got {m}")
        self.conductor = m
        d = self.degree = totient(m)
        self.name = f"QQ(zeta_{m})"
        # the powers x^k reduced modulo Phi_m: x^d = x^d - Phi_m, and each
        # power is x times the one before; those below m are the powers of zeta
        top = [-c for c in cyclotomic_polynomial(m)[:d]]
        powers = [[1] + [0] * (d - 1)]
        for _ in range(max(m, 2 * d - 1) - 1):
            prev = powers[-1]
            c = prev[d - 1]
            row = [0] + prev[: d - 1]
            if c:
                row = [a + c * b for a, b in zip(row, top)]
            powers.append(row)
        self._zeta_powers = [tuple(p) for p in powers[:m]]
        # x^k for k in [d, 2d - 2] as sparse rows (column, entry), the
        # degrees a product of two reduced elements reaches
        self._reductions = [
            (k, [(t, a) for t, a in enumerate(powers[k]) if a])
            for k in range(2 * d - 2, d - 1, -1)
        ]
        # the k of sigma_k (zeta -> zeta^k), the units mod m other than 1;
        # a times its images under them is the norm of a
        self._conjugations = [k for k in range(2, m) if math.gcd(k, m) == 1]
        self.zero = CycElem(self, (0,) * d)
        self.one = CycElem(self, (1,) + (0,) * (d - 1))

    def zeta(self, power: int = 1):
        """zeta_m raised to an integer power, reduced to canonical form."""
        return CycElem(self, self._zeta_powers[power % self.conductor])

    def _mul_num(self, a, b):
        # integer product of two numerator vectors, reduced modulo Phi_m
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:d]
        for k, row in self._reductions:
            c = prod[k]
            if c:
                for t, r in row:
                    out[t] += c * r
        return out

    def _mul(self, a: CycElem, b: CycElem) -> CycElem:
        return _lowest(self, self._mul_num(a.num, b.num), a.den * b.den)

    def _inverse(self, a: CycElem) -> CycElem:
        """a^-1 = den * P / N(num), where P is the product of the Galois
        conjugates sigma_k(num), k a unit mod m other than 1, and the norm
        N(num) = P * num is a nonzero rational integer."""
        if not a:
            raise ZeroDivisionError("division by zero")
        m, d = self.conductor, self.degree
        powers = self._zeta_powers
        prod = [1] + [0] * (d - 1)
        for k in self._conjugations:
            conj = [0] * d
            for i, x in enumerate(a.num):
                if x:
                    for t, z in enumerate(powers[i * k % m]):
                        conj[t] += x * z
            prod = self._mul_num(prod, conj)
        norm = self._mul_num(prod, a.num)
        if any(norm[1:]) or not norm[0]:
            raise FieldError("norm is not a nonzero rational; cannot invert")
        return _lowest(self, [a.den * x for x in prod], norm[0])

    def scalar(self, x):
        d = self.degree
        if isinstance(x, CycElem):
            if x.field.conductor != self.conductor:
                raise FieldError(
                    f"conductor mismatch: {x.field.conductor} vs {self.conductor}"
                )
            return x
        if isinstance(x, (int, Fraction, Rat, str)):
            q = QQ.scalar(x)
            return CycElem(self, (q.numerator,) + (0,) * (d - 1), q.denominator)
        if isinstance(x, (list, tuple)):
            if len(x) != d:
                raise FieldError(f"need {d} coefficients, got {len(x)}")
            qs = [QQ.scalar(c) for c in x]
            den = math.lcm(*(q.denominator for q in qs))
            return _lowest(self, [q.numerator * (den // q.denominator) for q in qs], den)
        raise FieldError(f"cannot coerce {x!r} into {self.name}")

    def is_element(self, x) -> bool:
        return isinstance(x, CycElem) and x.field.conductor == self.conductor

    def to_str(self, x) -> str:
        if not any(x.coeffs[1:]):
            return format_rational(x.coeffs[0])
        parts = []
        for k, c in enumerate(x.coeffs):
            if not c:
                continue
            term = format_rational(c)
            if k > 0:
                term += f"*z{k}" if k > 1 else "*z"
            parts.append(term)
        return " + ".join(parts) if parts else "0"

    def to_json(self, x):
        return {"m": self.conductor, "coeffs": [format_rational(c) for c in x.coeffs]}

    def from_json(self, obj):
        if isinstance(obj, dict):
            if obj.get("m") != self.conductor:
                raise FieldError(
                    f"conductor mismatch: {obj.get('m')} vs {self.conductor}"
                )
            return self.scalar(obj["coeffs"])
        if isinstance(obj, (str, int)):
            return self.scalar(obj)
        raise FieldError(f"bad cyclotomic JSON value {obj!r}")

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("cyc", self.conductor))

    def __repr__(self):
        return self.name


def scalar_arithmetic(a, b, op: str):
    """One exact field operation; both operands must already share a field."""
    if isinstance(a, CycElem) != isinstance(b, CycElem):
        raise FieldError("operands belong to different fields")
    if isinstance(a, CycElem) and a.field.conductor != b.field.conductor:
        raise FieldError(
            f"conductor mismatch: {a.field.conductor} vs {b.field.conductor}"
        )
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if not b:
            raise ZeroDivisionError("division by zero")
        return a / b
    raise FieldError(f"unknown operation {op!r}")


def field_from_spec(spec) -> RationalField | CyclotomicField:
    """Field from a JSON-ish spec: "rational", "cyclotomic:m" or a dict."""
    if spec is None:
        return QQ
    if isinstance(spec, (RationalField, CyclotomicField)):
        return spec
    if isinstance(spec, str):
        if spec == "rational":
            return QQ
        if spec.startswith("cyclotomic:"):
            return CyclotomicField(int(spec.split(":", 1)[1]))
        raise FieldError(f"bad field spec {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "rational":
            return QQ
        if kind == "cyclotomic":
            return CyclotomicField(int(spec["conductor"]))
        raise FieldError(f"bad field spec {spec!r}")
    raise FieldError(f"bad field spec {spec!r}")

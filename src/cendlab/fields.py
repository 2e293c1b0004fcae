"""Exact base fields: the rationals and cyclotomic extensions Q(zeta_m).

Every quantity in this package is an element of a single active field per
session.  Rational scalars are plain ``Rat`` objects (the compiled kernel
from ``cendlab._speedups`` when available, ``fractions.Fraction``
otherwise); cyclotomic scalars are ``CycElem`` with rational coefficients
reduced modulo the m-th cyclotomic polynomial, so equality of canonical
forms is exact equality of values.
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


def _poly_mul_int(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


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
    """Element of Q(zeta_m) as a coefficient vector of length phi(m)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs  # tuple of Rat, length phi(m)

    def _check(self, other):
        if not isinstance(other, CycElem):
            raise TypeError
        if other.field.conductor != self.field.conductor:
            raise FieldError(
                f"conductor mismatch: {self.field.conductor} vs {other.field.conductor}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        self._check(other)
        return CycElem(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        self._check(other)
        return CycElem(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        if isinstance(other, int):
            return self.field.scalar(other) - self
        return NotImplemented

    def __neg__(self):
        return CycElem(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        self._check(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        self._check(other)
        return self.field._mul(self, self.field._inverse(other))

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return self.field.scalar(other) / self
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        return self.field.conductor == other.field.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.conductor, self.coeffs))

    def __repr__(self):
        return self.field.to_str(self)


def _poly_divmod_rat(a, b, zero):
    # Over the rationals; b nonzero.  Returns (quotient, remainder) as lists.
    a = list(a)
    while a and not a[-1]:
        a.pop()
    db = len(b) - 1
    lead = b[-1]
    q = [zero] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = a[-1] / lead
        q[k] = c
        for j in range(db + 1):
            a[k + j] = a[k + j] - c * b[j]
        while a and not a[-1]:
            a.pop()
    return q, a


class CyclotomicField:
    """The field Q(zeta_m), reduced modulo the m-th cyclotomic polynomial."""

    def __init__(self, m: int):
        if m < 1:
            raise FieldError(f"conductor must be positive, got {m}")
        self.conductor = m
        self.degree = totient(m)
        self.name = f"QQ(zeta_{m})"
        self._modulus = [Rat(c) for c in cyclotomic_polynomial(m)]
        # Reductions of x^k for k in [degree, 2*degree - 2] (and always x^degree).
        d = self.degree
        red = {}
        prev = None
        for k in range(d, max(2 * d - 1, d + 1)):
            if prev is None:
                row = [-c for c in self._modulus[:d]]
            else:
                row = [Rat(0)] + prev[: d - 1]
                c = prev[d - 1]
                if c:
                    row = [a + c * b for a, b in zip(row, red[d])]
            # row has length d and represents x^k mod Phi_m
            red[k] = row
            prev = row
        self._reductions = red
        self.zero = CycElem(self, tuple([Rat(0)] * d))
        one = [Rat(0)] * d
        one[0] = Rat(1)
        self.one = CycElem(self, tuple(one))

    def zeta(self, power: int = 1):
        """zeta_m raised to an integer power, reduced to canonical form."""
        d = self.degree
        k = power % self.conductor
        coeffs = [Rat(0)] * d
        coeffs[0] = Rat(1)
        red = self._reductions[d]
        for _ in range(k):
            top = coeffs[d - 1]
            coeffs = [Rat(0)] + coeffs[: d - 1]
            if top:
                coeffs = [a + top * b for a, b in zip(coeffs, red)]
        return CycElem(self, tuple(coeffs))

    def _mul(self, a: CycElem, b: CycElem) -> CycElem:
        d = self.degree
        prod = [Rat(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] = prod[i + j] + x * y
        out = prod[:d]
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                row = self._reductions[k]
                out = [acc + c * r for acc, r in zip(out, row)]
        return CycElem(self, tuple(out))

    def _inverse(self, a: CycElem) -> CycElem:
        if not a:
            raise ZeroDivisionError("division by zero")
        # Extended Euclid on (a, Phi_m); the gcd is a nonzero constant since
        # the modulus is irreducible over Q.
        zero, one = Rat(0), Rat(1)
        r0 = list(self._modulus)
        r1 = [c for c in a.coeffs]
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [zero], [one]
        while True:
            q, r = _poly_divmod_rat(r0, r1, zero)
            if not r:
                break
            qs1 = [zero] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        if y:
                            qs1[i + j] = qs1[i + j] + x * y
            s = [
                (s0[i] if i < len(s0) else zero) - (qs1[i] if i < len(qs1) else zero)
                for i in range(max(len(s0), len(qs1)))
            ]
            r0, r1 = r1, r
            s0, s1 = s1, s
        if len(r1) != 1:
            raise FieldError("modulus is not irreducible; cannot invert")
        c = r1[0]
        d = self.degree
        # Bezout bound: deg s1 <= phi(m) - deg(last nonconstant remainder)
        # < phi(m) = d, so s1 is already reduced modulo Phi_m.
        inv = [x / c for x in s1] + [zero] * (d - len(s1))
        return CycElem(self, tuple(inv))

    def scalar(self, x):
        d = self.degree
        if isinstance(x, CycElem):
            if x.field.conductor != self.conductor:
                raise FieldError(
                    f"conductor mismatch: {x.field.conductor} vs {self.conductor}"
                )
            return x
        if isinstance(x, (int, Fraction, Rat)):
            coeffs = [Rat(0)] * d
            coeffs[0] = QQ.scalar(x)
            return CycElem(self, tuple(coeffs))
        if isinstance(x, str):
            coeffs = [Rat(0)] * d
            coeffs[0] = _parse_rational_str(x)
            return CycElem(self, tuple(coeffs))
        if isinstance(x, (list, tuple)):
            if len(x) != d:
                raise FieldError(f"need {d} coefficients, got {len(x)}")
            return CycElem(self, tuple(QQ.scalar(c) for c in x))
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

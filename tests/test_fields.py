import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cendlab.fields import (
    CyclotomicField,
    FieldError,
    QQ,
    cyclotomic_polynomial,
    field_from_spec,
    format_rational,
    scalar_arithmetic,
    totient,
)


def test_rational_add():
    assert scalar_arithmetic(QQ.scalar("1/2"), QQ.scalar("1/3"), "add") == QQ.scalar("5/6")


def test_zeta4_square_is_minus_one():
    F = CyclotomicField(4)
    assert scalar_arithmetic(F.zeta(), F.zeta(), "mul") == F.scalar(-1)


def test_multiplicative_identity():
    a = QQ.scalar("7/3")
    assert scalar_arithmetic(a, QQ.one, "mul") == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        scalar_arithmetic(QQ.one, QQ.zero, "div")
    F = CyclotomicField(4)
    with pytest.raises(ZeroDivisionError):
        scalar_arithmetic(F.one, F.zero, "div")


def test_conductor_mismatch():
    with pytest.raises(FieldError):
        scalar_arithmetic(CyclotomicField(4).one, CyclotomicField(3).one, "add")
    with pytest.raises(FieldError):
        scalar_arithmetic(QQ.one, CyclotomicField(4).one, "add")


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_totient():
    assert [totient(m) for m in (1, 2, 3, 4, 8, 12)] == [1, 1, 2, 2, 4, 4]


def test_canonical_forms_decide_equality():
    F = CyclotomicField(4)
    assert F.scalar([1, 0]) == F.one
    assert F.zeta(2) == F.scalar(-1)
    assert F.zeta(5) == F.zeta(1)
    assert F.scalar("1/2") + F.scalar("1/2") == F.one


def test_string_forms():
    assert QQ.to_str(QQ.scalar("-3/6")) == "-1/2"
    assert QQ.to_str(QQ.scalar(5)) == "5"
    F = CyclotomicField(4)
    assert F.to_json(F.zeta()) == {"m": 4, "coeffs": ["0", "1"]}
    assert F.from_json({"m": 4, "coeffs": ["0", "1"]}) == F.zeta()
    with pytest.raises(FieldError):
        F.from_json({"m": 3, "coeffs": ["0", "1"]})


def test_field_from_spec():
    assert field_from_spec("rational") is QQ
    assert field_from_spec("cyclotomic:4") == CyclotomicField(4)
    assert field_from_spec({"kind": "cyclotomic", "conductor": 8}).degree == 4
    with pytest.raises(FieldError):
        field_from_spec("galois:9")


rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=12
).map(lambda f: QQ.scalar(f"{f.numerator}/{f.denominator}"))


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QQ.zero
    if a:
        assert a * (QQ.one / a) == QQ.one


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    st.lists(st.integers(-9, 9), min_size=2, max_size=2),
)
def test_cyclotomic_field_axioms(xa, xb, xc):
    F = CyclotomicField(4)
    a, b, c = F.scalar(xa), F.scalar(xb), F.scalar(xc)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (F.one / a) == F.one


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23))
def test_zeta_powers_multiply(p, q):
    F = CyclotomicField(24)
    assert F.zeta(p) * F.zeta(q) == F.zeta(p + q)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cyclotomic_field_axioms_across_conductors(data):
    # Q(zeta_m) for conductors with degree 2 and 4, prime and composite;
    # coefficients are small fractions in the power basis
    F = CyclotomicField(data.draw(st.sampled_from([3, 5, 8, 12])))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    elem = st.lists(coeff, min_size=F.degree, max_size=F.degree).map(F.scalar)
    a, b, c = data.draw(elem), data.draw(elem), data.draw(elem)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + F.zero == a and a * F.one == a
    assert a + (-a) == F.zero and a - b == a + (-b)
    if a:
        inv = F.one / a
        assert a * inv == F.one
        assert (b / a) * a == b
    else:
        with pytest.raises(ZeroDivisionError):
            F.one / a


# ---------------------------------------------------------------------------
# the Fraction-tuple oracle
#
# Before its elements became integer vectors over one denominator,
# CyclotomicField kept each element as a tuple of Fraction coefficients,
# multiplied by reducing with Fraction rows of x^k mod Phi_m, and inverted
# by the extended Euclid algorithm on (a, Phi_m) over Q.  That arithmetic is
# kept here as the oracle of the integer one.


def _oracle_divmod(a, b):
    # (quotient, remainder) of Fraction polynomials, b nonzero
    a = list(a)
    while a and not a[-1]:
        a.pop()
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = a[-1] / b[-1]
        q[k] = c
        for j in range(db + 1):
            a[k + j] -= c * b[j]
        while a and not a[-1]:
            a.pop()
    return q, a


class OracleCyclotomic:
    def __init__(self, m):
        self.m = m
        self.d = d = totient(m)
        self.modulus = [Fraction(c) for c in cyclotomic_polynomial(m)]
        self.red = {}
        prev = None
        for k in range(d, max(2 * d - 1, d + 1)):
            if prev is None:
                row = [-c for c in self.modulus[:d]]
            else:
                row = [Fraction(0)] + prev[: d - 1]
                if prev[d - 1]:
                    row = [a + prev[d - 1] * b for a, b in zip(row, self.red[d])]
            self.red[k] = prev = row

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.d
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        out = prod[:d]
        for k in range(2 * d - 2, d - 1, -1):
            out = [acc + prod[k] * r for acc, r in zip(out, self.red[k])]
        return tuple(out)

    def inverse(self, a):
        zero, one = Fraction(0), Fraction(1)
        r0 = list(self.modulus)
        r1 = list(a)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [zero], [one]
        while True:
            q, r = _oracle_divmod(r0, r1)
            if not r:
                break
            qs1 = [zero] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    qs1[i + j] += x * y
            s = [
                (s0[i] if i < len(s0) else zero) - (qs1[i] if i < len(qs1) else zero)
                for i in range(max(len(s0), len(qs1)))
            ]
            r0, r1 = r1, r
            s0, s1 = s1, s
        assert len(r1) == 1
        return tuple([x / r1[0] for x in s1] + [zero] * (self.d - len(s1)))

    def to_json(self, a):
        return {"m": self.m, "coeffs": [format_rational(c) for c in a]}


def as_fractions(x):
    # the value of a CycElem read from its integer form alone
    return tuple(Fraction(a, x.den) for a in x.num)


def assert_canonical(x, F):
    assert x.field.conductor == F.conductor
    assert len(x.num) == F.degree
    assert all(type(a) is int for a in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1


ORACLE_CONDUCTORS = [1, 2, 3, 4, 5, 8, 12]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_cyclotomics_match_the_fraction_oracle(data):
    m = data.draw(st.sampled_from(ORACLE_CONDUCTORS), label="m")
    F, O = CyclotomicField(m), OracleCyclotomic(m)
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    coeffs = st.lists(coeff, min_size=F.degree, max_size=F.degree)
    xa = data.draw(coeffs, label="a")
    xb = data.draw(st.one_of(coeffs, st.just(xa), st.just([-c for c in xa])), label="b")
    k = data.draw(st.integers(-6, 6), label="k")
    a, b = F.scalar(xa), F.scalar(xb)
    oa, ob = tuple(xa), tuple(xb)
    results = [
        (a, oa),
        (b, ob),
        (a + b, O.add(oa, ob)),
        (a - b, O.sub(oa, ob)),
        (-a, O.neg(oa)),
        (a * b, O.mul(oa, ob)),
        (a * k, O.mul(oa, (Fraction(k),) + (Fraction(0),) * (F.degree - 1))),
        (k - a, O.sub((Fraction(k),) + (Fraction(0),) * (F.degree - 1), oa)),
    ]
    if a:
        results.append((F.one / a, O.inverse(oa)))
        results.append((b / a, O.mul(ob, O.inverse(oa))))
    else:
        with pytest.raises(ZeroDivisionError):
            b / a
    for x, ox in results:
        assert_canonical(x, F)
        assert as_fractions(x) == ox
        assert x.coeffs == ox
        assert hash(x) == hash((m, ox))
        assert F.to_json(x) == O.to_json(ox)
        text = json.dumps(F.to_json(x))
        back = F.from_json(json.loads(text))
        assert back == x and hash(back) == hash(x)
        assert_canonical(back, F)
    assert (a == b) == (oa == ob)
    assert (a != b) == (oa != ob)
    assert bool(a) == any(oa)

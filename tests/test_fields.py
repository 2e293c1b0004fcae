import pytest
from hypothesis import given, settings, strategies as st

from cendlab.fields import (
    CyclotomicField,
    FieldError,
    QQ,
    cyclotomic_polynomial,
    field_from_spec,
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

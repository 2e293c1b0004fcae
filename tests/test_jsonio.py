import json

import pytest
from hypothesis import given, settings, strategies as st

from cendlab import jsonio
from cendlab.classify import ChiFunction, build_sigma
from cendlab.conformal import Ambient, DiffElem, SubSpan, cur
from cendlab.fields import CyclotomicField, QQ
from cendlab.groups import cyclic_group
from cendlab.hopf import basis_h
from cendlab.linalg import Mat
from cendlab.weyl import WeylElem


def q(x):
    return QQ.scalar(x)


def test_helem_roundtrip():
    g = cyclic_group(3)
    h = basis_h(g, 1, QQ).scale(q(3)) + basis_h(g, 2, QQ).scale(QQ.scalar("1/2"))
    obj = jsonio.helem_to_json(h, QQ)
    assert obj == {"coeffs": {"1": "3", "2": "1/2"}}
    assert jsonio.helem_from_json(g, obj, QQ) == h


def test_helem_range_check():
    g = cyclic_group(2)
    with pytest.raises(jsonio.JsonError):
        jsonio.helem_from_json(g, {"coeffs": {"5": "1"}}, QQ)


def test_diffelem_roundtrip():
    amb = Ambient(cyclic_group(2), 2)
    x = amb.basis_elem(1, 0, 0, 1).scale(q(-2)) + amb.basis_elem(0, 1, 1, 1)
    obj = jsonio.diffelem_to_json(x)
    assert jsonio.diffelem_from_json(amb, obj) == x
    text = json.dumps(obj, sort_keys=True)
    assert json.dumps(jsonio.diffelem_to_json(x), sort_keys=True) == text


def test_diffelem_terms_are_summed():
    amb = Ambient(cyclic_group(2), 1)
    obj = [
        {"g": 0, "w": 0, "matrix": [["2"]]},
        {"g": 0, "w": 0, "matrix": [["3"]]},
    ]
    assert jsonio.diffelem_from_json(amb, obj) == amb.basis_elem(0, 0, 0, 0).scale(q(5))


def test_subspan_roundtrip():
    span = cur(cyclic_group(2), 1)
    obj = jsonio.subspan_to_json(span)
    assert obj["closed"] is True
    back = jsonio.subspan_from_json(obj)
    assert back == span


def test_ambient_roundtrip():
    amb = Ambient(cyclic_group(4), 2, field=CyclotomicField(4))
    back = jsonio.ambient_from_json(jsonio.ambient_to_json(amb))
    assert back == amb


def test_chi_roundtrip():
    g = cyclic_group(2)
    chi = ChiFunction(g, [[q(1), q(1)], [q(1), q(-1)]])
    obj = jsonio.chi_to_json(chi, QQ)
    assert obj == {"values": [["1", "1"], ["1", "-1"]]}
    assert jsonio.chi_from_json(g, obj, QQ) == chi


def test_cyclotomic_scalars_in_json():
    F = CyclotomicField(4)
    g = cyclic_group(2)
    chi = ChiFunction(g, [[F.one, F.one], [F.one, F.zeta()]])
    obj = jsonio.chi_to_json(chi, F)
    assert obj["values"][1][1] == {"m": 4, "coeffs": ["0", "1"]}
    assert jsonio.chi_from_json(g, obj, F) == chi


def test_sigma_serialization():
    amb = Ambient(cyclic_group(2), 1)
    sigma = build_sigma([Mat([[q(1)]]), Mat([[q(2)]])], amb)
    obj = jsonio.sigma_to_json(sigma, QQ)
    assert obj == {"conjugators": [[["1"]], [["2"]]]}


def test_weylelem_roundtrip():
    x = WeylElem(QQ, {(0, 1): q(2), (3, 0): QQ.scalar("-1/3")})
    obj = jsonio.weylelem_to_json(x, QQ)
    assert jsonio.weylelem_from_json(obj, QQ) == x


def test_mat_roundtrip():
    m = Mat([[q(1), q(0)], [QQ.scalar("2/3"), q(-4)]])
    assert jsonio.mat_from_json(jsonio.mat_to_json(m, QQ), QQ) == m


# round trips through the JSON text, over QQ and Q(zeta_4)
JSON_FIELDS = [QQ, CyclotomicField(4)]
JSON_GROUPS = [cyclic_group(2), cyclic_group(3)]


def json_scalars(field):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    if field is QQ:
        return coeff.map(field.scalar)
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(field.scalar)


def through_text(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


@st.composite
def ambient_and_elems(draw, max_elems):
    field = draw(st.sampled_from(JSON_FIELDS))
    amb = Ambient(draw(st.sampled_from(JSON_GROUPS)), draw(st.integers(1, 2)), field=field)
    n = amb.n
    matrix = st.lists(json_scalars(field), min_size=n * n, max_size=n * n).map(
        lambda entries: Mat.from_flat(entries, n, n)
    )
    keys = st.tuples(st.sampled_from(list(amb.group.elements())), st.sampled_from(list(amb.gset.points())))
    elem = st.dictionaries(keys, matrix, max_size=3).map(lambda comps: DiffElem(amb, comps))
    return amb, draw(st.lists(elem, min_size=1, max_size=max_elems))


@settings(max_examples=100, deadline=None)
@given(ambient_and_elems(max_elems=1))
def test_diffelem_json_round_trip_property(drawn):
    amb, (x,) = drawn
    assert jsonio.diffelem_from_json(amb, through_text(jsonio.diffelem_to_json(x))) == x


@settings(max_examples=60, deadline=None)
@given(ambient_and_elems(max_elems=3))
def test_subspan_json_round_trip_property(drawn):
    amb, elems = drawn
    span = SubSpan.from_elems(amb, elems)
    back = jsonio.subspan_from_json(through_text(jsonio.subspan_to_json(span)))
    assert back.ambient == amb and back == span


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chi_json_round_trip_property(data):
    field = data.draw(st.sampled_from(JSON_FIELDS))
    group = data.draw(st.sampled_from(JSON_GROUPS))
    nonzero = json_scalars(field).filter(bool)
    row = st.lists(nonzero, min_size=group.order, max_size=group.order)
    chi = ChiFunction(group, data.draw(st.lists(row, min_size=group.order, max_size=group.order)))
    assert jsonio.chi_from_json(group, through_text(jsonio.chi_to_json(chi, field)), field) == chi


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mat_json_round_trip_property(data):
    field = data.draw(st.sampled_from(JSON_FIELDS))
    nrows, ncols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    row = st.lists(json_scalars(field), min_size=ncols, max_size=ncols)
    m = Mat(data.draw(st.lists(row, min_size=nrows, max_size=nrows)))
    assert jsonio.mat_from_json(through_text(jsonio.mat_to_json(m, field)), field) == m

"""Desk-scale model of the conformal algebra on the affine line.

Elements of the algebra are finitely supported tables over monomials
T^{(r)} v^s, with divided powers T^{(m)} = T^m / m! in the first variable
(and T^{(m)} = 0 for m < 0), so all structure constants are integers.  The
n-indexed products follow the binomial formula

    T^{(r)} f(v) o_n T^{(s)} h(v)
        = sum_t (-1)^r C(n,r) C(n-r,t) T^{(s-t)} f(v) (d/dv)^{n-r-t} h(v)

and the companion action on polynomials in T is

    T^{(r)} f(v) o_n T^{(s)} = (-1)^r C(n,r) T^{(s+r-n)} f(T).

Polynomials in T carry an explicit degree budget; an action result that
overflows it raises (never silently truncates).  Products inside the
algebra never need a budget since they are computed exactly on the sparse
tables.
"""

from __future__ import annotations

import math

from .fields import QQ


class WeylError(ValueError):
    pass


class BudgetError(WeylError):
    pass


class WeylElem:
    """Finitely supported table (r, s) -> coefficient of T^{(r)} v^s."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=None):
        self.field = field
        clean = {}
        for (r, s), c in (coeffs or {}).items():
            if r < 0 or s < 0:
                raise WeylError(f"negative exponent in monomial ({r},{s})")
            if c:
                clean[(r, s)] = c
        self.coeffs = clean

    @classmethod
    def monomial(cls, field, r, s, coeff=1):
        return cls(field, {(r, s): field.scalar(coeff)})

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    def __add__(self, other):
        self._same(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return WeylElem(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeylElem(self.field, {k: -c for k, c in self.coeffs.items()})

    def scale(self, c):
        if not c:
            return WeylElem(self.field, {})
        return WeylElem(self.field, {k: c * v for k, v in self.coeffs.items()})

    def _same(self, other):
        if not isinstance(other, WeylElem) or other.field != self.field:
            raise WeylError("field mismatch")

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElem)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    def t_mult(self) -> "WeylElem":
        """Multiplication by T: T . T^{(r)} v^s = (r+1) T^{(r+1)} v^s."""
        out = {}
        for (r, s), c in self.coeffs.items():
            out[(r + 1, s)] = c * self.field.scalar(r + 1)
        return WeylElem(self.field, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for (r, s) in sorted(self.coeffs):
            c = self.coeffs[(r, s)]
            mono = []
            if r:
                mono.append(f"T({r})")
            if s:
                mono.append(f"v^{s}" if s > 1 else "v")
            body = "*".join(mono) if mono else "1"
            terms.append(f"{c}*{body}")
        return " + ".join(terms)


class PolyT:
    """Polynomial in divided powers of T, with a hard degree budget."""

    __slots__ = ("field", "budget", "coeffs")

    def __init__(self, field, budget, coeffs=None):
        if budget < 0:
            raise WeylError("budget must be non-negative")
        self.field = field
        self.budget = budget
        vec = [field.zero] * (budget + 1)
        for s, c in (coeffs or {}).items():
            if s < 0:
                raise WeylError("negative degree")
            if c:
                if s > budget:
                    raise BudgetError(f"degree {s} exceeds the budget {budget}")
                vec[s] = c
        self.coeffs = tuple(vec)

    @classmethod
    def monomial(cls, field, budget, s, coeff=1):
        return cls(field, budget, {s: field.scalar(coeff)})

    def __add__(self, other):
        self._same(other)
        return PolyT(
            self.field,
            self.budget,
            {s: a + b for s, (a, b) in enumerate(zip(self.coeffs, other.coeffs))},
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyT(
            self.field, self.budget, {s: -c for s, c in enumerate(self.coeffs)}
        )

    def scale(self, c):
        return PolyT(
            self.field, self.budget, {s: c * v for s, v in enumerate(self.coeffs)}
        )

    def _same(self, other):
        if (
            not isinstance(other, PolyT)
            or other.field != self.field
            or other.budget != self.budget
        ):
            raise WeylError("mismatched polynomials")

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, PolyT)
            and other.field == self.field
            and other.budget == self.budget
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.budget, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*T({s})" for s, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def _falling(b: int, k: int) -> int:
    """b (b-1) ... (b-k+1); the coefficient of the k-th derivative of v^b."""
    out = 1
    for t in range(k):
        out *= b - t
    return out


def weyl_nprod(x: WeylElem, y: WeylElem, n: int) -> WeylElem:
    """The n-th product on the algebra; bilinear, computed exactly."""
    if n < 0:
        raise WeylError("product index must be non-negative")
    x._same(y)
    field = x.field
    out = {}
    for (r, a), cx in x.coeffs.items():
        binr = math.comb(n, r)
        if binr == 0:
            continue
        sign = -1 if r % 2 else 1
        for (s, b), cy in y.coeffs.items():
            for t in range(0, min(n - r, s) + 1):
                k = n - r - t
                if k > b:
                    continue
                coeff = sign * binr * math.comb(n - r, t) * _falling(b, k)
                if coeff == 0:
                    continue
                key = (s - t, a + b - k)
                term = cx * cy * field.scalar(coeff)
                acc = out.get(key)
                out[key] = term if acc is None else acc + term
    return WeylElem(field, out)


def locality_bound(x: WeylElem, y: WeylElem) -> int:
    """Smallest N with x o_n y = 0 for all n >= N, read off the supports:
    a monomial pair (r, a), (s, b) contributes up to n = r + s + b."""
    best = 0
    for (r, _a) in x.coeffs:
        for (s, b) in y.coeffs:
            best = max(best, r + s + b + 1)
    return best


def weyl_act(x: WeylElem, p: PolyT, n: int) -> PolyT:
    """Action of the algebra on polynomials in T; raises BudgetError when
    the exact result does not fit the budget of p."""
    if n < 0:
        raise WeylError("product index must be non-negative")
    if x.field != p.field:
        raise WeylError("field mismatch")
    field = p.field
    out = {}
    for (r, a), cx in x.coeffs.items():
        binr = math.comb(n, r)
        if binr == 0:
            continue
        sign = -1 if r % 2 else 1
        for s, cp in enumerate(p.coeffs):
            if not cp:
                continue
            base = s + r - n
            if base < 0:
                continue
            # T^{(base)} * T^a = a! C(base + a, a) T^{(base + a)}
            deg = base + a
            if deg > p.budget:
                raise BudgetError(
                    f"action result degree {deg} exceeds the budget {p.budget}"
                )
            coeff = sign * binr * math.factorial(a) * math.comb(deg, a)
            term = cx * cp * field.scalar(coeff)
            acc = out.get(deg)
            out[deg] = term if acc is None else acc + term
    return PolyT(field, p.budget, out)


def weyl_algebra_relation(budget: int, field=QQ) -> dict:
    """Verify that the coefficient operators X = (v o_0 .) and
    D = (1 o_1 .) on polynomials of bounded degree satisfy D X - X D = id.

    The top degree is excluded from the assertion window (X would overflow
    there) and reported; degrees 0..budget-1 are checked exactly.
    """
    if budget < 2:
        raise WeylError("need a budget of at least 2")
    v = WeylElem.monomial(field, 0, 1)
    one = WeylElem.monomial(field, 0, 0)
    checked = []
    passed = True
    for s in range(budget):
        p = PolyT.monomial(field, budget, s)
        lhs = weyl_act(one, weyl_act(v, p, 0), 1) - weyl_act(v, weyl_act(one, p, 1), 0)
        ok = lhs == p
        checked.append({"degree": s, "passed": ok})
        passed = passed and ok
    return {
        "passed": passed,
        "degrees": checked,
        "boundary_excluded": budget,
    }


def module_compat_witness(a: WeylElem, b: WeylElem, n: int, j: int, budget: int):
    """First degree where the action of a product disagrees with the
    binomial convolution of composed actions, or None.

    The identity checked is
        a o_n (b o_j u) = sum_i C(n,i) (a o_{n-i} b) o_{i+j} u
    for u ranging over the divided-power basis within the budget.
    """
    field = a.field
    for s in range(budget + 1):
        u = PolyT.monomial(field, budget, s)
        try:
            lhs = weyl_act(a, weyl_act(b, u, j), n)
            rhs = PolyT(field, budget)
            for i in range(n + 1):
                prod = weyl_nprod(a, b, n - i)
                rhs = rhs + weyl_act(prod, u, i + j).scale(
                    field.scalar(math.comb(n, i))
                )
        except BudgetError:
            continue
        if lhs != rhs:
            return {"degree": s, "n": n, "j": j}
    return None

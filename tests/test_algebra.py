"""Exact arithmetic kernel: canonical forms, field axioms on random inputs,
calculus rules, substitution, and serialization."""

import random
from fractions import Fraction

import pytest

from painleve4d.algebra import (
    _VAR_ORDER,
    AlgebraError,
    DenominatorVanishes,
    DenominatorZeroAtPoint,
    ExponentOverflow,
    Polynomial,
    RationalExpression,
    equals,
    exact_divide,
    rational,
    variable,
)
from painleve4d.systems import make_hamiltonian

try:
    from hypothesis import given, settings, strategies as st
except ImportError:     # the property test of the monomial layer is skipped
    st = None

x, y, z, w, t, eps = (variable(v) for v in ("x", "y", "z", "w", "t", "eps"))

N_PROPERTY_SAMPLES = 100


def random_polynomial(rng, names=("x", "y", "t"), max_terms=3, max_exp=2):
    p = Polynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = Polynomial.constant(Fraction(rng.choice([c for c in range(-5, 6) if c])))
        for v in names:
            mono = mono * Polynomial.variable(v) ** rng.randint(0, max_exp)
        p = p + mono
    return p


def random_expression(rng):
    num = random_polynomial(rng)
    den = random_polynomial(rng)
    while den.is_zero():
        den = random_polynomial(rng)
    return RationalExpression(num, den)


def is_polynomial(expr):
    return expr.den == Polynomial.constant(1)


def test_zero_and_constant_normal_forms():
    zero = rational(0)
    assert zero.is_zero()
    assert zero.num.is_zero() and zero.den == Polynomial.constant(1)
    assert rational(Fraction(3, 6)).equals(rational(Fraction(1, 2)))


def test_monomial_content_cancels_on_construction():
    expr = (eps * x + eps ** 2) / eps
    assert expr.equals(x + eps)
    assert is_polynomial(expr)


def test_noncatalog_factor_stays_but_equality_sees_through():
    # normalization cancels only monomial and integer content, so a shared
    # binomial such as x - 1 stays; cross-multiplication equality is unaffected.
    expr = (x * x - 1) / (x - 1)
    assert not is_polynomial(expr)
    assert expr.equals(x + 1)


def test_integer_content_and_sign_normalization():
    expr = (2 * x) / rational(4)
    assert expr.num == Polynomial.variable("x")
    assert expr.den == Polynomial.constant(2)
    expr = (-x) / (-y)
    assert expr.den.leading()[1] > 0
    assert expr.equals(x / y)


def test_power_laws_and_negative_powers():
    f = x / y
    assert (f ** -2).equals((y * y) / (x * x))
    assert (f ** 0).equals(rational(1))
    g = (x + y) / t
    assert (g ** 3).equals(g * g * g)


def test_hash_is_refused():
    with pytest.raises(TypeError):
        hash(x + y)


def test_field_axioms_on_random_inputs():
    rng = random.Random(20260814)
    for _ in range(N_PROPERTY_SAMPLES):
        a, b, c = (random_expression(rng) for _ in range(3))
        assert (a + b).equals(b + a)
        assert ((a + b) + c).equals(a + (b + c))
        assert (a * (b + c)).equals(a * b + a * c)
        assert (a - a).is_zero()
        assert ((a + b) - b).equals(a)
        if not a.is_zero():
            assert (a * (b / a)).equals(b)


def test_diff_product_and_quotient_rules_on_random_inputs():
    rng = random.Random(4912)
    for _ in range(N_PROPERTY_SAMPLES):
        f, g = random_expression(rng), random_expression(rng)
        lhs = (f * g).diff("x")
        rhs = f.diff("x") * g + f * g.diff("x")
        assert lhs.equals(rhs)
        if not g.is_zero():
            q = f / g
            assert (q * g).diff("y").equals(f.diff("y"))


def test_substitute_agrees_with_evaluation():
    rng = random.Random(7705)
    done = 0
    while done < N_PROPERTY_SAMPLES:
        f = random_expression(rng)
        image = random_expression(rng)
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for v in ("x", "y", "t")}
        try:
            composed = f.substitute({"x": image})
            direct = dict(point, x=image.eval_exact(point))
            assert composed.eval_exact(point) == f.eval_exact(direct)
        except (DenominatorVanishes, DenominatorZeroAtPoint):
            continue
        done += 1


def test_substitute_detects_identically_vanishing_denominator():
    expr = rational(1) / (x * y - 1)
    with pytest.raises(DenominatorVanishes):
        expr.substitute({"x": 1 / y})


def test_substitute_clears_with_shared_powers():
    # both num and den depend on x, so the (y+t)^2 clearing factor is shared
    # and divided back out; a naive num/den clearing would leave degree 4
    expr = (x * x + 1) / (x * x - 1)
    sq = (y + t) ** 2
    out = expr.substitute({"x": rational(1) / (y + t)})
    assert out.equals((1 + sq) / (1 - sq))
    assert out.den.total_degree() <= 2


def _count_products(monkeypatch):
    calls = []
    mul = Polynomial.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    return calls


def test_identity_images_and_bare_variables_make_no_products(monkeypatch):
    field = make_hamiltonian("d4").vector_field()
    identities = {v: variable(v) for expr in field.values()
                  for v in expr.variables()}
    image = (y * y + t) / (x - 1)
    calls = _count_products(monkeypatch)
    results = [expr.substitute(identities) for expr in field.values()]
    assert calls == []
    assert all(r.equals(e) for r, e in zip(results, field.values()))
    calls.clear()
    assert x.substitute({"x": image, "y": x}) is image
    assert x.num.substitute({"x": image}) is image
    assert calls == []


def test_substitute_overflow_raises_instead_of_carrying():
    # y^130 and (y^2)^64 would carry out of y's field into x's
    with pytest.raises(ExponentOverflow):
        (x * y ** 100).substitute({"x": y ** 30})
    with pytest.raises(ExponentOverflow):
        (x ** 64 / y).substitute({"x": y ** 2})


def test_eval_exact_raises_on_pole():
    expr = x / (y - 1)
    with pytest.raises(DenominatorZeroAtPoint):
        expr.eval_exact({"x": Fraction(1), "y": Fraction(1)})
    assert expr.eval_exact({"x": Fraction(3), "y": Fraction(3)}) == Fraction(3, 2)


def test_exact_divide():
    product = (x * y + x) * (y + t)
    quotient = exact_divide(product, y + t)
    assert quotient is not None and quotient.terms == (x * y + x).num.terms
    assert exact_divide(x * x + 1, x + 1) is None


def test_leading_monomial_is_graded():
    p = (x * x + x * y + y).num
    mono, coeff = p.leading()
    assert dict(mono) == {"x": 2} and coeff == 1


def test_graded_lex_order_over_the_table():
    # hand-written order: degree first, then variable by variable in table
    # order (x < y < t < eps < a0 < g2 < g3), and a higher exponent first on
    # the same variable
    expected = [
        {"x": 1, "y": 1, "g3": 1},
        {"eps": 3},
        {"g2": 2, "g3": 1},
        {"g2": 1, "g3": 2},
        {"x": 2},
        {"x": 1, "a0": 1},
        {"x": 1, "g3": 1},
        {"y": 1, "a0": 1},
        {"a0": 1, "g2": 1},
        {"g2": 1, "g3": 1},
        {"g3": 2},
        {"t": 1},
        {"g3": 1},
        {},
    ]
    shuffled = expected[:]
    random.Random(3).shuffle(shuffled)
    p = Polynomial.from_obj([{"coeff": str(i + 1), "exps": exps}
                             for i, exps in enumerate(shuffled)])
    assert [dict(mono) for mono, _ in p.sorted_terms()] == expected
    mono, coeff = p.leading()
    assert dict(mono) == expected[0]
    assert coeff == shuffled.index(expected[0]) + 1


def test_names_outside_the_table_raise():
    for make in (lambda: variable("foo"),
                 lambda: Polynomial({(("foo", 1),): 1}),
                 lambda: (x * y).num.strip_monomial({"foo": 1})):
        with pytest.raises(AlgebraError,
                           match="variable 'foo' is not in the kernel's variable table"):
            make()


def test_polynomial_operators_defer_to_other_types():
    px = Polynomial.variable("x")
    total = px + y / x
    assert isinstance(total, RationalExpression)
    assert equals(total, x + y / x)
    assert equals(px * (y / x), y)
    with pytest.raises(TypeError):
        px + "a"
    with pytest.raises(TypeError, match="'str' and 'Polynomial'"):
        "a" - px
    with pytest.raises(TypeError, match="'str' and 'RationalExpression'"):
        "a" - x
    with pytest.raises(TypeError, match="'str' and 'RationalExpression'"):
        "a" / x


def assert_canonical(poly):
    """Every coefficient is an int when integral, else a Fraction."""
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_integral_coefficients_are_ints():
    half = Polynomial.constant(Fraction(1, 2))
    px, py = Polynomial.variable("x"), Polynomial.variable("y")
    cases = [
        Polynomial.constant(Fraction(6, 3)),
        Polynomial({(("x", 1),): Fraction(4, 2), (): Fraction(5, 2)}),
        half * px + half * px,
        (half * px) * (2 * py),
        (half * px ** 2).diff("x"),
        (3 * px).scale(Fraction(1, 3)),
        (x / 2 + y / 3).num,
    ]
    for poly in cases:
        assert_canonical(poly)
    assert dict(cases[0].items()) == {(): 2}
    assert dict(cases[1].items())[()] == Fraction(5, 2)
    assert dict(cases[2].items()) == {(("x", 1),): 1}
    assert px.scale(1) is px
    # a float is refused rather than converted to its exact binary value
    with pytest.raises(TypeError, match="float"):
        Polynomial({(("x", 1),): Fraction(4, 2), (): 2.5})
    with pytest.raises(TypeError, match="float"):
        Polynomial.constant(1 / 3)
    with pytest.raises(TypeError, match="float"):
        Polynomial.variable("x").scale(0.5)


def test_exact_division_of_integral_inputs_stays_exact():
    quotient = exact_divide(2 * x, 2)
    assert_canonical(quotient)
    assert dict(quotient.items()) == {(("x", 1),): 1}
    quotient = exact_divide(x / 3, 1)
    assert_canonical(quotient)
    assert dict(quotient.items()) == {(("x", 1),): Fraction(1, 3)}
    px, py = Polynomial.variable("x"), Polynomial.variable("y")
    divisor = 3 * px + 2 * py  # leading coefficient 3
    quotient = (divisor * (px - py)).exact_div(divisor)
    assert_canonical(quotient)
    assert quotient == px - py
    quotient = (2 * px + 2).exact_div(3 * px + 3)
    assert_canonical(quotient)
    assert dict(quotient.items()) == {(): Fraction(2, 3)}


def test_serialization_roundtrip_bit_exact():
    rng = random.Random(11)
    for _ in range(20):
        f = random_expression(rng)
        g = RationalExpression.from_obj(f.to_obj())
        assert g.num.terms == f.num.terms
        assert g.den.terms == f.den.terms


def test_equals_is_cross_multiplication():
    assert equals((x * x - 1) / (x + 1), x - 1)
    assert not equals(x / y, y / x)


# Reference monomial layer: monomials as ((name, exponent), ...) tuples in
# variable order, merged on ranks, ordered by one flat key per monomial.
# The packed-int kernel must agree with it.

def _rank(name):
    return _VAR_ORDER.index(name)


def _mono_key(mono):
    # the leading monomial is the minimum under this key
    key = [0]
    deg = 0
    for v, e in mono:
        key.append(_rank(v))
        key.append(-e)
        deg += e
    key[0] = -deg
    return tuple(key)


def _mono_mul(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        ra, rb = _rank(va), _rank(vb)
        if ra == rb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif ra < rb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_div(a, b):
    da = dict(a)
    for v, e in b:
        ne = da.get(v, 0) - e
        if ne < 0:
            return None
        if ne == 0:
            da.pop(v, None)
        else:
            da[v] = ne
    return tuple(sorted(da.items(), key=lambda it: _rank(it[0])))


if st is not None:
    # table names from both ends of the table and its middle
    NAMES = ("x", "y", "t", "a0", "g2", "g3")

    monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 3),
                                max_size=3).map(
        lambda exps: tuple(sorted(exps.items(), key=lambda it: _rank(it[0]))))
    term_lists = st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=5)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(term_lists, term_lists)
    def test_packed_monomials_agree_with_the_pair_reference(a, b):
        p, q = Polynomial(a), Polynomial(b)
        # accessor
        assert dict(p.items()) == a
        # order: sorted terms and leading term
        both = {**a, **b}
        assert ([m for m, _ in Polynomial(both).sorted_terms()]
                == sorted(both, key=_mono_key))
        assert p.leading()[0] == min(a, key=_mono_key)
        # product
        expected: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _mono_mul(ma, mb)
                expected[m] = expected.get(m, 0) + ca * cb
        assert dict((p * q).items()) == {m: c for m, c in expected.items() if c}
        # monomial quotient
        for ma in a:
            for mb in b:
                quotient = Polynomial({ma: 1}).exact_div(Polynomial({mb: 1}))
                reference = _mono_div(ma, mb)
                if reference is None:
                    assert quotient is None
                else:
                    assert dict(quotient.items()) == {reference: 1}


def test_exponent_overflow_raises_instead_of_carrying():
    px, py = Polynomial.variable("x"), Polynomial.variable("y")
    assert dict((px ** 127).items()) == {(("x", 127),): 1}
    for make in (lambda: px ** 128,
                 lambda: py ** 127 * py,          # would carry into x's field
                 lambda: px ** 64 * py ** 64,     # total degree 128
                 lambda: (py ** 127 + 1) * (py + px),
                 lambda: Polynomial.variable("g3") ** 127 * Polynomial.variable("g3"),
                 lambda: Polynomial({(("y", 128),): 1}),
                 lambda: Polynomial({(("x", 100), ("y", 28)): 1})):
        with pytest.raises(AlgebraError, match="overflow"):
            make()

"""The algebra kernel checked against sympy as an outside oracle, on inputs
drawn by hypothesis over variables from both ends of the fixed order table:
polynomial +, -, *, diff and exact_div, and rational substitution and
equality.  Every result must also keep the coefficient invariant: an int
when integral, a Fraction only when not.  The sparse elimination behind the
first-integral search is checked against sympy's rref and nullspace on
random sparse rational matrices.  Evaluation modulo the prime 2^61 - 1 is
checked against exact evaluation reduced mod p."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from painleve4d.algebra import (  # noqa: E402
    DenominatorVanishes,
    DenominatorZeroAtPoint,
    Polynomial,
    RationalExpression,
    residue,
)
from painleve4d.systems import _kernel_basis, _rref  # noqa: E402

# listed in the kernel's variable order, from both ends of the table
VARS = ("x", "y", "a0", "g3")
SYMBOLS = sympy.symbols(VARS)

ORACLE = settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)

exponents = st.tuples(*[st.integers(0, 2)] * len(VARS))
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polynomials(min_size=0, max_size=5):
    return st.dictionaries(exponents, coefficients, min_size=min_size,
                           max_size=max_size).map(_poly)


def _poly(spec):
    return Polynomial({tuple((v, e) for v, e in zip(VARS, exps) if e):
                       Fraction(c) for exps, c in spec.items()})


nonzero_polynomials = polynomials(min_size=1).filter(lambda p: not p.is_zero())


def rational_expressions(max_size=3):
    return st.builds(RationalExpression, polynomials(max_size=max_size),
                     polynomials(min_size=1, max_size=max_size)
                     .filter(lambda p: not p.is_zero()))


def _to_sympy(p):
    expr = sympy.Integer(0)
    for mono, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= SYMBOLS[VARS.index(v)] ** e
        expr += term
    return expr


def _re_to_sympy(f):
    return _to_sympy(f.num) / _to_sympy(f.den)


def _assert_canonical(*results):
    for r in results:
        polys = (r.num, r.den) if isinstance(r, RationalExpression) else (r,)
        for p in polys:
            for c in p.terms.values():
                assert type(c) is int or (type(c) is Fraction
                                          and c.denominator != 1), repr(c)


def _same(p, expr):
    return sympy.expand(_to_sympy(p) - expr) == 0


@ORACLE
@given(polynomials(), polynomials())
def test_sum_and_difference_match_sympy(f, g):
    total, diff = f + g, f - g
    _assert_canonical(total, diff)
    assert _same(total, _to_sympy(f) + _to_sympy(g))
    assert _same(diff, _to_sympy(f) - _to_sympy(g))


@ORACLE
@given(polynomials(), polynomials())
def test_product_matches_sympy(f, g):
    product = f * g
    _assert_canonical(product)
    assert _same(product, _to_sympy(f) * _to_sympy(g))


@ORACLE
@given(polynomials(), st.sampled_from(VARS))
def test_diff_matches_sympy(f, var):
    derivative = f.diff(var)
    _assert_canonical(derivative)
    assert _same(derivative, sympy.diff(_to_sympy(f), SYMBOLS[VARS.index(var)]))


@ORACLE
@given(polynomials(), nonzero_polynomials)
def test_exact_div_recovers_the_cofactor(q, g):
    quotient = (q * g).exact_div(g)
    _assert_canonical(quotient)
    assert quotient == q


@ORACLE
@given(polynomials(), nonzero_polynomials, polynomials())
def test_exact_div_fails_exactly_when_sympy_leaves_a_remainder(q, g, r):
    f = q * g + r
    quotient = f.exact_div(g)
    sq, sr = sympy.div(_to_sympy(f), _to_sympy(g), *SYMBOLS, domain=sympy.QQ)
    assert (quotient is None) == (sympy.expand(sr) != 0)
    if quotient is not None:
        _assert_canonical(quotient)
        assert sympy.expand(_to_sympy(quotient) - sq) == 0


@ORACLE
@given(rational_expressions(),
       st.dictionaries(st.sampled_from(VARS), rational_expressions(max_size=2),
                       max_size=2))
def test_substitute_matches_sympy(f, assignment):
    expected_den = _to_sympy(f.den).subs(
        {SYMBOLS[VARS.index(v)]: _re_to_sympy(img) for v, img in assignment.items()},
        simultaneous=True)
    try:
        result = f.substitute(assignment)
    except DenominatorVanishes:
        assert sympy.cancel(expected_den) == 0
        return
    _assert_canonical(result)
    expected = _re_to_sympy(f).subs(
        {SYMBOLS[VARS.index(v)]: _re_to_sympy(img) for v, img in assignment.items()},
        simultaneous=True)
    assert sympy.cancel(_re_to_sympy(result) - expected) == 0


def _bare(v):
    return RationalExpression(Polynomial.variable(v), Polynomial.constant(1))


polynomial_images = polynomials(max_size=2).map(
    lambda p: RationalExpression(p, Polynomial.constant(1)))


@st.composite
def mixed_assignments(draw):
    """Each image is the variable itself, a polynomial or a quotient."""
    names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=2))
    return {v: draw(st.one_of(st.just(_bare(v)), polynomial_images,
                              rational_expressions(max_size=2)))
            for v in names}


@ORACLE
@given(st.one_of(st.sampled_from(VARS).map(_bare), rational_expressions()),
       mixed_assignments())
@example(_bare("x") - _bare("y"), {"x": _bare("y"), "y": _bare("y")})
def test_substitute_with_unmoved_and_polynomial_images_matches_sympy(f, assignment):
    images = {SYMBOLS[VARS.index(v)]: _re_to_sympy(img)
              for v, img in assignment.items()}
    expected_num = _to_sympy(f.num).subs(images, simultaneous=True)
    expected_den = _to_sympy(f.den).subs(images, simultaneous=True)
    from_num = f.num.substitute(assignment)
    _assert_canonical(from_num)
    assert sympy.cancel(_re_to_sympy(from_num) - expected_num) == 0
    try:
        result = f.substitute(assignment)
    except DenominatorVanishes:
        assert sympy.cancel(expected_den) == 0
        return
    _assert_canonical(result)
    assert sympy.cancel(_re_to_sympy(result) - expected_num / expected_den) == 0


@ORACLE
@given(rational_expressions(), rational_expressions(), nonzero_polynomials)
def test_equals_matches_sympy(f, g, h):
    _assert_canonical(f, g)
    assert f.equals(g) == (sympy.cancel(_re_to_sympy(f) - _re_to_sympy(g)) == 0)
    widened = RationalExpression(f.num * h, f.den * h)
    _assert_canonical(widened)
    assert widened.equals(f)


P = (1 << 61) - 1
# rational points, some of whose numerators and denominators exceed p
values = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=7),
    st.fractions(min_value=-2 ** 70, max_value=2 ** 70, max_denominator=2 ** 64)
    .filter(lambda c: c.denominator % P))
points = st.fixed_dictionaries({v: values for v in VARS})


def _residues(point):
    return {v: residue(c, P) for v, c in point.items()}


@ORACLE
@given(rational_expressions(), points)
@example(RationalExpression(Polynomial.variable("x"), Polynomial.constant(1)),
         {"x": Fraction(P + 2, P - 1), "y": 0, "a0": 0, "g3": 0})
def test_eval_mod_is_exact_evaluation_reduced_mod_p(f, point):
    residues = _residues(point)
    for poly in (f.num, f.den):
        assert poly.eval_mod(residues, P) == residue(poly.eval_exact(point), P)
    try:
        exact = f.eval_exact(point)
    except DenominatorZeroAtPoint:
        with pytest.raises(DenominatorZeroAtPoint):
            f.eval_mod(residues, P)
        return
    value = f.eval_mod(residues, P)
    assert type(value) is int and 0 <= value < P
    assert value == residue(exact, P)


@ORACLE
@given(rational_expressions(), points)
def test_eval_mod_raises_where_a_denominator_is_zero_mod_p(f, point):
    # shift the denominator to take the value p at the point: nonzero over
    # Q, zero mod p (a zero numerator would make the expression 0/1)
    assume(not f.num.is_zero())
    den = f.den - Polynomial.constant(f.den.eval_exact(point) - P)
    shifted = RationalExpression(f.num, den)
    assert shifted.eval_exact(point) == f.num.eval_exact(point) / P
    with pytest.raises(DenominatorZeroAtPoint):
        shifted.eval_mod(_residues(point), P)
    # a coefficient whose denominator is a multiple of p
    with pytest.raises(DenominatorZeroAtPoint):
        (f.num + Polynomial.constant(Fraction(1, P))).eval_mod(_residues(point), P)


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), coefficients)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=5))
    # combinations of earlier rows make the matrix rank-deficient
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        a, b = draw(coefficients), draw(coefficients)
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    return ncols, [[c.numerator if c.denominator == 1 else c for c in row]
                   for row in rows]


@ORACLE
@given(sparse_matrices())
@example((3, []))
@example((3, [[0, 0, 0], [0, 0, 0]]))
@example((3, [[2, 4, 6], [1, 2, 3]]))
def test_elimination_matches_sympy_rref_and_nullspace(matrix):
    ncols, rows = matrix
    reduced = _rref({c: v for c, v in enumerate(row)} for row in rows)
    # exact values only, and no stored zeros
    assert all(isinstance(v, (int, Fraction)) and v
               for row in reduced.values() for v in row.values())
    matrix = sympy.Matrix(len(rows), ncols, sum(rows, []))
    expected, pivots = matrix.rref()
    assert tuple(sorted(reduced)) == pivots
    assert [[reduced[pc].get(c, 0) for c in range(ncols)] for pc in pivots] \
        == expected.tolist()[:len(pivots)]
    basis = _kernel_basis(reduced, ncols)
    assert [[vec.get(c, 0) for c in range(ncols)] for vec in basis] \
        == [list(v) for v in matrix.nullspace()]

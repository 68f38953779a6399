"""Polynomial division checked against sympy as an outside oracle, on
inputs drawn by hypothesis over variables from the fixed order table and
one name outside it."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from painleve4d.algebra import Polynomial  # noqa: E402

# listed in the kernel's variable order: three table names, then "foo"
VARS = ("x", "y", "a0", "foo")
SYMBOLS = sympy.symbols(VARS)

ORACLE = settings(max_examples=100, deadline=None, derandomize=True,
                  database=None)

exponents = st.tuples(*[st.integers(0, 2)] * len(VARS))
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polynomials(min_size=0):
    return st.dictionaries(exponents, coefficients, min_size=min_size,
                           max_size=5).map(_poly)


def _poly(spec):
    return Polynomial({tuple((v, e) for v, e in zip(VARS, exps) if e):
                       Fraction(c) for exps, c in spec.items()})


nonzero_polynomials = polynomials(min_size=1).filter(lambda p: not p.is_zero())


def _to_sympy(p):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= SYMBOLS[VARS.index(v)] ** e
        expr += term
    return expr


@ORACLE
@given(polynomials(), nonzero_polynomials)
def test_exact_div_recovers_the_cofactor(q, g):
    assert (q * g).exact_div(g) == q


@ORACLE
@given(polynomials(), nonzero_polynomials, polynomials())
def test_exact_div_fails_exactly_when_sympy_leaves_a_remainder(q, g, r):
    f = q * g + r
    quotient = f.exact_div(g)
    sq, sr = sympy.div(_to_sympy(f), _to_sympy(g), *SYMBOLS, domain=sympy.QQ)
    assert (quotient is None) == (sympy.expand(sr) != 0)
    if quotient is not None:
        assert sympy.expand(_to_sympy(quotient) - sq) == 0

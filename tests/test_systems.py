"""System catalog: Hamiltonians against their displayed right-hand sides,
kernel values, normalization handling, and the first-integral search."""

from dataclasses import replace
from fractions import Fraction

import pytest

from painleve4d import systems
from painleve4d.algebra import Polynomial, rational, variable
from painleve4d.reports import PASS
from painleve4d.systems import (
    UnknownFamily,
    WindowEmpty,
    check_field_matches_display,
    first_integral_search,
    kernel_iii,
    kernel_iii_shifted,
    kernel_v,
    make_hamiltonian,
    span_equal,
    toy_system,
)

q, p, t = variable("q"), variable("p"), variable("t")
g0, g2 = variable("g0"), variable("g2")


@pytest.mark.parametrize("family", ["d4", "b4f", "b4s", "d52"])
def test_derived_field_equals_display(family):
    rep = check_field_matches_display(family)
    assert rep.status == PASS, rep.witness
    assert rep.mode == "exact"


def test_all_sixteen_components_checked():
    for family in ("d4", "b4f", "b4s", "d52"):
        field = make_hamiltonian(family).vector_field()
        assert list(field) == ["x", "y", "z", "w"]


def test_vector_field_is_keyed_in_phase_order():
    for family in systems.FAMILIES:
        system = make_hamiltonian(family)
        assert list(system.vector_field()) == list(system.phase_vars())


def test_vector_field_is_built_once_per_system():
    d4 = make_hamiltonian("d4")
    assert d4.vector_field() is make_hamiltonian("d4").vector_field()
    # systems hash by identity, so one built beside the catalog, here d4
    # without its coupling, gets a field of its own
    y, w, t = variable("y"), variable("w"), variable("t")
    uncoupled = replace(d4, hamiltonian=d4.hamiltonian + 2 * y * w / t)
    assert uncoupled.vector_field() is uncoupled.vector_field()
    assert not uncoupled.vector_field()["x"].equals(d4.vector_field()["x"])
    assert uncoupled.vector_field()["z"].equals(d4.vector_field()["z"] + 2 * y / t)


def test_kernel_values_at_unit_point():
    unit = {"q": Fraction(1), "p": Fraction(1), "t": Fraction(1),
            "g0": Fraction(0), "g2": Fraction(0)}
    assert kernel_iii(q, p, t, g0, g2).eval_exact(unit) == 1
    assert kernel_iii_shifted(q, p, t, g0, g2).eval_exact(unit) == 1
    # symbolic values at (q,p,t)=(1,1,1)
    assert kernel_iii(q, p, t, g0, g2).substitute(
        {"q": rational(1), "p": rational(1), "t": rational(1)}).equals(g2 + 1)
    assert kernel_iii_shifted(q, p, t, g0, g2).substitute(
        {"q": rational(1), "p": rational(1), "t": rational(1)}).equals(1 - g2)


def test_kernel_iii_momentum_gradient():
    h = kernel_iii(q, p, t, g0, g2)
    expected = (q ** 2 * (2 * p - 1) + q * (g0 + g2) + t) / t
    assert h.diff("p").equals(expected)


def test_kernel_v_momentum_gradient():
    g1, g3 = variable("g1"), variable("g3")
    h = kernel_v(q, p, t, g1, g2, g3)
    expected = (q * (q - 1) * (2 * p + t) - (g1 + g3) * q + g1) / t
    assert h.diff("p").equals(expected)


def test_hamiltonian_denominators_are_time_powers():
    for family in systems.FAMILIES:
        den = make_hamiltonian(family).hamiltonian.den
        assert den.variables() <= {"t"}


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        make_hamiltonian("e8")


def test_constraints():
    d4 = make_hamiltonian("d4")
    assert d4.params.constraint_coeffs == (1, 1, 2, 1, 1)
    assert d4.params.constraint_value == 1
    elim = d4.params.eliminate_first()
    assert elim["a0"].equals(
        1 - variable("a1") - 2 * variable("a2") - variable("a3") - variable("a4"))
    d52 = make_hamiltonian("d52")
    assert d52.params.constraint_coeffs == (1, 1, 1, 1, 1)
    assert d52.params.constraint_value == Fraction(1, 2)
    assert make_hamiltonian("b4f").params.constraint_coeffs == (2, 2, 2, 1, 1)
    assert make_hamiltonian("b4s").params.constraint_coeffs == (1, 1, 2, 2, 2)
    assert make_hamiltonian("d51").params.constraint_coeffs == (1, 1, 2, 2, 1, 1)
    assert toy_system().params.constraint_coeffs is None
    # the kernel's coefficients: ints, and a Fraction only where not integral
    for family in systems.FAMILIES:
        params = make_hamiltonian(family).params
        assert all(type(c) is int for c in params.constraint_coeffs), family
        assert type(params.constraint_value) is (Fraction if family == "d52" else int)


def test_constraint_residual():
    params = make_hamiltonian("d4").params
    on = {"a0": Fraction(1), "a1": Fraction(0), "a2": Fraction(0),
          "a3": Fraction(0), "a4": Fraction(0)}
    assert params.constraint_residual(on) == 0
    off = dict(on, a4=Fraction(1))
    assert params.constraint_residual(off) == 1


def degree_in(poly, names):
    """Total degree of a polynomial in the named variables alone."""
    return max((sum(e for v, e in mono if v in names) for mono, _ in poly.items()),
               default=0)


def degree_report(family):
    """Observed total degree of the Hamiltonian in the phase variables."""
    system = make_hamiltonian(family)
    return {
        "phase_degree": degree_in(system.hamiltonian.num, set(system.phase_vars())),
        "time_denominator_degree": degree_in(system.hamiltonian.den, {"t"}),
    }


def test_degree_report_regression():
    # observed degrees of the assembled Hamiltonians; the d52 coupling is
    # the only sextic one
    degrees = {fam: degree_report(fam)["phase_degree"]
               for fam in ("d4", "b4f", "b4s", "d52", "d51")}
    assert degrees == {"d4": 4, "b4f": 4, "b4s": 4, "d52": 6, "d51": 4}
    assert all(degree_report(f)["time_denominator_degree"] == 1
               for f in ("d4", "b4f", "b4s", "d52", "d51"))
    # every Hamiltonian is over a power of t, the integral search's ansatz
    assert all(make_hamiltonian(f).hamiltonian.den.variables() == {"t"}
               for f in systems.FAMILIES)


def test_toy_integral_basis():
    basis = first_integral_search(toy_system(), degree_bound=1, window=(-1, 1))
    assert span_equal(basis, [rational(1), p, q - t])


def test_d4_has_no_low_degree_integrals():
    basis = first_integral_search(make_hamiltonian("d4"),
                                  degree_bound=2, window=(-2, 2))
    assert span_equal(basis, [rational(1)])


def test_window_validation():
    with pytest.raises(WindowEmpty):
        first_integral_search(toy_system(), degree_bound=1, window=(1, -1))


def test_span_equal_distinguishes():
    assert span_equal([p + q, p - q], [p, q])
    assert not span_equal([p], [p, q])
    assert span_equal([], [])


def test_span_equal_refuses_a_denominator_that_is_not_a_power_of_t():
    x = variable("x")
    with pytest.raises(ValueError, match="not a power of t"):
        span_equal([1 / x], [rational(1)])
    with pytest.raises(ValueError, match="not a power of t"):
        span_equal([rational(1)], [1 / (t + 1)])


def test_clearing_moves_each_numerator_onto_the_largest_t_power():
    # over t^2; the constant of the denominator 2t moves into its numerator
    Q, P, T = (Polynomial.variable(v) for v in "qpt")
    cleared = systems._over_common_t_power([q / (2 * t), p / t ** 2, rational(1)])
    assert cleared == [Q * T * Fraction(1, 2), P, T * T]


def test_elimination_with_integer_pivots_stays_exact():
    basis = systems._kernel_basis(systems._rref([{0: 2, 1: 4, 2: 6}]), 3)
    assert basis == [{0: -2, 1: 1}, {0: -3, 2: 1}]
    assert all(isinstance(c, (int, Fraction)) for vec in basis for c in vec.values())
    reduced = systems._rref([{0: 2, 1: 4}, {0: 3, 1: 6}])
    assert reduced == {0: {0: 1, 1: 2}}
    assert all(isinstance(c, (int, Fraction))
               for row in reduced.values() for c in row.values())

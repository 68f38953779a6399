"""Catalog of the coupled Hamiltonian systems and their phase-space data.

Five four-dimensional families are cataloged, keyed d4, b4f, b4s, d52 and
d51, together with the two-dimensional building blocks p3 and p3t.
Each four-dimensional Hamiltonian is assembled from the two-dimensional
kernels with shifted parameter slots plus a coupling term, and the four
families with published right-hand sides (DISPLAYED_FAMILIES) carry an
independently typed transcription of those right-hand sides
(reference_field) so the partial derivatives and the transcription check
each other.

A vector field is a plain dict, keyed by phase variable in phase order,
of the right-hand sides as rational expressions: the shape of a map's
images (transforms.BirationalMap.images).  Time is always the variable t.
A returned field may be shared through a cache; callers do not modify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .algebra import (Polynomial, RationalExpression, rational, variable)
from .reports import VerificationReport, verdict

X, Y, Z, W, T = (variable(v) for v in "xyzwt")
Q, P = variable("q"), variable("p")
A = [variable(f"a{i}") for i in range(5)]
B = [variable(f"b{i}") for i in range(6)]
G = [variable(f"g{i}") for i in range(3)]


class UnknownFamily(KeyError):
    pass


class WindowEmpty(ValueError):
    pass


@dataclass(frozen=True)
class ParameterVector:
    """Parameter symbols with an optional affine normalization."""

    symbols: tuple[str, ...]
    constraint_coeffs: Optional[tuple[Fraction, ...]] = None
    constraint_value: Fraction = Fraction(1)

    def constraint_residual(self, values: Mapping[str, Union[Fraction, complex,
                                                             RationalExpression]]
                            ) -> Union[Fraction, complex, RationalExpression]:
        """sum(c * value) - constraint value: exact at rational values,
        complex at complex ones, an expression at expressions."""
        if self.constraint_coeffs is None:
            return Fraction(0)
        total = -self.constraint_value
        for c, s in zip(self.constraint_coeffs, self.symbols):
            total += c * values[s]
        return total

    @cache
    def eliminate_first(self) -> dict[str, RationalExpression]:
        """Expression for the first symbol forced by the normalization,
        built once per parameter vector: callers share the mapping and do
        not modify it."""
        if self.constraint_coeffs is None:
            return {}
        expr = rational(self.constraint_value)
        for c, s in zip(self.constraint_coeffs[1:], self.symbols[1:]):
            expr = expr - rational(c) * variable(s)
        return {self.symbols[0]: expr / rational(self.constraint_coeffs[0])}

    def normalize(self, expr: RationalExpression) -> RationalExpression:
        """expr with the first symbol eliminated by the normalization;
        expr itself when there is none."""
        elim = self.eliminate_first()
        return expr.substitute(elim) if elim else expr


def total_derivative(f: RationalExpression,
                     field: Mapping[str, RationalExpression]) -> RationalExpression:
    """df/dt along the field: the explicit time derivative plus df/du * u'
    for every phase variable u."""
    total = f.diff("t")
    for u, rhs in field.items():
        d = f.diff(u)
        if not d.is_zero():
            total = total + d * rhs
    return total


def phase_vars(pairs: Iterable[tuple[str, str]]) -> tuple[str, ...]:
    """The phase variables of canonical pairs (U, V), in pair order."""
    # from a list: a generator's tuple is resized past the tuple free list,
    # which raised the non-numeric verify suites' tracemalloc peak 20 KiB
    return tuple([v for pair in pairs for v in pair])


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """A system compares and hashes by identity: two systems of one family
    with different Hamiltonians are different keys."""

    family: str
    hamiltonian: RationalExpression
    pairs: tuple[tuple[str, str], ...]
    params: ParameterVector

    def phase_vars(self) -> tuple[str, ...]:
        return phase_vars(self.pairs)

    def vector_field(self) -> dict[str, RationalExpression]:
        """dU/dt = dH/dV, dV/dt = -dH/dU for each pair (U, V), keyed in
        phase order."""
        field: dict[str, RationalExpression] = {}
        for u, v in self.pairs:
            field[u] = self.hamiltonian.diff(v)
            field[v] = -self.hamiltonian.diff(u)
        return field

    def to_obj(self) -> dict:
        obj = {
            "family": self.family,
            "time": "t",
            "pairs": [list(p) for p in self.pairs],
            "parameters": list(self.params.symbols),
            "hamiltonian": self.hamiltonian.to_obj(),
        }
        if self.params.constraint_coeffs is not None:
            obj["constraint"] = {
                "coeffs": {s: str(c) for s, c in
                           zip(self.params.symbols, self.params.constraint_coeffs)},
                "value": str(self.params.constraint_value),
            }
        return obj


# Two-dimensional kernels.  The middle parameter of each displayed triple is
# fixed by the normalization and does not occur in the formula itself.

def kernel_iii(q, p, t, c0, c2) -> RationalExpression:
    return (q ** 2 * p * (p - 1) + q * ((c0 + c2) * p - c0) + t * p) / t


def kernel_iii_shifted(q, p, t, c0, c2) -> RationalExpression:
    return (q ** 2 * p * (p - t) - q * ((-c0 + c2) * p + c0 * t) + p) / t


def kernel_v(q, p, t, c1, c2, c3) -> RationalExpression:
    return (q * (q - 1) * p * (p + t) - (c1 + c3) * q * p + c1 * p + c2 * t * q) / t


def _coeffs(*cs) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in cs)


PAIRS_4D = (("x", "y"), ("z", "w"))
_PARAMS_4D = tuple(f"a{i}" for i in range(5))
_PARAMS_6 = tuple(f"b{i}" for i in range(6))
_PARAMS_G3 = ("g0", "g1", "g2")


def _build_d4() -> HamiltonianSystem:
    h = (kernel_iii(X, Y, T, A[1], A[0])
         + kernel_iii_shifted(Z, W, T, A[3], 1 - A[4])
         - 2 * Y * W / T)
    return HamiltonianSystem(
        family="d4", hamiltonian=h, pairs=PAIRS_4D,
        params=ParameterVector(_PARAMS_4D, _coeffs(1, 1, 2, 1, 1), Fraction(1)))


def _build_b4f() -> HamiltonianSystem:
    h = (kernel_iii_shifted(X, Y, T, A[1], 2 * A[0] + A[1])
         + kernel_iii_shifted(Z, W, T, A[3], 1 - A[4])
         + 2 * X * W * (X * Y + A[1]) / T)
    return HamiltonianSystem(
        family="b4f", hamiltonian=h, pairs=PAIRS_4D,
        params=ParameterVector(_PARAMS_4D, _coeffs(2, 2, 2, 1, 1), Fraction(1)))


def _build_b4s() -> HamiltonianSystem:
    h = (kernel_iii(X, Y, T, A[1], A[0])
         + kernel_iii(Z, W, T, A[3], 1 - A[3] - 2 * A[4])
         + 2 * Y * Z * (Z * W + A[3]) / T)
    return HamiltonianSystem(
        family="b4s", hamiltonian=h, pairs=PAIRS_4D,
        params=ParameterVector(_PARAMS_4D, _coeffs(1, 1, 2, 2, 2), Fraction(1)))


def _build_d52() -> HamiltonianSystem:
    h = (kernel_iii_shifted(X, Y, T, A[1], 2 * A[0] + A[1])
         + kernel_iii(Z, W, T, A[3], 1 - A[3] - 2 * A[4])
         - 2 * X * Z * (X * Y + A[1]) * (Z * W + A[3]) / T)
    return HamiltonianSystem(
        family="d52", hamiltonian=h, pairs=PAIRS_4D,
        params=ParameterVector(_PARAMS_4D, _coeffs(1, 1, 1, 1, 1), Fraction(1, 2)))


def _build_d51() -> HamiltonianSystem:
    h = (kernel_v(X, Y, T, B[2] + B[5], B[1], B[2] + 2 * B[3] + B[4])
         + kernel_v(Z, W, T, B[5], B[3], B[4])
         + 2 * Y * Z * ((Z - 1) * W + B[3]) / T)
    return HamiltonianSystem(
        family="d51", hamiltonian=h, pairs=PAIRS_4D,
        params=ParameterVector(_PARAMS_6, _coeffs(1, 1, 2, 2, 1, 1), Fraction(1)))


def _build_p3() -> HamiltonianSystem:
    return HamiltonianSystem(
        family="p3", hamiltonian=kernel_iii(Q, P, T, G[0], G[2]),
        pairs=(("q", "p"),),
        params=ParameterVector(_PARAMS_G3, _coeffs(1, 2, 1), Fraction(1)))


def _build_p3t() -> HamiltonianSystem:
    return HamiltonianSystem(
        family="p3t", hamiltonian=kernel_iii_shifted(Q, P, T, G[0], G[2]),
        pairs=(("q", "p"),),
        params=ParameterVector(_PARAMS_G3, _coeffs(1, 2, 1), Fraction(1)))


_BUILDERS: dict[str, Callable[[], HamiltonianSystem]] = {
    "d4": _build_d4,
    "b4f": _build_b4f,
    "b4s": _build_b4s,
    "d52": _build_d52,
    "d51": _build_d51,
    "p3": _build_p3,
    "p3t": _build_p3t,
}

FAMILIES = tuple(_BUILDERS)

@cache
def make_hamiltonian(family: str) -> HamiltonianSystem:
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise UnknownFamily(family) from None
    system = builder()
    if system.hamiltonian.den.variables() - {"t"}:
        raise AssertionError(f"{family}: Hamiltonian denominator is not a power of t")
    return system


def toy_system() -> HamiltonianSystem:
    """Free drift on one canonical pair, used to exercise the integral search."""
    return HamiltonianSystem(family="toy", hamiltonian=P, pairs=(("q", "p"),),
                             params=ParameterVector((), None))


# Right-hand sides as published, retyped term by term (not derived), so the
# Hamiltonian assembly above and this transcription check one another.

DISPLAYED_FAMILIES = ("d4", "b4f", "b4s", "d52")


@cache
def _reference_fields() -> dict[str, dict[str, RationalExpression]]:
    a0, a1, a2, a3, a4 = A
    d4 = {
        "x": (2 * X ** 2 * Y - X ** 2 + (a0 + a1) * X - 2 * W) / T + 1,
        "y": (-2 * X * Y ** 2 + 2 * X * Y - (a0 + a1) * Y + a1) / T,
        "z": (2 * Z ** 2 * W - T * Z ** 2 - (1 - a3 - a4) * Z + 1 - 2 * Y) / T,
        "w": (-2 * Z * W ** 2 + 2 * T * Z * W + (1 - a3 - a4) * W + a3 * T) / T,
    }
    b4f = {
        "x": (2 * X ** 2 * Y - T * X ** 2 - 2 * a0 * X + 1) / T + 2 * X ** 2 * W / T,
        "y": (-2 * X * Y ** 2 + 2 * T * X * Y + 2 * a0 * Y + a1 * T) / T
             - 2 * W * (2 * X * Y + a1) / T,
        "z": (2 * Z ** 2 * W - T * Z ** 2 - (1 - a3 - a4) * Z + 1) / T
             + 2 * X * (X * Y + a1) / T,
        "w": (-2 * Z * W ** 2 + 2 * T * Z * W + (1 - a3 - a4) * W + a3 * T) / T,
    }
    b4s = {
        "x": (2 * X ** 2 * Y - X ** 2 + (a0 + a1) * X + T) / T + 2 * Z * (Z * W + a3) / T,
        "y": (-2 * X * Y ** 2 + 2 * X * Y - (a0 + a1) * Y + a1) / T,
        "z": (2 * Z ** 2 * W - Z ** 2 + (1 - 2 * a4) * Z + T) / T + 2 * Y * Z ** 2 / T,
        "w": (-2 * Z * W ** 2 + 2 * Z * W - (1 - 2 * a4) * W + a3) / T
             - 2 * Y * (2 * Z * W + a3) / T,
    }
    d52 = {
        "x": (2 * X ** 2 * Y - T * X ** 2 - 2 * a0 * X + 1) / T
             - 2 * X ** 2 * Z * (Z * W + a3) / T,
        "y": (-2 * X * Y ** 2 + 2 * T * X * Y + 2 * a0 * Y + a1 * T) / T
             + 2 * Z * (Z * W + a3) * (2 * X * Y + a1) / T,
        "z": (2 * Z ** 2 * W - Z ** 2 + (1 - 2 * a4) * Z + T) / T
             - 2 * X * Z ** 2 * (X * Y + a1) / T,
        "w": (-2 * Z * W ** 2 + 2 * Z * W - (1 - 2 * a4) * W + a3) / T
             + 2 * X * (X * Y + a1) * (2 * Z * W + a3) / T,
    }
    return dict(zip(DISPLAYED_FAMILIES, (d4, b4f, b4s, d52)))


def reference_field(family: str) -> dict[str, RationalExpression]:
    try:
        return _reference_fields()[family]
    except KeyError:
        raise UnknownFamily(f"{family} has no transcribed right-hand sides") from None


def check_field_matches_display(family: str) -> VerificationReport:
    """Compare the derived field against the retyped right-hand sides."""
    def decide():
        ref = reference_field(family)
        bad = [v for v, rhs in make_hamiltonian(family).vector_field().items()
               if not rhs.equals(ref[v])]
        return f"mismatch in components {bad}" if bad else None

    return verdict(f"fields/{family}", "exact", decide)


# First integral search: linear algebra over Q on an ansatz
# sum c_{m,k} * m(phase) * t^k with deg m <= degree_bound, k in the window.
# The search and span_equal share one sparse Gauss-Jordan elimination.

def _rref(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse rows {column: value} over Q.

    Returns {pivot column: row}.  Each row is 1 at its pivot, which is its
    smallest column, and 0 in every other pivot column, so the result is
    the unique RREF of the row space; zero rows vanish.  Values stay int
    or Fraction.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        # pivot rows are 0 in each other's pivot columns, so one pass clears them
        for pc in [c for c in row if c in pivots]:
            _axpy(row, -row.pop(pc), pivots[pc], pc)
        if not row:
            continue
        pc = min(row)
        inv = Fraction(1, row[pc])
        row = {c: v * inv for c, v in row.items()}
        for other in pivots.values():
            if pc in other:
                _axpy(other, -other.pop(pc), row, pc)
        pivots[pc] = row
    return pivots


def _axpy(row: dict[int, Fraction], f: Fraction, src: Mapping[int, Fraction],
          skip: int) -> None:
    # row += f * src outside column skip, dropping entries that cancel
    for c, v in src.items():
        if c != skip:
            nv = row.get(c, 0) + f * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)


def _kernel_basis(pivots: Mapping[int, Mapping[int, Fraction]],
                  ncols: int) -> list[dict[int, Fraction]]:
    """Nullspace of an RREF: one vector per free column, 1 there and
    -row[free] at each pivot."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: 1}
        for pc, row in pivots.items():
            if free in row:
                vec[pc] = -row[free]
        basis.append(vec)
    return basis


def _phase_monomials(phase: Sequence[str], bound: int) -> list[Polynomial]:
    out = [Polynomial.constant(1)]
    for deg in range(1, bound + 1):
        for combo in combinations_with_replacement(phase, deg):
            m = Polynomial.constant(1)
            for v in combo:
                m = m * Polynomial.variable(v)
            out.append(m)
    return out


def first_integral_search(system: HamiltonianSystem, degree_bound: int,
                          window: tuple[int, int]) -> list[RationalExpression]:
    """Basis of the kernel of F -> dF/dt + sum dF/du * u' + dF/dv * v'.

    The condition is imposed identically in phase variables, time and free
    parameters after substituting the family normalization.
    """
    lo, hi = window
    if lo > hi:
        raise WindowEmpty(f"t-power window {window} is empty")
    field = {v: system.params.normalize(rhs)
             for v, rhs in system.vector_field().items()}
    shift = max(0, -lo)
    tpow = Polynomial.variable("t")
    phase = system.phase_vars()
    # the largest ansatz term first, so a bound beyond the kernel fails at once
    Polynomial.variable(phase[0]) ** degree_bound * tpow ** (hi + shift)
    ansatz: list[RationalExpression] = []
    for mono in _phase_monomials(phase, degree_bound):
        for k in range(lo, hi + 1):
            num = mono * tpow ** (k + shift)
            ansatz.append(RationalExpression(num, tpow ** shift))
    columns = [total_derivative(f, field) for f in ansatz]
    # all denominators are powers of t; rescale onto the common one
    tdegs = [col.den.total_degree({"t"}) for col in columns]
    for col in columns:
        if col.den.variables() - {"t"}:
            raise AssertionError("unexpected non-t denominator in integral search")
    top = max(tdegs, default=0)
    # one equation per monomial of the cleared condition, one column per ansatz term
    rows: dict = {}
    for j, (col, d) in enumerate(zip(columns, tdegs)):
        scaled = col.num * tpow ** (top - d)
        for m, c in scaled.items():
            rows.setdefault(m, {})[j] = c
    out = []
    for vec in _kernel_basis(_rref(rows.values()), len(ansatz)):
        expr = rational(0)
        for j in sorted(vec):
            expr = expr + rational(vec[j]) * ansatz[j]
        out.append(expr)
    return out


def span_equal(found: Sequence[RationalExpression],
               expected: Sequence[RationalExpression]) -> bool:
    """Whether two lists of t-denominated polynomials span the same Q-space."""
    tpow = Polynomial.variable("t")
    everything = list(found) + list(expected)
    if not everything:
        return True
    shift = max(e.den.total_degree({"t"}) for e in everything)
    # any fixed column order will do: equal row spaces have equal RREFs
    index: dict = {}
    rows = [{index.setdefault(m, len(index)): c for m, c in
             (e.num * tpow ** (shift - e.den.total_degree({"t"}))).items()}
            for e in everything]
    nf = len(found)
    return _rref(rows[:nf]) == _rref(rows[nf:])

"""Exact sparse arithmetic for multivariate polynomials and rational functions over Q.

A polynomial is a mapping from monomials to nonzero rational coefficients.
A coefficient is an int when it is integral and a Fraction only when it is
not, never a float (constructors refuse one); every operation keeps this
invariant, so the primitive integer polynomials that normalization
produces are multiplied, added and divided in native int arithmetic.  A
rational expression is a numerator/denominator pair of polynomials kept in
a light canonical form: common monomial content is cancelled and shared
integer content is removed with the denominator's leading coefficient
normalized positive.  No full multivariate gcd is attempted;
equality is decided by cross-multiplication, which is correct regardless of
how far a pair happens to be reduced.

Monomials are ordered by graded lexicographic order with
x < y < z < w < t < eps < auxiliary variables < parameters.  The table of
names (_VAR_ORDER) is closed: a name outside it raises AlgebraError, so
this is the one monomial order of the kernel.  Everything downstream
(division, serialization) inherits determinism from it.

Inside this module a monomial is one int, a packed exponent vector
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  Every name of the table owns a fixed
8-bit field, x the most significant, and the total degree sits in a field
above them all, so a larger int is exactly the larger monomial in the
order above.  The top bit of every field is a guard that stays clear: an
exponent or a total degree above 127 raises ExponentOverflow rather than
carry into the neighbouring field.  A product of monomials is their sum,
and b divides a exactly when a - b has no guard bit set.  The format is
private: Polynomial(...), constant, variable and from_obj take monomials
as ((name, exponent), ...) pairs in the order above, and Polynomial.items,
leading and sorted_terms give them back in that form.

Exact division is sparse long division whose leading remainder terms come
from a heap of packed monomials (Johnson 1974; Monagan and Pearce,
J. Symb. Comp. 46, 2011), so finding each quotient term costs a heap pop
rather than a scan of the whole remainder.

Besides exact evaluation at a rational point (eval_exact), polynomials and
rational expressions evaluate at a point of residues modulo a prime p
(eval_mod), in plain int arithmetic: a Fraction coefficient n/d becomes
n * d^-1 mod p, and a denominator that is 0 mod p raises
DenominatorZeroAtPoint, as a vanishing denominator does in eval_exact.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping, Optional, Union

Scalar = Union[int, Fraction]
Monomial = tuple[tuple[str, int], ...]

_VAR_ORDER = (
    "x", "y", "z", "w", "t", "eps", "q", "p",
    "a0", "a1", "a2", "a3", "a4",
    "b0", "b1", "b2", "b3", "b4", "b5",
    "g0", "g1", "g2", "g3",
)

_W = 8                                  # bits per field, guard bit included
_FIELD = (1 << _W) - 1
_MAX_EXP = (1 << (_W - 1)) - 1          # largest exponent and total degree
_DEG_SHIFT = len(_VAR_ORDER) * _W
_DEG_ONE = 1 << _DEG_SHIFT
_NOT_DEG = ~(_FIELD << _DEG_SHIFT)      # every field but the degree

# name -> bit offset of its field; the table's fields from x down to g3
_SHIFT: dict[str, int] = {name: (len(_VAR_ORDER) - 1 - i) * _W
                          for i, name in enumerate(_VAR_ORDER)}
_TABLE_NAME = tuple(reversed(_VAR_ORDER))   # field index -> name
# guard bit of every field, the degree field included
_GUARDS = sum(1 << (i * _W + _W - 1) for i in range(len(_VAR_ORDER) + 1))
_UNIT = {0: 1}                          # terms of the constant 1
# (packed monomial, coefficient) of each bare variable -> its name
_BARE = {(1 << s | _DEG_ONE, 1): name for name, s in _SHIFT.items()}


class AlgebraError(Exception):
    """Base class for kernel faults."""


class DenominatorVanishes(AlgebraError):
    """A substitution made a denominator identically zero."""


class DenominatorZeroAtPoint(AlgebraError):
    """A denominator evaluated to zero at a concrete point."""


class ExponentOverflow(AlgebraError):
    """An exponent or a total degree exceeds what a packed monomial holds."""


def format_point(point: Mapping[str, object]) -> str:
    """{name=value, ...}, names sorted, values printed with str."""
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(point.items())) + "}"


def residue(c: Scalar, p: int) -> int:
    """c modulo the prime p, an int in [0, p).  A denominator divisible by
    p raises DenominatorZeroAtPoint."""
    if type(c) is int:
        return c % p
    den = c.denominator % p
    if not den:
        raise DenominatorZeroAtPoint(f"denominator of {c} vanishes mod {p}")
    return c.numerator * pow(den, -1, p) % p


def _shift(name: str) -> int:
    try:
        return _SHIFT[name]
    except KeyError:
        raise AlgebraError(f"variable {name!r} is not in the kernel's "
                           f"variable table") from None


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"exponent overflow: an exponent or a total "
                            f"degree exceeds {_MAX_EXP}")


def _pack(mono: Iterable[tuple[str, int]]) -> int:
    """Packed form of a ((name, exponent), ...) monomial."""
    m = deg = 0
    for v, e in mono:
        if e < 0:
            raise AlgebraError(f"negative exponent {e} of {v!r}")
        if e:
            if e > _MAX_EXP:
                raise _overflow()
            m += e << _shift(v)
            deg += e
    if deg > _MAX_EXP or m & _GUARDS:
        raise _overflow()
    return m | deg << _DEG_SHIFT


def _unpack(m: int) -> Monomial:
    """((name, exponent), ...) of a packed monomial, in variable order."""
    out = []
    table = m & (_DEG_ONE - 1)
    while table:
        i = (table.bit_length() - 1) // _W
        e = table >> (i * _W)
        table ^= e << (i * _W)
        out.append((_TABLE_NAME[i], e))
    return tuple(out)


def _with_degree(m: int) -> int:
    """m with its degree field set to the sum of its other fields."""
    m &= _NOT_DEG
    return m | sum(e for _, e in _unpack(m)) << _DEG_SHIFT


def _common(terms: Iterable[int]) -> int:
    """Largest monomial dividing all of terms (0 when there is none)."""
    if 0 in terms:
        return 0
    guards = _GUARDS
    g = None
    for m in terms:
        if g is None:
            g = m
            continue
        # field-wise minimum: the guard of a field is still set in g - m exactly
        # when g >= m there, and marks the fields to take from m
        ge = ((g | guards) - m) & guards
        take = ge - (ge >> (_W - 1))
        g = (m & take) | (g & ~take)
        if not g & _NOT_DEG:
            return 0
    if not g or not g & _NOT_DEG:
        return 0
    return _with_degree(g)


def _coeff(c) -> Scalar:
    """c as a kernel coefficient: an int when integral, else a Fraction.

    A float is refused: its exact value is seldom the number meant, so a
    float that leaked out of a division would pass silently."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}; use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _demote(terms: dict[int, Scalar]) -> dict[int, Scalar]:
    # A sum or product of Fractions can come out integral.
    for m, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[m] = c.numerator
    return terms


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """Exact a/b of kernel coefficients, an int whenever b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a, b))


def _poly(terms: dict[int, Scalar]) -> "Polynomial":
    """A Polynomial over packed terms that already keep every invariant."""
    p = object.__new__(Polynomial)
    p.terms = terms
    return p


class Polynomial:
    """Immutable sparse polynomial with rational coefficients.

    Each coefficient is an int when integral and a Fraction otherwise.
    ``terms`` maps packed monomials to coefficients; read them through
    ``items``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar]):
        packed: dict[int, Scalar] = {}
        for mono, c in terms.items():
            if c:
                m = _pack(mono)
                packed[m] = packed.get(m, 0) + _coeff(c)
        self.terms = _demote({m: c for m, c in packed.items() if c})

    @staticmethod
    def zero() -> "Polynomial":
        return _poly({})

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        c = _coeff(c)
        return _poly({0: c} if c else {})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return _poly({1 << _shift(name) | _DEG_ONE: 1})

    def items(self) -> list[tuple[Monomial, Scalar]]:
        """The terms as (((name, exponent), ...), coefficient), in storage order."""
        return [(_unpack(m), c) for m, c in self.terms.items()]

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            nc = terms.get(m, 0) + c
            if not nc:
                terms.pop(m, None)
            elif type(nc) is Fraction and nc.denominator == 1:
                terms[m] = nc.numerator
            else:
                terms[m] = nc
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        small, big = self.terms, other.terms
        if not small or not big:
            return Polynomial.zero()
        if len(small) > len(big):
            small, big = big, small
        if len(small) == 1:
            # adding one monomial is injective: no collisions, no cancellation
            ((m1, c1),) = small.items()
            out = {m1 + m2: c1 * c2 for m2, c2 in big.items()}
            top = m1 + max(big)
        else:
            out = {}
            get = out.get
            for m1, c1 in small.items():
                for m2, c2 in big.items():
                    m = m1 + m2
                    nc = get(m, 0) + c1 * c2
                    if nc:
                        out[m] = nc
                    else:
                        del out[m]
            top = max(small) + max(big)
        # top is the largest product, so its degree, the top field, bounds
        # every field of every product: within it no field can carry
        if top >> _DEG_SHIFT > _MAX_EXP:
            raise _overflow()
        return _poly(_demote(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial; use RationalExpression")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def diff(self, var: str) -> "Polynomial":
        s = _SHIFT.get(var)
        if s is None:
            return Polynomial.zero()
        one = 1 << s | _DEG_ONE
        # m -> m - one is injective, so no two terms collide
        return _poly(_demote({m - one: c * e for m, c in self.terms.items()
                              if (e := m >> s & _FIELD)}))

    def leading(self) -> tuple[Monomial, Scalar]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return _unpack(m), self.terms[m]

    def variables(self) -> set[str]:
        return {v for v, _ in _unpack(reduce(or_, self.terms, 0))}

    def total_degree(self, restrict: Optional[set[str]] = None) -> int:
        if not self.terms:
            return 0
        if restrict is None:
            return max(m >> _DEG_SHIFT & _FIELD for m in self.terms)
        return max(sum(e for v, e in _unpack(m) if v in restrict)
                   for m in self.terms)

    def min_exponents(self) -> dict[str, int]:
        """Largest monomial dividing every term (empty for the zero polynomial)."""
        return dict(_unpack(_common(self.terms)))

    def strip_monomial(self, mono: Mapping[str, int]) -> "Polynomial":
        """self divided by a monomial that divides every term."""
        s = _pack(mono.items())
        guards = _GUARDS
        if any(m - s & guards for m in self.terms):
            raise AlgebraError(f"{dict(mono)!r} does not divide every term")
        return self._strip(s)

    def _strip(self, s: int) -> "Polynomial":
        if not s:
            return self
        return _poly({m - s: c for m, c in self.terms.items()})

    def content(self) -> Scalar:
        """Positive rational c with self/c integral and primitive (0 for zero)."""
        values = self.terms.values()
        try:
            return gcd(*values)
        except TypeError:       # a Fraction among the coefficients
            pass
        num = gcd(*(c.numerator for c in values))
        den = lcm(*(c.denominator for c in values))
        return num if den == 1 else Fraction(num, den)

    def scale(self, c: Scalar) -> "Polynomial":
        if c == 1:
            return self
        c = _coeff(c)
        if not c:
            return Polynomial.zero()
        return _poly(_demote({m: cc * c for m, cc in self.terms.items()}))

    def exact_div(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Exact quotient self/divisor, or None when division fails.

        Single-divisor multivariate division driven by the leading term;
        for an exact multiple the remainder reaches zero, otherwise the
        first non-divisible leading term ends it.

        The remainder's leading term comes from a heap of negated packed
        monomials beside the remainder dict (Johnson 1974; Monagan and
        Pearce 2011): a monomial is pushed once when it enters the
        remainder, and a popped monomial that has since cancelled out is
        skipped.  A processed leading monomial never comes back, since
        every product d*bm sorts below d*lb_m, so no entry needs
        re-checking and each quotient term costs O(log n) to find.  The
        heap follows int order, which is the kernel's monomial order.
        """
        if divisor.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero()
        dterms = divisor.terms
        lb_m = max(dterms)
        lb_c = dterms[lb_m]
        guards = _GUARDS
        heappush, heappop = heapq.heappush, heapq.heappop
        rem = dict(self.terms)
        heap = [-m for m in rem]
        heapq.heapify(heap)
        out: dict[int, Scalar] = {}
        while rem:
            m = -heappop(heap)
            c = rem.get(m)
            if c is None:
                continue
            d = m - lb_m
            if d & guards:
                return None
            qc = _quotient(c, lb_c)
            out[d] = qc
            for bm, bc in dterms.items():
                mm = d + bm
                old = rem.get(mm)
                if old is None:
                    rem[mm] = -qc * bc
                    heappush(heap, -mm)
                else:
                    nc = old - qc * bc
                    if nc:
                        rem[mm] = nc
                    else:
                        del rem[mm]
        return _poly(out)

    def eval_exact(self, point: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for v, e in _unpack(m):
                if v not in point:
                    raise ValueError(f"no value for variable {v!r}")
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def eval_mod(self, point: Mapping[str, int], p: int) -> int:
        """Value at a point of residues modulo the prime p, in [0, p)."""
        total = 0
        for m, c in self.terms.items():
            val = c if type(c) is int else residue(c, p)
            for v, e in _unpack(m):
                if v not in point:
                    raise ValueError(f"no value for variable {v!r}")
                val = val * pow(point[v], e, p)
            total += val % p
        return total % p

    def substitute(self, assignment: Mapping[str, "RationalExpression"]) -> "RationalExpression":
        """Simultaneous substitution; unassigned variables pass through.

        The result is the cleared numerator over the product of the clearing
        factors (see ``_cleared``), with nothing divided back out.  Only
        moved variables are substituted, a polynomial image clears nothing,
        and a bare variable returns its image."""
        if (v := _bare(self)) in assignment:
            return assignment[v]
        cleared = _cleared((self,), assignment)
        if cleared is None:
            return RationalExpression(self, Polynomial.constant(1))
        (num,), factors = cleared
        common_den = Polynomial.constant(1)
        for f in factors.values():
            common_den = common_den * f
        return RationalExpression(num, common_den)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """The terms, leading term first."""
        return [(_unpack(m), self.terms[m])
                for m in sorted(self.terms, reverse=True)]

    def to_obj(self) -> list[dict]:
        out = []
        for m, c in self.sorted_terms():
            out.append({"coeff": str(c), "exps": {v: e for v, e in m}})
        return out

    @staticmethod
    def from_obj(obj: list[dict]) -> "Polynomial":
        terms: dict[Monomial, Scalar] = {}
        for item in obj:
            mono = tuple((v, int(e)) for v, e in item["exps"].items())
            terms[mono] = terms.get(mono, 0) + Fraction(item["coeff"])
        return Polynomial(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        s = " + ".join(bits)
        return s.replace("+ -", "- ")


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial.constant(v)
    return NotImplemented


def _bare(p: Polynomial) -> Optional[str]:
    """The name of p when p is a bare variable, else None."""
    return _BARE.get(next(iter(p.terms.items()))) if len(p.terms) == 1 else None


def _cleared(polys: tuple[Polynomial, ...],
             assignment: Mapping[str, "RationalExpression"]):
    """Substitute into each of polys, clearing denominators.

    Only moved variables are substituted; a variable whose image is itself
    stays in place.  With top_v the largest exponent of a moved v over all
    of polys, every term c*v^e*rest becomes c*rest*num_v^e*den_v^(top_v - e),
    so the polys are cleared by one shared power den_v^top_v per variable;
    a polynomial image (denominator 1) clears nothing and has no such power.
    Returns the cleared polys and those powers by variable, or None when no
    moved variable occurs."""
    one = Polynomial.constant(1)
    specs = []
    factors = {}
    for v in set().union(*(p.variables() for p in polys)) & set(assignment):
        s = _SHIFT[v]
        img = assignment[v]
        polynomial = img.den.terms == _UNIT
        if polynomial and img.num.terms == {1 << s | _DEG_ONE: 1}:
            continue
        top = max(m >> s & _FIELD for p in polys for m in p.terms)
        num_pows, den_pows = [one], None if polynomial else [one]
        for _ in range(top):
            num_pows.append(num_pows[-1] * img.num)
            if den_pows:
                den_pows.append(den_pows[-1] * img.den)
        if den_pows:
            factors[v] = den_pows[top]
        specs.append((s, top, num_pows, den_pows))
    if not specs:
        return None
    out = []
    for poly in polys:
        acc: dict[int, Scalar] = {}
        for m, c in poly.terms.items():
            exps = [m >> s & _FIELD for s, _, _, _ in specs]
            rest = m
            for (s, _, _, _), e in zip(specs, exps):
                rest -= e << s | e << _DEG_SHIFT
            part = _poly({rest: c})
            for (_, top, num_pows, den_pows), e in zip(specs, exps):
                if e:
                    part = part * num_pows[e]
                if den_pows and top - e:
                    part = part * den_pows[top - e]
            # every product was checked for overflow by __mul__
            for pm, pc in part.terms.items():
                nc = acc.get(pm, 0) + pc
                if nc:
                    acc[pm] = nc
                else:
                    del acc[pm]
        out.append(_poly(_demote(acc)))
    return out, factors


class RationalExpression:
    """Quotient of two Polynomials with a light canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise AlgebraError("zero denominator")
        if num.is_zero():
            self.num = Polynomial.zero()
            self.den = Polynomial.constant(1)
            return
        # cancel shared monomial content
        shared = _common(num.terms)
        if shared:
            shared = _common((shared, _common(den.terms)))
            if shared:
                num = num._strip(shared)
                den = den._strip(shared)
        # shared integer content; denominator leading coefficient positive
        cn = num.content()
        cd = den.content()
        if cn != 1 or cd != 1:
            ratio = Fraction(cn, cd)
            num = num.scale(Fraction(ratio.numerator, cn))
            den = den.scale(Fraction(ratio.denominator, cd))
        if den.terms[max(den.terms)] < 0:
            num = num.scale(-1)
            den = den.scale(-1)
        self.num = num
        self.den = den

    @staticmethod
    def constant(c: Scalar) -> "RationalExpression":
        return RationalExpression(Polynomial.constant(c), Polynomial.constant(1))

    @staticmethod
    def variable(name: str) -> "RationalExpression":
        return RationalExpression(Polynomial.variable(name), Polynomial.constant(1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other) -> "RationalExpression":
        other = _as_re(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalExpression(self.num + other.num, self.den)
        return RationalExpression(self.num * other.den + other.num * self.den,
                                  self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalExpression":
        out = object.__new__(RationalExpression)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "RationalExpression":
        other = _as_re(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalExpression":
        other = _as_re(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalExpression":
        other = _as_re(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalExpression(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalExpression":
        other = _as_re(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise AlgebraError("division by zero expression")
        return RationalExpression(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalExpression":
        other = _as_re(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalExpression":
        if n >= 0:
            return RationalExpression(self.num ** n, self.den ** n)
        if self.num.is_zero():
            raise AlgebraError("negative power of zero")
        return RationalExpression(self.den ** (-n), self.num ** (-n))

    def __eq__(self, other) -> bool:
        other = _as_re(other)
        if other is NotImplemented:
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        raise TypeError("RationalExpression is not hashable")

    def equals(self, other: "RationalExpression") -> bool:
        """Mathematical equality by cross-multiplication."""
        other = _as_re(other)
        return (self.num * other.den - other.num * self.den).is_zero()

    def diff(self, var: str) -> "RationalExpression":
        dn = self.num.diff(var)
        dd = self.den.diff(var)
        if dd.is_zero():
            return RationalExpression(dn, self.den)
        return RationalExpression(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, assignment: Mapping[str, "RationalExpression"]) -> "RationalExpression":
        """Simultaneous substitution.  Numerator and denominator are cleared
        with one shared power of each substituted denominator, and the
        clearing factors are divided back out afterwards, so composition does
        not accumulate spurious common factors that gcd-free normalization
        could never remove.  Only moved variables are substituted (see
        ``_cleared``), and a polynomial image clears nothing, so nothing is
        divided back for it.  A bare variable returns its image itself."""
        if self.den.terms == _UNIT and (v := _bare(self.num)) in assignment:
            return assignment[v]
        cleared = _cleared((self.num, self.den), assignment)
        if cleared is None:
            return RationalExpression(self.num, self.den)
        (new_num, new_den), factors = cleared
        if new_den.is_zero():
            raise DenominatorVanishes("substitution zeroes a denominator")
        for v in sorted(factors):
            divisor = assignment[v].den
            if not divisor.variables():
                continue
            while True:
                q_num = new_num.exact_div(divisor)
                if q_num is None:
                    break
                q_den = new_den.exact_div(divisor)
                if q_den is None:
                    break
                new_num, new_den = q_num, q_den
        return RationalExpression(new_num, new_den)

    def eval_exact(self, point: Mapping[str, Scalar]) -> Fraction:
        dv = self.den.eval_exact(point)
        if dv == 0:
            raise DenominatorZeroAtPoint(
                f"denominator vanishes at {format_point(point)}")
        return self.num.eval_exact(point) / dv

    def eval_mod(self, point: Mapping[str, int], p: int) -> int:
        """Value at a point of residues modulo the prime p, in [0, p)."""
        dv = self.den.eval_mod(point, p)
        if not dv:
            raise DenominatorZeroAtPoint(
                f"denominator vanishes mod {p} at {format_point(point)}")
        return self.num.eval_mod(point, p) * pow(dv, -1, p) % p

    def variables(self) -> set[str]:
        return self.num.variables() | self.den.variables()

    def to_obj(self) -> dict:
        return {"num": self.num.to_obj(), "den": self.den.to_obj()}

    @staticmethod
    def from_obj(obj: dict) -> "RationalExpression":
        out = object.__new__(RationalExpression)
        out.num = Polynomial.from_obj(obj["num"])
        out.den = Polynomial.from_obj(obj["den"])
        return out

    def __repr__(self) -> str:
        if self.den == Polynomial.constant(1):
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _as_re(v):
    if isinstance(v, RationalExpression):
        return v
    if isinstance(v, Polynomial):
        return RationalExpression(v, Polynomial.constant(1))
    if isinstance(v, (int, Fraction)):
        return RationalExpression.constant(v)
    return NotImplemented


# Spec-facing functional aliases.

def variable(name: str) -> RationalExpression:
    return RationalExpression.variable(name)


def rational(c: Scalar) -> RationalExpression:
    return RationalExpression.constant(c)


def _require_poly(f) -> Polynomial:
    if isinstance(f, Polynomial):
        return f
    expr = _as_re(f)
    den = expr.den
    if den.variables():
        raise AlgebraError(f"not a polynomial: {f!r}")
    return expr.num.scale(Fraction(1, den.terms[0]))


def exact_divide(a, b) -> Optional[Polynomial]:
    return _require_poly(a).exact_div(_require_poly(b))


def equals(f, g) -> bool:
    return _as_re(f).equals(_as_re(g))

"""Exact sparse arithmetic for multivariate polynomials and rational functions over Q.

A polynomial is a mapping from monomials to nonzero rational coefficients.
A coefficient is an int when it is integral and a Fraction only when it is
not, never a float (constructors refuse one); every operation keeps this
invariant, so the primitive integer polynomials that normalization
produces are multiplied, added and divided in native int arithmetic.  A
monomial is a tuple of (variable, exponent) pairs, sorted by a fixed global
variable order, with zero exponents never stored.  A rational expression is a
numerator/denominator pair of polynomials kept in a light canonical form:
common monomial content is cancelled, a small catalog of binomial factors
seen in the cataloged maps is divided out, and shared integer content is
removed with the denominator's leading coefficient normalized positive.
No full multivariate gcd is attempted; equality is decided by
cross-multiplication, which is correct regardless of how far a pair
happens to be reduced.

Monomials are ordered by graded lexicographic order with
x < y < z < w < t < eps < auxiliary variables < parameters; names outside
the fixed table sort after all known names, alphabetically.  Everything
downstream (division, serialization) inherits determinism from this order.
The order is realised by one flat sort key per monomial,
(-degree, rank, -exponent, rank, -exponent, ...), where each rank is the
pair (0, table index) or (1, name).

Exact division is sparse long division whose leading remainder terms come
from a heap of those keys (Johnson 1974; Monagan and Pearce, J. Symb. Comp.
46, 2011), so finding each quotient term costs a heap pop rather than a
scan of the whole remainder.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Union

Scalar = Union[int, Fraction]
Monomial = tuple[tuple[str, int], ...]

_VAR_ORDER = (
    "x", "y", "z", "w", "t", "eps", "q", "p",
    "X", "Y", "Z", "W", "T",
    "a0", "a1", "a2", "a3", "a4",
    "b0", "b1", "b2", "b3", "b4", "b5",
    "g0", "g1", "g2", "g3",
    "A0", "A1", "A2", "A3", "A4",
)

_RANK: dict[str, tuple[int, object]] = {name: (0, i) for i, name in enumerate(_VAR_ORDER)}


def _rank(name: str) -> tuple[int, object]:
    r = _RANK.get(name)
    if r is None:
        r = (1, name)
        _RANK[name] = r
    return r


class AlgebraError(Exception):
    """Base class for kernel faults."""


class DenominatorVanishes(AlgebraError):
    """A substitution made a denominator identically zero."""


class DenominatorZeroAtPoint(AlgebraError):
    """A denominator evaluated to zero at a concrete point."""


def _mono_key(mono: Monomial) -> tuple:
    # Leading monomial of a polynomial is the minimum under this key.  One
    # flat tuple (-deg, *rank0, -e0, *rank1, -e1, ...): every rank has two
    # fields, so it compares like the nested ((rank, -e), ...) pairs while
    # keeping a single tuple alive per key.
    key = [0]
    deg = 0
    for v, e in mono:
        key.extend(_rank(v))
        key.append(-e)
        deg += e
    key[0] = -deg
    return tuple(key)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
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


def _mono_div(a: Monomial, b: Monomial) -> Optional[Monomial]:
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


def _demote(terms: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
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


class Polynomial:
    """Immutable sparse polynomial with rational coefficients.

    Each coefficient is an int when integral and a Fraction otherwise."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Scalar], _trusted: bool = False):
        self.terms = terms if _trusted else {m: _coeff(c) for m, c in terms.items() if c}

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial({}, _trusted=True)

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        c = _coeff(c)
        return Polynomial({(): c} if c else {}, _trusted=True)

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial({((name, 1),): 1}, _trusted=True)

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
        return Polynomial(terms, _trusted=True)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()}, _trusted=True)

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
        if not self.terms or not other.terms:
            return Polynomial.zero()
        out: dict[Monomial, Scalar] = {}
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                m = _mono_mul(m1, m2)
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return Polynomial(_demote(out), _trusted=True)

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
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            md = dict(m)
            e = md.get(var)
            if not e:
                continue
            if e == 1:
                md.pop(var)
            else:
                md[var] = e - 1
            mono = tuple(sorted(md.items(), key=lambda it: _rank(it[0])))
            nc = out.get(mono, 0) + c * e
            if nc:
                out[mono] = nc
            else:
                out.pop(mono, None)
        return Polynomial(_demote(out), _trusted=True)

    def leading(self) -> tuple[Monomial, Scalar]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=_mono_key)
        return m, self.terms[m]

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def total_degree(self, restrict: Optional[set[str]] = None) -> int:
        if not self.terms:
            return 0
        best = 0
        for m in self.terms:
            d = sum(e for v, e in m if restrict is None or v in restrict)
            best = max(best, d)
        return best

    def min_exponents(self) -> dict[str, int]:
        """Largest monomial dividing every term (empty for the zero polynomial)."""
        out: Optional[dict[str, int]] = None
        for m in self.terms:
            md = dict(m)
            if out is None:
                out = md
            else:
                out = {v: min(e, md[v]) for v, e in out.items() if v in md}
            if not out:
                return {}
        return out or {}

    def strip_monomial(self, mono: dict[str, int]) -> "Polynomial":
        if not mono:
            return self
        out = {}
        for m, c in self.terms.items():
            md = dict(m)
            for v, e in mono.items():
                md[v] -= e
                if md[v] == 0:
                    del md[v]
            out[tuple(sorted(md.items(), key=lambda it: _rank(it[0])))] = c
        return Polynomial(out, _trusted=True)

    def content(self) -> Scalar:
        """Positive rational c with self/c integral and primitive (0 for zero)."""
        values = self.terms.values()
        num = gcd(*(c.numerator for c in values))
        den = lcm(*(c.denominator for c in values))
        return num if den == 1 else Fraction(num, den)

    def scale(self, c: Scalar) -> "Polynomial":
        if c == 1:
            return self
        c = _coeff(c)
        if not c:
            return Polynomial.zero()
        return Polynomial(_demote({m: cc * c for m, cc in self.terms.items()}),
                          _trusted=True)

    def exact_div(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Exact quotient self/divisor, or None when division fails.

        Single-divisor multivariate division driven by the graded-lex
        leading term; for an exact multiple the remainder reaches zero,
        otherwise the first non-divisible leading term ends it.

        The remainder's leading term comes from a heap of (key, monomial)
        entries beside the remainder dict (Johnson 1974; Monagan and
        Pearce 2011): a key is pushed once when its monomial enters the
        remainder, and a popped monomial that has since cancelled out is
        skipped.  A processed leading monomial never comes back, since
        every product d*bm sorts after d*lb_m, so no entry needs
        re-checking and each quotient term costs O(log n) to find rather
        than a key for every remaining term.
        """
        if divisor.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial.zero()
        lb_m, lb_c = divisor.leading()
        rem = dict(self.terms)
        heap = [(_mono_key(m), m) for m in rem]
        heapq.heapify(heap)
        out: dict[Monomial, Scalar] = {}
        while rem:
            m = heapq.heappop(heap)[1]
            c = rem.get(m)
            if c is None:
                continue
            d = _mono_div(m, lb_m)
            if d is None:
                return None
            qc = _quotient(c, lb_c)
            out[d] = qc
            for bm, bc in divisor.terms.items():
                mm = _mono_mul(d, bm)
                old = rem.get(mm)
                if old is None:
                    rem[mm] = -qc * bc
                    heapq.heappush(heap, (_mono_key(mm), mm))
                else:
                    nc = old - qc * bc
                    if nc:
                        rem[mm] = nc
                    else:
                        del rem[mm]
        return Polynomial(out, _trusted=True)

    def eval_exact(self, point: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for v, e in m:
                if v not in point:
                    raise ValueError(f"no value for variable {v!r}")
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        total = 0j
        for m, c in self.terms.items():
            val = complex(c)
            for v, e in m:
                if v not in point:
                    raise ValueError(f"no value for variable {v!r}")
                val *= complex(point[v]) ** e
            total += val
        return total

    def substitute(self, assignment: Mapping[str, "RationalExpression"]) -> "RationalExpression":
        """Simultaneous substitution; unassigned variables pass through."""
        touched = self.variables() & set(assignment)
        if not touched:
            return RationalExpression(self, Polynomial.constant(1))
        max_exp = {v: 0 for v in touched}
        for m in self.terms:
            for v, e in m:
                if v in max_exp and e > max_exp[v]:
                    max_exp[v] = e
        num_pows: dict[str, list[Polynomial]] = {}
        den_pows: dict[str, list[Polynomial]] = {}
        common_den = Polynomial.constant(1)
        for v in touched:
            img = assignment[v]
            top = max_exp[v]
            np_list = [Polynomial.constant(1)]
            dp_list = [Polynomial.constant(1)]
            for _ in range(top):
                np_list.append(np_list[-1] * img.num)
                dp_list.append(dp_list[-1] * img.den)
            num_pows[v] = np_list
            den_pows[v] = dp_list
            common_den = common_den * dp_list[top]
        acc = Polynomial.zero()
        for m, c in self.terms.items():
            md = dict(m)
            untouched = tuple((v, e) for v, e in m if v not in touched)
            part = Polynomial({untouched: c}, _trusted=True)
            for v in touched:
                e = md.get(v, 0)
                if e:
                    part = part * num_pows[v][e]
                if max_exp[v] - e:
                    part = part * den_pows[v][max_exp[v] - e]
            acc = acc + part
        return RationalExpression(acc, common_den)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda it: _mono_key(it[0]))

    def to_obj(self) -> list[dict]:
        out = []
        for m, c in self.sorted_terms():
            out.append({"coeff": str(c), "exps": {v: e for v, e in m}})
        return out

    @staticmethod
    def from_obj(obj: list[dict]) -> "Polynomial":
        terms = {}
        for item in obj:
            mono = tuple(sorted(((v, int(e)) for v, e in item["exps"].items()),
                                key=lambda it: _rank(it[0])))
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


def _reduction_catalog() -> list[Polynomial]:
    one = Polynomial.constant(1)
    x, y, z, w, t = (Polynomial.variable(v) for v in "xyzwt")
    return [
        y - one,            # shifted fixed locus of the y pair
        w - t,              # time-shifted w denominator
        x - z,              # difference coupling denominator
        x * z - one,        # product coupling denominator
        z - one,            # shifted z denominator
        y + t,              # shifted y denominator
    ]


_CATALOG: Optional[list[Polynomial]] = None


def reduction_catalog() -> list[Polynomial]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _reduction_catalog()
    return _CATALOG


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
        ne = num.min_exponents()
        de = den.min_exponents()
        shared = {v: min(e, de[v]) for v, e in ne.items() if v in de}
        shared = {v: e for v, e in shared.items() if e > 0}
        if shared:
            num = num.strip_monomial(shared)
            den = den.strip_monomial(shared)
        # cancel cataloged binomial factors
        if len(den.terms) > 1:
            den_vars = den.variables()
            for f in reduction_catalog():
                if not f.variables() <= den_vars:
                    continue
                while True:
                    qd = den.exact_div(f)
                    if qd is None:
                        break
                    qn = num.exact_div(f)
                    if qn is None:
                        break
                    num, den = qn, qd
                    den_vars = den.variables()
                    if not f.variables() <= den_vars:
                        break
        # shared integer content; denominator leading coefficient positive
        cn = num.content()
        cd = den.content()
        if cn != 1 or cd != 1:
            ratio = Fraction(cn, cd)
            num = num.scale(Fraction(ratio.numerator, cn))
            den = den.scale(Fraction(ratio.denominator, cd))
        if den.leading()[1] < 0:
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
        could never remove."""
        touched = (self.num.variables() | self.den.variables()) & set(assignment)
        if not touched:
            return RationalExpression(self.num, self.den)
        max_exp = {v: 0 for v in touched}
        for poly in (self.num, self.den):
            for m in poly.terms:
                for v, e in m:
                    if v in max_exp and e > max_exp[v]:
                        max_exp[v] = e
        num_pows: dict[str, list[Polynomial]] = {}
        den_pows: dict[str, list[Polynomial]] = {}
        for v in touched:
            img = assignment[v]
            np_list = [Polynomial.constant(1)]
            dp_list = [Polynomial.constant(1)]
            for _ in range(max_exp[v]):
                np_list.append(np_list[-1] * img.num)
                dp_list.append(dp_list[-1] * img.den)
            num_pows[v] = np_list
            den_pows[v] = dp_list

        def cleared(poly: Polynomial) -> Polynomial:
            acc = Polynomial.zero()
            for m, c in poly.terms.items():
                md = dict(m)
                untouched = tuple((v, e) for v, e in m if v not in touched)
                part = Polynomial({untouched: c}, _trusted=True)
                for v in touched:
                    e = md.get(v, 0)
                    if e:
                        part = part * num_pows[v][e]
                    if max_exp[v] - e:
                        part = part * den_pows[v][max_exp[v] - e]
                acc = acc + part
            return acc

        new_num = cleared(self.num)
        new_den = cleared(self.den)
        if new_den.is_zero():
            raise DenominatorVanishes("substitution zeroes a denominator")
        for v in sorted(touched):
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
            raise DenominatorZeroAtPoint(f"denominator vanishes at {dict(point)!r}")
        return self.num.eval_exact(point) / dv

    def eval_complex(self, point: Mapping[str, complex]) -> complex:
        dv = self.den.eval_complex(point)
        if dv == 0:
            raise DenominatorZeroAtPoint("denominator vanishes at point")
        return self.num.eval_complex(point) / dv

    def variables(self) -> set[str]:
        return self.num.variables() | self.den.variables()

    def is_polynomial(self) -> bool:
        return self.den == Polynomial.constant(1)

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


def differentiate(f: RationalExpression, var: str) -> RationalExpression:
    return _as_re(f).diff(var)


def substitute(f: RationalExpression, assignment: Mapping[str, RationalExpression]) -> RationalExpression:
    return _as_re(f).substitute({k: _as_re(v) for k, v in assignment.items()})


def _require_poly(f) -> Polynomial:
    if isinstance(f, Polynomial):
        return f
    expr = _as_re(f)
    den = expr.den
    if den.variables():
        raise AlgebraError(f"not a polynomial: {f!r}")
    return expr.num.scale(Fraction(1, den.terms[()]))


def exact_divide(a, b) -> Optional[Polynomial]:
    return _require_poly(a).exact_div(_require_poly(b))


def equals(f, g) -> bool:
    return _as_re(f).equals(_as_re(g))


def evaluate(f, point: Mapping[str, Scalar]) -> Fraction:
    return _as_re(f).eval_exact(point)

"""Birational canonical maps: the symmetry generators of each family, the
maps between families, and the verdict machinery for symmetry, symplectic
and equivalence claims.

A map is one substitution, images, keyed by the target's phase
variables, t and parameters, each written in the source's quantities; its
affine action on the parameters is read off the parameter images, with the
kernel's coefficients.  Maps act on points: new = images(old).
Words of generators are applied leftmost first, which is the composition
convention that reproduces the published lattice translations; compose()
itself is ordinary function composition, outer after inner.

Each reflection is stated once, as its root (alpha, f): the parameter it
negates and its pole divisor.  Its phase images come from that pair,
u -> u + (alpha/f){u, f} (Noumi & Yamada 1998); its parameter action stays
typed, for the cartan rows to check.  The other generators carry no root.

Charts and the confluence are Changes: changes of variables with both
directions written out and checked against each other.  A vector field has
the shape of a map's images, a dict keyed by phase variable (see systems).
Change.transport carries a field across with pushforward_field, the one
chain rule, which reads the time image from the images it pushes:
images["t"], or t itself when the images leave time out.

Exact verdicts substitute the family normalization (the first parameter is
eliminated) and decide identities by cross-multiplication.  Symmetry and
equivalence rows also decide that the parameter images carry the target
normalization (ParameterVector.carried_residual).

Every random check in the package draws its points one way and samples
through the one resample loop here.  sample_residues draws uniformly from
F_p, p = PRIME = 2^61 - 1, name by name in a fixed order, and can set the
first parameter by the normalization's elimination mod p; sampled redraws
when a denominator vanishes and gives up after a fixed budget of draws.  A
claim that fails leaves a nonzero polynomial N of total degree D in the
drawn names (a residual's or a word displacement's numerator, once
denominators are cleared) that a good point must annul; a uniform point of
F_p (or of the normalization hyperplane, parametrized by the other
coordinates) is a zero of N with probability at most D/p (Schwartz 1980;
Zippel 1979), so a false claim passes one sample with probability at most
D/p.

The points are then evaluated one of two ways.  The random Coxeter checks
apply words of generators letter by letter in int arithmetic mod p
(apply_word_residues).  The symmetry, equivalence and holomorphy random
checks evaluate their already normalized expressions over Q at the drawn
integers (residuals with eval_exact, chart fields with substitute): the
benchmark's traced run expects eval_exact to fire in random mode, so
evaluation mod p waits for a change to the benchmark.  apply_point and
apply_word_point evaluate at exact rational points; painleve4d apply prints
those images.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Mapping, Optional, Sequence

from .algebra import (AlgebraError, DenominatorVanishes,
                      DenominatorZeroAtPoint, RationalExpression, Scalar,
                      format_point, rational, variable)
from .reports import VerificationReport, verdict
from .systems import ParameterVector, make_hamiltonian, phase_vars, total_derivative

PRIME = (1 << 61) - 1
DEFAULT_SAMPLES = 8
_RESAMPLE_TRIES = 64


class NonInvertibleTime(ValueError):
    """The time image has zero derivative and cannot reparametrize."""


class UnknownGenerator(KeyError):
    pass


@dataclass(frozen=True)
class BirationalMap:
    """A map from family to family_out.  images writes every quantity of
    the target, its phase variables, t and its parameters, in the source
    ones.  The parameter action, param_matrix and param_offset, is read off
    the parameter images in the kernel's coefficients, an int when
    integral; ValueError when it is not affine.  A reflection carries the
    root (alpha, f) its phase images are derived from (_reflection)."""

    label: str
    family: str
    family_out: str
    images: Mapping[str, RationalExpression]
    root: Optional[tuple[RationalExpression, RationalExpression]] = None
    param_matrix: tuple[tuple[Scalar, ...], ...] = field(init=False)
    param_offset: tuple[Scalar, ...] = field(init=False)

    def __post_init__(self):
        target = make_hamiltonian(self.family_out).params.symbols
        matrix, offset = _linear_action(
            make_hamiltonian(self.family).params.symbols,
            [self.images[s] for s in target])
        object.__setattr__(self, "param_matrix", matrix)
        object.__setattr__(self, "param_offset", offset)

    @property
    def var_images(self) -> dict[str, RationalExpression]:
        phase = make_hamiltonian(self.family_out).phase_vars()
        return {v: self.images[v] for v in phase}

    @property
    def time_image(self) -> RationalExpression:
        return self.images["t"]

    def apply_point(self, point: Mapping[str, Fraction]) -> dict[str, Fraction]:
        return {k: img.eval_exact(point) for k, img in self.images.items()}

    @cached_property
    def _moved_images(self) -> tuple[tuple[str, Optional[RationalExpression]], ...]:
        # images in order, with None where the image is the name itself
        return tuple(
            (k, None if img.equals(variable(k)) else img)
            for k, img in self.images.items())

    def apply_residues(self, point: Mapping[str, int]) -> dict[str, int]:
        """Image of a point of residues mod PRIME.  A coordinate the map
        does not move is copied from the point, not evaluated."""
        return {k: point[k] % PRIME if img is None else img.eval_mod(point, PRIME)
                for k, img in self._moved_images}

    def to_obj(self) -> dict:
        return {
            "label": self.label,
            "family": self.family,
            "family_out": self.family_out,
            "var_images": {v: e.to_obj() for v, e in sorted(self.var_images.items())},
            "time_image": self.time_image.to_obj(),
            "param_action": {
                "symbols_in": list(make_hamiltonian(self.family).params.symbols),
                "symbols_out": list(make_hamiltonian(self.family_out).params.symbols),
                "matrix": [[str(c) for c in row] for row in self.param_matrix],
                "offset": [str(c) for c in self.param_offset],
            },
        }


def _linear_action(symbols: Sequence[str], exprs: Sequence[RationalExpression]):
    matrix = []
    offset = []
    index = {s: i for i, s in enumerate(symbols)}
    for expr in exprs:
        if expr.den.variables():
            raise ValueError(f"parameter action is not polynomial: {expr!r}")
        ((_, den),) = expr.den.items()
        row = [0] * len(symbols)
        off = 0
        for mono, coeff in expr.num.scale(Fraction(1, den)).items():
            if mono == ():
                off = coeff
            elif len(mono) == 1 and mono[0][1] == 1 and mono[0][0] in index:
                row[index[mono[0][0]]] = coeff
            else:
                raise ValueError(f"parameter action is not affine: {expr!r}")
        matrix.append(tuple(row))
        offset.append(off)
    return tuple(matrix), tuple(offset)


_T = variable("t")


def _mk(family: str, label: str, images: dict[str, RationalExpression],
        params: Sequence[RationalExpression], time_image: RationalExpression = _T,
        family_out: Optional[str] = None,
        root: Optional[tuple[RationalExpression, RationalExpression]] = None
        ) -> BirationalMap:
    out_family = family_out or family
    target = make_hamiltonian(out_family)
    full = {v: images.get(v, variable(v)) for v in target.phase_vars()}
    full["t"] = time_image
    full.update(zip(target.params.symbols, params))
    return BirationalMap(label=label, family=family, family_out=out_family,
                         images=full, root=root)


def _reflection(family: str, label: str, alpha: RationalExpression,
                f: RationalExpression, params) -> BirationalMap:
    """The reflection with root (alpha, f): on each canonical pair (q, p),
    q gains alpha*df/dp/f and p loses alpha*df/dq/f."""
    images = {}
    for q, p in make_hamiltonian(family).pairs:
        for v, shift in ((q, f.diff(p)), (p, -f.diff(q))):
            if not shift.is_zero():
                images[v] = variable(v) + alpha * shift / f
    return _mk(family, label, images, params, root=(alpha, f))


@cache
def _generators() -> dict[str, dict[str, BirationalMap]]:
    x, y, z, w, t = (variable(v) for v in "xyzwt")
    a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))
    b0, b1, b2, b3, b4, b5 = (variable(f"b{i}") for i in range(6))
    q, p = variable("q"), variable("p")
    g0, g1, g2 = (variable(f"g{i}") for i in range(3))

    cat: dict[str, dict[str, BirationalMap]] = {}

    cat["d4"] = {
        "s0": _reflection("d4", "s0", a0, y - 1, [-a0, a1, a2 + a0, a3, a4]),
        "s1": _reflection("d4", "s1", a1, y, [a0, -a1, a2 + a1, a3, a4]),
        "s2": _reflection("d4", "s2", a2, x * z - 1,
                          [a0 + a2, a1 + a2, -a2, a3 + a2, a4 + a2]),
        "s3": _reflection("d4", "s3", a3, w, [a0, a1, a2 + a3, -a3, a4]),
        "s4": _reflection("d4", "s4", a4, w - t, [a0, a1, a2 + a4, a3, -a4]),
        "pi1": _mk("d4", "pi1", {"x": -x, "y": 1 - y, "z": -z, "w": -w},
                   [a1, a0, a2, a3, a4], time_image=-t),
        "pi2": _mk("d4", "pi2", {"w": w - t},
                   [a0, a1, a2, a4, a3], time_image=-t),
        "pi3": _mk("d4", "pi3", {"x": t * z, "y": w / t, "z": x / t, "w": t * y},
                   [a4, a3, a2, a1, a0]),
        "pi4": _mk("d4", "pi4", {"x": -t * z, "y": (t - w) / t,
                                 "z": -x / t, "w": t - t * y},
                   [a3, a4, a2, a0, a1]),
    }

    cat["b4f"] = {
        "s0": _mk("b4f", "s0", {"x": -x, "y": -y + 2 * a0 / x - 1 / x ** 2,
                                "z": -z, "w": -w},
                  [-a0, a1 + 2 * a0, a2, a3, a4], time_image=-t),
        "s1": _reflection("b4f", "s1", a1, y, [a0 + a1, -a1, a2 + a1, a3, a4]),
        "s2": _reflection("b4f", "s2", a2, x - z,
                          [a0, a1 + a2, -a2, a3 + a2, a4 + a2]),
        "s3": _reflection("b4f", "s3", a3, w, [a0, a1, a2 + a3, -a3, a4]),
        "s4": _reflection("b4f", "s4", a4, w - t, [a0, a1, a2 + a4, a3, -a4]),
        "phi": _mk("b4f", "phi", {"w": w - t},
                   [a0, a1, a2, a4, a3], time_image=-t),
    }

    cat["b4s"] = {
        "s0": _reflection("b4s", "s0", a0, y - 1, [-a0, a1, a2 + a0, a3, a4]),
        "s1": _reflection("b4s", "s1", a1, y, [a0, -a1, a2 + a1, a3, a4]),
        "s2": _reflection("b4s", "s2", a2, x - z,
                          [a0 + a2, a1 + a2, -a2, a3 + a2, a4]),
        "s3": _reflection("b4s", "s3", a3, w, [a0, a1, a2 + a3, -a3, a4 + a3]),
        # the t-shear, its own chart r4, has z under its linear term: the
        # printed source once shows w, which is not canonical ({z', w'}
        # gains 2*a4/w^2), so chart construction would refuse it
        "s4": _mk("b4s", "s4", {"w": w - 2 * a4 / z + t / z ** 2},
                  [a0, a1, a2, a3 + 2 * a4, -a4], time_image=-t),
        "phi": _mk("b4s", "phi", {"x": -x, "y": 1 - y, "z": -z, "w": -w},
                   [a1, a0, a2, a3, a4], time_image=-t),
    }

    cat["d52"] = {
        "s0": _mk("d52", "s0", {"x": -x, "y": -y + 2 * a0 / x - 1 / x ** 2,
                                "z": -z, "w": -w},
                  [-a0, a1 + 2 * a0, a2, a3, a4], time_image=-t),
        "s1": _reflection("d52", "s1", a1, y, [a0 + a1, -a1, a2 + a1, a3, a4]),
        "s2": _reflection("d52", "s2", a2, x * z - 1,
                          [a0, a1 + a2, -a2, a3 + a2, a4]),
        "s3": _reflection("d52", "s3", a3, w, [a0, a1, a2 + a3, -a3, a4 + a3]),
        # the t-shear with z under its linear term, as b4s/s4
        "s4": _mk("d52", "s4", {"w": w - 2 * a4 / z + t / z ** 2},
                  [a0, a1, a2, a3 + 2 * a4, -a4], time_image=-t),
        "psi": _mk("d52", "psi", {"x": z / t, "y": t * w, "z": t * x, "w": y / t},
                   [a4, a3, a2, a1, a0]),
    }

    cat["d51"] = {
        "w0": _reflection("d51", "w0", b0, y + t, [-b0, b1, b2 + b0, b3, b4, b5]),
        "w1": _reflection("d51", "w1", b1, y, [b0, -b1, b2 + b1, b3, b4, b5]),
        "w2": _reflection("d51", "w2", b2, x - z,
                          [b0 + b2, b1 + b2, -b2, b3 + b2, b4, b5]),
        "w3": _reflection("d51", "w3", b3, w,
                          [b0, b1, b2 + b3, -b3, b4 + b3, b5 + b3]),
        "w4": _reflection("d51", "w4", b4, z - 1, [b0, b1, b2, b3 + b4, -b4, b5]),
        "w5": _reflection("d51", "w5", b5, z, [b0, b1, b2, b3 + b5, b4, -b5]),
    }

    # Alternative reflection set acting on the d4 phase space; differs from
    # s0..s4 only in the second reflection, whose divisor is x - z.
    d4 = cat["d4"]
    cat["d4alt"] = {
        "w0": replace(d4["s0"], label="w0"),
        "w1": replace(d4["s1"], label="w1"),
        "w2": _reflection("d4", "w2", a2, x - z,
                          [a0 + a2, a1 + a2, -a2, a3 + a2, a4 + a2]),
        "w3": replace(d4["s3"], label="w3"),
        "w4": replace(d4["s4"], label="w4"),
    }

    half = rational(Fraction(1, 2))
    cat["maps"] = {
        "p3-to-p3t": _mk("p3", "p3-to-p3t",
                         {"q": 1 / q, "p": -q * (q * p + g0)},
                         [g0, g1, g2], family_out="p3t"),
        "d4-to-b4f": _mk("d4", "d4-to-b4f",
                         {"x": 1 / x, "y": -(x * y + a1) * x},
                         [(a0 - a1) * half, a1, a2, a3, a4], family_out="b4f"),
        "d4-to-b4s": _mk("d4", "d4-to-b4s",
                         {"z": 1 / z, "w": -(z * w + a3) * z},
                         [a0, a1, a2, a3, (a4 - a3) * half], family_out="b4s"),
        "d4-to-d52": _mk("d4", "d4-to-d52",
                         {"x": 1 / x, "y": -(x * y + a1) * x,
                          "z": 1 / z, "w": -(z * w + a3) * z},
                         [(a0 - a1) * half, a1, a2, a3, (a4 - a3) * half],
                         family_out="d52"),
        "b4f-to-b4s": _mk("b4f", "b4f-to-b4s",
                          {"x": 1 / x, "y": -(x * y + a1) * x,
                           "z": 1 / z, "w": -(z * w + a3) * z},
                          [2 * a0 + a1, a1, a2, a3, (a4 - a3) * half],
                          family_out="b4s"),
    }
    return cat


def generator(family: str, label: str) -> BirationalMap:
    try:
        return _generators()[family][label]
    except KeyError:
        raise UnknownGenerator(f"{family}/{label}") from None


def generator_labels(family: str) -> tuple[str, ...]:
    try:
        return tuple(_generators()[family])
    except KeyError:
        raise UnknownGenerator(family) from None


def equivalence_map(label: str) -> BirationalMap:
    return generator("maps", label)


def identity_map(family: str) -> BirationalMap:
    syms = make_hamiltonian(family).params.symbols
    return _mk(family, "id", {}, [variable(s) for s in syms])


def compose(outer: BirationalMap, inner: BirationalMap) -> BirationalMap:
    """Function composition: the inner map is applied first."""
    if outer.family != inner.family_out:
        raise ValueError(f"cannot compose {outer.label} after {inner.label}: "
                         f"{inner.family_out} != {outer.family}")
    return BirationalMap(
        label=f"{outer.label}*{inner.label}",
        family=inner.family, family_out=outer.family_out,
        images={k: img.substitute(inner.images) for k, img in outer.images.items()})


def word(family: str, labels: Sequence[str]) -> BirationalMap:
    """Compose a word of generators, leftmost applied first."""
    if not labels:
        return identity_map(family)
    maps = [generator(family, lab) for lab in labels]
    total = maps[0]
    for m in maps[1:]:
        total = compose(m, total)
    return replace(total, label=" ".join(labels))


def apply_word_point(family: str, labels: Sequence[str],
                     point: Mapping[str, Fraction]) -> dict[str, Fraction]:
    current = dict(point)
    for lab in labels:
        current = generator(family, lab).apply_point(current)
    return current


def apply_word_residues(family: str, labels: Sequence[str],
                        point: Mapping[str, int]) -> dict[str, int]:
    current = dict(point)
    for lab in labels:
        current = generator(family, lab).apply_residues(current)
    return current


def pushforward_field(images: Mapping[str, RationalExpression],
                      field: Mapping[str, RationalExpression]
                      ) -> dict[str, RationalExpression]:
    """The chain rule: for each phase variable v of the field, the
    derivative of images[v] along the field with respect to the image time
    images.get("t", t), written in source coordinates."""
    time_image = images.get("t", _T)
    tprime = time_image.diff("t")
    if tprime.is_zero():
        raise NonInvertibleTime(f"time image {time_image!r} is not invertible")
    return {v: total_derivative(images[v], field) / tprime for v in field}


def sample_residues(rng: random.Random, names: Sequence[str],
                    params: Optional[ParameterVector] = None) -> dict[str, int]:
    """Seeded uniform residues mod PRIME, drawn name by name in the given
    order.  With a parameter vector, the first parameter is then the
    normalization's eliminate_first expression evaluated mod PRIME."""
    point = {n: rng.randrange(PRIME) for n in names}
    if params is not None:
        point.update({s: e.eval_mod(point, PRIME)
                      for s, e in params.eliminate_first().items()})
    return point


def sampled(rng: random.Random, samples: int,
            draw: Callable[[random.Random], dict[str, Scalar]],
            trial: Callable[[dict[str, Scalar]], Optional[str]]
            ) -> Optional[str]:
    """The resample loop of every random check: run trial on points from
    draw(rng) until samples of them were non-singular, redrawing whenever a
    denominator vanishes.  trial returns None on a good point and a witness
    on a bad one.  Returns the first witness, or None when every point was
    good."""
    done = 0
    tries = 0
    while done < samples:
        if tries > _RESAMPLE_TRIES + samples:
            return "could not find enough non-singular sample points"
        tries += 1
        point = draw(rng)
        try:
            witness = trial(point)
        except (DenominatorZeroAtPoint, DenominatorVanishes, ZeroDivisionError):
            continue
        if witness is not None:
            return witness
        done += 1
    return None


def residuals_vanish_random(residuals: Sequence[RationalExpression],
                            seed: int, samples: int) -> Optional[str]:
    """Evaluate residuals at seeded points of F_p, over Q.  Returns the
    first nonzero value found, with its point, or None when all vanish."""
    names = sorted(set().union(*[r.variables() for r in residuals])) if residuals else []

    def trial(point):
        for r in residuals:
            value = r.eval_exact(point)
            if value != 0:
                return f"nonzero residual {value} at {format_point(point)}"
        return None

    return sampled(random.Random(seed), samples,
                   lambda rng: sample_residues(rng, names), trial)


def symmetry_residuals(m: BirationalMap) -> list[RationalExpression]:
    """Residuals of the symmetry condition: pushforward of the field minus
    the field at transformed variables and parameters, normalization applied,
    then the carried normalization, which alone reads the image of a2 (b0)."""
    system = make_hamiltonian(m.family)
    target = make_hamiltonian(m.family_out)
    field = system.vector_field()
    target_field = target.vector_field()
    pushed = pushforward_field(m.images, field)
    out = []
    for v in field:
        rhs = target_field[v].substitute(m.images)
        out.append(system.params.normalize(pushed[v] - rhs))
    out.append(target.params.carried_residual(m.images, system.params))
    return out


def _residual_verdict(name: str,
                      residuals: Callable[[], list[RationalExpression]],
                      mode: str, seed: int, samples: int) -> VerificationReport:
    """The row deciding that every residual vanishes: each one exactly, or
    all at seeded points of F_p in random mode."""
    def decide():
        if mode != "exact":
            return residuals_vanish_random(residuals(), seed, samples)
        bad = next((r for r in residuals() if not r.is_zero()), None)
        return None if bad is None else repr(bad)

    return verdict(name, mode, decide, NonInvertibleTime,
                   seed=seed, samples=samples)


def verify_symmetry(m: BirationalMap, mode: str = "exact", seed: int = 0,
                    samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    return _residual_verdict(f"symmetry/{m.family}/{m.label}",
                             lambda: symmetry_residuals(m),
                             mode, seed, samples)


def poisson_bracket(f: RationalExpression, g: RationalExpression,
                    pairs: Sequence[tuple[str, str]]) -> RationalExpression:
    total = rational(0)
    for u, v in pairs:
        total = total + f.diff(u) * g.diff(v) - f.diff(v) * g.diff(u)
    return total


def bracket_defects(images: Mapping[str, RationalExpression],
                    pairs: Sequence[tuple[str, str]]) -> list[str]:
    """The canonical bracket relations the images break, as "{a',b'} = ..."
    for each pair of phase variables a before b whose bracket is not 1 on a
    canonical pair and 0 otherwise."""
    phase = phase_vars(pairs)
    bad = []
    for i, a in enumerate(phase):
        for b in phase[i + 1:]:
            br = poisson_bracket(images[a], images[b], pairs)
            if not br.equals(rational(1 if (a, b) in pairs else 0)):
                bad.append(f"{{{a}',{b}'}} = {br!r}")
    return bad


class BrokenChange(AlgebraError):
    """A change of variables whose two sides do not undo each other, or that
    breaks what its kind must keep: a chart's canonical brackets, the
    confluence's parameter normalizations."""


@dataclass(frozen=True, eq=False)
class Change:
    """A change of variables.  `forward` writes each new quantity in the old
    ones, `inverse` each old quantity in the new ones; new quantities keep
    the old names, so each direction is one simultaneous substitution.
    Construction checks that each side undoes the other on every key of
    both sides.  Compares and hashes by identity."""

    forward: Mapping[str, RationalExpression]
    inverse: Mapping[str, RationalExpression]

    def __post_init__(self):
        for side, other in ((self.forward, self.inverse),
                            (self.inverse, self.forward)):
            for k, expr in side.items():
                if not expr.substitute(other).equals(variable(k)):
                    raise BrokenChange(f"inverse fails on {k}")

    def transport(self, field: Mapping[str, RationalExpression]
                  ) -> dict[str, RationalExpression]:
        """The field in the new quantities: pushforward_field through the
        forward images, then one substitution of the inverse."""
        return {v: rhs.substitute(self.inverse)
                for v, rhs in pushforward_field(self.forward, field).items()}


def verify_symplectic(m: BirationalMap) -> VerificationReport:
    """Canonical bracket relations of the variable images at fixed time."""
    return verdict(f"symplectic/{m.label}", "exact", lambda: "; ".join(
        bracket_defects(m.var_images, make_hamiltonian(m.family).pairs)) or None)


def equivalence_residuals(m: BirationalMap) -> list[RationalExpression]:
    """Symmetry residuals, then Hamiltonian-difference gradient residuals."""
    source = make_hamiltonian(m.family)
    target = make_hamiltonian(m.family_out)
    diff = target.hamiltonian.substitute(m.images) - source.hamiltonian
    grad_res = [source.params.normalize(diff.diff(v)) for v in source.phase_vars()]
    return symmetry_residuals(m) + grad_res


def verify_equivalence(m: BirationalMap, mode: str = "exact", seed: int = 0,
                       samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    return _residual_verdict(f"equivalence/{m.label}",
                             lambda: equivalence_residuals(m),
                             mode, seed, samples)


def maps_equal_exact(m1: BirationalMap, m2: BirationalMap) -> Optional[str]:
    """Equality of two maps on variables, time and parameters, modulo the
    normalization of the first map's family on the variable and time side;
    the parameter actions must be equal.  Returns a witness naming the
    first image that differs, or None when the maps are equal."""
    params = make_hamiltonian(m1.family).params
    images2 = m2.var_images
    for v, img in m1.var_images.items():
        delta = params.normalize(img - images2[v])
        if not delta.is_zero():
            return f"images of {v} differ: {delta!r}"
    if not params.normalize(m1.time_image - m2.time_image).is_zero():
        return "time images differ"
    if m1.param_matrix != m2.param_matrix or m1.param_offset != m2.param_offset:
        return "parameter actions differ"
    return None

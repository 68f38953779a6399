"""Birational canonical maps: the symmetry generators of each family, the
maps between families, and the verdict machinery for symmetry, symplectic
and equivalence claims.

A map carries images for every phase variable, an image for time, and a
linear action on the parameters.  Maps act on points: new = images(old).
Words of generators are applied leftmost first, which is the composition
convention that reproduces the published lattice translations; compose()
itself is ordinary function composition, outer after inner.

Charts and the confluence are Changes: changes of variables with both
directions written out and checked against each other.  Change.transport
carries a field across with pushforward_field, the one chain rule.

Exact verdicts substitute the family normalization (the first parameter is
eliminated) and decide identities by cross-multiplication.

Every random check in the package samples through the one resample loop
here, sampled, which redraws when a denominator vanishes and gives up after
a fixed budget of draws.  Points come from one of two draws, each taking
values name by name in a fixed order:

- sample_residues draws uniformly from F_p, p = PRIME = 2^61 - 1, and can
  solve the first parameter from a normalization mod p.  Words of
  generators are applied to such points letter by letter in int arithmetic
  (apply_word_residues); the random Coxeter checks use it.  A relation word
  that is not the identity moves a point with a nonzero displacement
  numerator N of total degree D, once denominators are cleared; a uniform
  point of F_p (or of the normalization hyperplane, parametrized by the
  other coordinates) is a zero of N with probability at most D/p
  (Schwartz 1980; Zippel 1979), so a false relation passes one sample with
  probability at most D/p.
- sample_point draws rationals n/d, |n| <= 1000, 1 <= d <= 1000.  The
  symmetry, equivalence and holomorphy random checks still sample over Q:
  they evaluate symbolic residuals with eval_exact, and the benchmark's
  traced run expects that span to fire in random mode, so pointwise
  symmetry mod p waits for a change to the benchmark.  apply_point and
  apply_word_point evaluate at exact rational points; painleve4d apply
  prints those images.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Mapping, Optional, Sequence

from .algebra import (AlgebraError, DenominatorVanishes,
                      DenominatorZeroAtPoint, RationalExpression, Scalar,
                      format_point, rational, residue, variable)
from .reports import VerificationReport, clip_witness, report
from .systems import (FieldComponents, ParameterVector, make_hamiltonian,
                      total_derivative)

SAMPLE_BOUND = 1000
PRIME = (1 << 61) - 1
DEFAULT_SAMPLES = 8
_RESAMPLE_TRIES = 64


class NonInvertibleTime(ValueError):
    """The time image has zero derivative and cannot reparametrize."""


class UnknownGenerator(KeyError):
    pass


@dataclass(frozen=True)
class BirationalMap:
    label: str
    family: str
    family_out: str
    var_images: Mapping[str, RationalExpression]
    time_image: RationalExpression
    param_symbols: tuple[str, ...]
    param_symbols_out: tuple[str, ...]
    param_images: tuple[RationalExpression, ...]
    param_matrix: tuple[tuple[Fraction, ...], ...]
    param_offset: tuple[Fraction, ...]

    def substitution(self) -> dict[str, RationalExpression]:
        """Old-to-new substitution dictionary covering variables, time
        and parameters, suitable for composing expressions with this map."""
        out = dict(self.var_images)
        out["t"] = self.time_image
        for sym, img in zip(self.param_symbols_out, self.param_images):
            out[sym] = img
        return out

    def apply_point(self, point: Mapping[str, Fraction]) -> dict[str, Fraction]:
        return {k: img.eval_exact(point) for k, img in self.substitution().items()}

    @cached_property
    def _moved_images(self) -> tuple[tuple[str, Optional[RationalExpression]], ...]:
        # substitution() in order, with None where the image is the name itself
        return tuple(
            (k, None if img.equals(variable(k)) else img)
            for k, img in self.substitution().items())

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
                "symbols_in": list(self.param_symbols),
                "symbols_out": list(self.param_symbols_out),
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
        scale = Fraction(1, den)
        row = [Fraction(0)] * len(symbols)
        off = Fraction(0)
        for mono, coeff in expr.num.items():
            if mono == ():
                off = coeff * scale
            elif len(mono) == 1 and mono[0][1] == 1 and mono[0][0] in index:
                row[index[mono[0][0]]] = coeff * scale
            else:
                raise ValueError(f"parameter action is not affine: {expr!r}")
        matrix.append(tuple(row))
        offset.append(off)
    return tuple(matrix), tuple(offset)


_T = variable("t")


def _mk(family: str, label: str, images: dict[str, RationalExpression],
        params: Sequence[RationalExpression], time_image: RationalExpression = _T,
        family_out: Optional[str] = None) -> BirationalMap:
    system = make_hamiltonian(family)
    out_family = family_out or family
    syms_out = make_hamiltonian(out_family).params.symbols
    full = {v: images.get(v, variable(v)) for v in system.phase_vars()}
    matrix, offset = _linear_action(system.params.symbols, params)
    return BirationalMap(
        label=label, family=family, family_out=out_family,
        var_images=full, time_image=time_image,
        param_symbols=system.params.symbols, param_symbols_out=syms_out,
        param_images=tuple(params), param_matrix=matrix, param_offset=offset)


@cache
def _generators() -> dict[str, dict[str, BirationalMap]]:
    x, y, z, w, t = (variable(v) for v in "xyzwt")
    a0, a1, a2, a3, a4 = (variable(f"a{i}") for i in range(5))
    b0, b1, b2, b3, b4, b5 = (variable(f"b{i}") for i in range(6))
    q, p = variable("q"), variable("p")
    g0, g1, g2 = (variable(f"g{i}") for i in range(3))

    cat: dict[str, dict[str, BirationalMap]] = {}

    cat["d4"] = {
        "s0": _mk("d4", "s0", {"x": x + a0 / (y - 1)},
                  [-a0, a1, a2 + a0, a3, a4]),
        "s1": _mk("d4", "s1", {"x": x + a1 / y},
                  [a0, -a1, a2 + a1, a3, a4]),
        "s2": _mk("d4", "s2", {"y": y - a2 * z / (x * z - 1),
                               "w": w - a2 * x / (x * z - 1)},
                  [a0 + a2, a1 + a2, -a2, a3 + a2, a4 + a2]),
        "s3": _mk("d4", "s3", {"z": z + a3 / w},
                  [a0, a1, a2 + a3, -a3, a4]),
        "s4": _mk("d4", "s4", {"z": z + a4 / (w - t)},
                  [a0, a1, a2 + a4, a3, -a4]),
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
        "s1": _mk("b4f", "s1", {"x": x + a1 / y},
                  [a0 + a1, -a1, a2 + a1, a3, a4]),
        "s2": _mk("b4f", "s2", {"y": y - a2 / (x - z), "w": w + a2 / (x - z)},
                  [a0, a1 + a2, -a2, a3 + a2, a4 + a2]),
        "s3": _mk("b4f", "s3", {"z": z + a3 / w},
                  [a0, a1, a2 + a3, -a3, a4]),
        "s4": _mk("b4f", "s4", {"z": z + a4 / (w - t)},
                  [a0, a1, a2 + a4, a3, -a4]),
        "phi": _mk("b4f", "phi", {"w": w - t},
                   [a0, a1, a2, a4, a3], time_image=-t),
    }

    cat["b4s"] = {
        "s0": _mk("b4s", "s0", {"x": x + a0 / (y - 1)},
                  [-a0, a1, a2 + a0, a3, a4]),
        "s1": _mk("b4s", "s1", {"x": x + a1 / y},
                  [a0, -a1, a2 + a1, a3, a4]),
        "s2": _mk("b4s", "s2", {"y": y - a2 / (x - z), "w": w + a2 / (x - z)},
                  [a0 + a2, a1 + a2, -a2, a3 + a2, a4]),
        "s3": _mk("b4s", "s3", {"z": z + a3 / w},
                  [a0, a1, a2 + a3, -a3, a4 + a3]),
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
        "s1": _mk("d52", "s1", {"x": x + a1 / y},
                  [a0 + a1, -a1, a2 + a1, a3, a4]),
        "s2": _mk("d52", "s2", {"y": y - a2 * z / (x * z - 1),
                                "w": w - a2 * x / (x * z - 1)},
                  [a0, a1 + a2, -a2, a3 + a2, a4]),
        "s3": _mk("d52", "s3", {"z": z + a3 / w},
                  [a0, a1, a2 + a3, -a3, a4 + a3]),
        # the t-shear with z under its linear term, as b4s/s4
        "s4": _mk("d52", "s4", {"w": w - 2 * a4 / z + t / z ** 2},
                  [a0, a1, a2, a3 + 2 * a4, -a4], time_image=-t),
        "psi": _mk("d52", "psi", {"x": z / t, "y": t * w, "z": t * x, "w": y / t},
                   [a4, a3, a2, a1, a0]),
    }

    cat["d51"] = {
        "w0": _mk("d51", "w0", {"x": x + b0 / (y + t)},
                  [-b0, b1, b2 + b0, b3, b4, b5]),
        "w1": _mk("d51", "w1", {"x": x + b1 / y},
                  [b0, -b1, b2 + b1, b3, b4, b5]),
        "w2": _mk("d51", "w2", {"y": y - b2 / (x - z), "w": w + b2 / (x - z)},
                  [b0 + b2, b1 + b2, -b2, b3 + b2, b4, b5]),
        "w3": _mk("d51", "w3", {"z": z + b3 / w},
                  [b0, b1, b2 + b3, -b3, b4 + b3, b5 + b3]),
        "w4": _mk("d51", "w4", {"w": w - b4 / (z - 1)},
                  [b0, b1, b2, b3 + b4, -b4, b5]),
        "w5": _mk("d51", "w5", {"w": w - b5 / z},
                  [b0, b1, b2, b3 + b5, b4, -b5]),
    }

    # Alternative reflection set acting on the d4 phase space; differs from
    # s0..s4 only in the second reflection, whose denominator is x - z.
    d4 = cat["d4"]
    cat["d4alt"] = {
        "w0": replace(d4["s0"], label="w0"),
        "w1": replace(d4["s1"], label="w1"),
        "w2": _mk("d4", "w2", {"y": y - a2 / (x - z), "w": w + a2 / (x - z)},
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
    subs = inner.substitution()
    new_images = {v: img.substitute(subs) for v, img in outer.var_images.items()}
    new_time = outer.time_image.substitute(subs)
    new_param_images = tuple(img.substitute(subs) for img in outer.param_images)
    matrix, offset = _linear_action(inner.param_symbols, new_param_images)
    return BirationalMap(
        label=f"{outer.label}*{inner.label}",
        family=inner.family, family_out=outer.family_out,
        var_images=new_images, time_image=new_time,
        param_symbols=inner.param_symbols,
        param_symbols_out=outer.param_symbols_out,
        param_images=new_param_images, param_matrix=matrix, param_offset=offset)


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
                      field: FieldComponents,
                      time_image: RationalExpression) -> FieldComponents:
    """The chain rule: derivatives of the images with respect to the image
    time, written in source coordinates."""
    tprime = time_image.diff("t")
    if tprime.is_zero():
        raise NonInvertibleTime(repr(time_image))
    comps = {v: total_derivative(img, field) / tprime
             for v, img in images.items()}
    return FieldComponents(order=field.order, components=comps, time=field.time)


def sample_point(rng: random.Random, names: Sequence[str]) -> dict[str, Fraction]:
    """Seeded rational values n/d, |n| <= SAMPLE_BOUND, 1 <= d <= SAMPLE_BOUND,
    drawn name by name in the given order."""
    return {n: Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND),
                        rng.randint(1, SAMPLE_BOUND)) for n in names}


def sample_residues(rng: random.Random, names: Sequence[str],
                    params: Optional[ParameterVector] = None) -> dict[str, int]:
    """Seeded uniform residues mod PRIME, drawn name by name in the given
    order.  With a parameter vector, the first parameter is then solved
    from the normalization mod PRIME."""
    point = {n: rng.randrange(PRIME) for n in names}
    if params is not None and params.constraint_coeffs is not None:
        first = params.symbols[0]
        solved = point[first] - (params.constraint_residual(point)
                                 / params.constraint_coeffs[0])
        point[first] = residue(solved, PRIME)
    return point


def sampled(rng: random.Random, samples: int,
            draw: Callable[[random.Random], dict[str, Scalar]],
            trial: Callable[[dict[str, Scalar]], Optional[str]]
            ) -> tuple[bool, Optional[str]]:
    """The resample loop of every random check: run trial on points from
    draw(rng) until samples of them were non-singular, redrawing whenever a
    denominator vanishes.  trial returns None on a good point and a witness
    on a bad one.  Returns (all good, witness)."""
    done = 0
    tries = 0
    while done < samples:
        if tries > _RESAMPLE_TRIES + samples:
            return False, "could not find enough non-singular sample points"
        tries += 1
        point = draw(rng)
        try:
            witness = trial(point)
        except (DenominatorZeroAtPoint, DenominatorVanishes, ZeroDivisionError):
            continue
        if witness is not None:
            return False, witness
        done += 1
    return True, None


def residuals_vanish_random(residuals: Sequence[RationalExpression],
                            seed: int, samples: int) -> tuple[bool, Optional[str]]:
    """Evaluate residuals at seeded rational points.  Returns (all zero,
    witness)."""
    names = sorted(set().union(*[r.variables() for r in residuals])) if residuals else []

    def trial(point):
        for r in residuals:
            value = r.eval_exact(point)
            if value != 0:
                return f"nonzero residual {value} at {format_point(point)}"
        return None

    return sampled(random.Random(seed), samples,
                   lambda rng: sample_point(rng, names), trial)


def symmetry_residuals(m: BirationalMap) -> list[RationalExpression]:
    """Residuals of the symmetry condition: pushforward of the field minus
    the field at transformed variables and parameters, normalization applied."""
    system = make_hamiltonian(m.family)
    field = system.vector_field()
    target_field = make_hamiltonian(m.family_out).vector_field()
    pushed = pushforward_field(m.var_images, field, m.time_image)
    subs = m.substitution()
    out = []
    for v in field.order:
        rhs = target_field[v].substitute(subs)
        out.append(system.params.normalize(pushed[v] - rhs))
    return out


def _residual_verdict(name: str, family: str,
                      residuals: Sequence[RationalExpression], mode: str,
                      seed: int, samples: int, start: float) -> VerificationReport:
    if mode == "exact":
        bad = [r for r in residuals if not r.is_zero()]
        return report(name, not bad, "exact", family=family,
                      witness=clip_witness(repr(bad[0])) if bad else None,
                      started=start)
    ok, witness = residuals_vanish_random(residuals, seed, samples)
    return report(name, ok, "random", family=family, witness=witness,
                  seed=seed, samples=samples, started=start)


def verify_symmetry(m: BirationalMap, mode: str = "exact", seed: int = 0,
                    samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    start = time.monotonic()
    name = f"symmetry/{m.family}/{m.label}"
    try:
        residuals = symmetry_residuals(m)
    except NonInvertibleTime:
        return report(name, False, mode, family=m.family,
                      witness="time image is not invertible", started=start)
    return _residual_verdict(name, m.family, residuals, mode, seed, samples, start)


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
    phase = [v for pair in pairs for v in pair]
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

    def transport(self, field: FieldComponents) -> FieldComponents:
        """The field in the new quantities: pushforward_field through the
        forward images, with time image forward["t"] when t changes, then
        one substitution of the inverse."""
        pushed = pushforward_field({v: self.forward[v] for v in field.order},
                                   field, self.forward.get("t", _T))
        return FieldComponents(
            order=field.order, time=field.time,
            components={v: pushed[v].substitute(self.inverse)
                        for v in field.order})


def verify_symplectic(m: BirationalMap) -> VerificationReport:
    """Canonical bracket relations of the variable images at fixed time."""
    start = time.monotonic()
    bad = bracket_defects(m.var_images, make_hamiltonian(m.family).pairs)
    name = f"symplectic/{m.label}"
    return report(name, not bad, "exact", family=m.family,
                  witness=clip_witness("; ".join(bad)) if bad else None,
                  started=start)


def equivalence_residuals(m: BirationalMap) -> tuple[list[RationalExpression],
                                                     list[RationalExpression]]:
    """Field residuals and Hamiltonian-difference gradient residuals."""
    source = make_hamiltonian(m.family)
    target = make_hamiltonian(m.family_out)
    diff = target.hamiltonian.substitute(m.substitution()) - source.hamiltonian
    grad_res = [source.params.normalize(diff.diff(v)) for v in source.phase_vars()]
    return symmetry_residuals(m), grad_res


def verify_equivalence(m: BirationalMap, mode: str = "exact", seed: int = 0,
                       samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    start = time.monotonic()
    field_res, grad_res = equivalence_residuals(m)
    return _residual_verdict(f"equivalence/{m.label}", m.family,
                             field_res + grad_res, mode, seed, samples, start)


def maps_equal_exact(m1: BirationalMap,
                     m2: BirationalMap) -> tuple[bool, Optional[str]]:
    """Equality of two maps on variables, time and parameters, modulo the
    normalization of the first map's family on the variable side."""
    params = make_hamiltonian(m1.family).params
    if m1.param_matrix != m2.param_matrix or m1.param_offset != m2.param_offset:
        return False, "parameter actions differ"
    if not params.normalize(m1.time_image - m2.time_image).is_zero():
        return False, "time images differ"
    for v in m1.var_images:
        delta = params.normalize(m1.var_images[v] - m2.var_images[v])
        if not delta.is_zero():
            return False, f"images of {v} differ: {clip_witness(repr(delta))}"
    return True, None

"""Coxeter presentations read off the generator parameter actions, relation
suites for every family, and the lattice translations.

The Cartan matrix is not transcribed from any diagram: column i is read off
the parameter matrix M of the i-th reflection, a_ji = -M[j][i] and a_ii = 2,
and M must be I - a e_i^T with no offset and integral a, nonpositive off the
diagonal.  The derived matrices are then compared against hard-coded
standard affine tables, so the catalog and the tables validate each other;
they and the translation matrices are built once, by the first row that
reads them.

Relation checks run in two modes.  Exact mode composes the full word
symbolically and compares with the identity modulo the family normalization.
Random mode draws its points on the parameter normalization with the draw
every random row shares (transforms.sample_residues, whose D/p bound
transforms states), drives them through the word letter by letter in int
arithmetic mod p (transforms.apply_word_residues) and compares residues;
the witness of a failure is the displacement of each moved coordinate,
reduced mod p.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from functools import cache, reduce
from typing import Optional, Sequence

from .algebra import format_point, variable
from .reports import VerificationReport, verdict
from .systems import make_hamiltonian
from .transforms import (DEFAULT_SAMPLES, PRIME, BirationalMap,
                         apply_word_residues, compose, generator,
                         generator_labels, identity_map, maps_equal_exact,
                         sample_residues, sampled, word)


class NonAffineAction(ValueError):
    """A parameter action that is not of reflection form."""


REFLECTIONS = {
    "d4": ("s0", "s1", "s2", "s3", "s4"),
    "b4f": ("s0", "s1", "s2", "s3", "s4"),
    "b4s": ("s0", "s1", "s2", "s3", "s4"),
    "d52": ("s0", "s1", "s2", "s3", "s4"),
    "d51": ("w0", "w1", "w2", "w3", "w4", "w5"),
    "d4alt": ("w0", "w1", "w2", "w3", "w4"),
}


def automorphisms(family: str) -> tuple[str, ...]:
    """The diagram automorphisms: the family's generators that are not
    reflections."""
    return tuple(lab for lab in generator_labels(family)
                 if lab not in REFLECTIONS[family])


def _home(family: str) -> str:
    """The family whose phase space the generators act on: d4 for d4alt."""
    return generator(family, REFLECTIONS[family][0]).family


EXPECTED_CARTAN = {
    "d4": ((2, 0, -1, 0, 0),
           (0, 2, -1, 0, 0),
           (-1, -1, 2, -1, -1),
           (0, 0, -1, 2, 0),
           (0, 0, -1, 0, 2)),
    "b4f": ((2, -1, 0, 0, 0),
            (-2, 2, -1, 0, 0),
            (0, -1, 2, -1, -1),
            (0, 0, -1, 2, 0),
            (0, 0, -1, 0, 2)),
    "b4s": ((2, 0, -1, 0, 0),
            (0, 2, -1, 0, 0),
            (-1, -1, 2, -1, 0),
            (0, 0, -1, 2, -2),
            (0, 0, 0, -1, 2)),
    "d52": ((2, -1, 0, 0, 0),
            (-2, 2, -1, 0, 0),
            (0, -1, 2, -1, 0),
            (0, 0, -1, 2, -2),
            (0, 0, 0, -1, 2)),
    "d51": ((2, 0, -1, 0, 0, 0),
            (0, 2, -1, 0, 0, 0),
            (-1, -1, 2, -1, 0, 0),
            (0, 0, -1, 2, -1, -1),
            (0, 0, 0, -1, 2, 0),
            (0, 0, 0, -1, 0, 2)),
}
EXPECTED_CARTAN["d4alt"] = EXPECTED_CARTAN["d4"]

_M_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


@dataclass(frozen=True)
class CoxeterPresentation:
    labels: tuple[str, ...]
    cartan: tuple[tuple[int, ...], ...]
    coxeter_m: tuple[tuple[int, ...], ...]


@cache
def derive_cartan(family: str) -> CoxeterPresentation:
    labels = REFLECTIONS[family]
    n = len(labels)
    columns = []
    for i, lab in enumerate(labels):
        g = generator(family, lab)
        col = [2 if j == i else -g.param_matrix[j][i] for j in range(n)]
        reflection = tuple(tuple(int(j == k) - (k == i) * col[j] for k in range(n))
                           for j in range(n))
        if g.param_matrix != reflection or any(g.param_offset):
            raise NonAffineAction(f"{family}/{lab}: not a reflection in alpha_{i}")
        if any(type(a) is not int or (j != i and a > 0) for j, a in enumerate(col)):
            raise NonAffineAction(
                f"{family}/{lab}: non-integral or positive entry in column {i}")
        columns.append(col)
    cartan = tuple(tuple(columns[i][j] for i in range(n)) for j in range(n))
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1)
                continue
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise NonAffineAction(f"{family}: asymmetric zero at ({i},{j})")
            product = cartan[i][j] * cartan[j][i]
            if product not in _M_FROM_PRODUCT:
                raise NonAffineAction(f"{family}: bond product {product} at ({i},{j})")
            row.append(_M_FROM_PRODUCT[product])
        m.append(tuple(row))
    return CoxeterPresentation(labels=labels, cartan=cartan, coxeter_m=tuple(m))


def verify_cartan_table(family: str) -> VerificationReport:
    """Derived Cartan matrix against the hard-coded affine table."""
    def decide():
        derived = derive_cartan(family).cartan
        return None if derived == EXPECTED_CARTAN[family] else f"derived {derived}"

    return verdict(f"cartan/{family}", "exact", decide, NonAffineAction)


def relation_seed(name: str, seed: int) -> int:
    return zlib.crc32(name.encode()) ^ seed


def _word_fixes_points(family: str, labels: Sequence[str], seed: int,
                       samples: int) -> Optional[str]:
    """The word applied to seeded points of F_p on the normalization: a
    witness naming the displacement of the first point it moves, or None
    when it fixes every point."""
    system = make_hamiltonian(_home(family))
    names = (*system.phase_vars(), "t", *system.params.symbols)

    def trial(point):
        image = apply_word_residues(family, labels, point)
        if image == point:
            return None
        delta = {k: (image[k] - point[k]) % PRIME
                 for k in point if image[k] != point[k]}
        return f"moved {format_point(delta)}"

    return sampled(random.Random(seed), samples,
                   lambda rng: sample_residues(rng, names, system.params), trial)


def _relation_exact(family: str, a: str, b: str, m: int) -> Optional[str]:
    """Exact check of (ab)^m = identity.  The diagonal case composes the
    square directly; off the diagonal the two alternating m-letter words are
    compared, which is the same relation once the involutions hold and keeps
    composed words short enough for gcd-free arithmetic.  Returns the
    witness of transforms.maps_equal_exact, None when the relation holds."""
    if a == b:
        return maps_equal_exact(word(family, [a, a]), identity_map(_home(family)))
    left = word(family, ([a, b] * m)[:m])
    right = word(family, ([b, a] * m)[:m])
    return maps_equal_exact(left, right)


def verify_coxeter_relations(family: str, mode: str = "random", seed: int = 0,
                             samples: int = DEFAULT_SAMPLES) -> list[VerificationReport]:
    """One report per relation (s_i s_j)^{m_ij} = identity, i <= j."""
    pres = derive_cartan(family)
    labels = pres.labels
    out = []
    for i in range(len(labels)):
        for j in range(i, len(labels)):
            m = pres.coxeter_m[i][j]
            name = f"coxeter/{family}/({labels[i]} {labels[j]})^{m}"
            if mode == "exact":
                out.append(verdict(name, "exact", lambda: _relation_exact(
                    family, labels[i], labels[j], m)))
            else:
                relation = [labels[i], labels[j]] * m
                rel_seed = relation_seed(name, seed)
                out.append(verdict(name, "random", lambda: _word_fixes_points(
                    family, relation, rel_seed, samples),
                    seed=rel_seed, samples=samples))
    return out


def _permutation_of(m: BirationalMap) -> Optional[dict[int, int]]:
    """Index permutation tau with tau(k) = j when the action sends the k-th
    parameter to slot j; None unless the rows are n distinct unit vectors
    and the offset is zero."""
    n = len(m.param_matrix)
    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    tau = {units.index(row): j for j, row in enumerate(m.param_matrix) if row in units}
    return tau if len(tau) == n and not any(m.param_offset) else None


def verify_extended_relations(family: str) -> list[VerificationReport]:
    """Diagram automorphism checks: involutivity, the product relation among
    the d4 automorphisms, and conjugation consistency with the parameter
    permutation."""
    out = []
    reflections = REFLECTIONS[family]
    ident = identity_map(_home(family))
    for lab in automorphisms(family):
        g = generator(family, lab)
        out.append(verdict(f"automorphism/{family}/{lab}^2", "exact",
                           lambda: maps_equal_exact(compose(g, g), ident)))
        tau = _permutation_of(g)
        if tau is None:
            out.append(verdict(f"automorphism/{family}/{lab}-permutation",
                               "exact",
                               lambda: "parameter action is not a permutation"))
            continue

        def conjugation():
            bad = []
            for i, ref in enumerate(reflections):
                conj = compose(g, compose(generator(family, ref), g))
                witness = maps_equal_exact(
                    conj, generator(family, reflections[tau[i]]))
                if witness is not None:
                    bad.append(f"{lab} {ref} {lab} != {reflections[tau[i]]}: {witness}")
            return "; ".join(bad) or None

        out.append(verdict(f"automorphism/{family}/{lab}-conjugation", "exact",
                           conjugation))
    if family == "d4":
        out.append(verdict("automorphism/d4/pi4=pi2 pi3 pi2", "exact",
                           lambda: maps_equal_exact(word("d4", ["pi2", "pi3", "pi2"]),
                                                    generator("d4", "pi4"))))
    return out


TRANSLATION_WORDS = {
    1: ("s3", "s0", "s2", "s4", "s1", "s2", "pi4"),
    2: ("s4", "s1", "s2", "s3", "s0", "s2", "pi4"),
    3: ("s3", "s2", "s0", "s1", "s2", "s3", "pi1", "pi2"),
    4: ("s4", "s3", "s2", "s1", "s0", "s2", "pi1", "pi2"),
}

TRANSLATION_SHIFTS = {
    1: (1, 0, -1, 1, 0),
    2: (0, 1, -1, 0, 1),
    3: (0, 0, 0, 1, -1),
    4: (0, 0, -1, 1, 1),
}


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _translation_matrix_expected(k: int, n: int = 1):
    """Parameter matrix of the n-th power of the k-th translation."""
    delta = TRANSLATION_SHIFTS[k]
    weights = make_hamiltonian("d4").params.constraint_coeffs
    return tuple(tuple(int(i == j) + n * delta[i] * weights[j]
                       for j in range(5)) for i in range(5))


def _str_rows(matrix) -> list[list[str]]:
    return [[str(c) for c in row] for row in matrix]


@cache
def translation_matrix(k: int):
    """Parameter matrix of the k-th translation word, composed right to left
    over the letters so the leftmost letter acts first."""
    total = None
    for lab in TRANSLATION_WORDS[k]:
        m = generator("d4", lab).param_matrix
        total = m if total is None else _mat_mul(m, total)
    return total


def verify_translation_shifts() -> list[VerificationReport]:
    def shift(k):
        weights = make_hamiltonian("d4").params.constraint_coeffs
        weighted = sum(w * d for w, d in zip(weights, TRANSLATION_SHIFTS[k]))
        if weighted != 0:
            return f"shift breaks the normalization: {weighted}"
        matrix, expected = translation_matrix(k), _translation_matrix_expected(k)
        if matrix != expected:
            return f"matrix {_str_rows(matrix)}, expected {_str_rows(expected)}"
        return None

    def commutation():
        mats = {k: translation_matrix(k) for k in range(1, 5)}
        bad = [f"T{i}T{j}" for i in range(1, 5) for j in range(i + 1, 5)
               if _mat_mul(mats[i], mats[j]) != _mat_mul(mats[j], mats[i])]
        return ", ".join(bad) or None

    def powers():
        bad = []
        for k in range(1, 5):
            matrix = power = translation_matrix(k)
            for n in (2, 3):
                power = _mat_mul(matrix, power)
                if power != _translation_matrix_expected(k, n):
                    bad.append(f"T{k}^{n}")
        return ", ".join(bad) or None

    return [*(verdict(f"translation/T{k}-shift", "exact", lambda: shift(k))
              for k in range(1, 5)),
            verdict("translation/commutation", "exact", commutation),
            verdict("translation/powers", "exact", powers)]


def verify_translation_composition() -> VerificationReport:
    """Cross-check on T1: its seven letters composed into one map, leftmost
    first, carry the same parameter matrix as the matrix product, fix time,
    and have zero offset; a failure names each of the three that broke.  It
    reads no phase image, so each letter keeps only its t and parameters."""
    def decide():
        read = ("t", *make_hamiltonian("d4").params.symbols)
        letters = [replace(g, images={k: g.images[k] for k in read})
                   for g in (generator("d4", lab) for lab in TRANSLATION_WORDS[1])]
        composed = reduce(lambda inner, outer: compose(outer, inner), letters)
        bad = []
        if composed.param_matrix != translation_matrix(1):
            bad.append(f"parameter matrix {_str_rows(composed.param_matrix)} "
                       "is not the product")
        if any(composed.param_offset):
            bad.append(f"offset {[str(c) for c in composed.param_offset]}")
        if not composed.time_image.equals(variable("t")):
            bad.append(f"time image {composed.time_image!r}")
        return "; ".join(bad) or None

    return verdict("translation/T1-composition", "exact", decide)

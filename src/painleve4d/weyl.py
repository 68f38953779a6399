"""Coxeter presentations read off the generator parameter actions, relation
suites for every family, and the lattice translation operators.

The Cartan matrix is not transcribed from any diagram: entry a[j][i] is
extracted from the i-th reflection, which must send the parameter vector to
itself except in direction i, with the j-th component moving by an integer
multiple of the i-th (alpha_j minus a_ji alpha_i).  The derived matrices are
then compared against hard-coded standard affine tables, so the catalog and
the tables validate each other.

Relation checks run in two modes.  Exact mode composes the full word
symbolically and compares with the identity modulo the family normalization.
Random mode draws seeded points of F_p, p = 2^61 - 1, on the parameter
normalization (transforms.sample_residues), drives them through the word
letter by letter in int arithmetic (transforms.apply_word_residues) and
compares residues, through the shared resample loop transforms.sampled.
A false relation passes one sample with probability at most D/p, D the
total degree of the word's cleared displacement numerator; the witness of
a failure is the displacement of each moved coordinate, reduced mod p.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .algebra import format_point, variable
from .reports import VerificationReport, clip_witness, report
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
    family: str
    labels: tuple[str, ...]
    cartan: tuple[tuple[int, ...], ...]
    coxeter_m: tuple[tuple[int, ...], ...]


def derive_cartan(family: str) -> CoxeterPresentation:
    labels = REFLECTIONS[family]
    n = len(labels)
    columns = []
    for i, lab in enumerate(labels):
        g = generator(family, lab)
        if any(c != 0 for c in g.param_offset):
            raise NonAffineAction(f"{family}/{lab}: affine offset present")
        for j in range(n):
            for k in range(n):
                if k == i:
                    continue
                expected = Fraction(int(j == k))
                if g.param_matrix[j][k] != expected:
                    raise NonAffineAction(
                        f"{family}/{lab}: moves alpha_{j} along alpha_{k}")
        if g.param_matrix[i][i] != -1:
            raise NonAffineAction(f"{family}/{lab}: alpha_{i} is not negated")
        col = []
        for j in range(n):
            a_ji = (Fraction(2) if j == i else -g.param_matrix[j][i])
            if a_ji.denominator != 1 or (j != i and a_ji > 0):
                raise NonAffineAction(
                    f"{family}/{lab}: non-integral or positive entry a[{j}][{i}]")
            col.append(int(a_ji))
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
    return CoxeterPresentation(family=family, labels=labels,
                               cartan=cartan, coxeter_m=tuple(m))


def diagram_edges(cartan: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """Edges (i, j, a_ij * a_ji) of the diagram underlying a Cartan matrix."""
    n = len(cartan)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            product = cartan[i][j] * cartan[j][i]
            if product:
                out.append((i, j, product))
    return out


def diagram_shape(cartan: Sequence[Sequence[int]]) -> dict:
    edges = diagram_edges(cartan)
    n = len(cartan)
    degree = [0] * n
    for i, j, _ in edges:
        degree[i] += 1
        degree[j] += 1
    return {
        "degrees": tuple(degree),
        "double_bonds": tuple((i, j) for i, j, p in edges if p == 2),
        "forks": tuple(i for i, d in enumerate(degree) if d >= 3),
    }


_EXPECTED_SHAPE = {
    "d4": {"double_bonds": (), "forks": (2,)},
    "d4alt": {"double_bonds": (), "forks": (2,)},
    "b4f": {"double_bonds": ((0, 1),), "forks": (2,)},
    "b4s": {"double_bonds": ((3, 4),), "forks": (2,)},
    "d52": {"double_bonds": ((0, 1), (3, 4)), "forks": ()},
    "d51": {"double_bonds": (), "forks": (2, 3)},
}


def verify_cartan_table(family: str) -> VerificationReport:
    """Derived Cartan matrix against the hard-coded affine table, plus the
    qualitative diagram shape (bond multiplicities and branch nodes)."""
    start = time.monotonic()
    name = f"cartan/{family}"
    try:
        pres = derive_cartan(family)
    except NonAffineAction as exc:
        return report(name, False, "exact", family=family,
                      witness=str(exc), started=start)
    if pres.cartan != EXPECTED_CARTAN[family]:
        return report(name, False, "exact", family=family,
                      witness=f"derived {pres.cartan}", started=start)
    shape = diagram_shape(pres.cartan)
    expected = _EXPECTED_SHAPE[family]
    for key, value in expected.items():
        if shape[key] != value:
            return report(name, False, "exact", family=family,
                          witness=f"{key}: {shape[key]} != {value}", started=start)
    return report(name, True, "exact", family=family, started=start)


def relation_seed(name: str, seed: int) -> int:
    return zlib.crc32(name.encode()) ^ seed


def _word_fixes_points(family: str, labels: Sequence[str], seed: int,
                       samples: int) -> tuple[bool, Optional[str]]:
    system = make_hamiltonian(_home(family))
    names = (*system.phase_vars(), "t", *system.params.symbols)

    def trial(point):
        image = apply_word_residues(family, labels, point)
        if image == point:
            return None
        delta = {k: (image[k] - point[k]) % PRIME
                 for k in point if image[k] != point[k]}
        return f"moved {clip_witness(format_point(delta))}"

    return sampled(random.Random(seed), samples,
                   lambda rng: sample_residues(rng, names, system.params), trial)


def _relation_exact(family: str, a: str, b: str, m: int) -> tuple[bool, Optional[str]]:
    """Exact check of (ab)^m = identity.  The diagonal case composes the
    square directly; off the diagonal the two alternating m-letter words are
    compared, which is the same relation once the involutions hold and keeps
    composed words short enough for gcd-free arithmetic."""
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
            start = time.monotonic()
            if mode == "exact":
                ok, witness = _relation_exact(family, labels[i], labels[j], m)
                out.append(report(name, ok, "exact", family=family,
                                  witness=witness, started=start))
            else:
                relation = [labels[i], labels[j]] * m if i != j else [labels[i]] * 2
                rel_seed = relation_seed(name, seed)
                ok, witness = _word_fixes_points(family, relation, rel_seed, samples)
                out.append(report(name, ok, "random", family=family, witness=witness,
                                  seed=rel_seed, samples=samples, started=start))
    return out


def _permutation_of(m: BirationalMap) -> Optional[dict[int, int]]:
    """Index permutation tau with tau(k) = j when the action sends the k-th
    parameter to slot j; None when the matrix is not a permutation."""
    n = len(m.param_matrix)
    tau: dict[int, int] = {}
    for j in range(n):
        ones = [k for k in range(n) if m.param_matrix[j][k] == 1]
        if len(ones) != 1 or any(m.param_matrix[j][k] != 0 for k in range(n) if k != ones[0]):
            return None
        tau[ones[0]] = j
    if any(c != 0 for c in m.param_offset):
        return None
    return tau


def verify_extended_relations(family: str) -> list[VerificationReport]:
    """Diagram automorphism checks: involutivity, the product relation among
    the d4 automorphisms, and conjugation consistency with the parameter
    permutation."""
    out = []
    reflections = REFLECTIONS[family]
    ident = identity_map(_home(family))
    for lab in automorphisms(family):
        g = generator(family, lab)
        start = time.monotonic()
        ok, witness = maps_equal_exact(compose(g, g), ident)
        out.append(report(f"automorphism/{family}/{lab}^2", ok, "exact",
                          family=family, witness=witness, started=start))
        tau = _permutation_of(g)
        start = time.monotonic()
        if tau is None:
            out.append(report(f"automorphism/{family}/{lab}-permutation", False,
                              "exact", family=family,
                              witness="parameter action is not a permutation",
                              started=start))
            continue
        bad = []
        for i, ref in enumerate(reflections):
            conj = compose(g, compose(generator(family, ref), g))
            target = generator(family, reflections[tau[i]])
            ok, witness = maps_equal_exact(conj, target)
            if not ok:
                bad.append(f"{lab} {ref} {lab} != {reflections[tau[i]]}: {witness}")
        out.append(report(f"automorphism/{family}/{lab}-conjugation", not bad,
                          "exact", family=family,
                          witness=clip_witness("; ".join(bad)) if bad else None,
                          started=start))
    if family == "d4":
        start = time.monotonic()
        ok, witness = maps_equal_exact(word("d4", ["pi2", "pi3", "pi2"]),
                                       generator("d4", "pi4"))
        out.append(report("automorphism/d4/pi4=pi2 pi3 pi2", ok, "exact",
                          family="d4", witness=witness, started=start))
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


@cache
def translation_operator(k: int) -> BirationalMap:
    """The k-th lattice translation as a fully composed map, letters applied
    leftmost first."""
    return word("d4", TRANSLATION_WORDS[k])


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _translation_matrix_expected(k: int):
    delta = TRANSLATION_SHIFTS[k]
    weights = make_hamiltonian("d4").params.constraint_coeffs
    return tuple(tuple(Fraction(int(i == j) + delta[i] * weights[j])
                       for j in range(5)) for i in range(5))


def translation_matrix(k: int):
    """Parameter matrix of the k-th translation word, composed right to left
    over the letters so the leftmost letter acts first."""
    total = None
    for lab in TRANSLATION_WORDS[k]:
        m = generator("d4", lab).param_matrix
        total = m if total is None else _mat_mul(m, total)
    return total


def verify_translation_shifts() -> list[VerificationReport]:
    weights = make_hamiltonian("d4").params.constraint_coeffs
    out = []
    for k in range(1, 5):
        start = time.monotonic()
        derived = translation_matrix(k)
        expected = _translation_matrix_expected(k)
        ok = derived == expected
        witness = None if ok else f"matrix {derived}"
        weighted = sum(w * d for w, d in zip(weights, TRANSLATION_SHIFTS[k]))
        if weighted != 0:
            ok, witness = False, f"shift breaks the normalization: {weighted}"
        out.append(report(f"translation/T{k}-shift", ok, "exact", family="d4",
                          witness=witness, started=start))
    start = time.monotonic()
    mats = {k: translation_matrix(k) for k in range(1, 5)}
    bad = [f"T{i}T{j}" for i in range(1, 5) for j in range(i + 1, 5)
           if _mat_mul(mats[i], mats[j]) != _mat_mul(mats[j], mats[i])]
    out.append(report("translation/commutation", not bad, "exact", family="d4",
                      witness=", ".join(bad) or None, started=start))
    start = time.monotonic()
    bad = []
    for k in range(1, 5):
        power = mats[k]
        for n in (2, 3):
            power = _mat_mul(mats[k], power)
            scaled = tuple(tuple(Fraction(int(i == j) + n * TRANSLATION_SHIFTS[k][i]
                                          * weights[j])
                                 for j in range(5)) for i in range(5))
            if power != scaled:
                bad.append(f"T{k}^{n}")
    out.append(report("translation/powers", not bad, "exact", family="d4",
                      witness=", ".join(bad) or None, started=start))
    return out


def verify_translation_composition(k: int = 1) -> VerificationReport:
    """Cross-check: the fully composed word carries the same parameter matrix
    as the matrix product, fixes time, and has zero offset."""
    start = time.monotonic()
    composed = translation_operator(k)
    ok = (composed.param_matrix == translation_matrix(k)
          and all(c == 0 for c in composed.param_offset)
          and composed.time_image.equals(variable("t")))
    return report(f"translation/T{k}-composition", ok, "exact", family="d4",
                  started=start)

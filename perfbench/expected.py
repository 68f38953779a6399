"""Expected verdicts of ``painleve4d verify --suite all``, by check name.

Written by hand from the paper's claims as the README lists them, not from
a program run: every asserted check passes, and the one observational
check, the alternative d4 reflection ``w2`` (which does not satisfy the
symmetry condition as displayed), is reported ``inconclusive``.
"""
from __future__ import annotations

PASS, INCONCLUSIVE = "pass", "inconclusive"

# The 33 generators: reflections and diagram automorphisms per family.
GENERATORS = {
    "d4": ("s0", "s1", "s2", "s3", "s4", "pi1", "pi2", "pi3", "pi4"),
    "b4f": ("s0", "s1", "s2", "s3", "s4", "phi"),
    "b4s": ("s0", "s1", "s2", "s3", "s4", "phi"),
    "d52": ("s0", "s1", "s2", "s3", "s4", "psi"),
    "d51": ("w0", "w1", "w2", "w3", "w4", "w5"),
}
ALT_REFLECTIONS = ("w0", "w1", "w2", "w3", "w4")
OBSERVATIONAL = {"symmetry/d4alt/w2": INCONCLUSIVE}

# Dynkin diagram of each family's affine Weyl group: the reflection letter
# and the Coxeter exponent m_ij of each joined pair (i < j).  Pairs not
# listed commute (m = 2); m_ii = 1.
DIAGRAMS = {
    "d4": ("s", 5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (2, 4): 3}),
    "b4f": ("s", 5, {(0, 1): 4, (1, 2): 3, (2, 3): 3, (2, 4): 3}),
    "b4s": ("s", 5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 4}),
    "d52": ("s", 5, {(0, 1): 4, (1, 2): 3, (2, 3): 3, (3, 4): 4}),
    "d51": ("w", 6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}),
    "d4alt": ("w", 5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (2, 4): 3}),
}

# Outer automorphisms: each conjugates the reflections and is an
# involution; pi4 is also the product pi2 pi3 pi2.
AUTOMORPHISMS = {"d4": ("pi1", "pi2", "pi3", "pi4"), "b4f": ("phi",),
                 "b4s": ("phi",), "d52": ("psi",)}

CHART_SETS = ("d4", "b4f", "b4s", "d52")
CHARTS = ("r0", "r1", "r2", "r3", "r4")
EQUIVALENCES = ("p3-to-p3t", "d4-to-b4f", "d4-to-b4s", "d4-to-d52",
                "b4f-to-b4s")


def expected_verdicts(mode: str) -> dict[str, str]:
    """Check name -> status for ``verify --suite all --mode <mode>``."""
    names = [f"fields/{fam}" for fam in CHART_SETS]
    names += [f"symmetry/{fam}/{g}" for fam, gens in GENERATORS.items()
              for g in gens]
    names += [f"symmetry/d4alt/{w}" for w in ALT_REFLECTIONS]
    for fam, (letter, rank, joined) in DIAGRAMS.items():
        names.append(f"cartan/{fam}")
        for i in range(rank):
            for j in range(i, rank):
                m = 1 if i == j else joined.get((i, j), 2)
                names.append(f"coxeter/{fam}/({letter}{i} {letter}{j})^{m}")
    for fam, autos in AUTOMORPHISMS.items():
        for a in autos:
            names += [f"automorphism/{fam}/{a}-conjugation",
                      f"automorphism/{fam}/{a}^2"]
    names.append("automorphism/d4/pi4=pi2 pi3 pi2")
    names += [f"translation/T{k}-shift" for k in range(1, 5)]
    names += ["translation/commutation", "translation/powers"]
    if mode == "exact":
        names.append("translation/T1-composition")
    for cs in CHART_SETS:
        for r in CHARTS:
            names += [f"holomorphy/{cs}/{r}/{cs}", f"holomorphy/K/{cs}/{r}/{cs}"]
        if mode == "random":
            names.append(f"holomorphy/random/{cs}/{cs}")
    names += [f"{kind}/{label}" for label in EQUIVALENCES
              for kind in ("equivalence", "symplectic")]
    names.append("degeneration/field")
    names += [f"degeneration/group/s{i}" for i in range(5)]
    names += [f"numeric/d4/{g}" for g in GENERATORS["d4"]]
    names += ["integrals/d4/deg2", "integrals/toy/deg1"]
    return {name: OBSERVATIONAL.get(name, PASS) for name in names}

"""Shared norm-torus data used across the engine, oracle, and acceptance tests."""

import random
from itertools import combinations

from references import is_cyclic_relative_quotient
from cmtori.datum import NormTorusDatum, TorusPair
from cmtori.groups import (
    Subgroup,
    center,
    closure,
    cyclic,
    dihedral,
    direct_product,
    full_subgroup,
    is_normal,
    quaternion8,
    subgroup_generated,
    trivial_subgroup,
    units_mod,
)


def imag_quadratic():
    g = cyclic(2)
    return NormTorusDatum(g, (TorusPair(trivial_subgroup(g), full_subgroup(g)),), iota=1)


def imag_quadratic_double():
    # two copies of the same imaginary quadratic field: r = 2 over G = Z/2
    g = cyclic(2)
    pair = TorusPair(trivial_subgroup(g), full_subgroup(g))
    return NormTorusDatum(g, (pair, pair), iota=1)


def two_distinct_imag_quadratics():
    # K1 x K2 with distinct fields: G = Klein four, H_i the complementary lines
    prod = direct_product(cyclic(2), cyclic(2))
    g = prod.group
    h1 = Subgroup(g, (0, prod.pack((0, 1))))
    h2 = Subgroup(g, (0, prod.pack((1, 0))))
    pairs = (TorusPair(h1, full_subgroup(g)), TorusPair(h2, full_subgroup(g)))
    return NormTorusDatum(g, pairs, iota=prod.pack((1, 1)))


def biquadratic_field():
    prod = direct_product(cyclic(2), cyclic(2))
    g = prod.group
    iota = prod.pack((1, 1))
    pair = TorusPair(trivial_subgroup(g), subgroup_generated(g, [iota]))
    return NormTorusDatum(g, (pair,), iota=iota)


def cyclic_cm(n):
    # cyclic CM field of degree n (n even): iota is the unique involution
    g = cyclic(n)
    iota = n // 2
    pair = TorusPair(trivial_subgroup(g), subgroup_generated(g, [iota]))
    return NormTorusDatum(g, (pair,), iota=iota)


def q8_cm(include_group=False):
    g = quaternion8()
    pair = TorusPair(trivial_subgroup(g), center(g))
    extras = (full_subgroup(g),) if include_group else ()
    return NormTorusDatum(g, (pair,), iota=1, decomposition_groups=extras)


def d4_cm():
    g = dihedral(4)
    pair = TorusPair(trivial_subgroup(g), center(g))
    return NormTorusDatum(g, (pair,), iota=2)


def z4xz2_product():
    # degree-4 cyclic CM field times an imaginary quadratic, order 8
    prod = direct_product(cyclic(4), cyclic(2))
    g = prod.group
    inner1 = Subgroup(g, tuple(sorted(prod.pack((0, b)) for b in (0, 1))))
    outer1 = Subgroup(g, tuple(sorted(prod.pack((a, b)) for a in (0, 2) for b in (0, 1))))
    inner2 = Subgroup(g, tuple(sorted(prod.pack((a, 0)) for a in range(4))))
    outer2 = full_subgroup(g)
    pairs = (TorusPair(inner1, outer1), TorusPair(inner2, outer2))
    return NormTorusDatum(g, pairs, iota=prod.pack((2, 1)))


def z4xz4_product():
    # two distinct degree-4 cyclic CM fields, order 16
    prod = direct_product(cyclic(4), cyclic(4))
    g = prod.group
    inner1 = Subgroup(g, tuple(sorted(prod.pack((0, b)) for b in range(4))))
    outer1 = Subgroup(g, tuple(sorted(prod.pack((a, b)) for a in (0, 2) for b in range(4))))
    inner2 = Subgroup(g, tuple(sorted(prod.pack((a, 0)) for a in range(4))))
    outer2 = Subgroup(g, tuple(sorted(prod.pack((a, b)) for a in range(4) for b in (0, 2))))
    pairs = (TorusPair(inner1, outer1), TorusPair(inner2, outer2))
    return NormTorusDatum(g, pairs, iota=prod.pack((2, 2)))


def nongalois_quartic_cm():
    # quartic CM field whose Galois closure is D4: the inner subgroup <s>
    # is not normal in G, only in the outer Klein group
    g = dihedral(4)
    pair = TorusPair(subgroup_generated(g, [4]), subgroup_generated(g, [4, 2]))
    return NormTorusDatum(g, (pair,), iota=2)


def mixed_octic_quartic_cm():
    # CM algebra mixing the full D4 octic field with the non-Galois quartic
    g = dihedral(4)
    octic = TorusPair(trivial_subgroup(g), subgroup_generated(g, [2]))
    quartic = TorusPair(subgroup_generated(g, [4]), subgroup_generated(g, [4, 2]))
    return NormTorusDatum(g, (octic, quartic), iota=2)


def noncm_coprime_product():
    # cyclic cubic field times an imaginary quadratic: non-CM, coprime orders
    prod = direct_product(cyclic(3), cyclic(2))
    g = prod.group
    inner1 = Subgroup(g, tuple(sorted(prod.pack((0, b)) for b in (0, 1))))
    inner2 = Subgroup(g, tuple(sorted(prod.pack((a, 0)) for a in range(3))))
    pairs = (TorusPair(inner1, full_subgroup(g)),
             TorusPair(inner2, full_subgroup(g)))
    return NormTorusDatum(g, pairs)


def empty_pairs_datum():
    g = cyclic(2)
    return NormTorusDatum(g, ())


def cm_corpus():
    """(name, datum, expected engine values) for the oracle-engine suite."""
    return [
        ("imag_quadratic", imag_quadratic(),
         dict(h1=(), h1n1=(2,), prim=2, sha=(), tau=(1, 1))),
        ("imag_quadratic_double", imag_quadratic_double(),
         dict(h1=(2,), h1n1=(2, 2), prim=2, sha=(), tau=(2, 1))),
        ("two_distinct_imag_quadratics", two_distinct_imag_quadratics(),
         dict(h1=(), h1n1=(2, 2), prim=4, sha=(), tau=(1, 1))),
        ("biquadratic_field", biquadratic_field(),
         dict(h1=(2,), h1n1=(2,), prim=1, sha=(), tau=(2, 1))),
        ("cyclic4_cm", cyclic_cm(4),
         dict(h1=(), h1n1=(2,), prim=2, sha=(), tau=(1, 1))),
        ("cyclic6_cm", cyclic_cm(6),
         dict(h1=(), h1n1=(2,), prim=2, sha=(), tau=(1, 1))),
        ("q8_cm", q8_cm(),
         dict(h1=(2,), h1n1=(2,), prim=4, sha=(2, 2), tau=(1, 2))),
        ("q8_cm_full", q8_cm(include_group=True),
         dict(h1=(2,), h1n1=(2,), prim=1, sha=(), tau=(2, 1))),
        ("d4_cm", d4_cm(),
         dict(h1=(2,), h1n1=(2,), prim=1, sha=(), tau=(2, 1))),
        ("nongalois_quartic_cm", nongalois_quartic_cm(),
         dict(h1=(), h1n1=(2,), prim=2, sha=(), tau=(1, 1))),
        ("mixed_octic_quartic_cm", mixed_octic_quartic_cm(),
         dict(h1=(2,), h1n1=(2, 2), prim=2, sha=(), tau=(2, 1))),
        ("z4xz2_product", z4xz2_product(),
         dict(h1=(), h1n1=(2, 2), prim=4, sha=(), tau=(1, 1))),
        ("noncm_coprime_product", noncm_coprime_product(),
         dict(h1=(), h1n1=(6,), prim=6, sha=(), tau=(1, 1))),
        ("z4xz4_product", z4xz4_product(),
         dict(h1=(), h1n1=(2, 2), prim=4, sha=(), tau=(1, 1))),
    ]


# ---------------------------------------------------------------------------
# seeded random data: normal outer subgroups with cyclic relative quotients
# ---------------------------------------------------------------------------

def all_subgroups(g):
    seen = set()
    elems = list(g.elements())
    for size in (0, 1, 2, 3):
        for gens in combinations(elems, size):
            seen.add(closure(g, gens))
    return [Subgroup(g, e) for e in sorted(seen, key=lambda e: (len(e), e))]


def candidate_pairs(g, subgroups):
    out = []
    for outer in subgroups:
        if not is_normal(g, outer):
            continue
        for inner in subgroups:
            if (outer.contains_subgroup(inner) and inner.order < outer.order
                    and is_cyclic_relative_quotient(outer, inner)):
                out.append(TorusPair(inner, outer))
    return out


def admissible_iota(g, pairs):
    for i in sorted(center(g).elements):
        if g.element_order(i) != 2:
            continue
        if all(p.relative_degree == 2 and i in p.outer and i not in p.inner
               for p in pairs):
            return i
    return None


def fuzz_data():
    """Four seeded data per group of a pool of small groups (fourteen groups).

    The last four, abelian of ranks 2 to 4, were appended after the first
    ten, so the data drawn for those are unchanged.
    """
    pool = [cyclic(4), cyclic(6), units_mod(8), units_mod(12), dihedral(3),
            dihedral(4), quaternion8(), direct_product(cyclic(2), cyclic(4)).group,
            cyclic(8), direct_product(cyclic(3), cyclic(3)).group,
            direct_product(*[cyclic(2)] * 4).group,
            direct_product(cyclic(2), cyclic(2), cyclic(4)).group,
            direct_product(cyclic(4), cyclic(4)).group,
            direct_product(cyclic(2), cyclic(8)).group]
    rng = random.Random(20260811)
    out = []
    for g in pool:
        subgroups = all_subgroups(g)
        pairs = candidate_pairs(g, subgroups)
        if not pairs:
            continue
        for _ in range(4):
            chosen = tuple(rng.choice(pairs)
                           for _ in range(rng.choice((1, 1, 2))))
            iota = admissible_iota(g, chosen) if rng.random() < 0.5 else None
            extras = tuple(rng.choice(subgroups) for _ in range(rng.choice((0, 1))))
            out.append(NormTorusDatum(g, chosen, iota=iota,
                                      decomposition_groups=extras))
    return out

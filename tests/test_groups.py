import json
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from references import commutator_subgroup, cyclic_generator, exponent
from cmtori.abelian import FinAb
from cmtori.errors import ConstructionError
from cmtori.groups import (
    Subgroup,
    _subgroup_as_group,
    abelianization,
    canonical_conjugate,
    center,
    closure,
    conjugation_orbit,
    construct_group,
    coset_index,
    cosets,
    cyclic,
    cyclic_subgroups_up_to_conjugacy,
    dedupe_up_to_conjugacy,
    dihedral,
    direct_product,
    from_permutation_generators,
    from_table,
    induced_abelian_hom,
    is_normal,
    presentation,
    quaternion8,
    quotient_group,
    residues_of,
    subgroup_generated,
    sylow,
    trivial_subgroup,
    units_mod,
)
from cmtori.transfer import group_abelianization, subgroup_abelianization

Q8 = quaternion8()


def test_cyclic_one_is_trivial():
    g = cyclic(1)
    assert g.order == 1
    assert g.identity == 0


def test_units_mod_12_by_brute_force():
    # independent oracle: residue arithmetic straight from the definition
    residues = [a for a in range(1, 12) if math.gcd(a, 12) == 1]
    assert residues == [1, 5, 7, 11]
    g = units_mod(12)
    assert g.order == 4
    assert residues_of(g) == (1, 5, 7, 11)
    for i, a in enumerate(residues):
        for j, b in enumerate(residues):
            assert residues_of(g)[g.mul(i, j)] == (a * b) % 12
    assert exponent(g) == 2


def test_quaternion8_structure():
    assert Q8.order == 8
    orders = sorted(Q8.element_order(g) for g in Q8.elements())
    assert orders.count(2) == 1  # exactly one element of order 2
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_invalid_table_reports_triple():
    # constant-row table is not a Latin square
    with pytest.raises(ConstructionError):
        from_table(((0, 0), (1, 1)))
    # Latin square without associativity: order-5 loop
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(ConstructionError) as exc:
        from_table(loop)
    assert "associativity" in str(exc.value)
    assert "triple" in exc.value.context


def test_subgroup_generated_trivial_and_closures():
    assert subgroup_generated(Q8, []).elements == (0,)
    # <i> has order 4
    assert subgroup_generated(Q8, [2]).order == 4
    # 2 is a primitive root mod 5
    u5 = units_mod(5)
    two = residues_of(u5).index(2)
    assert subgroup_generated(u5, [two]).order == 4


def test_localize_maps_back_to_the_parent():
    for g in (Q8, dihedral(6), direct_product(cyclic(2), cyclic(4)).group):
        subgroups = {closure(g, [x, y]) for x in g.elements() for y in (g.identity, 1)}
        for outer_elems in subgroups:
            outer = Subgroup(g, outer_elems)
            local, embed = outer.as_group()
            assert [embed[i] for i in range(local.order)] == list(outer.elements)
            for inner_elems in subgroups:
                if set(inner_elems) <= set(outer_elems):
                    inner = outer.localize(Subgroup(g, inner_elems))
                    assert inner.group == local
                    assert [embed[i] for i in inner.elements] == list(inner_elems)


def test_subgroup_element_out_of_range():
    with pytest.raises(ConstructionError, match="out of range") as caught:
        Subgroup(Q8, (0, 8))
    assert caught.value.context == {"element": 8, "order": 8}
    with pytest.raises(ConstructionError, match="out of range"):
        Subgroup(Q8, (-1, 0))


def orbit_classes(group):
    """The conjugacy classes, each the conjugation orbit of one element."""
    seen = set()
    classes = []
    for g in group.elements():
        if g not in seen:
            orbit = tuple(sorted(x for (x,) in conjugation_orbit(group, (g,))))
            seen.update(orbit)
            classes.append(orbit)
    return sorted(classes)


def test_structural_queries_q8():
    z = center(Q8)
    assert z.order == 2
    classes = orbit_classes(Q8)
    assert sum(len(c) for c in classes) == 8
    assert all(8 % len(c) == 0 for c in classes)
    for g in Q8.elements():
        s = subgroup_generated(Q8, [g])
        assert is_normal(Q8, s)


def test_class_equation():
    for g in (Q8, dihedral(3), dihedral(4), dihedral(6), units_mod(15),
              cyclic(12), direct_product(Q8, cyclic(2)).group):
        classes = orbit_classes(g)
        assert sum(len(c) for c in classes) == g.order
        assert all(g.order % len(c) == 0 for c in classes)
        singletons = [c[0] for c in classes if len(c) == 1]
        assert sorted(singletons) == list(center(g).elements)


def test_cyclic_subgroups_up_to_conjugacy_units8():
    u8 = units_mod(8)
    reps = cyclic_subgroups_up_to_conjugacy(u8)
    assert len(reps) == 4  # trivial, <3>, <5>, <7>
    orders = sorted(s.order for s in reps)
    assert orders == [1, 2, 2, 2]


def test_cyclic_subgroups_conjugacy_dedup_dihedral():
    d4 = dihedral(4)
    reps = cyclic_subgroups_up_to_conjugacy(d4)
    # trivial, <r>, <r^2>, one class of <s r^even>, one class of <s r^odd>
    assert len(reps) == 5
    # abelian groups: every cyclic subgroup exactly once
    u8 = units_mod(8)
    all_cyclic = {subgroup_generated(u8, [g]).elements for g in u8.elements()}
    assert len(cyclic_subgroups_up_to_conjugacy(u8)) == len(all_cyclic)


def test_cosets_partition():
    d4 = dihedral(4)
    s = subgroup_generated(d4, [4])
    left = cosets(d4, s, "left")
    right = cosets(d4, s, "right")
    assert sorted(x for cs in left for x in cs) == list(range(8))
    assert len(left) == len(right) == 4


def test_sylow():
    d6 = dihedral(6)  # order 12
    p2 = sylow(d6, 2)
    p3 = sylow(d6, 3)
    assert p2.order == 4
    assert p3.order == 3
    with pytest.raises(ConstructionError):
        sylow(d6, 5)


def test_quotient_group():
    q = quotient_group(Q8, center(Q8))
    assert q.group.order == 4
    assert exponent(q.group) == 2  # Q8 / {+-1} is the Klein group


def test_abelianization_abelian_group_is_bijective():
    u8 = units_mod(8)
    ab = abelianization(u8)
    assert ab.group.order == 4
    assert ab.group.factors == (2, 2)
    seen = {ab.images[g] for g in u8.elements()}
    assert len(seen) == 4
    # projection is a homomorphism
    for a in u8.elements():
        for b in u8.elements():
            left = ab.project(u8.mul(a, b))
            right = ab.project(a) + ab.project(b)
            assert left == right


def test_abelianization_q8():
    assert commutator_subgroup(Q8).elements == center(Q8).elements
    ab = abelianization(Q8)
    assert ab.group.factors == (2, 2)
    assert ab.group.order * commutator_subgroup(Q8).order == Q8.order


def test_abelianization_dihedral4():
    ab = abelianization(dihedral(4))
    assert ab.group.factors == (2, 2)


def test_abelianization_order_times_derived_order():
    for g in (cyclic(6), dihedral(3), dihedral(6), units_mod(15), Q8):
        ab = abelianization(g)
        assert ab.group.order * commutator_subgroup(g).order == g.order
        for j, d in enumerate(ab.group.factors):
            sec = ab.sections[j]
            unit = tuple(1 if i == j else 0 for i in range(ab.group.rank))
            assert ab.images[sec] == unit


def _abelianization_zoo():
    yield cyclic(1)
    yield units_mod(1024)
    yield units_mod(1155)
    yield dihedral(256)
    yield direct_product(Q8, Q8, Q8).group
    yield direct_product(*[cyclic(2)] * 9).group
    yield from_permutation_generators([[[0, 1, 2, 3, 4]], [[0, 1]]], 5, "S5")
    yield from_permutation_generators([[[0, 1, 2]], [[0, 1, 2, 3, 4]]], 5, "A5")


@pytest.mark.parametrize("g", list(_abelianization_zoo()), ids=lambda g: g.name)
def test_abelianization_zoo(g):
    ab = abelianization(g)
    coords = np.array(ab.images, dtype=np.int64).reshape(g.order, ab.group.rank)
    factors = np.array(ab.group.factors, dtype=np.int64)
    kernel = tuple(np.flatnonzero(~coords.any(axis=1)).tolist())
    assert kernel == commutator_subgroup(g).elements
    table = np.array(g.table)
    assert not np.any((coords[:, None] + coords[None, :] - coords[table]) % factors)
    assert [ab.images[x] for x in ab.sections] == [
        tuple(int(i == j) for i in range(ab.group.rank)) for j in range(ab.group.rank)]
    for cache in (presentation, group_abelianization, subgroup_abelianization):
        cache.cache_clear()
    assert group_abelianization(g) == ab
    assert ab.group.order * len(kernel) == g.order   # A5 is perfect: |G^ab| = 1


def test_subgroup_abelianization_shares_the_group_cache():
    g = dihedral(6)
    for sub in (subgroup_generated(g, [1]), subgroup_generated(g, [2, 6]),
                trivial_subgroup(g)):
        assert subgroup_abelianization(sub)[0] is group_abelianization(sub.as_group()[0])


def test_direct_product_packing():
    prod = direct_product(cyclic(2), cyclic(3))
    g = prod.group
    assert g.order == 6
    assert prod.pack((1, 2)) == 5
    assert prod.unpack(5) == (1, 2)
    assert g.element_order(prod.pack((1, 1))) == 6


def test_from_permutation_generators_cycles():
    # S3 generated by a 3-cycle and a transposition, given in cycle notation
    s3 = from_permutation_generators([[[0, 1, 2]], [[0, 1]]], 3)
    assert s3.order == 6
    a4 = from_permutation_generators([[[0, 1, 2]], [[1, 2, 3]]], 4)
    assert a4.order == 12


def test_overlapping_cycles_rejected():
    for gens, context in (([[[0, 1], [0, 2]]], {"generator": 0, "point": 0}),
                          ([[[0, 1]], [[1, 2, 1]]], {"generator": 1, "point": 1}),
                          ([[[2]], [[0, 1], [2, 1]]], {"generator": 1, "point": 1})):
        with pytest.raises(ConstructionError) as exc:
            from_permutation_generators(gens, 3)
        assert str(exc.value) == "cycles of a generator are not disjoint"
        assert exc.value.context == context
    # a fixed point written as a 1-cycle next to disjoint cycles is fine
    assert from_permutation_generators([[[0, 1], [2]]], 3).order == 2


def test_construct_group_dispatch():
    assert construct_group({"family": "cyclic", "n": 4}).order == 4
    assert construct_group({"family": "quaternion8"}).order == 8
    assert construct_group({"family": "product",
                            "factors": [{"family": "cyclic", "n": 2},
                                        {"family": "cyclic", "n": 2}]}).order == 4
    t = cyclic(3).table
    assert construct_group({"order": 3, "table": t}).table == t


def test_canonical_conjugate_least():
    d4 = dihedral(4)
    s = subgroup_generated(d4, [5])
    rep = canonical_conjugate(d4, s)
    assert rep.elements == min(
        tuple(sorted(d4.conj(g, x) for x in s.elements)) for g in d4.elements())
    subs = [subgroup_generated(d4, [g]) for g in d4.elements()]
    assert dedupe_up_to_conjugacy(d4, subs) == dedupe_up_to_conjugacy(d4, subs[::-1])


def test_induced_abelian_hom():
    g = dihedral(4)
    s = subgroup_generated(g, [1])  # rotation subgroup Z/4
    sub_group, _ = s.as_group()
    sub_ab = abelianization(sub_group)
    parent_ab = abelianization(g)
    nat = induced_abelian_hom(s, sub_ab, parent_ab)
    assert nat.domain == sub_ab.group and nat.codomain == parent_ab.group
    # the rotation generator maps to the nontrivial rotation class
    img = nat(sub_ab.group.element((1,)))
    assert img == parent_ab.project(1)


def test_order_cap():
    assert cyclic(512).order == 512
    with pytest.raises(ConstructionError):
        cyclic(513)
    with pytest.raises(ConstructionError):
        direct_product(cyclic(32), cyclic(32))
    # phi(n) is checked before any residue is listed
    with pytest.raises(ConstructionError) as exc:
        units_mod(10 ** 8)
    assert exc.value.payload()["error"]["context"] == {"order": 40_000_000, "cap": 512}
    with pytest.raises(ConstructionError, match="hard cap"):
        units_mod(1 << 63)


def test_latin_but_no_identity_rejected():
    # subtraction table: Latin square whose one-sided identities disagree
    n = 3
    t = tuple(tuple((a - b) % n for b in range(n)) for a in range(n))
    with pytest.raises(ConstructionError):
        from_table(t)
    # its transpose has a left identity but no right one
    with pytest.raises(ConstructionError) as exc:
        from_table(tuple(zip(*t)))
    assert str(exc.value) == "no two-sided identity"


# ---------------------------------------------------------------------------
# brute-force references: the original quadratic closure, conjugation by
# every element, and the full n^3 associativity scan
# ---------------------------------------------------------------------------

def reference_closure(group, gens):
    elems = {group.identity}
    frontier = list(set(gens))
    elems.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (group.table[a][b], group.table[b][a]):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(elems))


def reference_powers(group, x):
    """<x> as the sorted list of the powers of x: linear, where the
    quadratic ``reference_closure`` is too slow at the cap."""
    powers = [group.identity]
    y = x
    while y != group.identity:
        powers.append(y)
        y = group.table[y][x]
    return tuple(sorted(powers))


def reference_conjugates(group, elements):
    return {tuple(sorted(group.conj(g, x) for x in elements)) for g in group.elements()}


def reference_canonical_conjugate(group, elements):
    return min(reference_conjugates(group, elements))


def reference_is_normal(group, elements):
    mem = set(elements)
    return all(group.conj(g, x) in mem for g in group.elements() for x in elements)


def reference_center(group):
    t = np.array(group.table)
    return tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist())


def reference_classes(group):
    return sorted({tuple(sorted({group.conj(x, g) for x in group.elements()}))
                   for g in group.elements()})


def reference_local_table(group, elements):
    local = np.zeros(group.order, dtype=np.int64)
    local[list(elements)] = np.arange(len(elements))
    return local[np.array([group.table[a] for a in elements])[:, elements]]


def reference_first_triple(table):
    t = np.asarray(table)
    for a in range(len(t)):
        left = t[t[a]]
        right = t[a][t]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return [int(a), int(b), int(c)]
    return None


def relabelled(table, rng):
    """The same multiplication under a random renaming of the elements."""
    t = np.asarray(table)
    perm = np.array(rng.sample(range(len(t)), len(t)))
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return out


def small_groups():
    """Groups of order <= 64 from every family, products included."""
    out = [cyclic(n) for n in (1, 2, 5, 12, 16, 30, 64)]
    out += [dihedral(n) for n in (3, 4, 6, 10, 16, 32)]
    out += [Q8] + [units_mod(n) for n in (8, 15, 21, 63, 80)]
    out += [direct_product(*fs).group for fs in (
        (Q8, cyclic(2)), (dihedral(4), cyclic(3)), (cyclic(4), cyclic(4), cyclic(2)),
        (Q8, Q8), (dihedral(3), dihedral(3)), (cyclic(2),) * 6)]
    return out


def quotient_groups():
    """Quotients by the center and by the commutator subgroup."""
    return [quotient_group(g, normal(g)).group
            for g in (Q8, dihedral(6), direct_product(Q8, cyclic(3)).group, units_mod(15))
            for normal in (center, commutator_subgroup)]


def permutation_groups():
    return [from_permutation_generators([[[0, 1, 2]], [[0, 1]]], 3, "S3"),
            from_permutation_generators([[[0, 1, 2]], [[1, 2, 3]]], 4),
            from_permutation_generators([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], 5, "S5"),
            from_permutation_generators([], 2)]


def cap_groups():
    """One group of each builder at |G| = 512."""
    def d4(k):                  # D4 on the points 4k, ..., 4k + 3
        return [[[4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3]], [[4 * k + 1, 4 * k + 3]]]

    return [cyclic(512), dihedral(256), units_mod(1024),
            direct_product(Q8, Q8, Q8).group,
            quotient_group(cyclic(512), trivial_subgroup(cyclic(512))).group,
            from_permutation_generators([g for k in range(3) for g in d4(k)], 12, "D4^3")]


@pytest.mark.parametrize("family", ["small", "quotient", "permutation", "cap"])
def test_builders_match_from_table(family):
    """Every builder's table, checked by nothing, gives the fields ``from_table``
    gives after checking it, with plain int entries."""
    groups = {"small": small_groups, "quotient": quotient_groups,
              "permutation": permutation_groups, "cap": cap_groups}[family]()
    for g in groups:
        checked = from_table(g.table, g.name)
        assert (g.table, g.identity, g.inverses, g.name) == (
            checked.table, checked.identity, checked.inverses, checked.name), g
        assert {type(x) for row in g.table for x in row} == {int}
        assert type(g.identity) is int and {type(x) for x in g.inverses} == {int}
    if family == "cap":
        assert [g.order for g in groups] == [512] * len(groups)


def assert_subgroup_as_group_matches_from_table(g, elements):
    restricted, embed = _subgroup_as_group(g, elements)
    checked = from_table(reference_local_table(g, elements))
    assert embed == elements
    assert (restricted.table, restricted.identity, restricted.inverses, restricted.name) == (
        checked.table, checked.identity, checked.inverses, checked.name)


@pytest.mark.parametrize("cap", [False, True], ids=["order<=64", "order512"])
def test_closure_and_conjugacy_match_references(cap):
    rng = random.Random(20261018)
    bases = [cyclic(512), dihedral(256)] if cap else small_groups()
    # at the cap, the closure of one element is checked against its powers
    cyclic_reference = reference_powers if cap else (lambda g, x: reference_closure(g, [x]))
    normal_seen = set()
    for base in bases:
        g = from_table(relabelled(base.table, rng))
        assert g.order == base.order
        subs = set()
        for x in g.elements():
            sub = closure(g, [x])
            assert sub == cyclic_reference(g, x), (base, x)
            subs.add(sub)
        reps = set()
        for sub in subs:
            conjugates = reference_conjugates(g, sub)
            reps.add(min(conjugates))
            s = Subgroup(g, sub)
            assert canonical_conjugate(g, s).elements == min(conjugates), (base, sub)
            # normal exactly when sub is its only conjugate
            assert is_normal(g, s) == (conjugates == {sub}), (base, sub)
            assert_subgroup_as_group_matches_from_table(g, sub)
        assert ([s.elements for s in cyclic_subgroups_up_to_conjugacy(g)]
                == sorted(reps, key=lambda e: (len(e), e))), base
        assert center(g).elements == reference_center(g), base
        assert orbit_classes(g) == reference_classes(g), base
        gens = rng.sample(range(g.order), min(3, g.order))
        assert closure(g, gens) == reference_closure(g, gens)
        two_generator = {closure(g, [rng.randrange(g.order) for _ in range(2)])
                         for _ in range(6)}
        for sub in sorted(two_generator - subs):
            normal = reference_is_normal(g, sub)
            assert is_normal(g, Subgroup(g, sub)) == normal, (base, sub)
            normal_seen.add(normal)
            assert_subgroup_as_group_matches_from_table(g, sub)
    assert normal_seen == {False, True}


def reference_subgroup_error(group, elements):
    """The first failure of the original pairwise subgroup check, or None."""
    mem = set(elements)
    if group.identity not in mem:
        return "subgroup misses the identity", {}
    for a in sorted(mem):
        if group.inverses[a] not in mem:
            return "subgroup not closed under inverse", {"element": a}
        for b in sorted(mem):
            if group.table[a][b] not in mem:
                return "subgroup not closed", {"pair": [a, b]}
    return None


def test_subgroup_validation_matches_reference():
    rng = random.Random(11)
    for base in small_groups() + [dihedral(256)]:
        g = from_table(relabelled(base.table, rng))
        for _ in range(12):
            gens = [rng.randrange(g.order) for _ in range(rng.randint(0, 2))]
            sub = reference_closure(g, gens)
            extra = [rng.randrange(g.order) for _ in range(rng.randint(0, 2))]
            for elements in (sub, sub + tuple(extra), tuple(extra) + (g.identity,),
                             tuple(x for x in sub if x != g.identity)):
                expected = reference_subgroup_error(g, elements)
                if expected is None:
                    assert Subgroup(g, elements).elements == tuple(sorted(set(elements)))
                    continue
                with pytest.raises(ConstructionError) as exc:
                    Subgroup(g, elements)
                assert (str(exc.value), exc.value.context) == expected


def test_vectorized_tables_match_loops():
    # the element-by-element constructions the numpy ones replaced
    for n in (1, 2, 5, 17):
        assert cyclic(n).table == tuple(
            tuple((a + b) % n for b in range(n)) for a in range(n))
    for n in (1, 2, 3, 8):
        def mul(a, b):
            ra, fa, rb, fb = a % n, a >= n, b % n, b >= n
            if not fa and not fb:
                return (ra + rb) % n
            if not fa and fb:
                return n + (rb - ra) % n
            if fa and not fb:
                return n + (ra + rb) % n
            return (rb - ra) % n
        assert dihedral(n).table == tuple(
            tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))
    for n in (1, 2, 12, 35, 64):
        res = residues_of(units_mod(n))
        assert units_mod(n).table == tuple(
            tuple(res.index((a * b) % n if n > 1 else 1) for b in res) for a in res)
    for factors in ((cyclic(2), cyclic(3)), (Q8, dihedral(3)),
                    (cyclic(2), Q8, cyclic(3))):
        prod = direct_product(*factors)
        assert prod.group.table == tuple(
            tuple(prod.pack(tuple(f.mul(x, y) for f, x, y in
                                  zip(factors, prod.unpack(a), prod.unpack(b))))
                  for b in prod.group.elements())
            for a in prod.group.elements())
    for g in (Q8, dihedral(6), direct_product(Q8, cyclic(3)).group, units_mod(15)):
        t, inv = g.table, g.inverses
        commutators = {t[t[a][b]][t[inv[a]][inv[b]]] for a in g.elements() for b in g.elements()}
        derived = commutator_subgroup(g)
        assert derived.elements == reference_closure(g, commutators)
        for normal in (derived, center(g)):
            q = quotient_group(g, normal)
            reps = q.representatives
            assert q.group.table == tuple(
                tuple(q.projection[t[ra][rb]] for rb in reps) for ra in reps)
        assert center(g).elements == tuple(
            x for x in g.elements() if all(t[x][y] == t[y][x] for y in g.elements()))
        local, embed = subgroup_generated(g, [g.order - 1, g.order - 2]).as_group()
        assert local.table == tuple(
            tuple(embed.index(t[a][b]) for b in embed) for a in embed)


def with_intercalate_swap(group, rng):
    """The table with one 2x2 Latin subsquare swapped, identity row and column kept.

    Rows r1, r2 and columns c1, c2 with r1 c1 = r2 c2 and r1 c2 = r2 c1
    hold two values crosswise; exchanging them leaves a Latin square.
    """
    t = [list(row) for row in group.table]
    e, inv = group.identity, group.inverses
    for _ in range(10_000):
        r1, r2, c1 = rng.sample([x for x in group.elements() if x != e], 3)
        c2 = t[inv[r2]][t[r1][c1]]
        if c2 not in (e, c1) and t[r1][c2] == t[r2][c1]:
            t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
            t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
            return t
    raise AssertionError(f"no intercalate found in {group}")


def test_non_associative_latin_squares_rejected():
    rng = random.Random(7)
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    # {0, 1, 2, 3} is closed under right multiplication by 1 and 2, so the
    # elements reached stop doubling: no group table can do that
    undoubled = (
        (0, 1, 2, 3, 4, 5, 6),
        (1, 0, 3, 4, 2, 6, 5),
        (2, 3, 0, 5, 6, 1, 4),
        (3, 2, 1, 6, 5, 4, 0),
        (4, 5, 6, 0, 1, 2, 3),
        (5, 6, 4, 1, 0, 3, 2),
        (6, 4, 5, 2, 3, 0, 1),
    )
    tables = [loop, undoubled]
    for g in (cyclic(8), Q8, dihedral(4), cyclic(16), dihedral(12), units_mod(40),
              direct_product(Q8, cyclic(4)).group, cyclic(64), dihedral(32),
              direct_product(cyclic(2), cyclic(2), cyclic(2), cyclic(8)).group):
        for _ in range(3):
            tables.append(relabelled(with_intercalate_swap(g, rng), rng))
    for table in tables:
        t = np.asarray(table)
        n = len(t)
        # a Latin square with a two-sided identity: only associativity can fail
        assert all(sorted(row) == list(range(n)) for row in t.tolist())
        assert all(sorted(col) == list(range(n)) for col in t.T.tolist())
        assert any((t[e] == np.arange(n)).all() and (t[:, e] == np.arange(n)).all()
                   for e in range(n))
        expected = reference_first_triple(t)
        assert expected is not None
        with pytest.raises(ConstructionError) as exc:
            from_table(table)
        assert str(exc.value) == "associativity fails"
        a, b, c = exc.value.context["triple"]
        assert t[t[a, b], c] != t[a, t[b, c]]
        assert exc.value.context["triple"] == expected


def test_latin_check_names_first_bad_line():
    # every row is a permutation; columns 1 and 2 repeat entries
    with pytest.raises(ConstructionError) as exc:
        from_table(((0, 1, 2), (2, 1, 0), (1, 0, 2)))
    assert str(exc.value) == "table is not a Latin square"
    assert exc.value.context == {"line": 1}
    # the transpose fails on rows 1 and 2 instead
    with pytest.raises(ConstructionError) as exc:
        from_table(((0, 2, 1), (1, 1, 0), (2, 0, 2)))
    assert exc.value.context == {"line": 1}


def test_ragged_table_rejected():
    with pytest.raises(ConstructionError) as exc:
        from_table([[0, 1], [1]])
    assert str(exc.value) == "table is not square"
    with pytest.raises(ConstructionError) as exc:
        from_table([[0, 1, 2], [1, 2, 0]])
    assert exc.value.context == {"shape": [2, 3]}


def test_permutation_degree_allocates_only_moved_points():
    # points no generator moves are fixed by the group, so a large degree
    # costs nothing: at degree 10^5 the closure used to hold 22.5 MB
    gens = [[[0, 1, 2]], [[1, 2, 3]]]
    small = from_permutation_generators(gens, 4)
    tracemalloc.start()
    try:
        big = from_permutation_generators(gens, 10 ** 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert big.table == small.table
    assert big.name == "perm_deg100000"
    assert peak < 1_000_000
    # image arrays: a fixed tail changes nothing, a short array is rejected
    arrays = from_permutation_generators([[1, 2, 0, 3, 4], [0, 2, 1, 3, 4]], 5)
    assert arrays.table == from_permutation_generators([[[0, 1, 2]], [[1, 2]]], 3).table
    with pytest.raises(ConstructionError):
        from_permutation_generators([[1, 0]], 10 ** 5)
    with pytest.raises(ConstructionError):
        from_permutation_generators([[[0, 10 ** 5]]], 10 ** 5)


def test_cyclic_generator_is_least():
    assert cyclic_generator(cyclic(6)) == 1
    assert cyclic_generator(units_mod(9)) == 1  # residue 2 generates (Z/9)^*
    assert cyclic_generator(cyclic(1)) == 0
    assert cyclic_generator(direct_product(cyclic(2), cyclic(2)).group) is None
    assert cyclic_generator(Q8) is None


def test_coset_index():
    g = dihedral(4)
    sub = subgroup_generated(g, [4])
    for side in ("left", "right"):
        parts = cosets(g, sub, side)
        index = coset_index(g, parts)
        assert [index[x] for cs in parts for x in cs] == [
            i for i, cs in enumerate(parts) for _ in cs]


TRACED_TAU_CAP = """
import contextlib, importlib.util, io, json, os, sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
from cmtori import cli


def load(name):
    spec = importlib.util.spec_from_file_location(name, root / "cmbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("spans").Tracer()
tracer.install()
plan = load("inputs").tau_cap(1001)
os.chdir(sys.argv[2])
for name, payload in plan["files"].items():
    Path(name).write_text(json.dumps(payload))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(op["argv"]) for op in plan["ops"]]
print(json.dumps([codes, tracer.layers()["groups.from_table_calls"]]))
"""


def test_traced_tau_cap_checks_only_input_tables(tmp_path):
    """A traced tau_cap pass of the benchmark calls ``from_table`` only on
    the three explicit Q8 tables of its datum files."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", TRACED_TAU_CAP, str(root), str(tmp_path)],
                          check=True, capture_output=True, text=True)
    codes, calls = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert calls == 3

import random

import pytest

from references import conjugation_norm, cyclic_relative_quotient, transfer_cyclic_double_coset
from cmtori.abelian import image_of_hom
from cmtori.errors import ConstructionError
from cmtori.groups import (
    Subgroup,
    center,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    quotient_group,
    subgroup_generated,
    trivial_subgroup,
    units_mod,
)
from cmtori.transfer import (
    canonical_section,
    group_abelianization,
    relative_target,
    relative_transfer,
    right_transfer,
    subgroup_abelianization,
    transfer,
    transfer_surjectivity_check,
    transfer_with_section,
)

Q8 = quaternion8()


def corpus_pairs():
    """(G, H) instances with |G| <= 32 used by the property suite."""
    groups = [
        cyclic(4), cyclic(6), cyclic(12), units_mod(8), units_mod(12),
        units_mod(15), units_mod(16), units_mod(24), dihedral(3), dihedral(4),
        dihedral(6), Q8, direct_product(Q8, cyclic(2)).group,
        direct_product(cyclic(2), cyclic(4)).group,
        direct_product(dihedral(3), cyclic(2)).group,
        direct_product(cyclic(3), cyclic(3)).group,
    ]
    pairs = []
    for g in groups:
        subs = {subgroup_generated(g, [x]).elements for x in g.elements()}
        picked = sorted(subs, key=lambda e: (len(e), e))
        # trivial, a small one, a large one
        keep = {picked[0], picked[-1]}
        if len(picked) > 2:
            keep.add(picked[len(picked) // 2])
        for elems in sorted(keep):
            pairs.append((g, Subgroup(g, elems)))
    return pairs


def test_transfer_cyclic4_onto_index_two():
    g = cyclic(4)
    h = subgroup_generated(g, [2])
    f = transfer(g, h)
    # Ver(1) = 2 generates the subgroup: surjective
    assert image_of_hom(f).group.order == 2
    assert transfer_surjectivity_check(g, h)


def test_transfer_q8_center_is_zero():
    z = center(Q8)
    f = transfer(Q8, z)
    assert f.is_zero
    assert not transfer_surjectivity_check(Q8, z)


def test_transfer_dihedral3_rotations_is_zero():
    d3 = dihedral(3)
    rot = subgroup_generated(d3, [1])
    # no nonzero hom Z/2 -> Z/3
    assert transfer(d3, rot).is_zero


def test_transfer_klein_four_zero_on_any_line():
    g = units_mod(8)
    for x in g.elements():
        if x == g.identity:
            continue
        n = subgroup_generated(g, [x])
        assert transfer(g, n).is_zero
        assert not transfer_surjectivity_check(g, n)


def test_section_independence():
    rng = random.Random(20260811)
    pairs = corpus_pairs()
    assert len(pairs) >= 30
    for g, h in pairs:
        canonical = transfer(g, h)
        parts, _ = canonical_section(g, h)
        from cmtori.groups import cosets
        coset_list = cosets(g, h, "left")
        for _ in range(50):
            reps = tuple(rng.choice(cs) for cs in coset_list)
            assert transfer_with_section(g, h, reps).matrix == canonical.matrix


def test_right_coset_agreement():
    for g, h in corpus_pairs():
        assert right_transfer(g, h).matrix == transfer(g, h).matrix


def test_product_formula():
    # Ver_{G1xG2,H1xH2}(g1,g2) = Ver(g1)^[G2:H2] * Ver(g2)^[G1:H1]
    factors = [
        (cyclic(4), (2,)), (cyclic(6), (2,)), (Q8, (2,)),
        (dihedral(4), (1,)), (units_mod(8), (3,)), (cyclic(8), (4,)),
    ]
    for g1, gen1 in factors:
        for g2, gen2 in factors:
            h1 = subgroup_generated(g1, gen1)
            h2 = subgroup_generated(g2, gen2)
            prod = direct_product(g1, g2)
            g = prod.group
            h = Subgroup(g, tuple(sorted(
                prod.pack((a, b)) for a in h1.elements for b in h2.elements)))
            f = transfer(g, h)
            f1 = transfer(g1, h1)
            f2 = transfer(g2, h2)
            hab, _ = subgroup_abelianization(h)
            _, embed = h.as_group()
            local = {p: i for i, p in enumerate(embed)}
            gab = group_abelianization(g)
            g1ab = group_abelianization(g1)
            g2ab = group_abelianization(g2)
            h1ab, _ = subgroup_abelianization(h1)
            h2ab, _ = subgroup_abelianization(h2)
            _, embed1 = h1.as_group()
            _, embed2 = h2.as_group()
            idx2 = g2.order // h2.order
            idx1 = g1.order // h1.order
            for a in g1.elements():
                for b in g2.elements():
                    packed = prod.pack((a, b))
                    left = f(gab.project(packed))
                    v1 = f1(g1ab.project(a)).scaled(idx2)
                    v2 = f2(g2ab.project(b)).scaled(idx1)
                    # embed the factor values into H^ab and compare
                    lhs = left
                    rhs = _embed_value(prod, hab, local, v1, h1ab, embed1, g1.identity,
                                       g2.identity, 0) + \
                        _embed_value(prod, hab, local, v2, h2ab, embed2, g1.identity,
                                     g2.identity, 1)
                    assert lhs == rhs


def _embed_value(prod, hab, local, value, fab, fembed, e1, e2, slot):
    """Push a factor-abelianization value into the product subgroup abelianization."""
    parent = None
    for i in range(len(fembed)):
        if fab.project(i) == value:
            parent = fembed[i]
            break
    assert parent is not None
    packed = prod.pack((parent, e2) if slot == 0 else (e1, parent))
    return hab.project(local[packed])


def test_norm_compatibility():
    # for H normal, Ver o (H^ab -> G^ab) is the conjugation norm on H^ab
    from cmtori.groups import induced_abelian_hom, is_normal

    for g, h in corpus_pairs():
        if not is_normal(g, h):
            continue
        hab, _ = subgroup_abelianization(h)
        local_group, _ = h.as_group()
        gab = group_abelianization(g)
        nat = induced_abelian_hom(h, hab, gab)
        composite = transfer(g, h).compose(nat)
        assert composite.matrix == conjugation_norm(g, h).matrix


def test_functoriality_along_quotients():
    # sigma: (G,H) -> (G/K, H/K) with K <= H normal in G induces a coset bijection
    cases = [
        (cyclic(8), (2,), (4,)),
        (dihedral(4), (1,), (2,)),
        (Q8, (2,), (1,)),
        (cyclic(12), (2,), (6,)),
    ]
    for g, hgens, kgens in cases:
        h = subgroup_generated(g, hgens)
        k = subgroup_generated(g, kgens)
        if not k.elements <= h.elements:
            continue
        from cmtori.groups import is_normal
        if not is_normal(g, k):
            continue
        quot = quotient_group(g, k)
        gq = quot.group
        hq = Subgroup(gq, tuple(sorted({quot.projection[x] for x in h.elements})))
        if g.order // h.order != gq.order // hq.order:
            continue
        gab = group_abelianization(g)
        gqab = group_abelianization(gq)
        hab, _ = subgroup_abelianization(h)
        hqab, _ = subgroup_abelianization(hq)
        _, embed_h = h.as_group()
        _, embed_hq = hq.as_group()
        local_hq = {p: i for i, p in enumerate(embed_hq)}
        fver = transfer(g, h)
        fver_q = transfer(gq, hq)
        for x in g.elements():
            v = fver(gab.project(x))
            # push v along sigma: lift to an element of H, project its image
            parent = None
            for i in range(len(embed_h)):
                if hab.project(i) == v:
                    parent = embed_h[i]
                    break
            assert parent is not None
            lhs = hqab.project(local_hq[quot.projection[parent]])
            rhs = fver_q(gqab.project(quot.projection[x]))
            assert lhs == rhs


def test_relative_transfer_collapses():
    g = units_mod(12)
    out = subgroup_generated(g, [3])  # residue 11 = index 3
    # inner = outer: target trivial
    t = relative_transfer(g, out, out)
    assert t.codomain.is_trivial
    # inner trivial: agrees with the plain transfer
    triv = trivial_subgroup(g)
    assert relative_transfer(g, out, triv).matrix == transfer(g, out).matrix


def test_relative_transfer_is_projection_of_transfer():
    cases = [
        (Q8, (2,), (1,)),
        (dihedral(6), (1,), (3,)),
        (cyclic(12), (1,), (6,)),
        (direct_product(Q8, cyclic(2)).group, None, None),
    ]
    prod = direct_product(Q8, cyclic(2))
    cases[-1] = (prod.group,
                 tuple(sorted(prod.pack((z, b)) for z in center(Q8).elements for b in (0, 1))),
                 tuple(sorted(prod.pack((Q8.identity, b)) for b in (0, 1))))
    for g, ogens, igens in cases:
        outer = Subgroup(g, ogens) if isinstance(ogens, tuple) and all(
            isinstance(x, int) for x in ogens) and len(ogens) > 2 else subgroup_generated(g, ogens)
        inner = Subgroup(g, igens) if isinstance(igens, tuple) and all(
            isinstance(x, int) for x in igens) and len(igens) > 2 else subgroup_generated(g, igens)
        if not outer.contains_subgroup(inner):
            continue
        target = relative_target(outer, inner)
        ver = transfer(g, outer)
        rel = relative_transfer(g, outer, inner)
        gab = group_abelianization(g)
        _, embed = outer.as_group()
        outer_ab, _ = subgroup_abelianization(outer)
        for x in g.elements():
            v = ver(gab.project(x))
            parent = None
            for i in range(len(embed)):
                if outer_ab.project(i) == v:
                    parent = embed[i]
                    break
            assert target.project(parent) == rel(gab.project(x))


def test_q8_product_relative_factors_through_projection():
    # relative transfer on Q8 x Z/2 with outer = center(Q8) x Z/2, inner = 1 x Z/2
    prod = direct_product(Q8, cyclic(2))
    g = prod.group
    outer = Subgroup(g, tuple(sorted(
        prod.pack((z, b)) for z in center(Q8).elements for b in (0, 1))))
    inner = Subgroup(g, tuple(sorted(prod.pack((Q8.identity, b)) for b in (0, 1))))
    rel = relative_transfer(g, outer, inner)
    assert rel.is_zero  # the Q8 factor transfer onto its center is zero


def test_double_coset_identity_and_cyclic4():
    g = cyclic(4)
    outer = subgroup_generated(g, [2])
    inner = trivial_subgroup(g)
    elt, quot = transfer_cyclic_double_coset(g, outer, inner, g.identity)
    assert elt == quot.group.identity
    # generator: single double coset, f = 2, lands on the generator of N
    elt, quot = transfer_cyclic_double_coset(g, outer, inner, 1)
    assert quot.group.element_order(elt) == 2


def test_double_coset_matches_relative_transfer():
    cases = []
    for g, outer_gens, inner_gens in [
        (cyclic(4), (2,), ()),
        (Q8, (1,), ()),
        (dihedral(6), (1,), (2,)),
        (cyclic(12), (2,), (6,)),
        (units_mod(16), (1,), ()),
    ]:
        outer = subgroup_generated(g, outer_gens)
        inner = subgroup_generated(g, inner_gens)
        if not outer.contains_subgroup(inner):
            continue
        cases.append((g, outer, inner))
    for g, outer, inner in cases:
        quot, embed, local_index = cyclic_relative_quotient(outer, inner)
        if not quot.group.element_order(max(quot.group.elements(),
                                            key=quot.group.element_order)) == quot.group.order:
            continue
        rel = relative_transfer(g, outer, inner)
        target = relative_target(outer, inner)
        gab = group_abelianization(g)
        for x in g.elements():
            elt, q = transfer_cyclic_double_coset(g, outer, inner, x)
            rep = q.representatives[elt]
            assert target.project(embed[rep]) == rel(gab.project(x))


def test_double_coset_requires_cyclic_quotient():
    g = direct_product(cyclic(2), cyclic(2)).group
    with pytest.raises(ConstructionError):
        transfer_cyclic_double_coset(g, Subgroup(g, (0, 1, 2, 3)),
                                     trivial_subgroup(g), 1)


def test_rued_criterion_over_small_groups():
    # surjective onto a normal prime-order subgroup iff the p-Sylow is cyclic
    groups = [cyclic(4), cyclic(6), cyclic(8), cyclic(12), units_mod(8),
              units_mod(12), units_mod(15), units_mod(16), dihedral(3),
              dihedral(4), dihedral(6), Q8, direct_product(Q8, cyclic(2)).group,
              direct_product(cyclic(2), cyclic(4)).group,
              direct_product(cyclic(4), cyclic(4)).group,
              direct_product(cyclic(3), cyclic(3)).group]
    from cmtori.groups import is_normal, sylow

    checked = 0
    for g in groups:
        if g.order > 16:
            continue
        seen = set()
        for x in g.elements():
            s = subgroup_generated(g, [x])
            if s.order < 2 or s.elements in seen:
                continue
            seen.add(s.elements)
            p = s.order
            if any(p % d == 0 for d in range(2, p)):
                continue
            if not is_normal(g, s):
                continue
            central = all(g.conj(y, x) == x for y in g.elements() for x in s.elements)
            res = transfer_surjectivity_check(g, s)
            if central:
                assert res == sylow(g, p).is_cyclic()
            else:
                assert not res
            checked += 1
    assert checked >= 20


def test_noncentral_normal_subgroup_gets_zero_transfer():
    # rotations of order 3 in D3: normal, not central, so the transfer dies
    d3 = dihedral(3)
    rot = subgroup_generated(d3, [1])
    assert transfer(d3, rot).is_zero
    assert not transfer_surjectivity_check(d3, rot)

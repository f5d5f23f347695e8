"""The engine's formulas on the character side, kept as a test reference.

The engine works on subgroups of G^ab: coker c for H^1 of the torus,
|G^ab| / |W| for the primitive order, K / W for Sha^2, with c the
combined transfer, K = ker c and W the subgroup generated by the local
transfer kernels.  This module computes the same invariants through
Pontryagin duals, as the engine once did: ker(dual c), the annihilator
Ann(W) built on the double cosets D\\G/Ntilde, and Ann(W) / im(dual c).
"""

from references import mat_mul, product_datum
from cmtori.abelian import (
    AbElement,
    AbHom,
    FinAb,
    SubgroupData,
    cokernel_of_hom,
    factor_through,
    kernel_of_hom,
    subgroup_of,
)
from cmtori.datum import TorusPair
from cmtori.engine import _combined_transfer
from cmtori.groups import (
    FiniteGroup,
    Subgroup,
    coset_index,
    cosets,
    induced_abelian_hom,
    intersect,
)
from cmtori.transfer import group_abelianization, relative_transfer, subgroup_abelianization


def dual_group(a: FinAb) -> FinAb:
    """Hom(A, Q/Z); same invariant factors in the canonical pairing."""
    return FinAb(a.factors)


def dual_hom(f: AbHom) -> AbHom:
    """Pontryagin dual, reversing arrows.

    With chi_j the character sending the j-th generator to 1/d_j, the dual
    matrix entry is d^dom_j * m_ij / d^cod_i (an exact integer because the
    matrix respects generator orders).
    """
    dx = f.domain.factors
    dy = f.codomain.factors
    m = f.matrix
    out = tuple(
        tuple((dx[j] * m[i][j]) // dy[i] for i in range(len(dy)))
        for j in range(len(dx)))
    return AbHom(dual_group(f.codomain), dual_group(f.domain), out)


def _combined_hom(domain: FinAb, homs) -> AbHom:
    """x -> (f_i x)_i as one map into the sum of the codomains.

    The cokernel of the zero maps out of the trivial group is that sum,
    and its projections are the injections; the injection matrices side by
    side times the f_i matrices stacked give the map.
    """
    homs = tuple(homs)
    total, injections = cokernel_of_hom(
        [AbHom(FinAb(()), f.codomain, ((),) * f.codomain.rank) for f in homs])
    inj = tuple(sum((i.matrix[r] for i in injections), ()) for r in range(total.rank))
    stacked = tuple(row for f in homs for row in f.matrix)
    return AbHom(domain, total, mat_mul(inj, stacked))


def pairing(char: AbElement, el: AbElement):
    """chi(x) in Q/Z returned as a Fraction-free (num, den) with den = exponent."""
    a = el.group
    if char.group != dual_group(a):
        raise ValueError("character of a different group")
    den = a.exponent if a.factors else 1
    num = 0
    for c, x, d in zip(char.coords, el.coords, a.factors):
        num += c * x * (den // d)
    return num % den, den


def annihilator(w: SubgroupData) -> SubgroupData:
    """Characters of the ambient group A vanishing on the subgroup W.

    Returned as a subgroup of dual_group(A); |Ann(W)| * |W| = |A|.
    """
    f = dual_hom(w.inclusion)
    return kernel_of_hom(f.domain, [f])


def _double_coset_inner_twists(g: FiniteGroup, dec: Subgroup, pair: TorusPair):
    """Conjugates g.inner.g^-1 over representatives of dec \\ G / outer.

    Restricting the induced norm-one block to a decomposition group
    decomposes over these double cosets, and each block twists the inner
    subgroup by its representative; for inner normal in G all twists
    coincide.
    """
    outer_cosets = cosets(g, pair.outer, "left")
    coset_of = coset_index(g, outer_cosets)
    seen = set()
    twists = []
    for idx, cs in enumerate(outer_cosets):
        if idx in seen:
            continue
        orbit = {idx}
        frontier = [idx]
        while frontier:
            current = frontier.pop()
            rep = outer_cosets[current][0]
            for d in dec.elements:
                nxt = coset_of[g.table[d][rep]]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen.update(orbit)
        rep = outer_cosets[min(orbit)][0]
        conj = tuple(sorted(g.conj(rep, h) for h in pair.inner.elements))
        twists.append(Subgroup(g, conj))
    unique = {t.elements: t for t in twists}
    return [unique[k] for k in sorted(unique)]


def _generators(a: FinAb):
    return [a.element(tuple(1 if i == j else 0 for i in range(a.rank)))
            for j in range(a.rank)]


def primitive_characters(datum) -> tuple[SubgroupData, SubgroupData]:
    """(Ann(W) inside dual(G^ab), W), one relative transfer per double coset."""
    g = datum.group
    g_ab = group_abelianization(g)
    w_gens = []
    for dec in datum.effective_decomposition_set():
        local, _ = dec.as_group()
        d_ab, _ = subgroup_abelianization(dec)
        local_pairs = []
        for pair in datum.pairs:
            di_local = dec.localize(intersect(dec, pair.outer))
            for twisted_inner in _double_coset_inner_twists(g, dec, pair):
                local_pairs.append((di_local, dec.localize(intersect(dec, twisted_inner))))
        homs = [relative_transfer(local, o, i) for o, i in local_pairs]
        ker = kernel_of_hom(d_ab.group, homs)
        nat = induced_abelian_hom(dec, d_ab, g_ab)
        w_gens += [nat(ker.inclusion(gen)) for gen in _generators(ker.group)]
    w = subgroup_of(g_ab.group, w_gens)
    ann = annihilator(w)
    assert ann.group.order * w.group.order == g_ab.group.order
    return ann, w


def _annihilates(char: AbElement, w: SubgroupData) -> bool:
    return all(pairing(char, w.inclusion(gen))[0] == 0 for gen in _generators(w.group))


def character_side_report(datum):
    """(H^1 of the torus, primitive order, Sha^2), as invariant factors and order."""
    g_ab = group_abelianization(datum.group).group
    dual = dual_hom(_combined_hom(g_ab, _combined_transfer(datum)))
    ann, _ = primitive_characters(datum)
    sha = cokernel_of_hom([factor_through(ann.inclusion, dual)])[0]
    return kernel_of_hom(dual.domain, [dual]).group.factors, ann.group.order, sha.factors


def character_side_inclusion(data, extras=()) -> bool:
    """Whether every factor's primitive characters, pulled back along the
    projection of the product, are primitive for the combined datum."""
    combined_datum, prod = product_datum(tuple(data), extras)
    g_ab = group_abelianization(combined_datum.group)
    _, w = primitive_characters(combined_datum)
    ok = True
    for i, d in enumerate(data):
        f_ab = group_abelianization(d.group)
        cols = [f_ab.images[prod.unpack(sec)[i]] for sec in g_ab.sections]
        nat = AbHom(g_ab.group, f_ab.group,
                    tuple(tuple(col[r] for col in cols) for r in range(f_ab.group.rank)))
        chars, _ = primitive_characters(d)
        for gen in _generators(chars.group):
            ok &= _annihilates(dual_hom(nat)(chars.inclusion(gen)), w)
    return ok

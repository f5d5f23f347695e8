"""Fast path: Tamagawa numbers from transfer maps alone.

For a datum with cyclic relative quotients N_i = outer_i/inner_i and
normal outer subgroups, the Tamagawa number is

    tau = prod |N_i| / |primitive part of H^2(Z)|,

and H^1, Sha^2 come with it.  The character-side statements are all
computed on subgroups of G^ab: a finite abelian group has the invariant
factors of its Pontryagin dual, and an annihilator Ann(X) of a subgroup
X <= G^ab is dual to G^ab / X.  Write c = (c_i) for the family of
relative transfers c_i : G^ab -> N_i^ab, coker c for the quotient of
(+)_i N_i^ab by the image of x -> (c_i x)_i and K = ker c for their
common kernel; ``abelian`` reads both off the lattice of x -> (c_i x)_i
over the concatenated invariant factors, without forming the sum.  A character restricts into the image of a dual
transfer exactly when it annihilates that transfer's kernel, so the
primitive part is Ann(W) for the subgroup W of G^ab generated by the
images of the common kernels of the local transfers over the
decomposition groups.  Then

    H^1(torus) = ker(dual c) = Ann(im c)       ~ dual(coker c),
    |primitive part| = |Ann(W)| = |G^ab| / |W|,
    Sha^2 = Ann(W) / im(dual c) = Ann(W) / Ann(K)   ~ dual(K / W),

and exactness of the four-term sequence is the inclusion W <= K.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .abelian import (
    AbElement,
    AbHom,
    FinAb,
    SubgroupData,
    cokernel_of_hom,
    direct_sum,
    factor_through,
    kernel_of_hom,
    subgroup_of,
)
from .datum import NormTorusDatum, TamagawaReport, TorusPair
from .errors import DatumError, FastPathUnavailableError, InternalCheckError
from .groups import (
    FiniteGroup,
    Subgroup,
    closure,
    conjugation_orbit,
    induced_abelian_hom,
    intersect,
)
from .transfer import (
    group_abelianization,
    relative_target,
    relative_transfer,
    subgroup_abelianization,
)


def _require_fast_path(datum: NormTorusDatum):
    if not datum.cyclic_relative_quotients():
        raise FastPathUnavailableError(
            "a relative quotient outer/inner is not cyclic; use the cohomology oracle")
    if not datum.normal_outer():
        raise FastPathUnavailableError(
            "an outer subgroup is not normal; use the cohomology oracle")


@lru_cache(maxsize=512)
def _combined_transfer(datum: NormTorusDatum) -> tuple[AbHom, ...]:
    """The relative transfers c_i : G^ab -> N_i^ab, one per pair."""
    return tuple(relative_transfer(datum.group, pair.outer, pair.inner)
                 for pair in datum.pairs)


def h1_norm_one(datum: NormTorusDatum) -> FinAb:
    """H^1 of the norm-one character lattice: the sum of the N_i^ab (their
    duals have the same invariant factors)."""
    return direct_sum([relative_target(pair.outer, pair.inner).group
                       for pair in datum.pairs])


def h1_torus(datum: NormTorusDatum) -> FinAb:
    """H^1 of the torus character lattice: Ann(im c), dual to coker c."""
    return cokernel_of_hom(_combined_transfer(datum))[0]


@dataclass(frozen=True)
class PrimitivePart:
    """The characters of G^ab whose restriction to every decomposition group
    lies in the image of the dual relative transfer: Ann(W), of order
    |G^ab| / |W|.  ``kernel`` is K = ker c, which contains W."""

    order: int
    constraint: SubgroupData       # W <= G^ab
    kernel: SubgroupData           # K <= G^ab


def _inner_conjugates(g: FiniteGroup, pair: TorusPair) -> tuple[Subgroup, ...]:
    """The distinct conjugates x.inner.x^-1 over the cosets x.outer of G,
    sorted by their elements.

    Restricting the induced norm-one block of the pair to a decomposition
    group D splits it over the double cosets D x outer; the block of
    D x outer contributes the relative transfer of D into
    (D meet outer) / (D meet x.inner.x^-1).  Using every coset of G/outer
    instead of one per double coset changes nothing.  On the fast path
    inner is normal in outer and outer in G, so another representative
    y = d x n of D x outer (d in D, n in outer) gives the twist
    y.inner.y^-1 = d (x.inner.x^-1) d^-1.  Conjugation by d is an inner
    automorphism of D, so it is the identity on D^ab; it fixes
    D meet outer.  The transfer is natural, so the two local transfers
    differ by an isomorphism of their targets and have the same kernel in
    D^ab.  Neither the common kernel nor W moves, and the list depends on
    the pair alone, not on D.  On the fast path inner is normal in outer
    and outer in G, so the conjugates by G are the conjugates by coset
    representatives of G/outer: the list is the conjugation orbit of inner.
    """
    orbit = conjugation_orbit(g, pair.inner.elements)
    return tuple(Subgroup(g, elements) for elements in sorted(orbit))


@lru_cache(maxsize=512)
def primitive_part(datum: NormTorusDatum) -> PrimitivePart:
    _require_fast_path(datum)
    g = datum.group
    g_ab = group_abelianization(g)
    conjugates = [(pair.outer, _inner_conjugates(g, pair)) for pair in datum.pairs]
    w_gens = []
    for dec in datum.effective_decomposition_set():
        local, _ = dec.as_group()
        d_ab, _ = subgroup_abelianization(dec)
        homs = []
        for outer, inners in conjugates:
            local_outer = dec.localize(intersect(dec, outer))
            homs += [relative_transfer(local, local_outer, dec.localize(intersect(dec, inner)))
                     for inner in inners]
        ker = kernel_of_hom(d_ab.group, homs)
        local_w = induced_abelian_hom(dec, d_ab, g_ab).compose(ker.inclusion)
        w_gens += [g_ab.group.element(col) for col in zip(*local_w.matrix)]
    w = subgroup_of(g_ab.group, w_gens)
    return PrimitivePart(g_ab.group.order // w.order, w,
                         kernel_of_hom(g_ab.group, _combined_transfer(datum)))


def _k_over_w(kernel: SubgroupData, constraint: SubgroupData) -> FinAb:
    """K / W; exactness puts W inside K, so a failure is a bug."""
    try:
        w_in_k = factor_through(kernel.inclusion, constraint.inclusion)
    except InternalCheckError as exc:
        raise InternalCheckError(
            "dual transfer image escapes the primitive part") from exc
    return cokernel_of_hom([w_in_k])[0]


def sha2(datum: NormTorusDatum) -> FinAb:
    """Sha^2 of the torus lattice: Ann(W) / Ann(K), dual to K / W."""
    prim = primitive_part(datum)
    return _k_over_w(prim.kernel, prim.constraint)


def tamagawa(datum: NormTorusDatum) -> TamagawaReport:
    prim = primitive_part(datum)
    tau = Fraction(datum.relative_degree_product(), prim.order)
    return TamagawaReport(
        h1_torus=h1_torus(datum),
        h1_norm_one=h1_norm_one(datum),
        primitive_order=prim.order,
        sha2=sha2(datum),
        tau=tau,
        n_k=prim.order if datum.is_cm else None,
        exact=datum.declared_complete,
    )


# ---------------------------------------------------------------------------
# abelian CM data without a table
# ---------------------------------------------------------------------------

def _times(group: FinAb, k: int) -> AbHom:
    """x -> k x on ``group``."""
    r = group.rank
    return AbHom(group, group, tuple(tuple(k if i == j else 0 for j in range(r))
                                     for i in range(r)))


def abelian_cm_tamagawa(group: FinAb, iota: AbElement,
                        decomposition_groups) -> TamagawaReport:
    """``tamagawa`` of the CM datum (H = 1, Ntilde = <iota>) on an abelian G,
    with every cyclic subgroup and the groups generated by each list of
    elements in ``decomposition_groups`` as decomposition groups.  That set
    is the whole of the datum, so the report is exact.

    G is held by its invariant factors and nothing enumerates its
    elements, so the cost grows with its rank, never with |G|.  Every step
    is a subgroup, kernel, cokernel or ``factor_through`` of ``abelian``:

    - The transfer from an abelian D to a subgroup E is x -> [D:E] x
      (Isaacs, *Finite Group Theory*, ch. 5).  So c : G -> Ntilde^ab =
      <iota> = Z/2 is x -> (|G|/2) x, H^1(norm one) = Z/2, H^1 = coker c
      and K = ker c, as in the module docstring.
    - H = 1 has one conjugate and D meet Ntilde is <iota> or 1, so the
      local kernel ker_D is D when iota is not in D and the kernel of
      x -> (|D|/2) x on D when it is.  The archimedean <iota> is cyclic.
    - The cyclic floor.  Let e = exp(G), s = v_2(e) and P the 2-Sylow
      subgroup, so that (e/2) G = 2^(s-1) P.  The subgroup W_cyc generated
      by the ker_C over all cyclic C is G unless (e/2) G = <iota>, and
      then it is U = ker(x -> (e/2) x), of index 2.  It contains 2G, as
      2g lies in ker_<g> either way.

      (F) If (e/2) g != 0 then v_2(ord g) = s, and (e/2) g, an odd
      multiple of the one involution of <g>, is that involution.
      (a) (e/2) G != <iota>.  It is a nonzero elementary abelian 2-group,
      so some z has x = (e/2) z outside {0, iota}; by (F) iota is not in
      <z>, and z lies in W_cyc.  Let iota lie in <g> (else g lies in
      W_cyc).  Then (e/2) g is 0 or, by (F), iota, so (e/2)(g + z) is x or
      iota + x, outside {0, iota}, and by (F) iota is not in <g + z>.  So
      g = (g + z) - z lies in W_cyc.
      (b) (e/2) G = <iota>.  By (F), ker_<g> is <g> inside U when
      (e/2) g = 0, and <2g> inside U when (e/2) g = iota.  So W_cyc <= U.
      Conversely, U = G_odd + (U meet P) and G_odd <= 2G, so let g in
      U meet P have order 2^t, t < s, with iota in <g>, i.e.
      iota = 2^(t-1) g.  With iota = 2^(s-1) z (z in P), h = g - 2^(s-t) z
      lies in U, has order below 2^t, and g - h lies in 2G.  By induction
      on t, g lies in W_cyc.
    - W <= K is a hard check (``InternalCheckError``), as in ``sha2``.

    The 2-Sylow reduction: 2G <= W_cyc <= W and c(2g) = |G| g = 0, so
    2G <= W meet K, and the odd part G_odd lies in both.  With pi : G -> P the projection,
    c = c_P o pi with c_P(x) = (|P|/2) x (the odd part of |G|/2 fixes
    <iota>); iota lies in D exactly when it lies in pi(D) = D meet P; and
    pi(ker_D) = ker_pi(D) (the odd part of |D|/2 is a unit on pi(D)).  So
    (G, iota, D) and (P, iota, pi(D)) have the same report: a caller may
    pass P alone, in 2-parts of discrete logs.
    """
    ntilde = subgroup_of(group, [iota])
    if ntilde.order != 2:
        raise DatumError("iota must have order 2", iota=list(iota.coords))
    c = factor_through(ntilde.inclusion, _times(group, group.order // 2))
    half = _times(group, group.exponent // 2)
    if all(col in (iota.coords, group.zero().coords) for col in half.columns):
        w_cyc = kernel_of_hom(group, [half]).inclusion
    else:
        w_cyc = _times(group, 1)
    w_gens = [group.element(col) for col in w_cyc.columns]
    for gens in decomposition_groups:
        gens = list(gens)
        dec = subgroup_of(group, gens)
        if subgroup_of(group, gens + [iota]).order != dec.order:
            w_gens += gens
            continue
        local = kernel_of_hom(dec.group, [_times(dec.group, dec.order // 2)])
        w_gens += [group.element(col)
                   for col in dec.inclusion.compose(local.inclusion).columns]
    w = subgroup_of(group, w_gens)
    prim = group.order // w.order
    return TamagawaReport(
        h1_torus=cokernel_of_hom([c])[0],
        h1_norm_one=ntilde.group,
        primitive_order=prim,
        sha2=_k_over_w(kernel_of_hom(group, [c]), w),
        tau=Fraction(2, prim),
        n_k=prim,
        exact=True,
    )


# ---------------------------------------------------------------------------
# structural bounds
# ---------------------------------------------------------------------------

NK_ONE = "n_K = 1"
NK_AT_MOST_TWO = "n_K <= 2"
NK_UNKNOWN = "no information"


def density_bound(group: FiniteGroup, iota: int):
    """(|S|, verdict) with S the elements generating a subgroup avoiding iota.

    Applies to a Galois CM field with this Galois group and complex
    conjugation iota; for a datum with nontrivial inner subgroups the
    verdict says nothing about its norm index.
    """
    if group.element_order(iota) != 2:
        raise DatumError("iota must have order 2")
    count = 0
    for g in group.elements():
        if iota not in closure(group, [g]):
            count += 1
    if 2 * count > group.order:
        return count, NK_ONE
    if 2 * count == group.order:
        return count, NK_AT_MOST_TWO
    return count, NK_UNKNOWN


def imaginary_quadratic_count(group: FiniteGroup, iota: int):
    """Number of index-2 subgroups avoiding iota, with the norm-index verdict.

    Index-2 subgroups are kernels of surjections onto Z/2; counting the
    characters with chi(iota) = 1 avoids enumerating subgroups.
    """
    if group.element_order(iota) != 2:
        raise DatumError("iota must have order 2")
    count = sum(1 for _ in group_abelianization(group).index_two_characters(iota))
    if count >= 2:
        return count, NK_ONE
    if count == 1:
        return count, NK_AT_MOST_TWO
    return count, NK_UNKNOWN


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductReport:
    factor_reports: tuple[TamagawaReport, ...]
    product_tau: Fraction
    combined: TamagawaReport
    multiplicative: bool          # combined tau equals the product of factor taus
    primitive_inclusion: bool     # product of factor primitive parts embeds


def product_tamagawa(data, extras=()) -> ProductReport:
    """Multiplicativity pipeline for factorwise-Galois data, as a direct sum
    of factor reports: the product group G = prod G_i is never built.

    Each factor carries one pair (1, Ntilde_i) with Ntilde_i / 1 cyclic and
    only cyclic decomposition groups; a non-cyclic one withholds the
    product formula.  The combined datum on G has the pairs
    inner_i = {x : x_i = 1} <= outer_i = {x : x_i in Ntilde_i}, every cyclic
    subgroup of G, iota = (iota_i) when every factor is CM, and one
    decomposition group prod_i D_i for each tuple (D_1, ..., D_r) in
    ``extras``.  It is exact when every factor is declared complete.  Its
    report is the sum of the reports of the factors widened to every
    cyclic subgroup and their D_i:

    - c is block-diagonal.  Write G = G_i x G' (G' the other factors) and
      take the coset representatives (t, 1) of G / outer_i, t over
      G_i / Ntilde_i.  Then (x_i, x')(t, 1) = (t', 1)(t'^-1 x_i t, x'), so
      the transfer of (x_i, x') into outer_i = Ntilde_i x G', taken modulo
      inner_i = 1 x G', is the factor's transfer V_i(x_i).  So
      G^ab = (+) G_i^ab, c = (+) c_i, H^1 = coker c = (+) coker c_i,
      K = ker c = (+) K_i and H^1(norm one) = (+) Ntilde_i^ab.
    - W from the cyclic subgroups.  A cyclic C = <g> meets outer_i in the
      g^k with g_i^k in Ntilde_i and inner_i in those with g_i^k = 1, so
      (C meet outer_i) / (C meet inner_i) is <g_i> meet Ntilde_i, of order
      n_i, and the transfer x -> x^[C : C meet outer_i] sends g to a
      generator of it.  The common local kernel is <g^L>, L = lcm_i n_i,
      with image L [g] = (L [g_i])_i in G^ab.  Each L [g_i] is a multiple
      of n_i [g_i], the image of factor i's local kernel over <g_i>; and
      g = (1, ..., g_i, ..., 1) has L = n_i.  So the cyclic subgroups of G
      give W_cyc = (+) W_i^cyc, with W_i^cyc factor i's W over every cyclic
      subgroup of G_i.  <iota> is cyclic.
    - W from an extra D = prod D_j.  As for c, the local transfer of pair
      i is V_i on the D_i^ab summand of D^ab = (+) D_j^ab, into
      (D_i meet Ntilde_i)^ab, and zero on the others, so the common local
      kernel is (+)_i ker(V_i on D_i^ab) and its image in G^ab is the sum
      of the factors' images over D_i.
    - So W = (+) W'_i, with W'_i the W of factor i widened to every cyclic
      subgroup and its D_i.  The primitive order |G^ab| / |W| and tau are
      products, and Sha^2 = K / W = (+) K_i / W'_i.  W'_i <= K_i is
      checked in each factor, and four-term exactness in the combined
      report.

    ``multiplicative`` says whether the combined tau is the product of
    the factor taus.  ``primitive_inclusion`` says whether the product of
    the factor primitive parts Ann(W_i) lies in Ann(W).  The pull-back of
    Ann(W_i) along G -> G_i lies in Ann(W) exactly when the projection
    W'_i of W lies in W_i.  Since W_i <= W'_i, that holds exactly when the
    two primitive orders agree.
    """
    data = tuple(data)
    extras = tuple(extras)
    if not data:
        raise DatumError("need at least one factor")
    for k, d in enumerate(data):
        if len(d.pairs) != 1:
            raise DatumError("each factor must carry exactly one pair", factor=k)
        if d.pairs[0].inner.order != 1:
            raise DatumError("factor extension is not Galois over the base point",
                             factor=k)
        if not d.cyclic_relative_quotients():
            raise DatumError("factor relative quotient is not cyclic", factor=k)
        for dec in d.effective_decomposition_set():
            if not dec.is_cyclic():
                raise DatumError(
                    "factor has a non-cyclic decomposition group; "
                    "product formula withheld",
                    factor=k, subgroup=list(dec.elements))
    for extra in extras:
        if len(extra) != len(data):
            raise DatumError("an extra decomposition group needs one subgroup per factor",
                             factors=len(data), subgroups=len(extra))
    reports, widened = [], []
    for k, d in enumerate(data):
        wide = replace(d, include_all_cyclic=True,
                       decomposition_groups=d.decomposition_groups
                       + tuple(extra[k] for extra in extras))
        reports.append(tamagawa(d))
        widened.append(reports[-1] if wide == d else tamagawa(wide))
    product_tau, tau, prim = Fraction(1), Fraction(1), 1
    for r, w in zip(reports, widened):
        product_tau *= r.tau
        tau *= w.tau
        prim *= w.primitive_order
    combined = TamagawaReport(
        h1_torus=direct_sum([w.h1_torus for w in widened]),
        h1_norm_one=direct_sum([w.h1_norm_one for w in widened]),
        primitive_order=prim,
        sha2=direct_sum([w.sha2 for w in widened]),
        tau=tau,
        n_k=prim if all(d.is_cm for d in data) else None,
        exact=all(d.declared_complete for d in data),
    )
    inclusion = all(r.primitive_order == w.primitive_order
                    for r, w in zip(reports, widened))
    return ProductReport(tuple(reports), product_tau, combined, tau == product_tau, inclusion)

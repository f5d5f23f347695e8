"""Fast path: Tamagawa numbers from transfer maps alone.

For a datum with cyclic relative quotients N_i = outer_i/inner_i and
normal outer subgroups, the Tamagawa number is

    tau = prod |N_i| / |primitive part of H^2(Z)|,

and H^1, Sha^2 come with it.  The primitive part is computed without
enumerating characters: a character f restricts into the image of a dual
transfer exactly when it annihilates the image in G^ab of that transfer's
kernel, so the whole computation is one annihilator of a subgroup W
accumulated over the decomposition groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .abelian import (
    AbElement,
    AbHom,
    FinAb,
    SubgroupData,
    annihilator,
    cokernel_of_hom,
    direct_sum,
    dual_group,
    dual_hom,
    factor_through,
    kernel_of_hom,
    pairing,
    stack_homs,
    subgroup_of,
    zero_hom,
)
from .datum import NormTorusDatum, TamagawaReport, TorusPair
from .errors import DatumError, FastPathUnavailableError, InternalCheckError
from .groups import (
    FiniteGroup,
    ProductGroup,
    Subgroup,
    closure,
    coset_index,
    cosets,
    direct_product,
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
def _combined_transfer(datum: NormTorusDatum):
    """(hom G^ab -> (+)_i N_i^ab, the direct sum, the relative targets)."""
    g_ab = group_abelianization(datum.group)
    targets = [relative_target(pair.outer, pair.inner) for pair in datum.pairs]
    summed = direct_sum([t.group for t in targets])
    if not datum.pairs:
        return zero_hom(g_ab.group, summed.group), summed, ()
    homs = [relative_transfer(datum.group, pair.outer, pair.inner)
            for pair in datum.pairs]
    return stack_homs(homs, summed), summed, tuple(targets)


def h1_norm_one(datum: NormTorusDatum) -> FinAb:
    """H^1 of the norm-one character lattice: the sum of the dual N_i^ab."""
    targets = [relative_target(pair.outer, pair.inner) for pair in datum.pairs]
    return direct_sum([dual_group(t.group) for t in targets]).group


def h1_torus(datum: NormTorusDatum) -> FinAb:
    """H^1 of the torus character lattice: kernel of the dual combined transfer."""
    combined, _, _ = _combined_transfer(datum)
    return kernel_of_hom(dual_hom(combined)).group


@dataclass(frozen=True)
class PrimitivePart:
    """The subgroup of characters of G^ab whose restriction to every
    decomposition group lies in the image of the dual relative transfer."""

    order: int
    characters: SubgroupData       # inside dual(G^ab)
    constraint: SubgroupData       # W <= G^ab; the primitive part is Ann(W)

    def contains(self, char: AbElement) -> bool:
        w = self.constraint
        for j in range(w.group.rank):
            gen = w.inclusion(w.group.element(
                tuple(1 if i == j else 0 for i in range(w.group.rank))))
            num, _ = pairing(char, gen)
            if num != 0:
                return False
        return True


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


@lru_cache(maxsize=512)
def primitive_part(datum: NormTorusDatum) -> PrimitivePart:
    _require_fast_path(datum)
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
        if local_pairs:
            homs = [relative_transfer(local, o, i) for o, i in local_pairs]
            summed = direct_sum([h.codomain for h in homs])
            combined = stack_homs(homs, summed)
        else:
            combined = zero_hom(d_ab.group, FinAb(()))
        ker = kernel_of_hom(combined)
        nat = induced_abelian_hom(dec, d_ab, g_ab)
        for j in range(ker.group.rank):
            gen = ker.group.element(tuple(1 if i == j else 0
                                          for i in range(ker.group.rank)))
            w_gens.append(nat(ker.inclusion(gen)))
    w = subgroup_of(g_ab.group, w_gens)
    ann = annihilator(w)
    if ann.group.order * w.group.order != g_ab.group.order:
        raise InternalCheckError("annihilator order check failed")
    return PrimitivePart(ann.group.order, ann, w)


def sha2(datum: NormTorusDatum) -> FinAb:
    """Sha^2 of the torus lattice: primitive part modulo the dual transfer image."""
    prim = primitive_part(datum)
    combined, _, _ = _combined_transfer(datum)
    dual = dual_hom(combined)
    # exactness puts the image inside the primitive part; a failure is a bug
    try:
        lifted = factor_through(prim.characters.inclusion, dual)
    except InternalCheckError as exc:
        raise InternalCheckError(
            "dual transfer image escapes the primitive part") from exc
    quot, _ = cokernel_of_hom(lifted)
    return quot


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
# CM types
# ---------------------------------------------------------------------------

def _cm_type_parities(datum: NormTorusDatum, chooser=None):
    """Parity table |Phi_i(g)| mod 2 for a CM type of each pair.

    A CM type picks one inner-subgroup coset above each outer-subgroup
    coset; the canonical choice takes the coset of the least element.
    ``chooser(outer_coset_index, options)`` may override the choice.
    """
    g = datum.group
    rows = []
    for pair in datum.pairs:
        inner_parts = cosets(g, pair.inner, "left")
        coset_of = coset_index(g, inner_parts)
        outer_parts = cosets(g, pair.outer, "left")
        chosen = set()
        for oc_index, oc in enumerate(outer_parts):
            options = sorted({coset_of[x] for x in oc})
            if len(options) != 2:
                raise DatumError("CM pair does not split cosets two-to-one")
            pick = options[0] if chooser is None else chooser(oc_index, options)
            chosen.add(pick)
        reps = [inner_parts[idx][0] for idx in sorted(chosen)]
        parities = []
        for x in g.elements():
            moved = sum(1 for r in reps if coset_of[g.mul(x, r)] not in chosen)
            parities.append(moved % 2)
        rows.append(parities)
    return rows


def h1_from_cm_types(datum: NormTorusDatum, chooser=None) -> FinAb:
    """H^1 of the torus lattice from CM-type parity conditions.

    The sign tuples (a_i) with sum of |Phi_i(g)| over {i : a_i = -1} even
    for every g form an elementary 2-group; it must agree with h1_torus.
    """
    if not datum.is_cm:
        raise DatumError("CM types need a CM datum")
    rows = _cm_type_parities(datum, chooser)
    r = len(rows)
    # kernel dimension of the F2 matrix (columns indexed by pairs)
    mat = [[rows[i][g] for i in range(r)] for g in datum.group.elements()]
    rank = 0
    pivots = []
    for col in range(r):
        pivot_row = None
        for row in range(len(mat)):
            if row in pivots:
                continue
            if mat[row][col]:
                pivot_row = row
                break
        if pivot_row is None:
            continue
        pivots.append(pivot_row)
        rank += 1
        for row in range(len(mat)):
            if row != pivot_row and mat[row][col]:
                for c in range(r):
                    mat[row][c] ^= mat[pivot_row][c]
        # clear other columns of the pivot row for stability
        for c in range(r):
            if c != col and mat[pivot_row][c]:
                for row in range(len(mat)):
                    mat[row][c] ^= mat[row][col]
    return FinAb((2,) * (r - rank))


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


def product_datum(data, extras=()) -> tuple[NormTorusDatum, ProductGroup]:
    """The combined datum on the direct product of the factor groups."""
    prod = direct_product(*(d.group for d in data))
    g = prod.group
    idents = tuple(d.group.identity for d in data)
    pairs = []
    for i, d in enumerate(data):
        pair = d.pairs[0]
        inner_elems = [x for x in g.elements()
                       if prod.unpack(x)[i] in pair.inner]
        outer_elems = [x for x in g.elements()
                       if prod.unpack(x)[i] in pair.outer]
        pairs.append(TorusPair(Subgroup(g, tuple(inner_elems)),
                               Subgroup(g, tuple(outer_elems))))
    iota = None
    if all(d.is_cm for d in data):
        iota = prod.pack(tuple(d.iota for d in data))
    return NormTorusDatum(
        group=g,
        pairs=tuple(pairs),
        iota=iota,
        decomposition_groups=tuple(extras),
        include_all_cyclic=True,
        declared_complete=all(d.declared_complete for d in data),
    ), prod


def product_tamagawa(data, extras=()) -> ProductReport:
    """Multiplicativity pipeline for factorwise-Galois data.

    Requires each factor to be a single pair with trivial inner subgroup,
    cyclic relative quotient, and only cyclic decomposition groups; a
    non-cyclic decomposition group withholds the product formula.
    """
    data = tuple(data)
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
    reports = tuple(tamagawa(d) for d in data)
    product_tau = Fraction(1)
    for r in reports:
        product_tau *= r.tau
    if len(data) == 1:
        combined = reports[0]
        return ProductReport(reports, product_tau, combined,
                             combined.tau == product_tau, True)
    combined_datum, prod = product_datum(data, extras)
    combined = tamagawa(combined_datum)
    inclusion = _primitive_inclusion(data, combined_datum, prod)
    return ProductReport(reports, product_tau, combined,
                         combined.tau == product_tau, inclusion)


def _primitive_inclusion(data, combined_datum, prod: ProductGroup) -> bool:
    """Generators of the product of factor primitive parts stay primitive."""
    g_ab = group_abelianization(combined_datum.group)
    prim = primitive_part(combined_datum)
    ok = True
    for i, d in enumerate(data):
        f_ab = group_abelianization(d.group)
        # natural map G^ab -> G_i^ab induced by the projection
        cols = [f_ab.images[prod.unpack(sec)[i]] for sec in g_ab.sections]
        nat = AbHom(g_ab.group, f_ab.group,
                    tuple(tuple(col[r] for col in cols) for r in range(f_ab.group.rank)))
        co_nat = dual_hom(nat)  # dual(G_i^ab) -> dual(G^ab)
        factor_prim = primitive_part(d)
        chars = factor_prim.characters
        for j in range(chars.group.rank):
            gen = chars.group.element(tuple(1 if t == j else 0
                                            for t in range(chars.group.rank)))
            lifted = co_nat(chars.inclusion(gen))
            if not prim.contains(lifted):
                ok = False
    return ok

"""Transfer (Verlagerung) homomorphisms computed from coset sections.

The transfer of G into H^ab is Ver(g) = prod_x h_{g,x} over the cosets
x in G/H, where g.phi(x) = phi(gx).h_{g,x} for a section phi.  The result
is independent of the section; the canonical section used here picks the
least element index in each coset.  All maps are returned as AbHom
matrices over the canonical invariant-factor generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbElement, AbHom, FinAb, cokernel_of_hom, image_of_hom, subgroup_of
from .errors import ConstructionError, InternalCheckError
from .groups import (
    Abelianization,
    FiniteGroup,
    Subgroup,
    abelianization,
    center,
    coset_index,
    cosets,
    is_normal,
    sylow,
)


@lru_cache(maxsize=2048)
def group_abelianization(group: FiniteGroup) -> Abelianization:
    return abelianization(group)


@lru_cache(maxsize=4096)
def subgroup_abelianization(sub: Subgroup):
    """(Abelianization of the subgroup's own table, local->parent element map)."""
    local, embed = sub.as_group()
    return group_abelianization(local), embed


def canonical_section(group: FiniteGroup, sub: Subgroup, side: str = "left"):
    parts = cosets(group, sub, side)
    return tuple(cs[0] for cs in parts), coset_index(group, parts)


def _transfer_on(group: FiniteGroup, sub: Subgroup, reps, coset_of) -> AbHom:
    """The transfer from a section ``reps`` of the left cosets, with
    ``coset_of`` the position of each element's coset among them."""
    sub_ab, _ = subgroup_abelianization(sub)
    local_index = sub.local_index()
    g_ab = group_abelianization(group)
    t = group.table
    inv = group.inverses
    cols = []
    for g in g_ab.sections:
        total = sub_ab.group.zero()
        for rep in reps:
            # g.rep = rep2.h with rep2 the representative of g.rep's coset
            moved = t[g][rep]
            rep2 = reps[coset_of[moved]]
            total += sub_ab.project(local_index[t[inv[rep2]][moved]])
        cols.append(total.coords)
    matrix = tuple(tuple(col[i] for col in cols) for i in range(sub_ab.group.rank))
    return AbHom(g_ab.group, sub_ab.group, matrix)


def transfer_with_section(group: FiniteGroup, sub: Subgroup, reps) -> AbHom:
    """Transfer computed from an explicit section (one representative per coset).

    Exposed for the section-independence property; ``transfer`` fixes the
    canonical least-element section.
    """
    parts = cosets(group, sub, "left")
    reps = tuple(reps)
    if len(reps) != len(parts):
        raise ConstructionError("section has wrong size")
    for rep, cs in zip(reps, parts):
        if rep not in cs:
            raise ConstructionError("section representative outside its coset", rep=rep)
    return _transfer_on(group, sub, reps, coset_index(group, parts))


@lru_cache(maxsize=4096)
def transfer(group: FiniteGroup, sub: Subgroup) -> AbHom:
    """The transfer G^ab -> H^ab with the canonical least-element section."""
    return _transfer_on(group, sub, *canonical_section(group, sub))


def right_transfer(group: FiniteGroup, sub: Subgroup) -> AbHom:
    """Right-coset variant; agrees with ``transfer`` on every input."""
    reps, coset_of = canonical_section(group, sub, "right")
    sub_ab, _ = subgroup_abelianization(sub)
    local_index = sub.local_index()
    g_ab = group_abelianization(group)
    t = group.table
    inv = group.inverses
    cols = []
    for g in g_ab.sections:
        total = None
        for rep in reps:
            moved = t[rep][g]
            rep2 = reps[coset_of[moved]]
            h = t[moved][inv[rep2]]
            val = sub_ab.project(local_index[h])
            total = val if total is None else total + val
        cols.append(total.coords)
    matrix = tuple(tuple(col[i] for col in cols) for i in range(sub_ab.group.rank))
    return AbHom(g_ab.group, sub_ab.group, matrix)


# ---------------------------------------------------------------------------
# relative transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelativeTarget:
    """The maximal abelian quotient of ``outer`` killing ``inner``."""

    outer: Subgroup
    inner: Subgroup
    group: FinAb
    _proj: AbHom            # outer^ab -> group
    _local_index: dict

    def project(self, parent_element: int) -> AbElement:
        outer_ab, _ = subgroup_abelianization(self.outer)
        local = self._local_index[parent_element]
        return self._proj(outer_ab.project(local))


@lru_cache(maxsize=4096)
def relative_target(outer: Subgroup, inner: Subgroup) -> RelativeTarget:
    if not outer.contains_subgroup(inner):
        raise ConstructionError("inner subgroup not contained in outer")
    outer_ab, _ = subgroup_abelianization(outer)
    local_index = outer.local_index()
    gens = [outer_ab.project(local_index[h]) for h in inner.elements]
    image = subgroup_of(outer_ab.group, gens)
    quot, (proj,) = cokernel_of_hom([image.inclusion])
    return RelativeTarget(outer, inner, quot, proj, local_index)


@lru_cache(maxsize=4096)
def relative_transfer(group: FiniteGroup, outer: Subgroup, inner: Subgroup) -> AbHom:
    """Transfer of G into (outer/inner)^ab relative to ``inner``: the
    mod-inner projection composed with the transfer into outer^ab."""
    return relative_target(outer, inner)._proj.compose(transfer(group, outer))


def transfer_surjectivity_check(group: FiniteGroup, sub: Subgroup) -> bool:
    """Whether the transfer onto a normal prime-order subgroup is surjective.

    For central N this is equivalent to cyclicity of the p-Sylow subgroup
    and the equivalence is asserted.  A noncentral N forces the zero
    transfer (conjugation equivariance lands the image in N^G = 1), which
    is likewise asserted.
    """
    p = sub.order
    if not is_normal(group, sub):
        raise ConstructionError("subgroup is not normal")
    if any(p % d == 0 for d in range(2, p)) or p < 2:
        raise ConstructionError("subgroup order is not prime", order=p)
    f = transfer(group, sub)
    surjective = image_of_hom(f).group.order == f.codomain.order
    central = center(group).contains_subgroup(sub)
    if central:
        if surjective != sylow(group, p).is_cyclic():
            raise InternalCheckError(
                "transfer surjectivity disagrees with Sylow cyclicity",
                order=group.order, p=p)
    elif surjective:
        raise InternalCheckError(
            "transfer onto a noncentral prime-order subgroup cannot be surjective",
            order=group.order, p=p)
    return surjective


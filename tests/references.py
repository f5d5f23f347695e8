"""Second routes to results the program reaches one way, kept as test references.

The program decides "outer/inner is cyclic" on the relative target
outer^ab / im(inner), evaluates transfers on coset sections, reads H^1
of the torus off a cokernel and gets the derived subgroup as the kernel
of the abelianization.  This module keeps the older routes that tests
compare those with:

- the Cayley table of the quotient outer/inner and its least generator;
- the relative transfer evaluated through the double cosets <g>\\G/outer;
- the norm of the conjugation action on H^ab, for H normal in G;
- H^1 of a CM torus from the parities of CM types;
- the commutator subgroup, generated by all commutators;
- the p of a Landau pair, as the squarefree part of q - 1.

It also holds the inverse of an element and the exponent of a group,
which only tests read.
"""

import math

import numpy as np

from cmtori.abelian import AbHom, FinAb
from cmtori.errors import ConstructionError, DatumError, InternalCheckError
from cmtori.groups import (
    FiniteGroup,
    Subgroup,
    coset_index,
    cosets,
    is_normal,
    quotient_group,
    subgroup_generated,
)
from cmtori.landau import factorize
from cmtori.transfer import canonical_section, subgroup_abelianization


def inverse(group: FiniteGroup, g: int) -> int:
    return group.inverses[g]


def exponent(group: FiniteGroup) -> int:
    """The least common multiple of the element orders."""
    return math.lcm(*(group.element_order(g) for g in group.elements()))


def cyclic_generator(group: FiniteGroup):
    """The least element generating the group, or None if it is not cyclic."""
    return next((g for g in group.elements() if group.element_order(g) == group.order),
                None)


def cyclic_relative_quotient(outer: Subgroup, inner: Subgroup):
    """(quotient group N = outer/inner, local->parent map, parent->local index);
    requires inner normal."""
    local, embed = outer.as_group()
    inner_local = outer.localize(inner)
    if not is_normal(local, inner_local):
        raise ConstructionError("inner subgroup is not normal in outer")
    quot = quotient_group(local, inner_local)
    return quot, embed, outer.local_index()


def is_cyclic_relative_quotient(outer: Subgroup, inner: Subgroup) -> bool:
    """Whether inner is normal in outer with outer/inner cyclic, read off the
    quotient table."""
    local, _ = outer.as_group()
    inner_local = outer.localize(inner)
    return (is_normal(local, inner_local)
            and cyclic_generator(quotient_group(local, inner_local).group) is not None)


def transfer_cyclic_double_coset(group: FiniteGroup, outer: Subgroup,
                                 inner: Subgroup, g: int):
    """Evaluate the relative transfer of g through double cosets <g>\\G/outer.

    Returns (element index in N, quotient N = outer/inner) with N cyclic.
    For each double-coset representative x the coset orbit size f satisfies
    g^f x in x.outer, and the class of x^-1 g^f x in N contributes its
    discrete log with respect to the chosen generator.
    """
    quot, embed, local_index = cyclic_relative_quotient(outer, inner)
    n_group = quot.group
    n = n_group.order
    gen = cyclic_generator(n_group)
    if gen is None:
        raise ConstructionError("outer/inner quotient is not cyclic", order=n)
    # discrete logs with respect to the generator
    dlog = {}
    x = n_group.identity
    for k in range(n):
        dlog[x] = k
        x = n_group.mul(x, gen)
    reps, coset_of = canonical_section(group, outer)
    t = group.table
    inv = group.inverses
    seen = set()
    total = 0
    for start, rep in enumerate(reps):
        if start in seen:
            continue
        # orbit of this coset under left multiplication by g
        orbit = []
        c = start
        while c not in seen:
            seen.add(c)
            orbit.append(c)
            c = coset_of[t[g][reps[c]]]
        f = len(orbit)
        x0 = reps[orbit[0]]
        gf = group.identity
        for _ in range(f):
            gf = t[g][gf]
        y = t[t[inv[x0]][gf]][x0]
        if y not in local_index:
            raise InternalCheckError("double-coset return element left the subgroup")
        total += dlog[quot.projection[local_index[y]]]
    return n_group.power(gen, total), quot


def conjugation_norm(group: FiniteGroup, sub: Subgroup) -> AbHom:
    """The norm of the conjugation action on H^ab, for H normal in G."""
    if not is_normal(group, sub):
        raise ConstructionError("conjugation norm needs a normal subgroup")
    sub_ab, embed = subgroup_abelianization(sub)
    local_index = sub.local_index()
    reps, _ = canonical_section(group, sub)
    cols = []
    for j in range(sub_ab.group.rank):
        h = embed[sub_ab.sections[j]]
        total = None
        for x in reps:
            val = sub_ab.project(local_index[group.conj(x, h)])
            total = val if total is None else total + val
        cols.append(total.coords)
    matrix = tuple(tuple(col[i] for col in cols) for i in range(sub_ab.group.rank))
    return AbHom(sub_ab.group, sub_ab.group, matrix)


def cm_type_parities(datum, chooser=None):
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


def h1_from_cm_types(datum, chooser=None) -> FinAb:
    """H^1 of the torus lattice from CM-type parity conditions.

    The sign tuples (a_i) with sum of |Phi_i(g)| over {i : a_i = -1} even
    for every g form an elementary 2-group; it must agree with h1_torus.
    """
    if not datum.is_cm:
        raise DatumError("CM types need a CM datum")
    rows = cm_type_parities(datum, chooser)
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


def commutator_subgroup(group: FiniteGroup) -> Subgroup:
    t = np.array(group.table)
    inv = np.array(group.inverses)
    # [a, b] = (a * b) * (a^-1 * b^-1)
    commutators = t[t, t[inv[:, None], inv]]
    return subgroup_generated(group, np.flatnonzero(np.bincount(commutators.ravel())).tolist())


def squarefree_part(n: int) -> int:
    part = 1
    for p, e in factorize(n).items():
        if e % 2:
            part *= p
    return part


def p_from_q(q: int) -> int:
    """The p of a Landau pair is the squarefree part of q - 1."""
    return squarefree_part(q - 1)

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
- the p of a Landau pair, as the squarefree part of q - 1;
- the CSV of ``landau search --out`` by one f-string per ``LandauPair``,
  which the CLI writes from the search's table in one format, and the q
  table of a window by a loop over every sieving prime and b, which the
  program builds by numpy;
- the direct sum of finite abelian groups by lattice elimination;
- the combined datum of a product pipeline on the Cayley table of the
  product group, with its report and primitive-inclusion test;
- integer matrices as tuples of rows, with their product and an integer
  solve of a x = b by one Smith form, which once gave the torus ->
  norm-one map of the lattice sequence;
- the homomorphism check on a lattice's action matrices, which the
  program makes on permutation index arrays alone.

It also holds the inverse of an element and the exponent of a group,
which only tests read.
"""

import math
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

from cmtori.abelian import (
    AbHom,
    FinAb,
    _echelon,
    _quotient,
    cokernel_of_hom,
    identity,
    smith_normal_form,
)
from cmtori.datum import NormTorusDatum, TorusPair
from cmtori.engine import ProductReport, primitive_part, tamagawa
from cmtori.errors import ConstructionError, DatumError, InternalCheckError
from cmtori.groups import (
    FiniteGroup,
    ProductGroup,
    Subgroup,
    coset_index,
    cosets,
    direct_product,
    is_normal,
    quotient_group,
    subgroup_generated,
)
from cmtori.landau import factorize
from cmtori.transfer import canonical_section, group_abelianization, subgroup_abelianization


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


def landau_csv(pairs) -> str:
    """Rows a,p,b,q of Landau pairs, one line each."""
    return "".join(f"{pair.a},{pair.p},{pair.b},{pair.q}\n" for pair in pairs)


def q_table_by_loop(ells, offsets, window):
    """Row offset(l) + (p mod l), bit i: l | 1 + p b^2 for b = 128 window + 2i + 2."""
    table = np.zeros(offsets[-1] + ells[-1], dtype=np.uint64)
    for ell, offset in zip(ells, offsets):
        for i in range(64):
            b = 128 * window + 2 * i + 2
            if b % ell:
                # l | 1 + p b^2 exactly when p = -1/b^2 (mod l)
                table[offset + pow(-b * b, -1, ell)] |= np.uint64(1 << i)
    return table


def direct_sum_by_elimination(parts) -> FinAb:
    """The direct sum of finite abelian groups, as the quotient of Z^k by
    the lattice of the concatenated invariant factors."""
    factors = tuple(d for p in parts for d in p.factors)
    return FinAb(_quotient(identity(len(factors)), _echelon((), factors))[0])


def product_datum(data, extras=()) -> tuple[NormTorusDatum, ProductGroup]:
    """The combined datum on the Cayley table of the product of the factor
    groups; each extra (D_1, ..., D_r) gives the decomposition group
    prod D_i."""
    prod = direct_product(*(d.group for d in data))
    g = prod.group
    pairs = []
    for i, d in enumerate(data):
        pair = d.pairs[0]
        inner_elems = [x for x in g.elements() if prod.unpack(x)[i] in pair.inner]
        outer_elems = [x for x in g.elements() if prod.unpack(x)[i] in pair.outer]
        pairs.append(TorusPair(Subgroup(g, tuple(inner_elems)),
                               Subgroup(g, tuple(outer_elems))))
    decomposition_groups = tuple(
        Subgroup(g, tuple(sorted(prod.pack(x) for x in iter_product(*(s.elements for s in extra)))))
        for extra in extras)
    iota = None
    if all(d.is_cm for d in data):
        iota = prod.pack(tuple(d.iota for d in data))
    return NormTorusDatum(
        group=g,
        pairs=tuple(pairs),
        iota=iota,
        decomposition_groups=decomposition_groups,
        include_all_cyclic=True,
        declared_complete=all(d.declared_complete for d in data),
    ), prod


def primitive_inclusion(data, combined_datum, prod: ProductGroup) -> bool:
    """Whether the product of the factor primitive parts lies in the combined one.

    With W and W_i the constraints of the combined datum and of factor i,
    the pull-back of Ann(W_i) along the projection G -> G_i lies in
    Ann(W) exactly when nat_i(W) <= Ann Ann W_i = W_i.
    """
    g_ab = group_abelianization(combined_datum.group)
    w = primitive_part(combined_datum).constraint
    for i, d in enumerate(data):
        f_ab = group_abelianization(d.group)
        # natural map G^ab -> G_i^ab induced by the projection
        cols = [f_ab.images[prod.unpack(sec)[i]] for sec in g_ab.sections]
        nat = AbHom(g_ab.group, f_ab.group,
                    tuple(tuple(col[r] for col in cols) for r in range(f_ab.group.rank)))
        _, (mod_wi,) = cokernel_of_hom([primitive_part(d).constraint.inclusion])
        if not mod_wi.compose(nat).compose(w.inclusion).is_zero:
            return False
    return True


def table_product_report(data, extras=()) -> ProductReport:
    """``engine.product_tamagawa`` on the Cayley table of the product group."""
    data = tuple(data)
    reports = tuple(tamagawa(d) for d in data)
    product_tau = math.prod((r.tau for r in reports), start=Fraction(1))
    combined_datum, prod = product_datum(data, extras)
    combined = tamagawa(combined_datum)
    return ProductReport(reports, product_tau, combined, combined.tau == product_tau,
                         primitive_inclusion(data, combined_datum, prod))


def zeros(rows: int, cols: int):
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} * {len(b)}x{len(b[0])}")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out.append(tuple(sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)))
    return tuple(out)


def solve_matrix(a, b):
    """One integer solution x of a @ x = b, or None if none exists."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    bc = len(b[0]) if b else 0
    if len(b) != nr:
        raise ValueError("right-hand side has wrong height")
    if nr == 0:
        return zeros(nc, bc)
    s = smith_normal_form(a)
    ub = mat_mul(s.u, b)
    diag = s.diagonal
    y = [[0] * bc for _ in range(nc)]
    for i in range(nr):
        di = diag[i] if i < len(diag) else 0
        for j in range(bc):
            val = ub[i][j]
            if di == 0:
                if val != 0:
                    return None
            else:
                if val % di != 0:
                    return None
                if i < nc:
                    y[i][j] = val // di
    return mat_mul(s.v, tuple(tuple(r) for r in y))


def check_homomorphism(lattice) -> None:
    """Raise unless a lattice's action is a homomorphism: action[e] = I and
    action[g] action[s] = action[gs] for every g and every greedy generator
    s (exact by the induction of the ``cmtori.lattice`` docstring).  Batched
    int64 products, as ``GLattice`` once checked itself."""
    g, action = lattice.group, lattice.action
    if not np.array_equal(action[g.identity], np.eye(lattice.rank, dtype=np.int64)):
        raise InternalCheckError("identity must act as the identity matrix")
    for s in g.generators:
        wrong = np.any(action @ action[s] != action[[row[s] for row in g.table]], axis=(1, 2))
        if wrong.any():
            raise InternalCheckError("action is not a homomorphism",
                                     pair=[int(np.argmax(wrong)), s])

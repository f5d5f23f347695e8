"""Explicit character lattices with integral group actions.

The multiplicative-group torus of the extension algebra has the
permutation lattice on cosets of the inner subgroups; the base algebra
uses the outer cosets.  Dividing the coset-summation (norm) map out of
the permutation lattice yields the norm-one lattice, and dividing only
the degree-zero part out yields the torus lattice itself, giving the
short exact sequence  0 -> Z -> torus -> norm-one -> 0  at matrix level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import Matrix, identity, kernel_basis, mat_mul, smith_normal_form, solve_matrix
from .datum import NormTorusDatum
from .errors import InternalCheckError
from .groups import FiniteGroup, Subgroup, cosets

__all__ = [
    "GLattice", "LatticeMap", "TorusLattices", "permutation_lattice",
    "trivial_lattice", "restrict_lattice", "character_lattices",
]


@dataclass(frozen=True)
class GLattice:
    """Free Z-module of finite rank with a group action by integer matrices."""

    group: FiniteGroup
    rank: int
    action: tuple[Matrix, ...]

    def __post_init__(self):
        g = self.group
        if len(self.action) != g.order:
            raise InternalCheckError("one action matrix per group element required")
        mats = [np.array(m, dtype=np.int64).reshape(self.rank, self.rank)
                for m in self.action]
        if not np.array_equal(mats[g.identity], np.eye(self.rank, dtype=np.int64)):
            raise InternalCheckError("identity must act as the identity matrix")
        for a in g.elements():
            for b in g.elements():
                if not np.array_equal(mats[a] @ mats[b], mats[g.table[a][b]]):
                    raise InternalCheckError("action is not a homomorphism",
                                             pair=[a, b])

    def act(self, g: int, vec):
        m = self.action[g]
        return tuple(sum(m[i][j] * vec[j] for j in range(self.rank))
                     for i in range(self.rank))

    def __hash__(self):
        return hash((self.group, self.rank, self.action))


@dataclass(frozen=True)
class LatticeMap:
    source: GLattice
    target: GLattice
    matrix: Matrix

    def __post_init__(self):
        if self.source.group != self.target.group:
            raise InternalCheckError("lattice map across different groups")
        m = np.array(self.matrix, dtype=np.int64).reshape(
            self.target.rank, self.source.rank)
        for g in self.source.group.elements():
            src = np.array(self.source.action[g], dtype=np.int64).reshape(
                self.source.rank, self.source.rank)
            tgt = np.array(self.target.action[g], dtype=np.int64).reshape(
                self.target.rank, self.target.rank)
            if not np.array_equal(m @ src, tgt @ m):
                raise InternalCheckError("map is not equivariant", element=g)


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    return GLattice(group, rank, tuple(identity(rank) for _ in group.elements()))


def permutation_lattice(group: FiniteGroup, sub: Subgroup):
    """Induced lattice on left cosets of ``sub``; returns (lattice, cosets)."""
    parts = cosets(group, sub, "left")
    index = {}
    for i, cs in enumerate(parts):
        for x in cs:
            index[x] = i
    n = len(parts)
    mats = []
    for g in group.elements():
        m = [[0] * n for _ in range(n)]
        for j, cs in enumerate(parts):
            m[index[group.table[g][cs[0]]]][j] = 1
        mats.append(tuple(tuple(row) for row in m))
    return GLattice(group, n, tuple(mats)), parts


def _free_quotient(lattice: GLattice, sub_cols: Matrix):
    """Quotient of a lattice by the (saturated) column span of ``sub_cols``.

    Returns (quotient lattice, projection map, section matrix).
    """
    r = lattice.rank
    ncols = len(sub_cols[0]) if sub_cols and len(sub_cols) else 0
    if ncols == 0:
        proj = identity(r)
        quot = lattice
        return quot, LatticeMap(lattice, quot, proj), identity(r)
    form = smith_normal_form(sub_cols)
    diag = form.diagonal
    rank_b = sum(1 for x in diag if x != 0)
    if any(x not in (0, 1) for x in diag):
        raise InternalCheckError("quotient lattice has torsion", diagonal=list(diag))
    keep = range(rank_b, r)
    proj = tuple(form.u[i] for i in keep)
    section = tuple(tuple(form.u_inv[i][j] for j in keep) for i in range(r))
    new_rank = r - rank_b
    mats = []
    for g in lattice.group.elements():
        m = mat_mul(mat_mul(proj, lattice.action[g]), section)
        mats.append(m)
    quot = GLattice(lattice.group, new_rank, tuple(mats))
    return quot, LatticeMap(lattice, quot, proj), section


def restrict_lattice(lattice: GLattice, sub: Subgroup):
    """The same module over a subgroup's own Cayley table."""
    local, embed = sub.as_group()
    return GLattice(local, lattice.rank,
                    tuple(lattice.action[parent] for parent in embed))


@dataclass(frozen=True)
class TorusLattices:
    ambient: GLattice          # permutation lattice on the inner cosets
    base: GLattice             # permutation lattice on the outer cosets
    norm_one: GLattice
    torus: GLattice
    norm_map: LatticeMap       # base -> ambient, coset summation
    ambient_to_torus: LatticeMap
    torus_to_norm_one: LatticeMap
    unit_embedding: Matrix     # Z -> torus (rank x 1)


def _block_diag(groups, blocks):
    """Assemble block-diagonal action matrices."""
    total = sum(b.rank for b in blocks)
    mats = []
    for g in groups.elements():
        m = [[0] * total for _ in range(total)]
        off = 0
        for b in blocks:
            a = b.action[g]
            for i in range(b.rank):
                for j in range(b.rank):
                    m[off + i][off + j] = a[i][j]
            off += b.rank
        mats.append(tuple(tuple(row) for row in m))
    return GLattice(groups, total, tuple(mats))


def character_lattices(datum: NormTorusDatum) -> TorusLattices:
    """All four lattices of a datum with the connecting equivariant maps."""
    g = datum.group
    if not datum.pairs:
        # degenerate fiber product over nothing: the torus is G_m itself
        one = trivial_lattice(g, 1)
        zero = GLattice(g, 0, tuple(() for _ in g.elements()))
        return TorusLattices(
            ambient=zero, base=zero, norm_one=zero, torus=one,
            norm_map=LatticeMap(zero, zero, ()),
            ambient_to_torus=LatticeMap(zero, one, ((),)),
            torus_to_norm_one=LatticeMap(one, zero, ()),
            unit_embedding=((1,),))
    amb_blocks = []
    base_blocks = []
    norm_blocks = []
    for pair in datum.pairs:
        amb, amb_parts = permutation_lattice(g, pair.inner)
        bse, bse_parts = permutation_lattice(g, pair.outer)
        amb_blocks.append((amb, amb_parts))
        base_blocks.append((bse, bse_parts))
        # coset-summation block: an outer coset is the sum of its inner cosets
        block = [[0] * len(bse_parts) for _ in range(len(amb_parts))]
        for j, outer_coset in enumerate(bse_parts):
            members = set(outer_coset)
            for i, inner_coset in enumerate(amb_parts):
                if inner_coset[0] in members:
                    block[i][j] = 1
        norm_blocks.append(block)
    ambient = _block_diag(g, [b for b, _ in amb_blocks])
    base = _block_diag(g, [b for b, _ in base_blocks])
    row_off = 0
    col_off = 0
    total_rows = ambient.rank
    total_cols = base.rank
    nm = [[0] * total_cols for _ in range(total_rows)]
    for (amb, _), (bse, _), block in zip(amb_blocks, base_blocks, norm_blocks):
        for i in range(amb.rank):
            for j in range(bse.rank):
                nm[row_off + i][col_off + j] = block[i][j]
        row_off += amb.rank
        col_off += bse.rank
    norm_matrix = tuple(tuple(row) for row in nm)
    norm_map = LatticeMap(base, ambient, norm_matrix)
    # norm-one: ambient / image of the full norm map
    norm_one, to_norm_one, _ = _free_quotient(ambient, norm_matrix)
    # torus: ambient / image of the degree-zero part of the base
    degree = tuple(tuple(1 for _ in range(total_cols)) for _ in range(1))
    deg_kernel = kernel_basis(degree, total_cols)
    sub_cols = mat_mul(norm_matrix, deg_kernel) if deg_kernel and deg_kernel[0] else \
        tuple(() for _ in range(total_rows))
    torus, to_torus, _ = _free_quotient(ambient, sub_cols)
    # unit embedding Z -> torus: the class of any single outer-coset norm
    unit_vec = tuple(norm_matrix[i][0] for i in range(total_rows))
    unit_embedding = tuple((sum(to_torus.matrix[i][j] * unit_vec[j]
                                for j in range(total_rows)),)
                           for i in range(torus.rank))
    # torus -> norm_one: factor to_norm_one through to_torus
    factor = solve_matrix(_transpose(to_torus.matrix), _transpose(to_norm_one.matrix))
    if factor is None:
        raise InternalCheckError("norm-one projection does not factor through the torus")
    t2n = _transpose(factor)
    torus_to_norm_one = LatticeMap(torus, norm_one, t2n)
    _check_exactness(torus, norm_one, unit_embedding, t2n)
    return TorusLattices(
        ambient=ambient, base=base, norm_one=norm_one, torus=torus,
        norm_map=norm_map, ambient_to_torus=to_torus,
        torus_to_norm_one=torus_to_norm_one, unit_embedding=unit_embedding)


def _transpose(m):
    if not m:
        return ()
    return tuple(zip(*m))


def _check_exactness(torus: GLattice, norm_one: GLattice, unit_col, t2n):
    """0 -> Z -> torus -> norm-one -> 0 must be exact over Z."""
    if torus.rank != norm_one.rank + 1:
        raise InternalCheckError("rank bookkeeping failed")
    if all(x[0] == 0 for x in unit_col):
        raise InternalCheckError("unit embedding collapsed")
    uvec0 = tuple(x[0] for x in unit_col)
    for g in torus.group.elements():
        if torus.act(g, uvec0) != uvec0:
            raise InternalCheckError("unit vector is not invariant", element=g)
    # the composite kills the unit
    comp = mat_mul(t2n, unit_col)
    if any(row[0] != 0 for row in comp):
        raise InternalCheckError("unit does not map into the norm-one kernel")
    # surjectivity with free cokernel and kernel = the unit line
    form = smith_normal_form(t2n)
    diag = form.diagonal
    if len([x for x in diag if x == 1]) != norm_one.rank:
        raise InternalCheckError("torus -> norm-one is not onto with free quotient")
    ker = kernel_basis(t2n, torus.rank)
    if not ker or len(ker[0]) != 1:
        raise InternalCheckError("kernel of torus -> norm-one has wrong rank")
    kvec = tuple(ker[i][0] for i in range(torus.rank))
    uvec = tuple(unit_col[i][0] for i in range(torus.rank))
    if kvec != uvec and kvec != tuple(-x for x in uvec):
        raise InternalCheckError("kernel line differs from the unit line")
    # unit vector is primitive (exactness on the left)
    from math import gcd

    g = 0
    for x in uvec:
        g = gcd(g, x)
    if g != 1:
        raise InternalCheckError("unit embedding is not primitive", gcd=g)

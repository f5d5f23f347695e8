"""Explicit character lattices with integral group actions.

The multiplicative-group torus of the extension algebra has the
permutation lattice on cosets of the inner subgroups; the base algebra
uses the outer cosets.  Dividing the coset-summation (norm) map out of
the permutation lattice yields the norm-one lattice, and dividing only
the degree-zero part out yields the torus lattice itself, giving the
short exact sequence  0 -> Z -> torus -> norm-one -> 0  at matrix level.

A lattice of rank r over G stores its action as one read-only int64
array of shape (|G|, r, r), ``action[g]`` the matrix of g, and every
lattice is built from such arrays by batched numpy: index arrays for
permutation lattices, slice assignment for block sums, one product
``proj @ action @ section`` for a quotient.  Smith forms, integer solves
and kernels choose the bases on Python ints (``.tolist()``), so they stay
exact.

The constructor checks the homomorphism property only on the greedy
generators S of G (``groups._greedy_generators``): action[e] = I and
action[g] action[s] = action[gs] for every g and every s in S.  This is
exact.  Every h in G is a word e s_1 ... s_k in S, and by induction on
its length, rho(g) rho(hs) = rho(g) rho(h) rho(s) = rho(gh) rho(s)
= rho(ghs) for all g; it is the argument of Light's test in
``groups._analyze_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abelian import kernel_basis, smith_normal_form, solve_matrix
from .datum import NormTorusDatum
from .errors import InternalCheckError
from .groups import FiniteGroup, Subgroup, _greedy_generators, coset_index, cosets

__all__ = [
    "GLattice", "LatticeMap", "TorusLattices", "permutation_lattice",
    "trivial_lattice", "restrict_lattice", "character_lattices",
]


def _frozen_int64(values, shape) -> np.ndarray:
    out = np.array(values, dtype=np.int64).reshape(shape)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GLattice:
    """Free Z-module of finite rank with a group action by integer matrices.

    ``action`` is the (|G|, rank, rank) int64 array; the constructor takes
    any array-like with one rank x rank matrix per group element.
    Equality and hashing go by group, rank and the action's bytes (the
    hash is computed once), so equal lattices share every cache entry
    keyed on them.
    """

    group: FiniteGroup
    rank: int
    action: np.ndarray

    def __post_init__(self):
        g, r = self.group, self.rank
        if np.size(self.action) != g.order * r * r:
            raise InternalCheckError("one action matrix per group element required")
        action = _frozen_int64(self.action, (g.order, r, r))
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_hash", hash((g, r, action.tobytes())))
        if not np.array_equal(action[g.identity], np.eye(r, dtype=np.int64)):
            raise InternalCheckError("identity must act as the identity matrix")
        for s in _greedy_generators(g.table, g.identity, g.elements()):
            wrong = np.any(action @ action[s] != action[[row[s] for row in g.table]],
                           axis=(1, 2))
            if wrong.any():
                raise InternalCheckError("action is not a homomorphism",
                                         pair=[int(np.argmax(wrong)), s])

    def __eq__(self, other):
        return (isinstance(other, GLattice) and self._hash == other._hash
                and self.rank == other.rank and self.group == other.group
                and np.array_equal(self.action, other.action))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class LatticeMap:
    """An equivariant map; ``matrix`` is its (target rank, source rank) int64 array."""

    source: GLattice
    target: GLattice
    matrix: np.ndarray

    def __post_init__(self):
        if self.source.group != self.target.group:
            raise InternalCheckError("lattice map across different groups")
        m = _frozen_int64(self.matrix, (self.target.rank, self.source.rank))
        object.__setattr__(self, "matrix", m)
        wrong = np.any(m @ self.source.action != self.target.action @ m, axis=(1, 2))
        if wrong.any():
            raise InternalCheckError("map is not equivariant", element=int(np.argmax(wrong)))


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    return GLattice(group, rank,
                    np.broadcast_to(np.eye(rank, dtype=np.int64), (group.order, rank, rank)))


def _permutation_action(group: FiniteGroup, sub: Subgroup):
    """(action array of G on the left cosets of ``sub``, the cosets)."""
    parts = cosets(group, sub, "left")
    n = len(parts)
    # g sends the coset of rep_j to the coset of g rep_j
    coset_of = np.array(coset_index(group, parts))
    images = coset_of[np.array(group.table)[:, [cs[0] for cs in parts]]]
    action = np.zeros((group.order, n, n), dtype=np.int64)
    action[np.arange(group.order)[:, None], images, np.arange(n)] = 1
    return action, parts


def permutation_lattice(group: FiniteGroup, sub: Subgroup):
    """Induced lattice on left cosets of ``sub``; returns (lattice, cosets)."""
    action, parts = _permutation_action(group, sub)
    return GLattice(group, len(parts), action), parts


def _free_quotient(lattice: GLattice, sub_cols: np.ndarray):
    """Quotient of a lattice by the (saturated) column span of ``sub_cols``.

    Returns (quotient lattice, projection map).
    """
    r = lattice.rank
    if sub_cols.shape[1] == 0:
        return lattice, LatticeMap(lattice, lattice, np.eye(r, dtype=np.int64))
    form = smith_normal_form(sub_cols.tolist())
    diag = form.diagonal
    if any(x not in (0, 1) for x in diag):
        raise InternalCheckError("quotient lattice has torsion", diagonal=list(diag))
    rank_b = diag.count(1)
    proj = form.u[rank_b:]
    section = [row[rank_b:] for row in form.u_inv]
    # the batched product is exact only while no entry can leave int64
    largest = [max((abs(x) for row in m for x in row), default=0) for m in (proj, section)]
    bound = r * r * largest[0] * largest[1] * int(np.abs(lattice.action).max())
    if bound >= 2 ** 63:
        raise InternalCheckError("quotient action overflows int64", bound=bound)
    proj = np.array(proj, dtype=np.int64).reshape(r - rank_b, r)
    section = np.array(section, dtype=np.int64).reshape(r, r - rank_b)
    quot = GLattice(lattice.group, r - rank_b, proj @ lattice.action @ section)
    return quot, LatticeMap(lattice, quot, proj)


def restrict_lattice(lattice: GLattice, sub: Subgroup):
    """The same module over a subgroup's own Cayley table."""
    local, embed = sub.as_group()
    return GLattice(local, lattice.rank, lattice.action[list(embed)])


@dataclass(frozen=True, eq=False)
class TorusLattices:
    ambient: GLattice          # permutation lattice on the inner cosets
    base: GLattice             # permutation lattice on the outer cosets
    norm_one: GLattice
    torus: GLattice
    norm_map: LatticeMap       # base -> ambient, coset summation
    ambient_to_torus: LatticeMap
    torus_to_norm_one: LatticeMap
    unit_embedding: np.ndarray     # Z -> torus (rank x 1)


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal sum of arrays over their last two axes."""
    lead = blocks[0].shape[:-2]
    out = np.zeros(lead + (sum(b.shape[-2] for b in blocks), sum(b.shape[-1] for b in blocks)),
                   dtype=np.int64)
    i = j = 0
    for b in blocks:
        out[..., i:i + b.shape[-2], j:j + b.shape[-1]] = b
        i += b.shape[-2]
        j += b.shape[-1]
    return out


def character_lattices(datum: NormTorusDatum) -> TorusLattices:
    """All four lattices of a datum with the connecting equivariant maps."""
    g = datum.group
    if not datum.pairs:
        # degenerate fiber product over nothing: the torus is G_m itself
        one = trivial_lattice(g, 1)
        zero = trivial_lattice(g, 0)
        return TorusLattices(
            ambient=zero, base=zero, norm_one=zero, torus=one,
            norm_map=LatticeMap(zero, zero, np.zeros((0, 0))),
            ambient_to_torus=LatticeMap(zero, one, np.zeros((1, 0))),
            torus_to_norm_one=LatticeMap(one, zero, np.zeros((0, 1))),
            unit_embedding=_frozen_int64(1, (1, 1)))
    amb_blocks, base_blocks, norm_blocks = [], [], []
    for pair in datum.pairs:
        amb, amb_parts = _permutation_action(g, pair.inner)
        bse, bse_parts = _permutation_action(g, pair.outer)
        amb_blocks.append(amb)
        base_blocks.append(bse)
        # coset summation: an outer coset is the sum of the inner cosets it holds
        outer_of = coset_index(g, bse_parts)
        block = np.zeros((len(amb_parts), len(bse_parts)), dtype=np.int64)
        block[np.arange(len(amb_parts)), [outer_of[cs[0]] for cs in amb_parts]] = 1
        norm_blocks.append(block)
    ambient_action, base_action = _block_diag(amb_blocks), _block_diag(base_blocks)
    ambient = GLattice(g, ambient_action.shape[-1], ambient_action)
    base = GLattice(g, base_action.shape[-1], base_action)
    norm_matrix = _block_diag(norm_blocks)
    norm_map = LatticeMap(base, ambient, norm_matrix)
    # norm-one: ambient / image of the full norm map
    norm_one, to_norm_one = _free_quotient(ambient, norm_matrix)
    # torus: ambient / image of the degree-zero part of the base
    deg_kernel = kernel_basis(((1,) * base.rank,), base.rank)
    torus, to_torus = _free_quotient(
        ambient, norm_matrix @ np.array(deg_kernel, dtype=np.int64).reshape(
            base.rank, base.rank - 1))
    # unit embedding Z -> torus: the class of any single outer-coset norm
    unit_embedding = _frozen_int64(to_torus.matrix @ norm_matrix[:, :1], (torus.rank, 1))
    # torus -> norm_one: factor to_norm_one through to_torus
    factor = solve_matrix(to_torus.matrix.T.tolist(), to_norm_one.matrix.T.tolist())
    if factor is None:
        raise InternalCheckError("norm-one projection does not factor through the torus")
    t2n = np.array(factor, dtype=np.int64).reshape(torus.rank, norm_one.rank).T
    torus_to_norm_one = LatticeMap(torus, norm_one, t2n)
    _check_exactness(torus, norm_one, unit_embedding, torus_to_norm_one.matrix)
    return TorusLattices(
        ambient=ambient, base=base, norm_one=norm_one, torus=torus,
        norm_map=norm_map, ambient_to_torus=to_torus,
        torus_to_norm_one=torus_to_norm_one, unit_embedding=unit_embedding)


def _check_exactness(torus: GLattice, norm_one: GLattice, unit_col, t2n):
    """0 -> Z -> torus -> norm-one -> 0 must be exact over Z."""
    if torus.rank != norm_one.rank + 1:
        raise InternalCheckError("rank bookkeeping failed")
    unit = unit_col[:, 0]
    if not unit.any():
        raise InternalCheckError("unit embedding collapsed")
    moved = np.any(torus.action @ unit != unit, axis=1)
    if moved.any():
        raise InternalCheckError("unit vector is not invariant", element=int(np.argmax(moved)))
    # the composite kills the unit
    if np.any(t2n @ unit):
        raise InternalCheckError("unit does not map into the norm-one kernel")
    # surjectivity with free cokernel and kernel = the unit line
    rows = t2n.tolist()
    if smith_normal_form(rows).diagonal.count(1) != norm_one.rank:
        raise InternalCheckError("torus -> norm-one is not onto with free quotient")
    ker = kernel_basis(rows, torus.rank)
    if not ker or len(ker[0]) != 1:
        raise InternalCheckError("kernel of torus -> norm-one has wrong rank")
    kvec = [row[0] for row in ker]
    uvec = unit.tolist()
    if kvec != uvec and kvec != [-x for x in uvec]:
        raise InternalCheckError("kernel line differs from the unit line")
    # unit vector is primitive (exactness on the left)
    if math.gcd(*uvec) != 1:
        raise InternalCheckError("unit embedding is not primitive", gcd=math.gcd(*uvec))

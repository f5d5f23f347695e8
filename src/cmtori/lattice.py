"""Explicit character lattices with integral group actions.

The multiplicative-group torus of the extension algebra has the
permutation lattice A on the cosets of the inner subgroups, and the norm
map nu : B -> A from the permutation lattice B on the outer cosets sends
an outer coset to the sum of the inner cosets it holds.  The norm-one
lattice is N = A / nu(B) and the torus lattice is T = A / nu(B_0), B_0
the degree-zero part of B.  ``character_lattices`` returns them as one
short exact sequence 0 -> Z -> T -> N -> 0 with its Z-splitting
(``TorusLattices``); A and B are never built as lattices.

A lattice of rank r over G stores its action as one read-only int64
array of shape (|G|, r, r), ``action[g]`` the matrix of g, and every
lattice is built from such arrays by batched numpy: index arrays for
permutation lattices, slice assignment for block sums, one product
``proj @ action @ section`` for a quotient.  Smith forms and kernels
choose the bases on Python ints (``.tolist()``), so they stay exact, and
every int64 product goes through ``_product``, which refuses one that
could leave int64.

Each fact is checked once, where it arises, and a failure raises
``InternalCheckError``:

- a permutation action is a homomorphism, checked on its index arrays
  (``_permutation_action``): images[e] is the identity and
  images[g, images[s, j]] = images[gs, j] for every g, j and every s in
  the greedy generators S of G (``FiniteGroup.generators``).  Every h in
  G is a word s_1 ... s_k in S, and by induction on its length,
  rho(g) rho(hs) = rho(g) rho(h) rho(s) = rho(gh) rho(s) = rho(ghs); it is
  the argument of Light's test in ``groups._analyze_table``;
- a quotient by a sublattice X is a free G-lattice (``_free_quotient``):
  X is saturated, rho(s) X lies in X for every s in S, and its products
  stay in int64;
- the sequence is split exact (``TorusLattices``): r i = 1, p s = I,
  i r + s p = I, and rho_T(g) i = i for every g in S.

Block sums, restrictions to a subgroup and trivial lattices are
homomorphisms by construction, so nothing is checked for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import kernel_basis, smith_normal_form
from .datum import NormTorusDatum
from .errors import InternalCheckError
from .groups import FiniteGroup, Subgroup, coset_index, cosets


def _frozen_int64(values, shape) -> np.ndarray:
    out = np.array(values, dtype=np.int64).reshape(shape)
    out.flags.writeable = False
    return out


def _product(*factors) -> np.ndarray:
    """The int64 product of integer matrices (or stacks of them), exact.

    No entry of a partial product exceeds the product of the inner
    dimensions and of the factors' largest entries; that bound is checked
    to stay below 2^62, so a sum of two such products is exact as well.
    """
    bound = 1
    for f in factors:
        bound *= int(np.abs(f).max(initial=0))
    for f in factors[:-1]:
        bound *= f.shape[-1]
    if bound >= 2 ** 62:
        raise InternalCheckError("lattice product overflows int64", bound=bound)
    out = factors[0]
    for f in factors[1:]:
        out = out @ f
    return out


@dataclass(frozen=True, eq=False)
class GLattice:
    """Free Z-module of finite rank with a group action by integer matrices.

    ``action`` is the (|G|, rank, rank) int64 array; the constructor takes
    any array-like with one rank x rank matrix per group element and
    checks nothing: the builders in this module prove their actions
    homomorphisms (see the module docstring).  Equality and hashing go by
    group, rank and the action's bytes (the hash is computed once), so
    equal lattices share every cache entry keyed on them.
    """

    group: FiniteGroup
    rank: int
    action: np.ndarray

    def __post_init__(self):
        action = _frozen_int64(self.action, (self.group.order, self.rank, self.rank))
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_hash", hash((self.group, self.rank, action.tobytes())))

    def __eq__(self, other):
        return (isinstance(other, GLattice) and self._hash == other._hash
                and self.rank == other.rank and self.group == other.group
                and np.array_equal(self.action, other.action))

    def __hash__(self):
        return self._hash


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    return GLattice(group, rank,
                    np.broadcast_to(np.eye(rank, dtype=np.int64), (group.order, rank, rank)))


def _permutation_action(group: FiniteGroup, images: np.ndarray) -> np.ndarray:
    """The action array of g sending basis vector j to images[g, j].

    A homomorphism, as images[e] is the identity and images[g, images[s]]
    = images[gs] for s in S (the induction of the module docstring).
    """
    n = images.shape[1]
    if not np.array_equal(images[group.identity], np.arange(n)):
        raise InternalCheckError("identity must act as the identity matrix")
    for s in group.generators:
        wrong = np.any(images[:, images[s]] != images[[row[s] for row in group.table]],
                       axis=1)
        if wrong.any():
            raise InternalCheckError("action is not a homomorphism",
                                     pair=[int(np.argmax(wrong)), s])
    action = np.zeros((group.order, n, n), dtype=np.int64)
    action[np.arange(group.order)[:, None], images, np.arange(n)] = 1
    return action


def _free_quotient(group: FiniteGroup, action: np.ndarray, sub_cols: np.ndarray):
    """The lattice with action array ``action`` modulo the column span X of
    ``sub_cols``: (quotient lattice, projection, section).

    One Smith form U X V = D gives proj, the rows of U past rank X, and
    section, the matching columns of U^-1, with proj section = I.  D of
    0s and 1s makes X saturated, so ker proj = X and the quotient is free.
    proj rho(s) X = 0 for s in S makes X G-stable (the g with rho(g) X in X
    are closed under products), so proj rho(g) = rho'(g) proj for
    rho'(g) = proj rho(g) section, and rho' is a homomorphism with proj
    equivariant.
    """
    r = action.shape[-1]
    if sub_cols.shape[1] == 0:
        eye = np.eye(r, dtype=np.int64)
        return GLattice(group, r, action), eye, eye
    form = smith_normal_form(sub_cols.tolist())
    diag = form.diagonal
    if any(x not in (0, 1) for x in diag):
        raise InternalCheckError("quotient lattice has torsion", diagonal=list(diag))
    rank_b = diag.count(1)
    proj = np.array(form.u[rank_b:], dtype=np.int64).reshape(r - rank_b, r)
    section = np.array([row[rank_b:] for row in form.u_inv],
                       dtype=np.int64).reshape(r, r - rank_b)
    gens = list(group.generators)
    moved = np.any(_product(proj, action[gens], sub_cols), axis=(1, 2))
    if moved.any():
        raise InternalCheckError("sublattice is not G-stable",
                                 element=gens[int(np.argmax(moved))])
    return GLattice(group, r - rank_b, _product(proj, action, section)), proj, section


def restrict_lattice(lattice: GLattice, sub: Subgroup):
    """The same module over a subgroup's own Cayley table."""
    local, embed = sub.as_group()
    return GLattice(local, lattice.rank, lattice.action[list(embed)])


@dataclass(frozen=True, eq=False)
class TorusLattices:
    """The split exact sequence 0 -> Z -> torus -> norm-one -> 0.

    ``inclusion`` i (rank x 1) sends 1 to the unit vector, ``projection`` p
    is torus -> norm-one, ``section`` s and ``retraction`` r split them.
    The constructor certifies r i = 1, p s = I, i r + s p = I and
    rho(g) i = i for g in S.  These prove exactness: p i r = p - p s p = 0,
    so p i = 0; i is injective with a primitive image and p onto, and the
    torus is i Z + s N with ker p = Z i.  p is equivariant because both
    quotients are (``_free_quotient``) and p to_torus = to_norm_one.
    """

    torus: GLattice
    norm_one: GLattice
    inclusion: np.ndarray
    projection: np.ndarray
    section: np.ndarray
    retraction: np.ndarray

    def __post_init__(self):
        t, n = self.torus.rank, self.norm_one.rank
        for name, shape in (("inclusion", (t, 1)), ("projection", (n, t)),
                            ("section", (t, n)), ("retraction", (1, t))):
            object.__setattr__(self, name, _frozen_int64(getattr(self, name), shape))
        i, p, s, r = self.inclusion, self.projection, self.section, self.retraction
        for identity, lhs, rhs in (
                ("r i = 1", _product(r, i), np.eye(1, dtype=np.int64)),
                ("p s = I", _product(p, s), np.eye(n, dtype=np.int64)),
                ("i r + s p = I", _product(i, r), np.eye(t, dtype=np.int64) - _product(s, p))):
            if not np.array_equal(lhs, rhs):
                raise InternalCheckError("torus sequence is not split exact", identity=identity)
        gens = list(self.torus.group.generators)
        moved = np.any(_product(self.torus.action[gens], i) != i, axis=(1, 2))
        if moved.any():
            raise InternalCheckError("unit vector is not invariant",
                                     element=gens[int(np.argmax(moved))])


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
    """The torus and norm-one lattices of a datum, as one split exact sequence.

    With (to_N, sec_N) and (to_T, sec_T) the projections and sections of
    the two quotients of A, p = to_N sec_T is the unique map with
    p to_T = to_N (to_T is onto and ker to_T lies in ker to_N),
    s = to_T sec_N, i = to_T nu(first outer coset), and r is read off
    I - s p = i r at a nonzero entry of i.
    """
    g = datum.group
    if not datum.pairs:
        # degenerate fiber product over nothing: the torus is G_m itself
        return TorusLattices(trivial_lattice(g, 1), trivial_lattice(g, 0),
                             [[1]], np.zeros((0, 1)), np.zeros((1, 0)), [[1]])
    amb_blocks, norm_blocks = [], []
    table = np.array(g.table)
    for pair in datum.pairs:
        inner, outer = cosets(g, pair.inner, "left"), cosets(g, pair.outer, "left")
        # g sends the coset of rep_j to the coset of g rep_j
        images = np.array(coset_index(g, inner))[table[:, [cs[0] for cs in inner]]]
        amb_blocks.append(_permutation_action(g, images))
        # coset summation: an outer coset is the sum of the inner cosets it holds
        outer_of = coset_index(g, outer)
        block = np.zeros((len(inner), len(outer)), dtype=np.int64)
        block[np.arange(len(inner)), [outer_of[cs[0]] for cs in inner]] = 1
        norm_blocks.append(block)
    ambient = _block_diag(amb_blocks)
    norm_matrix = _block_diag(norm_blocks)
    norm_one, to_norm_one, sec_norm_one = _free_quotient(g, ambient, norm_matrix)
    base_rank = norm_matrix.shape[1]
    deg_kernel = np.array(kernel_basis(((1,) * base_rank,), base_rank),
                          dtype=np.int64).reshape(base_rank, base_rank - 1)
    torus, to_torus, sec_torus = _free_quotient(g, ambient, _product(norm_matrix, deg_kernel))
    projection = _product(to_norm_one, sec_torus)
    section = _product(to_torus, sec_norm_one)
    inclusion = _product(to_torus, norm_matrix[:, :1])
    k = int(np.argmax(inclusion[:, 0] != 0))
    # i = 0 leaves r = 0, which fails r i = 1 in the constructor
    pivot = int(inclusion[k, 0]) or 1
    row = np.eye(torus.rank, dtype=np.int64)[k] - _product(section[k:k + 1], projection)
    return TorusLattices(torus, norm_one, inclusion, projection, section, row // pivot)

"""Finite groups as dense Cayley tables, hard-capped at order 512.

Elements are the indices 0..order-1.  Groups are immutable.  A table
is checked once, where it comes in from outside.  Such a table goes
through ``from_table``, which checks that it is a Latin square with a
two-sided identity, then checks associativity by Light's test
(Clifford-Preston, *Algebraic Theory of Semigroups* I, §1.2): the
elements a with (x*a)*y == x*(a*y) for all x, y are closed under
products, so checking them for a set of elements whose right products
from the identity reach the whole table proves the table associative.
For a group such a set has at most log2(order) elements, and
``FiniteGroup.generators`` keeps it as S.

A table built here is a group by construction, and goes through
``_trusted_group``, which checks nothing.  Each builder proves its table
a group in its docstring: ``cyclic`` (addition mod n), ``dihedral`` and
``quaternion8`` (their multiplication rules), ``units_mod`` (units of
the ring Z/n), ``direct_product`` (componentwise products of groups),
``quotient_group`` (cosets of a subgroup ``is_normal`` has proved
normal) and ``from_permutation_generators`` (permutations closed under
composition).  ``_subgroup_as_group`` restricts a parent's table to a
subgroup: ``Subgroup`` has already proved the subset closed under
products, and the restricted product inherits associativity, the
identity and the inverses.  A test compares every builder with
``from_table`` field by field.

Conjugation runs on S, not on all of G.  Every element of G is a product
of elements of S (in a finite group every inverse is a positive power),
and conjugation by a product is the composite of the conjugations by its
factors.  So a set is normal when conjugation by S maps it into itself,
an element is central when it commutes with S, and a conjugacy orbit is
the breadth-first walk of conjugation by S (``conjugation_orbit``).
Subgroups are sorted element tuples, and conjugacy-class representatives
are chosen as the lexicographically least element list, so every
enumeration here is deterministic across runs.

Each group has one Schreier presentation (``presentation``, cached per
group): S is the greedy generators of Light's test, a breadth-first tree
of right multiplications by S gives each element g a tree word w_g, and
each of the |G|(|S| - 1) + 1 non-tree edges (g, s) of the Cayley graph
gives the relator w_g s w_(gs)^(-1) (Schreier; Brown, *Cohomology of
Groups*, II.5).  ``abelianization`` reads G^ab off its abelianized
relators, and ``cohomology`` resolves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iter_product
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .abelian import AbElement, AbHom, FinAb, smith_normal_form
from .errors import ConstructionError, InternalCheckError
from .landau import factorize

MAX_ORDER = 512


def _check_order(n: int):
    """Reject an order above the cap before any table of that size is built."""
    if n > MAX_ORDER:
        raise ConstructionError("group order exceeds the hard cap", order=n, cap=MAX_ORDER)


def _right_closure(table, reached, frontier, gens, inside=None) -> bool:
    """Add to ``reached`` every right product of ``frontier`` by ``gens``.

    Returns False as soon as a product falls outside ``inside`` (if given).
    """
    while frontier:
        nxt = []
        for a in frontier:
            row = table[a]
            for s in gens:
                c = row[s]
                if c not in reached:
                    if inside is not None and c not in inside:
                        return False
                    reached.add(c)
                    nxt.append(c)
        frontier = nxt
    return True


def _greedy_generators(table, identity, elements, inside=None):
    """Generators from ``elements`` whose right products from the identity
    reach all of them, each the least element not reached before it.

    None when the elements cannot form a group under the table: a right
    product falls outside ``inside``, or a generator fails to double the
    elements reached, as each one must in a group.  So at most
    log2(len(elements)) generators are ever taken.
    """
    reached = {identity}
    gens = []
    for x in elements:
        if x not in reached:
            gens.append(x)
            if (not _right_closure(table, reached, list(reached), gens, inside)
                    or len(reached) < 2 ** len(gens)):
                return None
    return gens


def _first_nonassociative_triple(t):
    """The least (a, b, c) in row-major order with (a*b)*c != a*(b*c)."""
    for a in range(len(t)):
        left = t[t[a]]          # left[b, c] = t[t[a, b], c]
        right = t[a][t]         # right[b, c] = t[a, t[b, c]]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return [int(a), int(b), int(c)]


def _shared_rows(t):
    """(rows, ints): the int64 table ``t``, whose entries lie in
    range(len(t)), as nested tuples of the int objects of the object array
    ``ints`` of that range.  The entries are shared, so a stored table costs
    one pointer per entry, and the rows are built one at a time, so no list
    of the whole table exists at once."""
    ints = np.array(range(len(t)), dtype=object)
    return tuple(tuple(ints[row].tolist()) for row in t), ints


def _analyze_table(table):
    """Validate a Cayley table; return (rows, identity, inverses) with
    ``rows`` as ``_shared_rows`` makes them."""
    n = len(table)
    if n == 0:
        raise ConstructionError("empty table")
    _check_order(n)
    for i, row in enumerate(table):
        if len(row) != n:
            if all(len(other) == len(row) for other in table):
                raise ConstructionError("table is not square", shape=[n, len(row)])
            raise ConstructionError("table is not square", row=i, length=len(row))
    try:
        t = np.asarray(table, dtype=np.int64)
    except OverflowError:           # an entry beyond int64 is out of range too
        raise ConstructionError("table entry out of range") from None
    if t.min() < 0 or t.max() >= n:
        raise ConstructionError("table entry out of range")
    ref = np.arange(n)
    latin = (np.sort(t, axis=1) == ref).all(axis=1) & (np.sort(t.T, axis=1) == ref).all(axis=1)
    if not latin.all():
        raise ConstructionError("table is not a Latin square", line=int(np.argmin(latin)))
    two_sided = (t == ref).all(axis=1) & (t.T == ref).all(axis=1)
    if not two_sided.any():
        raise ConstructionError("no two-sided identity")
    rows, ints = _shared_rows(t)
    identity = ints[int(np.argmax(two_sided))]
    # Light's test; an associative Latin square with identity is a group
    gens = _greedy_generators(rows, identity, range(n))
    if gens is None or any(not np.array_equal(t[t[:, a]], t[:, t[a]]) for a in gens):
        raise ConstructionError("associativity fails", triple=_first_nonassociative_triple(t))
    inverses = tuple(ints[np.argmax(t == identity, axis=1)].tolist())
    return rows, identity, inverses


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        n = 1
        x = g
        while x != self.identity:
            x = self.table[x][g]
            n += 1
        return n

    def power(self, g: int, k: int) -> int:
        k %= self.element_order(g)
        x = self.identity
        for _ in range(k):
            x = self.table[x][g]
        return x

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def __repr__(self):
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """S: the greedy generators of Light's test, at most log2(order) of them."""
        return tuple(_greedy_generators(self.table, self.identity, self.elements()))

    @cached_property
    def _hash(self) -> int:
        # the name enters equality, so equal tables under different names
        # must not collide in the caches keyed on groups
        return hash((self.table, self.identity, self.name))

    def __hash__(self):
        return self._hash


def from_table(table, name: str = "") -> FiniteGroup:
    """The group of a Cayley table from outside (any nested sequence or 2-d
    array of ints), checked as the module docstring says."""
    return FiniteGroup(*_analyze_table(table), name)


def _trusted_group(table, name: str) -> FiniteGroup:
    """The group of a table that its builder has proved a group; nothing is checked.

    ``table`` is an int64 array or nested tuples; its rows are stored as
    ``_shared_rows`` makes them.  In a group, 0 e = 0 holds for the
    identity e alone, and the inverse of a is the b with a b = e.
    """
    t = np.asarray(table, dtype=np.int64)
    rows, ints = _shared_rows(t)
    identity = ints[int(np.argmax(t[0] == 0))]
    inverses = tuple(ints[np.argmax(t == identity, axis=1)].tolist())
    return FiniteGroup(rows, identity, inverses, name)


def cyclic(n: int) -> FiniteGroup:
    """Z/n under addition mod n, which is a group."""
    if n < 1:
        raise ConstructionError("cyclic group needs order >= 1", n=n)
    _check_order(n)
    a = np.arange(n)
    return _trusted_group((a[:, None] + a) % n, f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 rotations, n..2n-1 reflections.

    Write index i + n e (0 <= i < n, e in {0, 1}) as (i, e).  The table is
    (i, e)(j, d) = ((-1)^d i + j, e + d), with i mod n and e mod 2.  It is
    associative: both ways of bracketing (i, e)(j, d)(k, c) give
    ((-1)^(d+c) i + (-1)^c j + k, e + d + c).  (0, 0) is the identity, and
    (-(-1)^e i, e) is the inverse of (i, e).  So it is a group.
    """
    if n < 1:
        raise ConstructionError("dihedral group needs n >= 1", n=n)
    _check_order(2 * n)
    # a * b turns by rot(b) +- rot(a), minus when b is a reflection, and
    # is a reflection when exactly one of a, b is
    idx = np.arange(2 * n)
    rot, refl = idx % n, idx >= n
    turn = (rot + np.where(refl, -1, 1) * rot[:, None]) % n
    return _trusted_group(turn + n * (refl[:, None] ^ refl), f"D{n}")


def quaternion8() -> FiniteGroup:
    """Quaternion group on [1, -1, i, -i, j, -j, k, -k].

    The table is Hamilton's product of these units (i^2 = j^2 = k^2 = -1,
    ij = k = -ji, jk = i = -kj, ki = j = -ik), which is associative.  The
    eight units are closed under it and hold 1 and the inverse of each
    (-1 for -1, -x for x = i, j, k).  So they form a group.
    """
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = {s + n: (s == "-", n) for s in ("", "-") for n in ("1", "i", "j", "k")}
    base = {
        ("1", "1"): (False, "1"), ("1", "i"): (False, "i"),
        ("1", "j"): (False, "j"), ("1", "k"): (False, "k"),
        ("i", "1"): (False, "i"), ("j", "1"): (False, "j"), ("k", "1"): (False, "k"),
        ("i", "i"): (True, "1"), ("j", "j"): (True, "1"), ("k", "k"): (True, "1"),
        ("i", "j"): (False, "k"), ("j", "i"): (True, "k"),
        ("j", "k"): (False, "i"), ("k", "j"): (True, "i"),
        ("k", "i"): (False, "j"), ("i", "k"): (True, "j"),
    }

    def mul(a, b):
        sa, na = sign[names[a]]
        sb, nb = sign[names[b]]
        sp, np_ = base[(na, nb)]
        s = sa ^ sb ^ sp
        return names.index(("-" if s else "") + np_)

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    return _trusted_group(table, "Q8")


def units_mod(n: int) -> FiniteGroup:
    """Multiplicative group of residues prime to n, indexed in increasing residue order.

    These are the units of the ring Z/n: the product of two units is a
    unit, multiplication mod n is associative, 1 is the identity, and the
    inverse of a is the u with a u + n v = 1 (Bezout).  So they form a group.
    """
    if n < 1:
        raise ConstructionError("modulus must be positive", n=n)
    if n >= 1 << 63:
        # phi(n) >= sqrt(n / 2) is far above the cap; factorize stops at 2^63
        raise ConstructionError("group order exceeds the hard cap", modulus=n, cap=MAX_ORDER)
    _check_order(math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n).items()))
    residues = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
    if n == 1:
        residues = [1]
    res = np.array(residues)
    index = np.zeros(n, dtype=np.int64)
    index[res % n] = np.arange(len(residues))  # mod n: for n = 1 the residue 1 is 0
    g = _trusted_group(index[np.outer(res, res) % n], f"units_mod_{n}")
    object.__setattr__(g, "_residues", tuple(residues))
    return g


def residues_of(units_group: FiniteGroup):
    return getattr(units_group, "_residues", None)


@dataclass(frozen=True)
class ProductGroup:
    """Direct product with row-major (lexicographic factor) element packing."""

    group: FiniteGroup
    factor_orders: tuple[int, ...]

    def pack(self, parts) -> int:
        g = 0
        for p, n in zip(parts, self.factor_orders, strict=True):
            g = g * n + p
        return g

    def unpack(self, g: int) -> tuple[int, ...]:
        out = []
        for n in reversed(self.factor_orders):
            g, r = divmod(g, n)
            out.append(r)
        return tuple(reversed(out))


def direct_product(*factors: FiniteGroup, name: str = "") -> ProductGroup:
    """The product of groups, multiplied componentwise.

    Each factor is a group, so the tuples of their elements form a group
    under componentwise products: associativity, the identity (the tuple
    of identities) and the inverses (the tuples of inverses) hold in each
    component.  The packing is a bijection of those tuples with the
    indices.  With no factors the product is the trivial group.
    """
    orders = tuple(g.order for g in factors)
    total = math.prod(orders)
    if total > MAX_ORDER:
        raise ConstructionError("product order exceeds the hard cap", order=total)

    # element index = sum of factor parts times strides, last factor fastest
    table = np.zeros((total, total), dtype=np.int64)
    stride = total
    for f, n in zip(factors, orders):
        stride //= n
        part = np.arange(total) // stride % n
        table += stride * np.array(f.table)[part[:, None], part]
    label = name or "x".join(f.name or "?" for f in factors)
    return ProductGroup(_trusted_group(table, label), orders)


def _perm_from_cycles(cycles, degree, generator):
    """The image of each point the cycles of a generator name, as a dict."""
    img = {}
    named = set()
    for cyc in cycles:
        for x in cyc:
            if not (isinstance(x, int) and 0 <= x < degree):
                raise ConstructionError("cycle entry out of range", entry=x, degree=degree)
            if x in named:
                raise ConstructionError("cycles of a generator are not disjoint",
                                        generator=generator, point=x)
            named.add(x)
        if len(cyc) < 2:
            continue
        for i, x in enumerate(cyc):
            img[x] = cyc[(i + 1) % len(cyc)]
    return img


def from_permutation_generators(generators, degree: int, name: str = "") -> FiniteGroup:
    """Close permutation generators (image arrays or lists of cycles) to a group.

    Elements are ordered by their image arrays.  A point no generator moves
    is fixed by the whole group, so the closure runs on the moved points
    alone, relabelled in increasing order: that keeps the order of the
    elements and the table, and allocates nothing of size ``degree``.

    The breadth-first walk closes the identity under composition with the
    generators, so the elements are every product of generators: they are
    closed under composition, which is associative, and they hold the
    identity and every inverse (a positive power, the group being
    finite).  So the table is a group.  Its rows are built one at a time
    by a numpy gather of the image arrays, so no |G|^2 x points array is
    ever held; with no moved point the group is trivial and its table 0.
    """
    maps = []
    for i, gen in enumerate(generators):
        if gen and isinstance(gen[0], (list, tuple)):
            maps.append(_perm_from_cycles(gen, degree, i))
        else:
            img = tuple(int(x) for x in gen)
            if len(img) != degree or sorted(img) != list(range(degree)):
                raise ConstructionError("generator is not a permutation", generator=list(gen))
            maps.append({x: y for x, y in enumerate(img) if x != y})
    support = sorted(set().union(*maps))
    label = {x: i for i, x in enumerate(support)}
    perms = [tuple(label[m.get(x, x)] for x in support) for m in maps]
    points = range(len(support))
    ident = tuple(points)
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in perms:
                r = tuple(p[q[i]] for i in points)
                if r not in elems:
                    if len(elems) >= MAX_ORDER:
                        raise ConstructionError("closure exceeds the hard cap", cap=MAX_ORDER)
                    elems.add(r)
                    nxt.append(r)
        frontier = nxt
    ordered = np.array(sorted(elems), dtype=np.int64).reshape(len(elems), len(points))
    index = np.arange(len(ordered))
    table = np.zeros((len(ordered), len(ordered)), dtype=np.int64)
    for i, p in enumerate(ordered if support else ()):
        # the products p.q run over the group, so their sorted order is their index
        table[i, np.lexsort(p[ordered].T[::-1])] = index
    return _trusted_group(table, name or f"perm_deg{degree}")


def _group_or_factors(spec):
    """The group of a spec that is not a product, or the factor specs of a product."""
    if isinstance(spec, FiniteGroup):
        return spec
    if not isinstance(spec, dict):
        raise ConstructionError("group spec must be a mapping")
    if "table" in spec:
        table = spec["table"]
        if "order" in spec and int(spec["order"]) != len(table):
            raise ConstructionError("declared order disagrees with the table")
        return from_table(table, spec.get("name", ""))
    if "permutation_generators" in spec:
        return from_permutation_generators(
            spec["permutation_generators"], int(spec["degree"]), spec.get("name", ""))
    family = spec.get("family")
    needs = {"cyclic": "n", "dihedral": "n", "units_mod": "n", "product": "factors"}.get(family)
    if needs is not None and needs not in spec:
        raise ConstructionError(f"{family} family spec needs {needs!r}", family=family)
    if family == "cyclic":
        return cyclic(int(spec["n"]))
    if family == "dihedral":
        return dihedral(int(spec["n"]))
    if family == "quaternion8":
        return quaternion8()
    if family == "units_mod":
        return units_mod(int(spec["n"]))
    if family == "product":
        return spec["factors"]
    raise ConstructionError("unrecognized group spec", keys=sorted(spec))


def construct_group(spec) -> FiniteGroup:
    """Build a group from a family spec dict or an explicit table.

    Product specs nest as deep as the JSON parser allows, so they are
    built from an explicit stack, innermost first, and not by recursion.
    """
    stack = [([spec], [])]      # (factor specs, the groups built from them so far)
    while True:
        specs, built = stack[-1]
        if len(built) < len(specs):
            item = _group_or_factors(specs[len(built)])
            if isinstance(item, FiniteGroup):
                built.append(item)
            else:
                stack.append((item, []))
            continue
        stack.pop()
        if not stack:
            return built[0]
        stack[-1][1].append(direct_product(*built).group)


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        g = self.group
        if elems and (elems[0] < 0 or elems[-1] >= g.order):
            raise ConstructionError("subgroup element out of range",
                                    element=elems[0] if elems[0] < 0 else elems[-1],
                                    order=g.order)
        mem = self._members
        if g.identity not in mem:
            raise ConstructionError("subgroup misses the identity")
        if _greedy_generators(g.table, g.identity, elems, mem) is not None:
            return
        # not closed under products: name the first failure in row-major order
        for a in elems:
            if g.inverses[a] not in mem:
                raise ConstructionError("subgroup not closed under inverse", element=a)
            for b in elems:
                if g.table[a][b] not in mem:
                    raise ConstructionError("subgroup not closed", pair=[a, b])

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.group.order // self.order

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self._members

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return self._members.issuperset(other.elements)

    def is_cyclic(self) -> bool:
        return any(self.group.element_order(g) == self.order for g in self.elements)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Standalone Cayley table; second value maps local index -> parent element."""
        return _subgroup_as_group(self.group, self.elements)

    def local_index(self) -> dict[int, int]:
        """Parent element -> its index in the table of ``as_group``.

        Built on each call: kept on every cached subgroup, the dicts cost
        more memory than rebuilding them costs time."""
        return {p: i for i, p in enumerate(self.elements)}

    def localize(self, other: "Subgroup") -> "Subgroup":
        """A subgroup of this one, as a subgroup of the table of ``as_group``."""
        index = self.local_index()
        return Subgroup(self.as_group()[0], tuple(index[x] for x in other.elements))

    def __hash__(self):
        return hash((self.group, self.elements))


@lru_cache(maxsize=4096)
def _subgroup_as_group(group: FiniteGroup, elements: tuple[int, ...]):
    """The Cayley table of a subgroup, restricted from the parent's table.

    Local index i stands for ``elements[i]``.  ``Subgroup`` has proved the
    elements closed under products, so each restricted row is a row of the
    table.  The restricted product is associative because the parent's is,
    the parent's identity is a two-sided identity in it, and the parent's
    inverse of an element lies in the subgroup (a positive power of it) and
    is its two-sided inverse there.  So the result is a group, with the
    fields ``from_table`` gives the same local table, and nothing is
    checked again.
    """
    if len(elements) == group.order:        # local and parent indices agree
        return FiniteGroup(group.table, group.identity, group.inverses), elements
    if len(elements) == 1:                  # itemgetter of one index returns it bare
        return FiniteGroup(((0,),), 0, (0,)), elements
    local = dict(zip(elements, range(len(elements))))   # entries: shared int objects
    to_local = local.__getitem__
    pick = itemgetter(*elements)
    rows = tuple(tuple(map(to_local, pick(group.table[a]))) for a in elements)
    inverses = tuple(map(to_local, pick(group.inverses)))
    return FiniteGroup(rows, local[group.identity], inverses), elements


def closure(group: FiniteGroup, gens) -> tuple[int, ...]:
    """The subgroup generated by ``gens``, as a sorted element tuple.

    Right products of the generators from the identity suffice: in a finite
    group every inverse is a positive power.
    """
    elems = {group.identity}
    _right_closure(group.table, elems, [group.identity], set(gens))
    return tuple(sorted(elems))


def subgroup_generated(group: FiniteGroup, gens) -> Subgroup:
    return Subgroup(group, closure(group, gens))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (group.identity,))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, tuple(group.elements()))


def intersect(a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(a.group, tuple(sorted(set(a.elements) & set(b.elements))))


def is_normal(group: FiniteGroup, s: Subgroup) -> bool:
    """Whether g.s.g^-1 lies in s for every g in S = ``group.generators``.

    That is enough: the g with g.s.g^-1 inside s are closed under
    products, since gh.s.(gh)^-1 = g(h.s.h^-1)g^-1, and a finite subset of
    a finite group that is closed under products is a subgroup.  Holding S,
    it is all of G.
    """
    mem = s._members
    t, inv = group.table, group.inverses
    return all(t[t[g][x]][inv[g]] in mem for g in group.generators for x in s.elements)


def cosets(group: FiniteGroup, s: Subgroup, side: str = "left"):
    """Partition into cosets, each a sorted tuple; cosets sorted by least element."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    seen = set()
    out = []
    for g in group.elements():
        if g in seen:
            continue
        if side == "left":
            cs = tuple(sorted(group.table[g][h] for h in s.elements))
        else:
            cs = tuple(sorted(group.table[h][g] for h in s.elements))
        seen.update(cs)
        out.append(cs)
    return sorted(out)


def coset_index(group: FiniteGroup, parts) -> list[int]:
    """Position in ``parts`` (a partition of the group) of each element's part."""
    index = [0] * group.order
    for i, cs in enumerate(parts):
        for g in cs:
            index[g] = i
    return index


def conjugation_orbit(group: FiniteGroup, elements) -> set[tuple[int, ...]]:
    """The conjugates g.X.g^-1 (g in G) of a set X of elements, each a sorted
    tuple: the breadth-first walk from X of conjugation by ``group.generators``
    (see the module docstring)."""
    t, inv = group.table, group.inverses
    conjugations = [(t[s], inv[s]) for s in group.generators]
    start = tuple(sorted(elements))
    orbit = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for row, s_inv in conjugations:
                y = tuple(sorted([t[row[a]][s_inv] for a in x]))
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return orbit


def center(group: FiniteGroup) -> Subgroup:
    """The z with z.s == s.z for every s in S, so for every element of G."""
    t, gens = group.table, group.generators
    return Subgroup(group, tuple(z for z in group.elements()
                                 if all(t[z][s] == t[s][z] for s in gens)))


def canonical_conjugate(group: FiniteGroup, s: Subgroup) -> Subgroup:
    """The least conjugate of ``s``: the least tuple of its conjugation orbit."""
    return Subgroup(group, min(conjugation_orbit(group, s.elements)))


def dedupe_up_to_conjugacy(group: FiniteGroup, subgroups):
    """The least conjugate of each subgroup, once each, by order and then
    elements.  Each orbit is walked once: all its members map to its least."""
    least = {}
    for s in subgroups:
        if s.elements not in least:
            orbit = conjugation_orbit(group, s.elements)
            least.update(dict.fromkeys(orbit, min(orbit)))
    reps = set(least.values())
    return [Subgroup(group, e) for e in sorted(reps, key=lambda e: (len(e), e))]


def cyclic_subgroups_up_to_conjugacy(group: FiniteGroup):
    """One representative per conjugacy class of cyclic subgroups, trivial included.

    Each <g> is built once from the powers of g, and every generator g^k of
    it (gcd(k, ord g) = 1) is marked seen.
    """
    t, e = group.table, group.identity
    seen, subs = set(), []
    for g in group.elements():
        if g not in seen:
            powers = [e]
            x = g
            while x != e:
                powers.append(x)
                x = t[x][g]
            n = len(powers)
            seen.update(powers[k] for k in range(n) if math.gcd(k, n) == 1)
            subs.append(Subgroup(group, tuple(sorted(powers))))
    return dedupe_up_to_conjugacy(group, subs)


def normalizer(group: FiniteGroup, s: Subgroup) -> Subgroup:
    mem = set(s.elements)
    elems = [g for g in group.elements()
             if {group.conj(g, x) for x in s.elements} == mem]
    return Subgroup(group, tuple(elems))


def sylow(group: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown through normalizer quotients."""
    n = group.order
    if p < 2 or n % p != 0:
        raise ConstructionError("p does not divide the group order", p=p, order=n)
    target = 1
    while n % p == 0:
        n //= p
        target *= p
    current = trivial_subgroup(group)
    while current.order < target:
        norm = normalizer(group, current)
        local, embed = norm.as_group()
        quot = quotient_group(local, norm.localize(current))
        lift = None
        for q in quot.group.elements():
            o = quot.group.element_order(q)
            if o % p == 0:
                qq = quot.group.power(q, o // p)
                lift = quot.representatives[qq]
                break
        if lift is None:
            raise ConstructionError("sylow growth stalled; table is inconsistent")
        current = subgroup_generated(group, current.elements + (embed[lift],))
    return current


@dataclass(frozen=True)
class QuotientGroup:
    group: FiniteGroup
    projection: tuple[int, ...]       # parent element -> quotient element
    representatives: tuple[int, ...]  # quotient element -> least parent representative


def quotient_group(group: FiniteGroup, n: Subgroup) -> QuotientGroup:
    """G/N, once ``is_normal`` has proved N normal.

    The cosets of a normal subgroup form a group under (aN)(bN) = abN:
    the product is well defined, and associativity, the identity N and
    the inverses a^-1 N come from G.  The table multiplies the least
    representatives and reads off the coset of the product.
    """
    if not is_normal(group, n):
        raise ConstructionError("quotient by a non-normal subgroup")
    parts = cosets(group, n, "left")
    proj = coset_index(group, parts)
    reps = tuple(cs[0] for cs in parts)
    table = np.array(proj)[np.array([group.table[r] for r in reps])[:, reps]]
    return QuotientGroup(_trusted_group(table, ""), tuple(proj), reps)


# ---------------------------------------------------------------------------
# the Schreier presentation
# ---------------------------------------------------------------------------

class Presentation(NamedTuple):
    """The Schreier presentation of a group (see the module docstring)."""

    generators: tuple[int, ...]     # S
    right: np.ndarray               # right[g, i] = g s_i
    order: tuple[int, ...]          # the elements, breadth first from e
    parent: np.ndarray              # tree edge (parent[g], letter[g]) into g,
    letter: np.ndarray              # parent[g] s_letter[g] = g; -1 at e
    relators: np.ndarray            # the non-tree edges (g, i), row-major
    relator_of: np.ndarray          # index of edge (g, i) among them, -1 on the tree


@lru_cache(maxsize=256)
def presentation(group: FiniteGroup) -> Presentation:
    """The Schreier presentation of a group's Cayley table, cached per group."""
    gens = group.generators
    n, e = group.order, group.identity
    right = np.array([[row[s] for s in gens] for row in group.table],
                     dtype=np.int64).reshape(n, len(gens))
    parent = np.full(n, -1, dtype=np.int64)
    letter = np.full(n, -1, dtype=np.int64)
    order = [e]
    for h in order:                 # the list grows as it is walked
        for i, c in enumerate(right[h].tolist()):
            if c != e and parent[c] < 0:
                parent[c], letter[c] = h, i
                order.append(c)
    non_tree = np.ones((n, len(gens)), dtype=bool)
    non_tree[parent[order[1:]], letter[order[1:]]] = False
    relators = np.argwhere(non_tree)
    relator_of = np.full((n, len(gens)), -1, dtype=np.int64)
    relator_of[non_tree] = np.arange(len(relators))
    for array in (right, parent, letter, relators, relator_of):
        array.flags.writeable = False   # shared through the cache
    return Presentation(tuple(gens), right, tuple(order), parent, letter, relators,
                        relator_of)


# ---------------------------------------------------------------------------
# homomorphisms and abelianization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Abelianization:
    """G/[G,G] in invariant-factor form with the projection and a section."""

    source: FiniteGroup
    group: FinAb
    images: tuple[tuple[int, ...], ...]  # element -> coordinates
    sections: tuple[int, ...]            # canonical generator -> a preimage in G

    def project(self, g: int) -> AbElement:
        return self.group.element(self.images[g])

    def index_two_characters(self, g: int):
        """Yield each surjection chi: G -> Z/2 with chi(g) = 1, in lexicographic
        order of its coefficients c on the invariant factors, where
        chi(x) = sum_j c_j x_j mod 2 and only even factors carry c_j = 1."""
        choices = [(0, 1) if d % 2 == 0 else (0,) for d in self.group.factors]
        for coeffs in iter_product(*choices):
            if sum(c * x for c, x in zip(coeffs, self.images[g])) % 2:
                yield coeffs


def abelianization(group: FiniteGroup) -> Abelianization:
    """G^ab as Z^S modulo the abelianized relators of ``presentation``.

    With w_g the exponent sums of the tree word of g, the relator of the
    non-tree edge (g, i) abelianizes to w_g + e_i - w_(g s_i).  One Smith
    form U R V = D of the distinct nonzero relation vectors R gives the
    invariant factors and the coordinates (U w_g) mod D of g.  A zero on
    the diagonal, or g s != g + s in coordinates for some g and s in S, is
    a bug; the latter suffices by Light's induction (see ``lattice``).
    """
    pres = presentation(group)
    n, s = group.order, len(pres.generators)
    words = np.zeros((n, s), dtype=np.int64)
    for c in pres.order[1:]:
        words[c] = words[pres.parent[c]]
        words[c, pres.letter[c]] += 1
    g, i = pres.relators.T
    rel = words[g] - words[pres.right[g, i]]
    rel[np.arange(len(g)), i] += 1
    rel = sorted(set(map(tuple, rel[rel.any(axis=1)].tolist())))
    form = smith_normal_form(tuple(zip(*rel)))     # one column per relation
    diag = form.diagonal
    if len(diag) < s or 0 in diag:
        raise InternalCheckError("abelianization has a zero invariant factor",
                                 order=n, diagonal=list(diag))
    keep = [j for j in range(s) if diag[j] > 1]
    fin = FinAb(tuple(diag[j] for j in keep))
    factors = np.array(fin.factors, dtype=np.int64)
    # rows of U reduced mod their factor keep U w inside int64
    u = np.array([[x % diag[j] for x in form.u[j]] for j in keep],
                 dtype=np.int64).reshape(fin.rank, s)
    coords = (words @ u.T) % factors
    if np.any((coords[:, None] + coords[list(pres.generators)] - coords[pres.right])
              % factors):
        raise InternalCheckError("abelianization is not a homomorphism", order=n)
    units = (coords[:, None] == np.eye(fin.rank, dtype=np.int64)).all(axis=2)
    sections = tuple(np.argmax(units, axis=0).tolist())
    return Abelianization(group, fin, tuple(map(tuple, coords.tolist())), sections)


def induced_abelian_hom(sub: Subgroup, sub_ab: Abelianization,
                        parent_ab: Abelianization) -> AbHom:
    """The natural map H^ab -> G^ab for a subgroup H of G.

    ``sub_ab`` must be the abelianization of ``sub.as_group()``.
    """
    _, embed = sub.as_group()
    cols = []
    for local in sub_ab.sections:
        cols.append(parent_ab.images[embed[local]])
    rank = parent_ab.group.rank
    matrix = tuple(tuple(col[i] for col in cols) for i in range(rank))
    return AbHom(sub_ab.group, parent_ab.group, matrix)

"""Exact arithmetic with finite abelian groups.

All arithmetic is on arbitrary-precision integers, except that
``direct_sum`` factors each invariant factor of its summands and so needs
them below 2^63.  Groups are kept in
invariant-factor form (d_1 | d_2 | ... | d_k, each >= 2, empty tuple =
trivial group) and all homomorphisms are integer matrices relative to the
canonical generators, so results are exactly reproducible across runs.

A subgroup of A = Z^r / D Z^r is a lattice between D Z^r and Z^r.  Every
operation on finite abelian groups (subgroups, images, kernels,
cokernels and ``factor_through``) is one triangular basis of
such a lattice, its Hermite form modulo D (``_echelon``), and one Smith
form of an r x r matrix for the quotient of two of them (``_quotient``).
Kernels and cokernels are taken of a family of maps f_i : X -> B_i out
of one domain, on the lattice of x -> (f_i x)_i over the concatenated
moduli of the B_i (``_joint``): the B_i are never summed into one
canonical group first.  Kernels and ``factor_through`` use the graph
lattice of that map (``_graph``), cokernels its image.  Smith
normal form of a whole matrix (``smith_normal_form``) serves the
unbounded lattices of ``kernel_basis``.  Direct sums need no lattice:
``direct_sum`` merges elementary divisors.  The torsion
of a large cokernel, whose exponent is known, is found by numpy
eliminations modulo prime powers (``cokernel_torsion``), exact by the
same invariant-factor theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .errors import InternalCheckError
from .landau import factorize

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# plain integer matrices (tuples of row tuples)
# ---------------------------------------------------------------------------

def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a: Matrix, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(zip(*a))


@dataclass(frozen=True)
class SmithForm:
    """u * m * v = d with u, v unimodular and d diagonal, d_1 | d_2 | ..."""

    u: Matrix
    d: Matrix
    v: Matrix
    u_inv: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(m: Matrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivots on the smallest-magnitude nonzero entry to bound coefficient
    growth.  Diagonal entries are nonnegative and satisfy the divisibility
    chain; u, its inverse and v are returned.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    for row in a:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    u = [list(row) for row in identity(nr)]
    u_inv = [list(row) for row in identity(nr)]
    v = [list(row) for row in identity(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        ai, aj = a[i], a[j]
        for k in range(nc):
            ai[k] += q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(nr):
            ui[k] += q * uj[k]
        for r in u_inv:
            r[j] -= q * r[i]

    def add_col(i, j, q):
        # col_i += q * col_j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate smallest-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            # clear column t below the pivot, restarting if a remainder shrinks the pivot
            restart = False
            for i in range(t + 1, nr):
                x = a[i][t]
                if x == 0:
                    continue
                q = x // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, nc):
                x = a[t][j]
                if x == 0:
                    continue
                q = x // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide every entry of the trailing submatrix
            piv = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                row = a[i]
                for j in range(t + 1, nc):
                    if row[j] % piv != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    d = tuple(tuple(row) for row in a)
    form = SmithForm(
        u=tuple(tuple(r) for r in u),
        d=d,
        v=tuple(tuple(r) for r in v),
        u_inv=tuple(tuple(r) for r in u_inv),
    )
    return form


def kernel_basis(a: Matrix, cols: int) -> Matrix:
    """Columns generating the integer kernel lattice of ``a`` (cols columns)."""
    if cols == 0:
        return ()
    if not a:
        return identity(cols)
    s = smith_normal_form(a)
    rank = s.rank
    # kernel basis = columns of v beyond the rank
    basis = []
    for j in range(rank, cols):
        basis.append(tuple(s.v[i][j] for i in range(cols)))
    # return as a matrix whose columns are the basis vectors
    return transpose(tuple(basis)) if basis else tuple(tuple() for _ in range(cols))


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinAb:
    """Finite abelian group in invariant-factor form."""

    factors: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for d in self.factors:
            if d < 2:
                raise InternalCheckError("invariant factor < 2", factor=d)
            if prev is not None and d % prev != 0:
                raise InternalCheckError("divisibility chain broken", factors=self.factors)
            prev = d

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) <= 1

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    def element(self, coords) -> "AbElement":
        coords = tuple(int(c) % d for c, d in zip(coords, self.factors, strict=True))
        return AbElement(self, coords)

    def zero(self) -> "AbElement":
        return AbElement(self, tuple(0 for _ in self.factors))

    def elements(self):
        for coords in iter_product(*(range(d) for d in self.factors)):
            yield AbElement(self, coords)

    def __repr__(self):
        if not self.factors:
            return "FinAb(0)"
        return "FinAb(" + " + ".join(f"Z/{d}" for d in self.factors) + ")"


@dataclass(frozen=True)
class AbElement:
    group: FinAb
    coords: tuple[int, ...]

    def __add__(self, other: "AbElement") -> "AbElement":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return self.group.element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AbElement":
        return self.group.element(tuple(-a for a in self.coords))

    def __sub__(self, other: "AbElement") -> "AbElement":
        return self + (-other)

    def scaled(self, n: int) -> "AbElement":
        return self.group.element(tuple(n * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        n = 1
        for c, d in zip(self.coords, self.group.factors):
            if c:
                n = math.lcm(n, d // math.gcd(c, d))
        return n


@dataclass(frozen=True)
class AbHom:
    """Homomorphism between finite abelian groups as an integer matrix.

    Column j is the image of the j-th canonical generator of the domain,
    written in codomain coordinates; entries are reduced mod the codomain
    invariant factors.
    """

    domain: FinAb
    codomain: FinAb
    matrix: Matrix

    def __post_init__(self):
        rows = self.codomain.rank
        cols = self.domain.rank
        m = self.matrix
        if len(m) != rows or any(len(r) != cols for r in m):
            raise InternalCheckError(
                "hom matrix has wrong shape",
                expected=(rows, cols), got=(len(m), len(m[0]) if m else 0))
        reduced = tuple(
            tuple(m[i][j] % self.codomain.factors[i] for j in range(cols))
            for i in range(rows))
        if reduced != m:
            object.__setattr__(self, "matrix", reduced)
        # respect generator orders: d_j * column_j = 0 in the codomain
        for j in range(cols):
            dj = self.domain.factors[j]
            for i in range(rows):
                if (dj * self.matrix[i][j]) % self.codomain.factors[i] != 0:
                    raise InternalCheckError(
                        "matrix does not respect generator orders",
                        row=i, col=j, value=self.matrix[i][j])

    def __call__(self, el: AbElement) -> AbElement:
        if el.group != self.domain:
            raise ValueError("element not in the domain")
        return self.codomain.element(mat_vec(self.matrix, el.coords))

    def compose(self, inner: "AbHom") -> "AbHom":
        """self o inner (shape-explicit so zero-rank factors behave)."""
        if inner.codomain != self.domain:
            raise ValueError("composition mismatch")
        rows = self.codomain.rank
        mid = self.domain.rank
        cols = inner.domain.rank
        m = tuple(
            tuple(sum(self.matrix[i][k] * inner.matrix[k][j] for k in range(mid))
                  for j in range(cols))
            for i in range(rows))
        return AbHom(inner.domain, self.codomain, m)

    @property
    def columns(self) -> Matrix:
        """The images of the domain's canonical generators."""
        return tuple(tuple(row[j] for row in self.matrix) for j in range(self.domain.rank))

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.matrix)


def _echelon(columns, moduli) -> list[list[int]]:
    """A triangular basis of the lattice L spanned by ``columns`` and the d_i e_i.

    basis[i] is zero before coordinate i and has the pivot basis[i][i] > 0
    there.  Starting from the basis d_i e_i, each column is folded in by
    Euclid's algorithm on its leading coordinate i against basis[i], a
    unimodular change of the pair, after which it leads at i + 1 or later.
    Every coordinate k is kept reduced mod d_k: d_k e_k lies in the span
    of basis[k:] (true at the start, and d_k e_k in L has no component on
    the vectors leading before k), which the fold at coordinate i < k
    leaves alone.  So the basis never holds more than r vectors, its
    entries stay below the moduli, and it spans L.
    """
    basis = [[d if k == i else 0 for k in range(len(moduli))] for i, d in enumerate(moduli)]
    for column in columns:
        v = [x % d for x, d in zip(column, moduli)]
        for i, b in enumerate(basis):
            while v[i]:
                q = b[i] // v[i]
                b, v = v, [(x - q * y) % d for x, y, d in zip(b, v, moduli)]
            basis[i] = b
    return basis


def _coefficients(basis, w, count: int):
    """c with w - sum_i c_i basis[i] zero on the first ``count`` coordinates,
    for a triangular basis; None if no such c exists."""
    w = list(w)
    coeffs = []
    for i in range(count):
        q, rem = divmod(w[i], basis[i][i])
        if rem:
            return None
        coeffs.append(q)
        w = [x - q * y for x, y in zip(w, basis[i])]
    return coeffs


def _quotient(outer, inner):
    """outer / inner for triangular bases of full lattices inner <= outer in Z^r.

    With C the r x r matrix of the inner basis in outer coordinates and
    u C v = diag(e) its Smith form, the columns of outer u^-1 form a basis
    of outer adapted to inner.  Returns the invariant factors (the e_i > 1),
    their canonical generators (those columns, as vectors of Z^r) and the
    coordinate rows (the rows of u, which take outer coordinates to
    canonical coordinates).  Raises if inner is not inside outer.
    """
    r = len(outer)
    coeffs = []
    for w in inner:
        c = _coefficients(outer, w, r)
        if c is None:
            raise InternalCheckError("inner lattice is not inside the outer one")
        coeffs.append(c)
    form = smith_normal_form(transpose(coeffs))
    keep = [i for i, e in enumerate(form.diagonal) if e > 1]
    generators = [[sum(outer[j][k] * form.u_inv[j][i] for j in range(r)) for k in range(r)]
                  for i in keep]
    return (tuple(form.diagonal[i] for i in keep), generators,
            tuple(form.u[i] for i in keep))


def _joint(domain: FinAb, homs):
    """(columns, moduli) of x -> (f_1 x, ..., f_k x): column j is the image
    of the j-th generator of ``domain`` in the concatenated coordinates of
    the codomains, and the moduli are their concatenated invariant
    factors.  ``_echelon`` needs no divisibility chain across the moduli,
    so the codomains are never summed into one canonical group."""
    for f in homs:
        if f.domain != domain:
            raise ValueError("the maps of a family need one domain")
    rows = [row for f in homs for row in f.matrix]
    columns = list(zip(*rows)) if rows else [()] * domain.rank
    return columns, tuple(d for f in homs for d in f.codomain.factors)


def _graph(domain: FinAb, homs) -> list[list[int]]:
    """Triangular basis of the graph lattice of x -> (f_1 x, ..., f_k x),
    codomain coordinates first.

    The lattice is spanned by the (f_1 e_j, ..., f_k e_j, e_j) and the
    moduli of all the groups.  Its vectors leading in the M codomain
    coordinates project onto a basis of the joint image plus D Z^M; the
    rest are (0, x) with x running over a basis of the common kernel
    lattice {x : f_i x = 0}.
    """
    columns, moduli = _joint(domain, homs)
    return _echelon([col + unit for col, unit in zip(columns, identity(domain.rank))],
                    moduli + domain.factors)


@dataclass(frozen=True)
class SubgroupData:
    """A subgroup of an ambient FinAb, with its canonical inclusion."""

    group: FinAb
    inclusion: AbHom  # group -> ambient

    @property
    def order(self) -> int:
        return self.group.order


def _subgroup(ambient: FinAb, lattice) -> SubgroupData:
    """lattice / D Z^r as a subgroup of the ambient Z^r / D Z^r."""
    factors, generators, _ = _quotient(lattice, _echelon((), ambient.factors))
    sub = FinAb(factors)
    incl = tuple(tuple(g[k] for g in generators) for k in range(ambient.rank))
    return SubgroupData(sub, AbHom(sub, ambient, incl))


def subgroup_of(ambient: FinAb, generators) -> SubgroupData:
    """The subgroup generated by the given elements, in invariant-factor form."""
    gens = list(generators)
    for g in gens:
        if g.group != ambient:
            raise ValueError("generator not in the ambient group")
    return _subgroup(ambient, _echelon([g.coords for g in gens], ambient.factors))


def cokernel_of_hom(homs) -> tuple[FinAb, tuple[AbHom, ...]]:
    """Q = (+)_i B_i / {(f_i x)_i} for maps f_i : X -> B_i, with one
    projection B_i -> Q per map.

    The projections are jointly onto and sum p_i f_i = 0.  With no maps Q
    is trivial; on zero maps out of the trivial group Q is the sum of the
    B_i and the p_i are its injections.
    """
    homs = tuple(homs)
    columns, moduli = _joint(homs[0].domain, homs) if homs else ((), ())
    factors, _, rows = _quotient(identity(len(moduli)), _echelon(columns, moduli))
    quot = FinAb(factors)
    projections = []
    off = 0
    for f in homs:
        end = off + f.codomain.rank
        projections.append(AbHom(f.codomain, quot, tuple(row[off:end] for row in rows)))
        off = end
    return quot, tuple(projections)


def kernel_of_hom(domain: FinAb, homs) -> SubgroupData:
    """The common kernel of maps f_i out of ``domain``, as a subgroup of
    it (all of it for no maps): the tail of the graph basis."""
    homs = tuple(homs)
    m = sum(f.codomain.rank for f in homs)
    return _subgroup(domain, [b[m:] for b in _graph(domain, homs)[m:]])


def image_of_hom(f: AbHom) -> SubgroupData:
    return _subgroup(f.codomain, _echelon(f.columns, f.codomain.factors))


def factor_through(incl: AbHom, f: AbHom) -> AbHom:
    """g with incl o g = f, for injective ``incl`` whose image contains im f.

    (y, 0) less a combination of the graph vectors of incl that lead in the
    codomain coordinates is (0, -s) exactly when y is in im incl + D Z^m,
    and then (y, s) lies in the graph: incl s = y.
    """
    if incl.codomain != f.codomain:
        raise ValueError("codomain mismatch")
    m = incl.codomain.rank
    graph = _graph(incl.domain, [incl])
    padding = (0,) * incl.domain.rank
    columns = []
    for y in f.columns:
        c = _coefficients(graph, y + padding, m)
        if c is None:
            raise InternalCheckError("image is not contained in the subgroup")
        columns.append([sum(ci * graph[i][m + k] for i, ci in enumerate(c))
                        for k in range(incl.domain.rank)])
    g = tuple(tuple(col[k] for col in columns) for k in range(incl.domain.rank))
    return AbHom(f.domain, incl.domain, g)


def direct_sum(parts) -> FinAb:
    """The direct sum of finite abelian groups, in invariant-factor form.

    A finite abelian group is fixed by its elementary divisors, the prime
    powers of a decomposition into cyclic groups of prime-power order, and
    those of a sum are the summands' together: the p-parts of each
    summand's invariant factors.  In d_1 | ... | d_k the p-parts of d_k,
    d_(k-1), ... are the powers of p among the elementary divisors, largest
    first, then 1.  So no elimination is needed: the k-th largest invariant
    factor is the product over p of the k-th largest power of p.  Each
    distinct invariant factor of the summands is factored once, by
    ``factorize``, so each must be below 2^63.
    """
    counts = {}
    for part in parts:
        for d in part.factors:
            counts[d] = counts.get(d, 0) + 1
    powers = {}
    for d, count in counts.items():
        for p, e in factorize(d).items():
            powers.setdefault(p, []).extend([p ** e] * count)
    factors = [1] * max(map(len, powers.values()), default=0)
    for chain in powers.values():
        for k, q in enumerate(sorted(chain, reverse=True)):
            factors[k] *= q
    return FinAb(tuple(reversed(factors)))


# ---------------------------------------------------------------------------
# torsion of a cokernel by p-local elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _LocalForm:
    """Smith form of an integer matrix over Z/p^k, k = 2e + 1, p^e | exponent.

    ``row_ops`` records the row operations (pivot row, target rows,
    factors): replayed on x they give U x mod p^k.  Rows outside every
    pivot are the free coordinates of the cokernel; ``torsion`` lists the
    pivot rows whose coordinate lives in Z/p^a with a >= 1, with a.
    """

    prime: int
    modulus: int
    check: int
    row_ops: tuple
    free_rows: np.ndarray
    torsion: tuple[tuple[int, int], ...]

    def reduce(self, x: np.ndarray) -> np.ndarray:
        mod = self.modulus
        y = x % mod
        for r, targets, factors in self.row_ops:
            y[targets] = (y[targets] - factors * y[r]) % mod
        if np.any(y[self.free_rows] % self.check):
            raise InternalCheckError("vector is not torsion in the cokernel",
                                     prime=self.prime)
        return y


def _local_form(matrix: np.ndarray, p: int, e: int):
    """Eliminate ``matrix`` modulo p^(2e+1); returns (_LocalForm, generators).

    Pivots are taken in order of p-valuation, so every pivot divides the
    rest of its row and column: clearing its column by row operations and
    its row by column operations is exact modulo p^k.  Only the rows that
    are nonzero in the pivot column are touched.  The column operations are
    kept in V.  For a torsion pivot of valuation a, with v its V column
    scaled by the inverse unit, matrix @ v is divisible by p^a over Z, and
    matrix @ v / p^a is an integer vector whose class generates the pivot's
    Z/p^a.

    k = 2e + 1 is enough: a saturated vector's coordinates in this basis
    differ from those in an exact p-adic Smith basis by multiples of
    p^(k - e) = p^(e + 1), beyond every torsion exponent a <= e.
    """
    mod = p ** (2 * e + 1)
    a = matrix % mod
    nr, nc = a.shape
    rows = np.arange(nr)
    cols = np.arange(nc)
    v = np.eye(nc, dtype=np.int64)
    ops = []
    torsion = []
    generators = []
    for level in range(e + 1):
        unit = p ** level
        step = unit * p
        j = misses = 0
        while nr and misses < nc:
            if j >= nc:
                j = 0
            column = a[:nr, j]
            hits = np.flatnonzero(column % step)
            if not hits.size:
                misses += 1
                j += 1
                continue
            misses = 0
            # the sparsest candidate row keeps the fill-in low
            r = hits[np.argmin(np.count_nonzero(a[hits, :nc], axis=1))]
            pivot_row = a[r, :nc]
            u_inv = pow(int(pivot_row[j]) // unit, -1, mod)
            targets = np.flatnonzero(column)
            targets = targets[targets != r]
            if targets.size:
                factors = (column[targets] // unit) * u_inv % mod
                a[targets, :nc] = (a[targets, :nc] - factors[:, None] * pivot_row) % mod
                ops.append((int(rows[r]), rows[targets], factors))
            coeffs = (pivot_row // unit) * u_inv % mod
            coeffs[j] = 0
            nz = np.flatnonzero(coeffs)
            if nz.size:
                dst = cols[nz]
                v[:, dst] = (v[:, dst] - np.outer(v[:, cols[j]], coeffs[nz])) % mod
            if level:
                image = matrix @ (v[:, cols[j]] * u_inv % mod)
                if np.any(image % unit):
                    raise InternalCheckError("torsion lift is not divisible",
                                             prime=p, exponent=level)
                torsion.append((int(rows[r]), level))
                generators.append(image // unit)
            nr -= 1
            a[[r, nr]] = a[[nr, r]]
            rows[[r, nr]] = rows[[nr, r]]
            nc -= 1
            a[:nr, [j, nc]] = a[:nr, [nc, j]]
            cols[[j, nc]] = cols[[nc, j]]
    if np.any(a[:nr, :nc]):
        raise InternalCheckError("an elementary divisor does not divide the exponent",
                                 prime=p, valuation_above=e)
    form = _LocalForm(p, mod, p ** (e + 1), tuple(ops), rows[:nr].copy(),
                      tuple(torsion))
    return form, generators


@dataclass(frozen=True, eq=False)
class CokernelTorsion:
    """Torsion subgroup of coker(a : Z^n -> Z^m) in invariant-factor form.

    ``generators[j]`` is an integer vector of Z^m whose class is the j-th
    canonical generator; ``coordinates`` maps a vector of the saturation of
    the image to its class.
    """

    group: FinAb
    generators: tuple[np.ndarray, ...]
    _forms: tuple[_LocalForm, ...]
    _weights: tuple[tuple[tuple[int, int], ...], ...]

    def coordinates(self, x) -> tuple[int, ...]:
        """Canonical coordinates of x; raises if x is not torsion mod the image."""
        x = np.asarray(x, dtype=np.int64)
        coords = [0] * self.group.rank
        for form, weights in zip(self._forms, self._weights):
            y = form.reduce(x)
            for (row, _), (slot, weight) in zip(form.torsion, weights):
                coords[slot] += int(y[row]) * weight
        return tuple(c % d for c, d in zip(coords, self.group.factors))


def cokernel_torsion(a: np.ndarray, exponent: int) -> CokernelTorsion:
    """Torsion of coker(a) for an int64 matrix whose torsion divides ``exponent``.

    The invariant factors are the non-unit nonzero elementary divisors of
    a.  Each prime p | exponent is handled by one elimination modulo
    p^(2 v_p(exponent) + 1); the p-primary parts are then merged into
    invariant factors, and classes into coordinates by the Chinese
    remainder theorem.
    """
    locals_ = [_local_form(a, p, e) for p, e in factorize(exponent).items()]
    # align the p-primary cyclic factors at the top of the divisibility chain
    rank = max((len(form.torsion) for form, _ in locals_), default=0)
    factors = [1] * rank
    for form, _ in locals_:
        offset = rank - len(form.torsion)
        for i, (_, level) in enumerate(form.torsion):
            factors[offset + i] *= form.prime ** level
    generators = [np.zeros(a.shape[0], dtype=np.int64) for _ in range(rank)]
    weights = []
    for form, gens in locals_:
        offset = rank - len(form.torsion)
        slots = []
        for i, ((_, level), gen) in enumerate(zip(form.torsion, gens)):
            slot = offset + i
            generators[slot] += gen
            prime_power = form.prime ** level
            cofactor = factors[slot] // prime_power
            slots.append((slot, cofactor * pow(cofactor, -1, prime_power)))
        weights.append(tuple(slots))
    return CokernelTorsion(FinAb(tuple(factors)), tuple(generators),
                           tuple(form for form, _ in locals_), tuple(weights))

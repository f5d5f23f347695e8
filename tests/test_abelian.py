import math
import random
from itertools import product as iter_product

import numpy as np
import pytest

from cmtori.abelian import (
    AbHom,
    FinAb,
    _echelon,
    _quotient,
    cokernel_of_hom,
    cokernel_torsion,
    direct_sum,
    factor_through,
    identity,
    image_of_hom,
    kernel_basis,
    kernel_of_hom,
    mat_mul,
    smith_normal_form,
    solve_matrix,
    subgroup_of,
)
from cmtori.errors import InternalCheckError

from character_side import annihilator, dual_group, dual_hom, pairing
from references import direct_sum_by_elimination


def det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def check_snf(m):
    s = smith_normal_form(m)
    assert mat_mul(mat_mul(s.u, m), s.v) == s.d
    assert mat_mul(s.u, s.u_inv) == identity(len(m))
    diag = s.diagonal
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # off-diagonal must vanish
    for i, row in enumerate(s.d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return s


def test_snf_zero_matrix():
    s = check_snf(((0, 0), (0, 0)))
    assert s.diagonal == (0, 0)
    assert s.u == identity(2) and s.v == identity(2)


def test_snf_identity():
    s = check_snf(identity(3))
    assert s.diagonal == (1, 1, 1)


def test_snf_hand_example():
    # gcd of entries 2, determinant -8 -> diag(2, 4)
    s = check_snf(((2, 4), (6, 8)))
    assert s.diagonal == (2, 4)
    assert abs(det(s.u)) == 1 and abs(det(s.v)) == 1


def test_snf_random_small():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randrange(0, 5)
        c = rng.randrange(0, 5)
        m = tuple(tuple(rng.randrange(-9, 10) for _ in range(c)) for _ in range(r))
        if r and c:
            check_snf(m)


def test_snf_random_larger_and_structured():
    rng = random.Random(13)
    for _ in range(10):
        r = rng.randrange(6, 13)
        c = rng.randrange(4, 9)
        m = tuple(tuple(rng.randrange(-50, 51) for _ in range(c)) for _ in range(r))
        check_snf(m)
    # rank-deficient: repeated and scaled rows
    base = tuple(rng.randrange(-20, 21) for _ in range(6))
    m = (base, tuple(2 * x for x in base), tuple(-x for x in base),
         tuple(rng.randrange(-20, 21) for _ in range(6)))
    s = check_snf(m)
    assert sum(1 for x in s.diagonal if x) <= 2


def test_solve_matrix():
    a = ((2, 0), (0, 3))
    b = ((4,), (9,))
    x = solve_matrix(a, b)
    assert mat_mul(a, x) == b
    assert solve_matrix(a, ((1,), (0,))) is None


def test_kernel_basis():
    k = kernel_basis(((1, 1, 1),), 3)
    assert len(k[0]) == 2
    for j in range(2):
        assert sum(k[i][j] for i in range(3)) == 0


def test_finab_validation():
    FinAb((2, 4, 8))
    with pytest.raises(Exception):
        FinAb((3, 4))
    with pytest.raises(Exception):
        FinAb((1,))


def test_kernel_identity_on_z4_is_trivial():
    z4 = FinAb((4,))
    f = AbHom(z4, z4, ((1,),))
    assert kernel_of_hom(z4, [f]).group.is_trivial


def test_kernel_of_doubling_on_z4():
    z4 = FinAb((4,))
    f = AbHom(z4, z4, ((2,),))
    ker = kernel_of_hom(z4, [f])
    assert ker.group.factors == (2,)
    # the kernel is {0, 2}
    gen = ker.inclusion(ker.group.element((1,)))
    assert gen.coords == (2,)


def test_image_of_zero_map_trivial():
    a = FinAb((4, 8))
    f = AbHom(a, a, ((0, 0), (0, 0)))
    assert image_of_hom(f).group.is_trivial


def test_dual_group_self_dual_factors():
    assert dual_group(FinAb(())).is_trivial
    assert dual_group(FinAb((2, 4))).factors == (2, 4)


def test_dual_of_doubling_map():
    # f: Z/4 -> Z/2, x -> x mod 2 is surjective; its dual Z/2 -> Z/4 has image of order 2
    z4, z2 = FinAb((4,)), FinAb((2,))
    f = AbHom(z4, z2, ((1,),))
    fd = dual_hom(f)
    assert fd.domain.factors == (2,) and fd.codomain.factors == (4,)
    assert image_of_hom(fd).group.order == 2


def test_double_dual_is_identity_on_matrices():
    rng = random.Random(3)
    for _ in range(40):
        dom = FinAb(tuple(sorted(rng.choice([(2,), (4,), (2, 4), (3,), (6,), (2, 2)]))))
        cod = FinAb(tuple(sorted(rng.choice([(2,), (4,), (2, 6), (3,), (12,), (2, 2)]))))
        # build a valid random hom: entry must satisfy the order constraint
        rows = []
        for i, di in enumerate(cod.factors):
            row = []
            for j, dj in enumerate(dom.factors):
                g = di // math.gcd(di, dj)
                row.append(g * rng.randrange(0, max(1, di // g)))
            rows.append(tuple(row))
        f = AbHom(dom, cod, tuple(rows))
        assert dual_hom(dual_hom(f)).matrix == f.matrix


def test_dual_contravariant_on_composition():
    a, b, c = FinAb((4,)), FinAb((4, 4)), FinAb((2,))
    f = AbHom(a, b, ((1,), (3,)))
    g = AbHom(b, c, ((1, 1),))
    assert dual_hom(g.compose(f)).matrix == dual_hom(f).compose(dual_hom(g)).matrix


def test_kernel_image_orders_multiply():
    rng = random.Random(11)
    shapes = [(2,), (4,), (2, 2), (2, 4), (3,), (6,), (2, 2, 2), (9,), (2, 6)]
    for _ in range(80):
        dom = FinAb(rng.choice(shapes))
        cod = FinAb(rng.choice(shapes))
        rows = []
        for di in cod.factors:
            row = []
            for dj in dom.factors:
                g = di // math.gcd(di, dj)
                row.append(g * rng.randrange(0, max(1, di // g)))
            rows.append(tuple(row))
        f = AbHom(dom, cod, tuple(rows))
        assert kernel_of_hom(dom, [f]).group.order * image_of_hom(f).group.order == dom.order


def test_subgroup_of_and_cokernel():
    a = FinAb((2, 4))
    sub = subgroup_of(a, [a.element((1, 2))])
    assert sub.group.factors == (2,)
    quot, (proj,) = cokernel_of_hom([sub.inclusion])
    assert quot.order * sub.group.order == a.order
    assert proj(sub.inclusion(sub.group.element((1,)))).is_zero


def test_annihilator_orders():
    a = FinAb((4,))
    ann = annihilator(subgroup_of(a, [a.element((2,))]))
    assert ann.group.order == 2
    # characters annihilating <2> are exactly the even ones
    chi = ann.inclusion(ann.group.element((1,)))
    num, den = pairing(chi, a.element((2,)))
    assert num == 0
    assert annihilator(subgroup_of(a, [])).group.order == a.order
    assert annihilator(subgroup_of(a, [a.element((1,))])).group.is_trivial


def test_annihilator_order_product_random():
    rng = random.Random(5)
    shapes = [(2,), (4,), (2, 2), (2, 4), (3,), (6,), (2, 6), (8,), (2, 2, 2), (12,)]
    for _ in range(60):
        a = FinAb(rng.choice(shapes))
        if a.order > 200:
            continue
        gens = [a.element(tuple(rng.randrange(d) for d in a.factors))
                for _ in range(rng.randrange(0, 3))]
        w = subgroup_of(a, gens)
        ann = annihilator(w)
        assert ann.group.order * w.group.order == a.order
        for chi_c in ann.group.elements():
            chi = ann.inclusion(chi_c)
            for g in gens:
                num, _ = pairing(chi, g)
                assert num == 0


def test_direct_sum_canonicalizes():
    assert direct_sum([FinAb((2,)), FinAb((3,))]).factors == (6,)
    assert direct_sum([FinAb((2,)), FinAb((2,))]).factors == (2, 2)
    assert direct_sum([]).is_trivial
    # the cokernel of the zero maps out of the trivial group is the sum, and
    # its projections are injections, jointly bijective: projections
    # inverting them exist
    parts = [FinAb((2,)), FinAb((3,))]
    total, injections = cokernel_of_hom([AbHom(FinAb(()), p, ((),)) for p in parts])
    assert total.factors == (6,)
    sums = [injections[0](x) + injections[1](y)
            for x in parts[0].elements() for y in parts[1].elements()]
    assert sorted(z.coords for z in sums) == sorted(z.coords for z in total.elements())


def test_factor_through():
    a = FinAb((4,))
    sub = subgroup_of(a, [a.element((2,))])
    f = AbHom(FinAb((2,)), a, ((2,),))
    g = factor_through(sub.inclusion, f)
    assert sub.inclusion.compose(g).matrix == f.matrix


def _random_unimodular(rng, n, steps):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            q = rng.randrange(-3, 4)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return tuple(tuple(row) for row in m)


def test_cokernel_torsion_against_smith_form():
    # a = u d v with divisors of n on the diagonal of d (zeros allowed):
    # coker(a) has torsion of exponent dividing n, as H^q has for |G| = n
    rng = random.Random(20261018)
    for _ in range(60):
        n = rng.choice((2, 4, 6, 8, 12, 16, 24, 27, 36, 60))
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 8)
        divisors = [d for d in range(1, n + 1) if n % d == 0] + [0]
        diag = [[rng.choice(divisors) if i == j else 0 for j in range(cols)]
                for i in range(rows)]
        a = mat_mul(mat_mul(_random_unimodular(rng, rows, 12), tuple(map(tuple, diag))),
                    _random_unimodular(rng, cols, 12))
        expected = tuple(d for d in smith_normal_form(a).diagonal if d > 1)
        tors = cokernel_torsion(np.array(a, dtype=np.int64), n)
        assert tors.group.factors == expected, (a, n)
        gens = tors.generators
        for j, (gen, d) in enumerate(zip(gens, expected)):
            assert tors.coordinates(gen) == tuple(int(i == j) for i in range(len(gens)))
            assert solve_matrix(a, tuple((d * int(x),) for x in gen)) is not None
        for _ in range(4):
            w = [rng.randrange(-20, 21) for _ in range(cols)]
            c = [rng.randrange(-30, 31) for _ in gens]
            x = np.array(a, dtype=np.int64) @ np.array(w, dtype=np.int64)
            x = x + sum((ci * g for ci, g in zip(c, gens)), np.zeros(rows, dtype=np.int64))
            assert tors.coordinates(x) == tuple(ci % d for ci, d in zip(c, expected))


def test_cokernel_torsion_rejects_free_vectors_and_large_divisors():
    # coker of diag(2, 4, 0) on Z^3: (0, 0, 1) is free, not torsion
    a = np.array(((2, 0, 0), (0, 4, 0), (0, 0, 0)), dtype=np.int64)
    tors = cokernel_torsion(a, 4)
    assert tors.group.factors == (2, 4)
    with pytest.raises(InternalCheckError):
        tors.coordinates(np.array((0, 0, 1)))
    with pytest.raises(InternalCheckError):
        tors.coordinates(np.array((1, 1, 3)))
    assert tors.coordinates(np.array((1, 3, 0))) is not None
    # an elementary divisor 16 when the exponent is claimed to be 4
    with pytest.raises(InternalCheckError):
        cokernel_torsion(np.array(((16, 0), (0, 1)), dtype=np.int64), 4)


def _random_finab(rng, bound=200):
    """A random invariant-factor chain of order <= bound (rank 0 to 5)."""
    factors = []
    for _ in range(rng.randrange(0, 6)):
        d = (factors[-1] if factors else 1) * rng.choice((1, 1, 2, 2, 3, 4, 5, 6))
        if d >= 2 and math.prod(factors) * d <= bound:
            factors.append(d)
    return FinAb(tuple(factors))


def _random_hom(rng, dom, cod):
    rows = []
    for di in cod.factors:
        step = [di // math.gcd(di, dj) for dj in dom.factors]
        rows.append(tuple(g * rng.randrange(di // g) for g in step))
    return AbHom(dom, cod, tuple(rows))


def _span(group, gens):
    """The elements of the subgroup generated by ``gens``, by closure."""
    found = {group.zero()}
    frontier = list(found)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y not in found:
                found.add(y)
                frontier.append(y)
    return found


def _orders(elements):
    return sorted(x.order() for x in elements)


def _check_subgroup(sub, expected):
    """The inclusion is injective onto ``expected``, with matching element orders."""
    image = {sub.inclusion(x) for x in sub.group.elements()}
    assert image == expected
    assert sub.group.order == len(expected)
    assert _orders(sub.group.elements()) == _orders(expected)


def _check_family(a, homs):
    """The common kernel and the cokernel of maps f_i : A -> B_i against
    enumeration of A and of the product of the B_i."""
    cods = [f.codomain for f in homs]
    values = {x: tuple(f(x) for f in homs) for x in a.elements()}

    _check_subgroup(kernel_of_hom(a, homs),
                    {x for x, ys in values.items() if all(y.is_zero for y in ys)})

    quot, projs = cokernel_of_hom(homs)
    assert len(projs) == len(homs)
    assert all(p.domain == b and p.codomain == quot for p, b in zip(projs, cods))

    def project(ys):
        return sum((p(y) for p, y in zip(projs, ys)), quot.zero())

    image = set(values.values())
    # sum_i p_i f_i = 0, the p_i are jointly onto, and |Q| |im| = prod |B_i|
    assert all(project(ys).is_zero for ys in image)
    generators = [p(y) for p, b in zip(projs, cods) for y in b.elements()]
    assert _span(quot, generators) == set(quot.elements())
    assert quot.order * len(image) == math.prod(b.order for b in cods)
    # the order of y + im is the least k with k y in im
    sums = list(iter_product(*(list(b.elements()) for b in cods)))
    for ys in sums:
        k = next(k for k in range(1, quot.order + 1)
                 if tuple(y.scaled(k) for y in ys) in image)
        assert project(ys).order() == k


def test_finite_abelian_algebra_against_enumeration():
    rng = random.Random(20261020)
    for _ in range(150):
        a, b = _random_finab(rng), _random_finab(rng)
        f = _random_hom(rng, a, b)
        values = {x: f(x) for x in a.elements()}

        gens = [b.element(tuple(rng.randrange(d) for d in b.factors))
                for _ in range(rng.randrange(0, 4))]
        sub = subgroup_of(b, gens)
        _check_subgroup(sub, _span(b, gens))

        _check_subgroup(kernel_of_hom(a, [f]), {x for x, y in values.items() if y.is_zero})
        image = set(values.values())
        _check_subgroup(image_of_hom(f), image)

        quot, (proj,) = cokernel_of_hom([f])
        assert all(proj(y).is_zero for y in image)
        assert {proj(y) for y in b.elements()} == set(quot.elements())
        assert quot.order * len(image) == b.order
        # the order of y + im f is the least k with k y in im f
        coset_orders = sorted(next(k for k in range(1, b.order + 1) if y.scaled(k) in image)
                              for y in b.elements())
        assert coset_orders == sorted(x.order() for x in quot.elements()
                                      for _ in range(len(image)))

        g = _random_hom(rng, a, sub.group)
        f_in = sub.inclusion.compose(g)
        assert sub.inclusion.compose(factor_through(sub.inclusion, f_in)).matrix == f_in.matrix
        if any(f(x) not in {sub.inclusion(s) for s in sub.group.elements()}
               for x in a.elements()):
            with pytest.raises(InternalCheckError, match="image is not contained"):
                factor_through(sub.inclusion, f)

    # families of 0-3 maps out of one domain, trivial codomains among them
    for _ in range(60):
        a = _random_finab(rng, 40)
        cods = [_random_finab(rng, 12) if rng.random() < 0.8 else FinAb(())
                for _ in range(rng.randrange(0, 4))]
        _check_family(a, [_random_hom(rng, a, b) for b in cods])

    # a family needs one domain
    a, b = FinAb((2, 4)), FinAb((4,))
    mixed = [AbHom(a, b, ((2, 1),)), AbHom(b, b, ((1,),))]
    with pytest.raises(ValueError):
        kernel_of_hom(a, mixed)
    with pytest.raises(ValueError):
        kernel_of_hom(b, mixed[:1])
    with pytest.raises(ValueError):
        cokernel_of_hom(mixed)


def test_direct_sum_against_enumeration():
    rng = random.Random(20261021)
    for _ in range(60):
        parts = [_random_finab(rng, 14) for _ in range(rng.randrange(0, 4))]
        ds = direct_sum(parts)
        assert ds.order == math.prod(p.order for p in parts)
        product_orders = sorted(math.lcm(*(x.order() for x in xs))
                                for xs in iter_product(*(list(p.elements()) for p in parts)))
        assert _orders(ds.elements()) == product_orders
        # the injections are the projections onto the cokernel of the zero
        # maps out of the trivial group: each one-to-one, together a bijection
        # from the product onto a group isomorphic to the sum
        total, injections = cokernel_of_hom([AbHom(FinAb(()), p, ((),) * len(p.factors))
                                             for p in parts])
        assert total.factors == ds.factors
        for inj, p in zip(injections, parts):
            assert len({inj(x) for x in p.elements()}) == p.order
        sums = [sum((inj(x) for inj, x in zip(injections, xs)), total.zero())
                for xs in iter_product(*(list(p.elements()) for p in parts))]
        assert len(set(sums)) == total.order == ds.order


def test_direct_sum_matches_the_elimination():
    """The elementary-divisor merge gives the invariant factors of the
    lattice elimination: on seeded lists with large and coprime factors,
    the empty list and single groups."""
    rng = random.Random(20261021)
    assert direct_sum([]) == direct_sum_by_elimination([]) == FinAb(())
    cases = [[FinAb(())], [FinAb((2, 6, 12))], [FinAb((2 ** 62,))], [FinAb((3, 3 * 2 ** 61))]]
    cases += [[_random_finab(rng, 10 ** 6)] for _ in range(20)]
    for _ in range(60):
        cases.append([_random_finab(rng, rng.choice((50, 10 ** 4, 10 ** 9)))
                      for _ in range(rng.randrange(0, 7))])
    cases.append([FinAb((2,))] * 40 + [FinAb((4,)), FinAb((3, 9))] * 5)
    for parts in cases:
        assert direct_sum(parts) == direct_sum_by_elimination(parts), parts


def test_quotient_rejects_an_inner_lattice_outside_the_outer_one():
    # 2Z + 4Z = 2Z does not contain Z = Z + 4Z
    with pytest.raises(InternalCheckError, match="not inside"):
        _quotient(_echelon([(2,)], (4,)), _echelon([(1,)], (4,)))
    factors, generators, rows = _quotient(_echelon([(1,)], (4,)), _echelon([(2,)], (4,)))
    assert factors == (2,) and len(generators) == len(rows) == 1

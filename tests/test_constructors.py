import functools
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from references import inverse, squarefree_part
from cmtori.constructors import (
    abelian_classifier,
    cyclotomic,
    cyclotomic_report,
    dihedral_cm,
    factorize,
    legendre,
    q8_landau,
    split_classifier,
)
from cmtori.abelian import FinAb
from cmtori.datum import NormTorusDatum, TorusPair
from cmtori.engine import abelian_cm_tamagawa, tamagawa
from cmtori.errors import DatumError
from cmtori.groups import (
    center,
    cyclic,
    direct_product,
    quaternion8,
    residues_of,
    subgroup_generated,
    units_mod,
)
from cmtori.landau import is_prime_u64


def test_legendre_basics():
    for p in (3, 5, 7, 11, 181, 613):
        assert legendre(1, p) == 1
        assert legendre(0, p) == 0
    assert legendre(5, 3) == -1
    assert legendre(5, 181) == 1
    assert legendre(17, 613) == 1
    assert legendre(17, 3) == -1
    with pytest.raises(DatumError):
        legendre(2, 21)
    with pytest.raises(DatumError):
        legendre(2, 2)


def test_legendre_multiplicativity_and_reciprocity():
    rng = random.Random(5)
    primes = [p for p in range(3, 2000) if is_prime_u64(p)]
    for _ in range(200):
        p, q = rng.sample(primes, 2)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)
        sign = -1 if (p % 4 == 3 and q % 4 == 3) else 1
        assert legendre(p, q) * legendre(q, p) == sign


def test_factorize():
    assert factorize(21) == {3: 1, 7: 1}
    assert factorize(1) == {}
    assert factorize(2 ** 10) == {2: 10}
    assert factorize(10 ** 12 + 39) == {10 ** 12 + 39: 1}  # prime
    n = 1000003 * 1000033
    assert factorize(n) == {1000003: 1, 1000033: 1}
    assert squarefree_part(180) == 5
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(2, 10 ** 9)
        fact = factorize(n)
        prod = 1
        for p, e in fact.items():
            assert is_prime_u64(p)
            prod *= p ** e
        assert prod == n


def test_cyclotomic_acceptance_table():
    ones = [4, 5, 7, 9, 11, 13, 25, 27]
    twos = [8, 12, 15, 16, 20, 21, 24, 35]
    for n in ones:
        fam = cyclotomic(n)
        assert fam.predicted_tau == 1
        assert tamagawa(fam.datum).tau == 1, n
    for n in twos:
        fam = cyclotomic(n)
        assert fam.predicted_tau == 2
        assert tamagawa(fam.datum).tau == 2, n


def test_cyclotomic_rejects_bad_n():
    for n in (1, 2, 6, 10):
        with pytest.raises(DatumError):
            cyclotomic(n)


@functools.cache
def _census():
    path = Path(__file__).resolve().parents[1] / "scripts" / "cyclotomic_census.py"
    spec = importlib.util.spec_from_file_location("cyclotomic_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_route_matches_table(n):
    report, predicted = cyclotomic_report(n)
    fam = cyclotomic(n)
    reference = tamagawa(fam.datum)
    for field in _census().FIELDS:
        assert getattr(report, field) == getattr(reference, field), (n, field)
    assert predicted == fam.predicted_tau, n


def test_cyclotomic_report_matches_table_engine_to_phi_128():
    values = _census().admissible_to_phi(128)
    assert len(values) == 168
    for n in values:
        _assert_route_matches_table(n)


def test_cyclotomic_report_matches_table_engine_seeded_to_cap():
    census = _census()
    values = census.admissible_to_phi(512)
    assert len(values) == 670
    above = sorted(set(values) - set(census.admissible_to_phi(128)) - {771, 1024, 1155})
    for n in [771, 1024, 1155] + random.Random(23).sample(above, 8):
        _assert_route_matches_table(n)


def test_cyclotomic_report_past_the_cap_matches_prediction():
    """Past |G| = 512 the prediction is the check: 1 for an odd prime power,
    2 otherwise.  The n are seeded products of prime powers below 2^63,
    with phi(n) and the prediction read off the chosen factors."""
    rng = random.Random(1157)
    primes = [q for q in range(3, 2000, 2) if is_prime_u64(q)]
    cases = [(1157, 2), (2 ** 62, 2), (3 ** 39, 1), (2 ** 63 - 25, 1)]
    while len(cases) < 60:
        two = rng.choice((0, 2, rng.randrange(3, 12)))
        n, phi = 2 ** two, 2 ** two // 2 if two else 1
        chosen = rng.sample(primes, rng.randrange(1, 6))
        for q in chosen:
            e = rng.randrange(1, 3)
            n, phi = n * q ** e, phi * (q - 1) * q ** (e - 1)
        if n < 2 ** 63 and phi > 512:
            cases.append((n, 1 if two == 0 and len(chosen) == 1 else 2))
    for n, expected in cases:
        report, predicted = cyclotomic_report(n)
        assert predicted == report.tau == expected, n
        assert report.exact and report.sha2.is_trivial, n
        assert report.h1_torus.order == expected, n


def test_abelian_cm_route_matches_table_engine():
    """The table-free core on abstract abelian groups, every involution as
    iota and seeded decomposition groups given by generators, against the
    table engine on the same datum."""
    rng = random.Random(16)
    for factors in [(2,), (6,), (2, 4), (4, 4), (2, 8), (2, 12), (2, 2, 4), (2, 4, 8)]:
        ab = FinAb(factors)
        prod = direct_product(*(cyclic(d) for d in factors))
        g = prod.group
        for iota in (x for x in ab.elements() if x.order() == 2):
            packed = prod.pack(iota.coords)
            decomposition = [[ab.element([rng.randrange(d) for d in factors])
                              for _ in range(rng.randrange(1, 3))] for _ in range(3)]
            datum = NormTorusDatum(
                g, (TorusPair(subgroup_generated(g, []), subgroup_generated(g, [packed])),),
                iota=packed,
                decomposition_groups=tuple(subgroup_generated(g, [prod.pack(x.coords) for x in d])
                                           for d in decomposition),
                declared_complete=True)
            report = abelian_cm_tamagawa(ab, iota, decomposition)
            reference = tamagawa(datum)
            for field in _census().FIELDS:
                assert getattr(report, field) == getattr(reference, field), (factors, iota, field)


def test_cyclotomic_12_ramified_group():
    fam = cyclotomic(12)
    g = fam.datum.group
    residues = residues_of(g)
    # the inertia at 2 is {1, 7}; the Frobenius lift is 5; together the whole group
    twos = [d for d in fam.datum.decomposition_groups if d.order == 4]
    assert twos, "ramified decomposition groups should include the full group"
    assert fam.datum.declared_complete
    assert residues == (1, 5, 7, 11)


def test_q8_landau_cases():
    for p, q, tau in [(5, 181, Fraction(1, 2)), (5, 21, Fraction(2)),
                      (17, 69, Fraction(2)), (17, 613, Fraction(1, 2))]:
        fam = q8_landau(p, q)
        assert fam.predicted_tau == tau, (p, q)
        assert tamagawa(fam.datum).tau == tau, (p, q)


def test_q8_landau_rejects():
    with pytest.raises(DatumError) as exc:
        q8_landau(5, 25)
    assert "square" in str(exc.value)
    with pytest.raises(DatumError):
        q8_landau(4, 181)
    with pytest.raises(DatumError):
        q8_landau(7, 181)   # 6 is not a perfect square


def test_q8_relations_presentation():
    # tau1^4 = 1, tau1^2 = tau2^2, tau1 tau2 tau1^-1 = tau2^-1
    g = quaternion8()
    tau1, tau2 = 2, 4  # i and j
    assert g.element_order(tau1) == 4
    assert g.power(tau1, 2) == g.power(tau2, 2)
    conj = g.conj(tau1, tau2)
    assert conj == inverse(g, tau2)
    assert subgroup_generated(g, [tau1, tau2]).order == 8


def test_dihedral_cm():
    for n in (2, 4, 6, 8, 10, 12):
        res = dihedral_cm(n)
        assert res.structural_tau == 2
        assert res.engine_lower_bound <= 2
        assert res.s_count > res.datum.group.order // 2
    with pytest.raises(DatumError):
        dihedral_cm(3)
    # for D4 and D6 the cyclic floor already reaches the structural value
    assert dihedral_cm(4).engine_lower_bound == 2
    assert dihedral_cm(6).engine_lower_bound == 2


def test_abelian_classifier():
    c2 = cyclic(2)
    res = abelian_classifier(c2, 1)
    assert res.value == 1  # half-degree 1 is odd
    klein = direct_product(cyclic(2), cyclic(2)).group
    res = abelian_classifier(klein, 3)
    assert res.value == 2
    c4 = cyclic(4)
    res = abelian_classifier(c4, 2)
    assert res.value is None
    assert res.interval == (Fraction(1), Fraction(2))
    assert res.engine_tau == 1


def test_abelian_classifier_consistent_with_engine_up_to_16():
    # every abelian group of order <= 16 with each admissible involution
    shapes = [
        [2], [4], [2, 2], [8], [4, 2], [2, 2, 2], [16], [8, 2], [4, 4],
        [4, 2, 2], [2, 2, 2, 2], [6], [12], [6, 2], [10], [14],
    ]
    for shape in shapes:
        prod = direct_product(*(cyclic(n) for n in shape))
        g = prod.group
        for iota in g.elements():
            if g.element_order(iota) != 2:
                continue
            res = abelian_classifier(g, iota)
            if res.value is not None:
                assert res.engine_tau <= res.value
                if res.value == 1:
                    assert res.engine_tau == 1
            else:
                assert res.engine_tau in res.interval


def test_split_classifier():
    c6 = direct_product(cyclic(2), cyclic(3)).group
    res = split_classifier(c6, 3)  # iota = (1, 0): complement Z/3, half 3 odd
    assert res.value == 1
    k8 = direct_product(cyclic(2), cyclic(2), cyclic(2)).group
    res = split_classifier(k8, 1)
    assert res.value == 2
    with pytest.raises(DatumError):
        split_classifier(cyclic(4), 2)  # non-split

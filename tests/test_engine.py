import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product as iter_product

import pytest

from character_side import character_side_inclusion, character_side_report
from corpus import (
    all_subgroups,
    biquadratic_field,
    candidate_pairs,
    cm_corpus,
    cyclic_cm,
    empty_pairs_datum,
    fuzz_data,
    imag_quadratic,
    noncm_coprime_product,
    q8_cm,
    two_distinct_imag_quadratics,
    z4xz4_product,
)
from references import (
    h1_from_cm_types,
    is_cyclic_relative_quotient,
    product_datum,
    table_product_report,
)
from cmtori import engine
from cmtori.cohomology import ono_tamagawa, primitive_part_oracle, torus_invariants
from cmtori.constructors import certify_family, cyclotomic, q8_landau
from cmtori.datum import NormTorusDatum, TorusPair
from cmtori.engine import (
    NK_AT_MOST_TWO,
    NK_ONE,
    NK_UNKNOWN,
    PrimitivePart,
    ProductReport,
    density_bound,
    h1_norm_one,
    h1_torus,
    imaginary_quadratic_count,
    primitive_part,
    product_tamagawa,
    sha2,
    tamagawa,
)
from cmtori.errors import DatumError, FastPathUnavailableError, InternalCheckError
from cmtori.formats import datum_from_json, report_to_json
from cmtori.groups import (
    Subgroup,
    _greedy_generators,
    center,
    cyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    full_subgroup,
    is_normal,
    quaternion8,
    subgroup_generated,
    trivial_subgroup,
)
from cmtori.landau import disjoint_family, search


@pytest.mark.parametrize("name,datum,expected", [(n, d, e) for n, d, e in cm_corpus()])
def test_engine_corpus_values(name, datum, expected):
    assert h1_torus(datum).factors == expected["h1"]
    assert h1_norm_one(datum).factors == expected["h1n1"]
    assert primitive_part(datum).order == expected["prim"]
    assert sha2(datum).factors == expected["sha"]
    report = tamagawa(datum)
    assert report.tau == Fraction(*expected["tau"])
    # bookkeeping identity of the four-term exact sequence
    assert (report.sha2.order * report.h1_norm_one.order
            == report.h1_torus.order * report.primitive_order)


def test_primitive_part_membership_predicate():
    # cyclic quartic: W = <g^2> inside G^ab = Z/4, so exactly the even
    # characters annihilate it and the primitive part has order 2
    datum = cyclic_cm(4)
    prim = primitive_part(datum)
    assert prim.order == 2
    w = prim.constraint
    assert w.inclusion.codomain.factors == (4,)
    assert w.group.factors == (2,)
    assert w.inclusion(w.group.element((1,))).coords == (2,)


def _s4_non_normal_inner_data():
    """S4 data whose inner subgroup (an order-2 subgroup of V4) is not
    normal in G, alone, doubled, and with larger decomposition groups."""
    g = from_permutation_generators([[1, 0, 2, 3], [1, 2, 3, 0]], 4)
    subgroups = all_subgroups(g)
    pairs = [p for p in candidate_pairs(g, subgroups) if not is_normal(g, p.inner)]
    assert pairs
    extras = [s for s in subgroups if s.order in (6, 8, 24)]
    data = [NormTorusDatum(g, (p,)) for p in pairs]
    data.append(NormTorusDatum(g, tuple(pairs[:2])))
    data += [NormTorusDatum(g, (pairs[0],), decomposition_groups=(e,)) for e in extras]
    return data


def _false_branch_product():
    """Two quaternion factors with the whole product as a decomposition group."""
    data = [q8_landau(5, 181).datum, q8_landau(17, 613).datum]
    return data, (tuple(full_subgroup(d.group) for d in data),)


def test_engine_matches_character_side_reference():
    data = [d for _, d, _ in cm_corpus()] + fuzz_data() + _s4_non_normal_inner_data()
    products = [([cyclic_cm(4), cyclic_cm(4)], ()), _false_branch_product()]
    data += [product_datum(factors, extras)[0] for factors, extras in products]
    for datum in data:
        report = tamagawa(datum)
        assert character_side_report(datum) == (
            report.h1_torus.factors, report.primitive_order, report.sha2.factors)
    for factors, extras in products:
        assert (character_side_inclusion(factors, extras)
                == product_tamagawa(factors, extras).primitive_inclusion)


def test_exact_flag_follows_declared_complete():
    datum = cyclic_cm(4)
    assert not tamagawa(datum).exact
    from dataclasses import replace

    assert tamagawa(replace(datum, declared_complete=True)).exact


def test_empty_pairs_datum():
    report = tamagawa(empty_pairs_datum())
    assert report.tau == 1
    assert report.h1_torus.is_trivial and report.h1_norm_one.is_trivial
    assert report.primitive_order == 1


def test_q8_values_match_known_cohomology():
    datum = q8_cm()
    assert h1_torus(datum).factors == (2,)
    assert sha2(datum).factors == (2, 2)
    assert tamagawa(datum).tau == Fraction(1, 2)
    full = q8_cm(include_group=True)
    assert sha2(full).is_trivial
    assert tamagawa(full).tau == 2


def test_monotone_in_decomposition_set():
    from cmtori.constructors import cyclotomic

    cyc = cyclotomic(12).datum
    bases = [q8_cm(), NormTorusDatum(cyc.group, cyc.pairs, iota=cyc.iota)]
    for base in bases:
        base_prim = primitive_part(base).order
        base_tau = tamagawa(base).tau
        g = base.group
        seen = set()
        for x in g.elements():
            for y in g.elements():
                extra = subgroup_generated(g, [x, y])
                if extra.elements in seen:
                    continue
                seen.add(extra.elements)
                grown = NormTorusDatum(g, base.pairs, iota=base.iota,
                                       decomposition_groups=(extra,))
                assert primitive_part(grown).order <= base_prim
                assert tamagawa(grown).tau >= base_tau


def test_conjugate_decomposition_groups_are_deduplicated():
    datum = next(d for n, d, e in cm_corpus() if n == "d4_cm")
    g = datum.group
    s = subgroup_generated(g, [4])
    conjs = tuple(Subgroup(g, tuple(sorted(g.conj(x, y) for y in s.elements)))
                  for x in g.elements())
    noisy = NormTorusDatum(g, datum.pairs, iota=datum.iota,
                           decomposition_groups=conjs + (s,))
    assert primitive_part(noisy).order == primitive_part(datum).order


def test_fast_path_refuses_non_normal_outer():
    g = dihedral(3)
    outer = subgroup_generated(g, [3])  # a reflection line, not normal
    datum = NormTorusDatum(g, (TorusPair(trivial_subgroup(g), outer),))
    with pytest.raises(FastPathUnavailableError):
        primitive_part(datum)
    with pytest.raises(FastPathUnavailableError):
        tamagawa(datum)


def test_fast_path_refuses_noncyclic_relative_quotient():
    g = quaternion8()
    datum = NormTorusDatum(g, (TorusPair(trivial_subgroup(g),
                                         Subgroup(g, tuple(g.elements()))),))
    # outer/inner = Q8 is not cyclic
    with pytest.raises(FastPathUnavailableError):
        primitive_part(datum)


def test_cyclic_relative_quotients_match_quotient_tables():
    """The fast-path flag, read off the relative target, agrees with the
    Cayley table of outer/inner on every (outer, inner) pair of some small
    groups, and on the corpus and the fuzz data."""
    groups = [dihedral(4), quaternion8(), direct_product(quaternion8(), cyclic(2)).group,
              from_permutation_generators([[[0, 1, 2, 3]], [[0, 1]]], 4, "S4"),
              from_permutation_generators([[[0, 1, 2]], [[1, 2, 3]]], 4, "A4")]
    data = [d for _, d, _ in cm_corpus()] + fuzz_data()
    for g in groups:
        subgroups = all_subgroups(g)
        data += [NormTorusDatum(g, (TorusPair(inner, outer),))
                 for outer in subgroups for inner in subgroups
                 if outer.contains_subgroup(inner)]
    verdicts = []
    for datum in data:
        expected = all(is_cyclic_relative_quotient(p.outer, p.inner) for p in datum.pairs)
        assert datum.cyclic_relative_quotients() == expected
        verdicts.append(expected)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_h1_cm_types_matches_transfer_h1():
    for name, datum, expected in cm_corpus():
        if not datum.is_cm:
            continue
        assert h1_from_cm_types(datum).factors == h1_torus(datum).factors, name


def test_h1_cm_types_independent_of_type_choice():
    rng = random.Random(99)
    for datum in (q8_cm(), two_distinct_imag_quadratics(), cyclic_cm(4),
                  biquadratic_field()):
        reference = h1_from_cm_types(datum).factors
        for _ in range(20):
            chooser = lambda idx, options: rng.choice(options)
            assert h1_from_cm_types(datum, chooser).factors == reference


def test_h1_cm_types_rejects_non_cm():
    with pytest.raises(DatumError):
        h1_from_cm_types(noncm_coprime_product())


def test_density_bound():
    d4 = dihedral(4)
    count, verdict = density_bound(d4, 2)
    assert count == 5 and verdict == NK_ONE
    c2 = cyclic(2)
    count, verdict = density_bound(c2, 1)
    assert count == 1 and verdict == NK_AT_MOST_TWO
    q8 = quaternion8()
    count, verdict = density_bound(q8, 1)
    assert count == 1 and verdict == NK_UNKNOWN


def test_density_bound_dihedral_even_series():
    # |S| counts identity, reflections, and rotation subgroups avoiding the center
    for n in (2, 4, 6, 8, 10, 12):
        g = dihedral(n)
        count, verdict = density_bound(g, n // 2)
        assert count > g.order // 2
        assert verdict == NK_ONE


def test_imaginary_quadratic_count():
    klein = two_distinct_imag_quadratics().group
    count, verdict = imaginary_quadratic_count(klein, 3)
    assert count == 2 and verdict == NK_ONE
    c4 = cyclic(4)
    count, verdict = imaginary_quadratic_count(c4, 2)
    assert count == 0 and verdict == NK_UNKNOWN
    q8 = quaternion8()
    count, verdict = imaginary_quadratic_count(q8, 1)
    assert count == 0 and verdict == NK_UNKNOWN


def _brute_force_iq_count(g, iota):
    """Homomorphisms G -> Z/2 with chi(iota) = 1, each fixed by its values on
    the greedy generators and checked on the whole table."""
    gens = _greedy_generators(g.table, g.identity, g.elements())
    count = 0
    for bits in iter_product((0, 1), repeat=len(gens)):
        chi = {g.identity: 0}
        frontier = [g.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for s, bit in zip(gens, bits):
                    y = g.table[x][s]
                    if y not in chi:
                        chi[y] = (chi[x] + bit) % 2
                        nxt.append(y)
            frontier = nxt
        if chi[iota] == 1 and all(chi[g.table[x][y]] == (chi[x] + chi[y]) % 2
                                  for x in g.elements() for y in g.elements()):
            count += 1
    return count


def test_imaginary_quadratic_count_matches_brute_force():
    counts = set()
    for datum in [d for _, d, _ in cm_corpus()] + fuzz_data():
        if datum.iota is None:
            continue
        count, _ = imaginary_quadratic_count(datum.group, datum.iota)
        assert count == _brute_force_iq_count(datum.group, datum.iota)
        counts.add(count)
    assert {0, 1, 2} <= counts


def test_product_tamagawa_single_factor():
    rep = product_tamagawa([q8_cm()])
    assert rep.product_tau == Fraction(1, 2)
    assert rep.multiplicative


def test_product_tamagawa_two_cyclic_quartics():
    rep = product_tamagawa([cyclic_cm(4), cyclic_cm(4)])
    assert rep.product_tau == 1
    assert rep.combined.tau == 1
    assert rep.multiplicative and rep.primitive_inclusion
    # direct engine run on the packaged order-16 datum agrees
    assert tamagawa(z4xz4_product()).tau == 1


def test_product_tamagawa_not_multiplicative():
    # the whole product as a decomposition group makes the combined
    # primitive part trivial, so neither factor's (order 4) lies in it
    data, extras = _false_branch_product()
    rep = product_tamagawa(data, extras)
    assert not rep.primitive_inclusion and not rep.multiplicative
    assert rep.product_tau == Fraction(1, 4)
    assert rep.combined.tau == 4 and rep.combined.primitive_order == 1


def test_product_tamagawa_rejects_noncyclic_decomposition_group():
    with pytest.raises(DatumError):
        product_tamagawa([q8_cm(include_group=True), cyclic_cm(4)])


# disjoint Landau pairs enough for every family below
LANDAU_PAIRS = search(10 ** 4, 100).pairs


def _usable_factors():
    """The distinct corpus and fuzz data that ``product_tamagawa`` accepts."""
    out = []
    for d in [d for _, d, _ in cm_corpus()] + fuzz_data():
        try:
            product_tamagawa([d])
        except (DatumError, FastPathUnavailableError):
            continue
        out.append(d)
    return list(dict.fromkeys(out))


def test_product_tamagawa_matches_the_table_reference():
    """The direct sum of factor reports against the engine on the Cayley
    table of the product group, field by field: every ordered pair of
    usable factors, the same pairs with ``include_all_cyclic`` off on the
    first factor, the false-branch product, a quaternion triple,
    cyclotomic(5) x cyclotomic(7) and quaternion x cyclotomic."""
    factors = _usable_factors()
    pairs = [[a, b] for a in factors for b in factors]
    assert all(a.group.order * b.group.order <= 512 for a, b in pairs)
    products = [(pair, ()) for pair in pairs]
    products += [([replace(a, include_all_cyclic=False), b], ()) for a, b in pairs]
    triple = [q8_landau(pair.p, pair.q).datum for pair in disjoint_family(LANDAU_PAIRS, 3)]
    products += [_false_branch_product(), (triple, ()),
                 ([cyclotomic(5).datum, cyclotomic(7).datum], ()),
                 ([triple[0], cyclotomic(7).datum], ())]
    non_multiplicative = 0
    for data, extras in products:
        got, want = product_tamagawa(data, extras), table_product_report(data, extras)
        for field in fields(ProductReport):
            assert getattr(got, field.name) == getattr(want, field.name), (field.name, data)
        non_multiplicative += not got.multiplicative
    assert non_multiplicative > 0


@pytest.mark.parametrize("r", [4, 8])
def test_landau_families_past_the_table_cap(r):
    family = disjoint_family(LANDAU_PAIRS, r)
    rep = certify_family(family)
    predicted = Fraction(1)
    for pair in family:
        predicted *= q8_landau(pair.p, pair.q).predicted_tau
    assert rep.combined.tau == rep.product_tau == predicted == Fraction(1, 2 ** r)
    assert rep.multiplicative and rep.primitive_inclusion
    assert rep.combined.h1_torus.factors == rep.combined.h1_norm_one.factors == (2,) * r
    assert rep.combined.sha2.factors == (2,) * (2 * r)
    assert rep.combined.exact and rep.combined.n_k == 4 ** r


def test_product_tamagawa_single_factor_uses_its_extras():
    """One factor goes through the same sum: the whole Q8 as an extra
    decomposition group makes its primitive part trivial."""
    d = q8_landau(5, 181).datum
    rep = product_tamagawa([d], ((full_subgroup(d.group),),))
    assert rep.product_tau == Fraction(1, 2) and rep.combined.tau == 2
    assert not rep.multiplicative and not rep.primitive_inclusion
    narrow = replace(cyclic_cm(4), include_all_cyclic=False)
    rep = product_tamagawa([narrow])
    assert rep.combined == tamagawa(replace(narrow, include_all_cyclic=True))
    assert rep.primitive_inclusion == (rep.combined.primitive_order
                                       == rep.factor_reports[0].primitive_order)


def test_product_tamagawa_rejects_an_extra_of_the_wrong_length():
    data, ((whole, _),) = _false_branch_product()
    with pytest.raises(DatumError, match="one subgroup per factor"):
        product_tamagawa(data, ((whole,),))


def test_report_n_k():
    assert tamagawa(imag_quadratic()).n_k == 2
    assert tamagawa(noncm_coprime_product()).n_k is None


def _abelian_cm_spec(orders):
    """A family spec for the CM datum H = 1, Ntilde = <iota> over the product
    of the cyclic groups of these orders, iota the product of their
    involutions (packed last factor fastest)."""
    iota = 0
    for n in orders:
        iota = iota * n + n // 2
    return {"group": {"family": "product",
                      "factors": [{"family": "cyclic", "n": n} for n in orders]},
            "pairs": [{"H": [0], "Ntilde": [0, iota]}], "iota": iota}


@pytest.mark.parametrize("orders", [(2,) * 9, (4, 4, 4, 4, 2), (8, 8, 8), (2,) * 5 + (16,)],
                         ids=["C2^9", "C4^4xC2", "C8^3", "C2^5xC16"])
def test_cap_abelian_reports_are_pinned(orders):
    # values from the Smith-form algebra this engine replaced; every
    # cyclic subgroup is a decomposition group, so W = K = G^ab
    datum = datum_from_json(_abelian_cm_spec(orders))
    assert datum.group.order == 512
    report = tamagawa(datum)
    prim = primitive_part(datum)
    g_ab = tuple(sorted(orders))
    assert (report.h1_torus.factors, report.h1_norm_one.factors) == ((2,), (2,))
    assert (report.primitive_order, report.sha2.factors, report.tau) == (1, (), 2)
    assert (report.n_k, report.exact) == (1, False)
    assert prim.constraint.group.factors == prim.kernel.group.factors == g_ab


TRIVIAL_GROUP = {"family": "product", "factors": []}
DEGENERATE = {
    # H = Ntilde: the pair's relative transfer goes into the trivial group
    "H=Ntilde": ({"group": {"family": "cyclic", "n": 4},
                  "pairs": [{"H": [0, 2], "Ntilde": [0, 2]}]},
                 ((), (), 1, ())),
    "trivial group": ({"group": TRIVIAL_GROUP, "pairs": [{"H": [0], "Ntilde": [0]}]},
                      ((), (), 1, ())),
    "trivial group, no pairs": ({"group": TRIVIAL_GROUP, "pairs": []}, ((), (), 1, ())),
    # a trivial relative quotient next to one of order 2
    "C6 mixed": ({"group": {"family": "cyclic", "n": 6},
                  "pairs": [{"H": [0, 2, 4], "Ntilde": [0, 2, 4]},
                            {"H": [0], "Ntilde": [0, 3]}]},
                 ((), (2,), 2, ())),
}


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_data_agree_with_the_oracle(name):
    spec, (h1, h1n1, prim, sha) = DEGENERATE[name]
    datum = datum_from_json(spec)
    report = tamagawa(datum)
    assert report_to_json(report) == {
        "h1_torus": list(h1), "h1_norm_one": list(h1n1), "primitive_order": prim,
        "sha2": list(sha), "tau": {"num": 1, "den": 1}, "n_K": None, "exact": False}
    oracle_h1, oracle_sha = torus_invariants(datum)
    assert (oracle_h1.factors, oracle_sha.factors) == (h1, sha)
    assert ono_tamagawa(datum) == report.tau
    assert primitive_part_oracle(datum).order == prim


def test_sha2_keeps_its_exactness_check(monkeypatch):
    # q8_cm has Sha^2 = (Z/2)^2, so W is strictly inside K; swapped, the
    # constraint escapes the kernel and sha2 must refuse
    prim = primitive_part(q8_cm())
    swapped = PrimitivePart(prim.order, prim.kernel, prim.constraint)
    monkeypatch.setattr(engine, "primitive_part", lambda datum: swapped)
    with pytest.raises(InternalCheckError, match="escapes the primitive part"):
        sha2(q8_cm())

from fractions import Fraction
from itertools import product as iter_product

import pytest

from corpus import (
    cm_corpus,
    fuzz_data,
    noncm_coprime_product,
    q8_cm,
    z4xz2_product,
    z4xz4_product,
)
from references import cyclic_generator, cyclic_relative_quotient
from cmtori.cohomology import (
    CohomologyBudget,
    _is_product_structured,
    _twisted_invariant_order,
    cohomology,
    involution_complement,
    verify_structure,
    xi_complement,
    xi_obstruction,
)
from cmtori.datum import NormTorusDatum, TorusPair
from cmtori.engine import imaginary_quadratic_count
from cmtori.errors import InternalCheckError
from cmtori.groups import Subgroup, full_subgroup
from cmtori.lattice import character_lattices
from cmtori.transfer import group_abelianization


def check_map(report):
    return {c.name: c for c in report.checks}


def test_q8_all_core_checks_pass():
    report = verify_structure(q8_cm())
    checks = check_map(report)
    assert checks["h1_norm_one_order"].passed
    assert "oracle 2" in checks["h1_norm_one_order"].details
    assert checks["h1_torus_matches_engine"].passed
    assert "(2,)" in checks["h1_torus_matches_engine"].details
    assert checks["four_term_orders"].passed
    assert checks["h2_norm_one_vanishes_single_factor"].applicable
    assert checks["h2_norm_one_vanishes_single_factor"].passed
    assert checks["sha2_norm_one_vanishes"].passed
    assert not checks["xi_obstruction"].applicable  # Q8 sequence does not split


def test_whole_corpus_core_checks():
    for name, datum, _ in cm_corpus():
        report = verify_structure(datum)
        checks = check_map(report)
        for key in ("h1_norm_one_order", "h1_torus_matches_engine",
                    "four_term_orders", "sha2_norm_one_vanishes",
                    "h0_norm_one_vanishes"):
            if checks[key].applicable:
                assert checks[key].passed, (name, key, checks[key].details)


def test_d_probe_measures_trivial_transgression_on_products():
    for datum in (z4xz2_product(), z4xz4_product(), noncm_coprime_product()):
        checks = check_map(verify_structure(datum))
        assert checks["d_probe_trivial_connecting"].applicable
        assert checks["d_probe_trivial_connecting"].passed, \
            checks["d_probe_trivial_connecting"].details


def test_coprime_product_untwisted_prediction_is_refuted():
    # the untwisted coprime-product formula overcounts: the coefficient
    # twist kills everything here, and the oracle measures the truth
    datum = noncm_coprime_product()
    lats = character_lattices(datum)
    assert cohomology(lats.norm_one, 2).group.is_trivial  # frozen oracle value
    checks = check_map(verify_structure(datum))
    assert checks["h2_norm_one_coprime_product"].applicable
    assert not checks["h2_norm_one_coprime_product"].passed
    assert "untwisted prediction (2, 6)" in checks["h2_norm_one_coprime_product"].details


def test_xi_obstruction_not_applicable_without_hypotheses():
    with pytest.raises(InternalCheckError):
        xi_obstruction(q8_cm())


def test_xi_obstruction_on_split_a4_case():
    # complement with even degree and odd abelianization: A4 x <iota>
    from cmtori.datum import NormTorusDatum, TorusPair
    from cmtori.groups import (
        Subgroup,
        cyclic,
        direct_product,
        from_permutation_generators,
        subgroup_generated,
        trivial_subgroup,
    )

    a4 = from_permutation_generators([[[0, 1, 2]], [[1, 2, 3]]], 4)
    prod = direct_product(a4, cyclic(2))
    g = prod.group
    iota = prod.pack((a4.identity, 1))
    pair = TorusPair(trivial_subgroup(g), subgroup_generated(g, [iota]))
    datum = NormTorusDatum(g, (pair,), iota=iota)
    budget = CohomologyBudget(max_order_q2=24)
    tau, details = xi_obstruction(datum, budget)
    assert tau in (Fraction(1), Fraction(2))
    report = verify_structure(datum, budget)
    checks = check_map(report)
    assert checks["xi_obstruction"].applicable
    assert report.tau_verdict == tau


def _all_data():
    return [d for _, d, _ in cm_corpus()] + fuzz_data()


def _reference_twisted_order(pair, inner_ab):
    """The twisted-invariant order by enumeration: the tuples x of
    (inner^ab)^a with sum_j rho_kj x_j = x_k for every k."""
    a = pair.relative_degree - 1
    if a == 0 or inner_ab.is_trivial:
        return 1
    local, _ = pair.outer.as_group()
    single = NormTorusDatum(local, (TorusPair(
        pair.outer.localize(pair.inner), full_subgroup(local)),))
    block = character_lattices(single).norm_one
    quot, _, _ = cyclic_relative_quotient(pair.outer, pair.inner)
    rho = block.action[quot.representatives[cyclic_generator(quot.group)]].tolist()

    def fixed(xs):
        return all(sum((x.scaled(c) for x, c in zip(xs, row)), inner_ab.zero()) == xk
                   for row, xk in zip(rho, xs))

    return sum(1 for xs in iter_product(list(inner_ab.elements()), repeat=a) if fixed(xs))


def test_twisted_invariant_order_matches_hom_composition():
    nontrivial = 0
    for datum in _all_data():
        if not (_is_product_structured(datum) and datum.cyclic_relative_quotients()
                and datum.normal_outer()):
            continue
        for pair in datum.pairs:
            inner_ab = group_abelianization(pair.inner.as_group()[0]).group
            order = _twisted_invariant_order(pair, inner_ab)
            assert order == _reference_twisted_order(pair, inner_ab)
            nontrivial += order > 1
    assert nontrivial >= 2


def _reference_complement(group, iota):
    """The first index-2 subgroup avoiding iota, enumerating characters of
    G^ab by bits on its even invariant factors in lexicographic order."""
    ab = group_abelianization(group)
    even = [j for j, d in enumerate(ab.group.factors) if d % 2 == 0]
    img = ab.project(iota)
    for bits in iter_product((0, 1), repeat=len(even)):
        if sum(b * (img.coords[j] % 2) for b, j in zip(bits, even)) % 2 != 1:
            continue
        return Subgroup(group, tuple(
            x for x in group.elements()
            if sum(b * (ab.images[x][j] % 2) for b, j in zip(bits, even)) % 2 == 0))
    return None


def test_involution_complement_is_the_first_splitting():
    several = 0
    for datum in _all_data():
        if datum.iota is None:
            continue
        complement = involution_complement(datum.group, datum.iota)
        assert complement == _reference_complement(datum.group, datum.iota)
        if complement is not None:
            assert complement.index == 2 and datum.iota not in complement
        several += imaginary_quadratic_count(datum.group, datum.iota)[0] > 1
    assert several >= 1


def test_xi_complement_gates_both_callers():
    for datum in _all_data():
        applies = xi_complement(datum) is not None
        assert check_map(verify_structure(datum))["xi_obstruction"].applicable == applies
        if not applies:
            with pytest.raises(InternalCheckError) as info:
                xi_obstruction(datum)
            assert info.value.payload()["error"]["context"]["group_order"] == datum.group.order

from fractions import Fraction

import pytest

from corpus import cm_corpus, noncm_coprime_product, q8_cm, z4xz2_product, z4xz4_product
from cmtori.cohomology import (
    CohomologyBudget,
    cohomology,
    verify_structure,
    xi_obstruction,
)
from cmtori.errors import InternalCheckError
from cmtori.lattice import character_lattices


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

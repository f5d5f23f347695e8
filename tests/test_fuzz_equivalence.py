"""Randomized engine vs oracle agreement on arbitrary valid small data.

Any datum whose outer subgroups are normal with cyclic relative
quotients, and whose decomposition set contains the cyclic floor, must
give identical H^1, Sha^2, and tau through the transfer fast path and
the oracle on the resolution of the Schreier presentation.
"""

from cmtori.cohomology import cohomology, ono_tamagawa, sha_group
from cmtori.engine import tamagawa
from cmtori.lattice import character_lattices

from corpus import fuzz_data


def test_random_data_agree():
    checked = 0
    for datum in fuzz_data():
        engine_report = tamagawa(datum)
        lats = character_lattices(datum)
        decs = datum.effective_decomposition_set()
        oracle_h1 = cohomology(lats.torus, 1).group
        oracle_sha = sha_group(lats.torus, 2, decs)
        label = (datum.group.name,
                 [(p.inner.elements, p.outer.elements) for p in datum.pairs],
                 datum.iota, [e.elements for e in datum.decomposition_groups])
        assert oracle_h1.factors == engine_report.h1_torus.factors, label
        assert oracle_sha.factors == engine_report.sha2.factors, label
        assert ono_tamagawa(datum) == engine_report.tau, label
        checked += 1
    assert checked >= 30

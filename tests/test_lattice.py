import pytest

from corpus import (
    cm_corpus,
    cyclic_cm,
    empty_pairs_datum,
    imag_quadratic,
    imag_quadratic_double,
    q8_cm,
)
from cmtori.errors import InternalCheckError
from cmtori.groups import cyclic, quaternion8, subgroup_generated, trivial_subgroup
from cmtori.lattice import (
    GLattice,
    character_lattices,
    permutation_lattice,
    restrict_lattice,
    trivial_lattice,
)


def test_imag_quadratic_lattices():
    lats = character_lattices(imag_quadratic())
    # rank 2 with the involution swapping coordinates
    assert lats.torus.rank == 2
    assert lats.torus.action[1] == ((0, 1), (1, 0))
    # norm-one has rank 1 with the involution acting by -1
    assert lats.norm_one.rank == 1
    assert lats.norm_one.action[1] == ((-1,),)


def test_q8_lattice_ranks():
    lats = character_lattices(q8_cm())
    assert lats.ambient.rank == 8
    assert lats.base.rank == 4
    assert lats.torus.rank == 5
    assert lats.norm_one.rank == 4


def test_double_pair_rank():
    lats = character_lattices(imag_quadratic_double())
    # 2 + 2 ambient coordinates glued along one norm condition
    assert lats.torus.rank == 3
    assert lats.norm_one.rank == 2


def test_empty_datum_is_gm():
    lats = character_lattices(empty_pairs_datum())
    assert lats.torus.rank == 1
    assert lats.norm_one.rank == 0
    assert lats.unit_embedding == ((1,),)


def test_action_is_homomorphism_everywhere():
    for name, datum, _ in cm_corpus():
        lats = character_lattices(datum)
        for lat in (lats.ambient, lats.base, lats.torus, lats.norm_one):
            GLattice(lat.group, lat.rank, lat.action)  # revalidates


def test_equivariance_of_maps():
    # LatticeMap validates equivariance on construction; rebuild to confirm
    from cmtori.lattice import LatticeMap

    for datum in (q8_cm(), cyclic_cm(6)):
        lats = character_lattices(datum)
        LatticeMap(lats.base, lats.ambient, lats.norm_map.matrix)
        LatticeMap(lats.torus, lats.norm_one, lats.torus_to_norm_one.matrix)


def test_permutation_lattice_is_permutation():
    g = quaternion8()
    lat, parts = permutation_lattice(g, subgroup_generated(g, [2]))
    assert lat.rank == 2
    for m in lat.action:
        for row in m:
            assert sorted(row) == [0, 1]


def test_restrict_lattice():
    datum = q8_cm()
    lats = character_lattices(datum)
    sub = subgroup_generated(datum.group, [2])
    res = restrict_lattice(lats.torus, sub)
    assert res.rank == lats.torus.rank
    assert res.group.order == 4


def test_bad_action_rejected():
    g = cyclic(2)
    with pytest.raises(InternalCheckError):
        GLattice(g, 1, (((1,),), ((2,),)))  # 2 is not an involution matrix


def test_star_import_names_exist():
    import cmtori.lattice

    namespace = {}
    exec("from cmtori.lattice import *", namespace)
    assert set(cmtori.lattice.__all__) <= set(namespace)

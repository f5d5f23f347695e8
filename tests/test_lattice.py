import numpy as np
import pytest

from corpus import (
    cm_corpus,
    cyclic_cm,
    empty_pairs_datum,
    fuzz_data,
    imag_quadratic,
    imag_quadratic_double,
    q8_cm,
)
from cmtori.abelian import identity, kernel_basis, mat_mul, smith_normal_form, solve_matrix
from cmtori.cohomology import cohomology
from cmtori.datum import NormTorusDatum, TorusPair
from cmtori.errors import InternalCheckError
from cmtori.groups import (
    _greedy_generators,
    cosets,
    cyclic,
    dihedral,
    direct_product,
    from_table,
    full_subgroup,
    quaternion8,
    subgroup_generated,
    trivial_subgroup,
)
from cmtori.lattice import (
    GLattice,
    LatticeMap,
    character_lattices,
    permutation_lattice,
    restrict_lattice,
    trivial_lattice,
)


def test_imag_quadratic_lattices():
    lats = character_lattices(imag_quadratic())
    # rank 2 with the involution swapping coordinates
    assert lats.torus.rank == 2
    assert lats.torus.action[1].tolist() == [[0, 1], [1, 0]]
    # norm-one has rank 1 with the involution acting by -1
    assert lats.norm_one.rank == 1
    assert lats.norm_one.action[1].tolist() == [[-1]]


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
    # the zero action passes the generator relations; only the identity check fails
    with pytest.raises(InternalCheckError, match="identity"):
        GLattice(g, 1, (((0,),), ((0,),)))


def test_star_import_names_exist():
    import cmtori.lattice

    namespace = {}
    exec("from cmtori.lattice import *", namespace)
    assert set(cmtori.lattice.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# reference: the construction with tuple-of-tuples matrices and pure-Python
# products that the numpy lattice layer replaced.  A lattice here is its
# tuple of action matrices, one per group element.
# ---------------------------------------------------------------------------

def _reference_permutation(group, sub):
    parts = cosets(group, sub, "left")
    index = {}
    for i, cs in enumerate(parts):
        for x in cs:
            index[x] = i
    n = len(parts)
    mats = []
    for g in group.elements():
        m = [[0] * n for _ in range(n)]
        for j, cs in enumerate(parts):
            m[index[group.table[g][cs[0]]]][j] = 1
        mats.append(tuple(tuple(row) for row in m))
    return tuple(mats), parts


def _reference_quotient(group, action, rank, sub_cols):
    ncols = len(sub_cols[0]) if sub_cols and len(sub_cols) else 0
    if ncols == 0:
        return action, identity(rank)
    form = smith_normal_form(sub_cols)
    rank_b = sum(1 for x in form.diagonal if x != 0)
    keep = range(rank_b, rank)
    proj = tuple(form.u[i] for i in keep)
    section = tuple(tuple(form.u_inv[i][j] for j in keep) for i in range(rank))
    return tuple(mat_mul(mat_mul(proj, action[g]), section)
                 for g in group.elements()), proj


def _reference_block_diag(group, blocks):
    total = sum(rank for _, rank in blocks)
    mats = []
    for g in group.elements():
        m = [[0] * total for _ in range(total)]
        off = 0
        for action, rank in blocks:
            for i in range(rank):
                for j in range(rank):
                    m[off + i][off + j] = action[g][i][j]
            off += rank
        mats.append(tuple(tuple(row) for row in m))
    return tuple(mats)


def _transpose(m):
    return tuple(zip(*m)) if m else ()


def _reference_lattices(datum):
    """Actions and map matrices of ``character_lattices``, as nested lists."""
    g = datum.group
    amb_blocks, base_blocks, norm_blocks = [], [], []
    for pair in datum.pairs:
        amb, amb_parts = _reference_permutation(g, pair.inner)
        bse, bse_parts = _reference_permutation(g, pair.outer)
        amb_blocks.append((amb, len(amb_parts)))
        base_blocks.append((bse, len(bse_parts)))
        block = [[0] * len(bse_parts) for _ in range(len(amb_parts))]
        for j, outer_coset in enumerate(bse_parts):
            members = set(outer_coset)
            for i, inner_coset in enumerate(amb_parts):
                if inner_coset[0] in members:
                    block[i][j] = 1
        norm_blocks.append(block)
    ambient = _reference_block_diag(g, amb_blocks)
    base = _reference_block_diag(g, base_blocks)
    rows = sum(rank for _, rank in amb_blocks)
    cols = sum(rank for _, rank in base_blocks)
    nm = [[0] * cols for _ in range(rows)]
    row_off = col_off = 0
    for (_, ra), (_, rb), block in zip(amb_blocks, base_blocks, norm_blocks):
        for i in range(ra):
            for j in range(rb):
                nm[row_off + i][col_off + j] = block[i][j]
        row_off += ra
        col_off += rb
    norm_matrix = tuple(tuple(row) for row in nm)
    norm_one, to_norm_one = _reference_quotient(g, ambient, rows, norm_matrix)
    deg_kernel = kernel_basis(((1,) * cols,), cols)
    sub_cols = mat_mul(norm_matrix, deg_kernel) if deg_kernel and deg_kernel[0] else \
        tuple(() for _ in range(rows))
    torus, to_torus = _reference_quotient(g, ambient, rows, sub_cols)
    unit_vec = tuple(norm_matrix[i][0] for i in range(rows))
    unit = tuple((sum(to_torus[i][j] * unit_vec[j] for j in range(rows)),)
                 for i in range(len(to_torus)))
    factor = solve_matrix(_transpose(to_torus), _transpose(to_norm_one))
    out = {"norm_map": norm_matrix, "ambient_to_torus": to_torus,
           "torus_to_norm_one": _transpose(factor), "unit_embedding": unit}
    out = {key: _lists(m) for key, m in out.items()}
    for key, action in (("ambient", ambient), ("base", base),
                        ("norm_one", norm_one), ("torus", torus)):
        out[key] = [_lists(m) for m in action]
    return out


def _lists(matrix):
    return [list(row) for row in matrix]


def _ono_datum():
    g = direct_product(cyclic(2), cyclic(2), cyclic(2), cyclic(2)).group
    return NormTorusDatum(g, (TorusPair(trivial_subgroup(g), full_subgroup(g)),))


def test_lattices_match_tuple_reference():
    data = [(name, datum) for name, datum, _ in cm_corpus() if datum.pairs]
    data += [(f"fuzz{i}", datum) for i, datum in enumerate(fuzz_data())]
    data += [("ono", _ono_datum()), ("C48", cyclic_cm(48))]
    for name, datum in data:
        lats = character_lattices(datum)
        expected = _reference_lattices(datum)
        got = {
            "ambient": lats.ambient.action.tolist(), "base": lats.base.action.tolist(),
            "norm_one": lats.norm_one.action.tolist(), "torus": lats.torus.action.tolist(),
            "norm_map": lats.norm_map.matrix.tolist(),
            "ambient_to_torus": lats.ambient_to_torus.matrix.tolist(),
            "torus_to_norm_one": lats.torus_to_norm_one.matrix.tolist(),
            "unit_embedding": lats.unit_embedding.tolist(),
        }
        for key, value in expected.items():
            assert got[key] == value, (name, key)
    assert len(data) > 50


def test_arrays_are_int64_and_read_only():
    lats = character_lattices(q8_cm())
    for arr in (lats.torus.action, lats.norm_one.action, lats.norm_map.matrix,
                lats.torus_to_norm_one.matrix, lats.unit_embedding):
        assert arr.dtype == np.int64
        assert not arr.flags.writeable
    assert lats.torus.action.shape == (8, 5, 5)


def test_homomorphism_wrong_on_one_generator_rejected():
    # C2 x D4, row-major: D4's greedy generators come first, then t = (1, e).
    # rho'(c, h) = X^c rho(h) with X an involution that commutes with no
    # rotation is right on every generator of D4 and wrong on t alone.
    d4 = dihedral(4)
    prod = direct_product(cyclic(2), d4)
    g = prod.group
    regular, _ = permutation_lattice(d4, trivial_subgroup(d4))
    swap = np.eye(8, dtype=np.int64)[[1, 0, 2, 3, 4, 5, 6, 7]]
    action = np.empty((16, 8, 8), dtype=np.int64)
    for c in (0, 1):
        for h in d4.elements():
            action[prod.pack((c, h))] = (swap if c else np.eye(8, dtype=np.int64)) @ \
                regular.action[h]
    gens = _greedy_generators(g.table, g.identity, g.elements())
    t = prod.pack((1, d4.identity))
    assert t == gens[-1] and len(gens) >= 3
    for s in gens:
        right = all(np.array_equal(action[x] @ action[s], action[g.table[x][s]])
                    for x in g.elements())
        assert right == (s != t), s
    with pytest.raises(InternalCheckError, match="not a homomorphism") as caught:
        GLattice(g, 8, action)
    a, s = caught.value.context["pair"]
    assert s == t and not np.array_equal(action[a] @ action[s], action[g.table[a][s]])


def test_map_not_equivariant_at_one_element_rejected():
    # the elements where a map commutes with the actions form a subgroup, so
    # one bad element is the most a map can miss unless |G| = 2: over C2 the
    # identity map from Z to the sign lattice is equivariant at e only
    g = cyclic(2)
    sign = GLattice(g, 1, (((1,),), ((-1,),)))
    with pytest.raises(InternalCheckError, match="not equivariant") as caught:
        LatticeMap(trivial_lattice(g, 1), sign, ((1,),))
    assert caught.value.context["element"] == 1
    # over C4 the same map is equivariant on the index-2 subgroup {0, 2}
    g4 = cyclic(4)
    alternating = GLattice(g4, 1, [[[(-1) ** x]] for x in g4.elements()])
    with pytest.raises(InternalCheckError, match="not equivariant") as caught:
        LatticeMap(trivial_lattice(g4, 1), alternating, [[1]])
    assert caught.value.context["element"] == 1


def test_lattices_from_tuples_and_arrays_share_a_cache_entry():
    g = cyclic(4)
    from_tuples = GLattice(g, 1, tuple(((((-1) ** x),),) for x in g.elements()))
    from_array = GLattice(g, 1, np.array([1, -1, 1, -1]).reshape(4, 1, 1))
    assert from_tuples == from_array and hash(from_tuples) == hash(from_array)
    assert cohomology(from_tuples, 1) is cohomology(from_array, 1)
    assert from_tuples != trivial_lattice(g, 1)
    # the same bytes over another group are another lattice
    renamed = from_table(g.table, "renamed")
    assert from_tuples != GLattice(renamed, 1, from_tuples.action)

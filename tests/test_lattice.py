from dataclasses import replace

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
from references import check_homomorphism, mat_mul, solve_matrix
from cmtori.abelian import identity, kernel_basis, smith_normal_form
from cmtori.cohomology import cohomology
from cmtori.datum import NormTorusDatum, TorusPair
from cmtori.errors import InternalCheckError
from cmtori.groups import (
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
    _free_quotient,
    _permutation_action,
    _product,
    character_lattices,
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
    assert lats.inclusion.tolist() == lats.retraction.tolist() == [[1]]
    assert lats.projection.shape == (0, 1) and lats.section.shape == (1, 0)


def _all_sequences():
    data = [datum for _, datum, _ in cm_corpus()] + fuzz_data() + [_ono_datum(), cyclic_cm(48)]
    return [(datum, character_lattices(datum)) for datum in data]


def test_action_is_homomorphism_everywhere():
    # the matmul check the lattices once ran on themselves, on every lattice
    # that character_lattices and restrict_lattice produce here
    checked = 0
    for datum, lats in _all_sequences():
        g = datum.group
        subs = list(datum.effective_decomposition_set()) + [full_subgroup(g)]
        for lat in (lats.torus, lats.norm_one):
            check_homomorphism(lat)
            for sub in subs:
                check_homomorphism(restrict_lattice(lat, sub))
                checked += 1
    assert checked > 500


def test_equivariance_of_maps():
    # p rho_T(g) = rho_N(g) p and rho_T(g) i = i at every g, which the
    # lattice layer proves from its checks on the generators alone
    for datum, lats in _all_sequences():
        p, i = lats.projection, lats.inclusion
        assert np.array_equal(p @ lats.torus.action, lats.norm_one.action @ p)
        assert np.array_equal(lats.torus.action @ i, np.broadcast_to(
            i, (datum.group.order,) + i.shape))


def test_permutation_lattice_is_permutation():
    g = quaternion8()
    parts = cosets(g, subgroup_generated(g, [2]), "left")
    index = {x: j for j, cs in enumerate(parts) for x in cs}
    images = np.array([[index[g.table[x][cs[0]]] for cs in parts] for x in g.elements()])
    action = _permutation_action(g, images)
    assert action.shape == (8, 2, 2)
    for m in action:
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
    # g = 1 sends both basis vectors to 0: no permutation, no homomorphism
    with pytest.raises(InternalCheckError, match="not a homomorphism"):
        _permutation_action(g, np.array([[0, 1], [0, 0]]))
    with pytest.raises(InternalCheckError, match="identity"):
        _permutation_action(g, np.array([[1, 0], [0, 1]]))


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
    """The lattices and the maps p, i of ``character_lattices``, as nested lists."""
    g = datum.group
    amb_blocks, norm_blocks = [], []
    for pair in datum.pairs:
        amb, amb_parts = _reference_permutation(g, pair.inner)
        bse_parts = cosets(g, pair.outer, "left")
        amb_blocks.append((amb, len(amb_parts)))
        block = [[0] * len(bse_parts) for _ in range(len(amb_parts))]
        for j, outer_coset in enumerate(bse_parts):
            members = set(outer_coset)
            for i, inner_coset in enumerate(amb_parts):
                if inner_coset[0] in members:
                    block[i][j] = 1
        norm_blocks.append(block)
    ambient = _reference_block_diag(g, amb_blocks)
    rows = sum(rank for _, rank in amb_blocks)
    cols = sum(len(block[0]) for block in norm_blocks)
    nm = [[0] * cols for _ in range(rows)]
    row_off = col_off = 0
    for block in norm_blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                nm[row_off + i][col_off + j] = x
        row_off += len(block)
        col_off += len(block[0])
    norm_matrix = tuple(tuple(row) for row in nm)
    norm_one, to_norm_one = _reference_quotient(g, ambient, rows, norm_matrix)
    deg_kernel = kernel_basis(((1,) * cols,), cols)
    sub_cols = mat_mul(norm_matrix, deg_kernel) if deg_kernel and deg_kernel[0] else \
        tuple(() for _ in range(rows))
    torus, to_torus = _reference_quotient(g, ambient, rows, sub_cols)
    unit_vec = tuple(norm_matrix[i][0] for i in range(rows))
    unit = tuple((sum(to_torus[i][j] * unit_vec[j] for j in range(rows)),)
                 for i in range(len(to_torus)))
    # p is the solution of p to_torus = to_norm_one
    factor = solve_matrix(_transpose(to_torus), _transpose(to_norm_one))
    out = {"torus_to_norm_one": _lists(_transpose(factor)), "unit_embedding": _lists(unit)}
    for key, action in (("norm_one", norm_one), ("torus", torus)):
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
            "norm_one": lats.norm_one.action.tolist(), "torus": lats.torus.action.tolist(),
            "torus_to_norm_one": lats.projection.tolist(),
            "unit_embedding": lats.inclusion.tolist(),
        }
        assert got == expected, name
    assert len(data) > 50


def test_arrays_are_int64_and_read_only():
    lats = character_lattices(q8_cm())
    for arr in (lats.torus.action, lats.norm_one.action, lats.inclusion, lats.projection,
                lats.section, lats.retraction):
        assert arr.dtype == np.int64
        assert not arr.flags.writeable
    assert lats.torus.action.shape == (8, 5, 5)


def _regular_images(group):
    """images[g, j] = g j: the regular permutation action."""
    return np.array(group.table)


def test_homomorphism_wrong_on_one_generator_rejected():
    # C2 x D4, row-major: D4's greedy generators come first, then t = (1, e).
    # g(c, h) = X^c g(h) with X a transposition of basis vectors that
    # commutes with no rotation is right on every generator of D4 and wrong
    # on t alone.
    d4 = dihedral(4)
    prod = direct_product(cyclic(2), d4)
    g = prod.group
    regular = _regular_images(d4)
    swap = np.array([1, 0, 2, 3, 4, 5, 6, 7])
    images = np.empty((16, 8), dtype=np.int64)
    for c in (0, 1):
        for h in d4.elements():
            images[prod.pack((c, h))] = swap[regular[h]] if c else regular[h]
    gens = g.generators
    t = prod.pack((1, d4.identity))
    assert t == gens[-1] and len(gens) >= 3
    for s in gens:
        right = np.array_equal(images[:, images[s]], images[[row[s] for row in g.table]])
        assert right == (s != t), s
    with pytest.raises(InternalCheckError, match="not a homomorphism") as caught:
        _permutation_action(g, images)
    a, s = caught.value.context["pair"]
    assert s == t and not np.array_equal(images[a, images[s]], images[g.table[a][s]])


def test_permutation_images_wrong_at_one_element_rejected():
    # swapping two images of one element g0 != e breaks g0 s = g0 . s for
    # some generator s; the reported pair really fails
    for group in (cyclic(6), quaternion8(), dihedral(4)):
        for g0 in group.elements():
            if g0 == group.identity:
                continue
            images = _regular_images(group)
            images[g0, [0, 1]] = images[g0, [1, 0]]
            with pytest.raises(InternalCheckError, match="not a homomorphism") as caught:
                _permutation_action(group, images)
            a, s = caught.value.context["pair"]
            assert not np.array_equal(images[a, images[s]], images[group.table[a][s]])
        assert _permutation_action(group, _regular_images(group)).shape[0] == group.order


def test_sublattice_not_g_stable_rejected():
    # in the regular lattice of C4 the line through e_0 is saturated but
    # moved by the generator; the line through e_0 + ... + e_3 is stable
    g = cyclic(4)
    action = _permutation_action(g, _regular_images(g))
    with pytest.raises(InternalCheckError, match="not G-stable") as caught:
        _free_quotient(g, action, np.array([[1], [0], [0], [0]]))
    assert caught.value.context["element"] in g.generators
    quot, proj, section = _free_quotient(g, action, np.ones((4, 1), dtype=np.int64))
    assert quot.rank == 3 and np.array_equal(proj @ section, np.eye(3))
    with pytest.raises(InternalCheckError, match="torsion"):
        _free_quotient(g, action, np.full((4, 1), 2))


def test_product_outside_the_int64_bound_rejected():
    # 2^31 * 2^31 = 2^62 could already overflow once two such products are added
    big = np.array([[2 ** 31]], dtype=np.int64)
    assert _product(big, np.array([[2 ** 30]])).item() == 2 ** 61
    with pytest.raises(InternalCheckError, match="overflows int64") as caught:
        _product(big, big)
    assert caught.value.context["bound"] == 2 ** 62
    # the inner dimension counts: two terms of 2^61 each reach 2^62
    with pytest.raises(InternalCheckError, match="overflows int64"):
        _product(np.full((1, 2), 2 ** 31), np.full((2, 1), 2 ** 30))


def test_perturbed_splitting_rejected():
    for datum in (imag_quadratic(), q8_cm(), cyclic_cm(6)):
        lats = character_lattices(datum)
        t, n = lats.torus.rank, lats.norm_one.rank
        bump_s = np.zeros((t, n), dtype=np.int64)
        bump_s[0, 0] = 1
        bump_r = np.zeros((1, t), dtype=np.int64)
        bump_r[0, -1] = 1
        for field, value, identity_name in (
                ("section", lats.section + bump_s, "p s = I"),
                ("retraction", lats.retraction + bump_r, None),
                ("inclusion", 2 * lats.inclusion, "r i = 1"),
                ("projection", -lats.projection, "p s = I")):
            with pytest.raises(InternalCheckError, match="not split exact") as caught:
                replace(lats, **{field: value})
            if identity_name:
                assert caught.value.context["identity"] == identity_name, (field, datum)
        # the unperturbed sequence passes the same constructor
        assert replace(lats).projection.tolist() == lats.projection.tolist()


def test_unit_vector_not_fixed_rejected():
    # the sign action on the torus of Q(sqrt(-d)) moves the unit (1, 1) and
    # keeps every split identity, which involve no action
    lats = character_lattices(imag_quadratic())
    g = lats.torus.group
    sign = GLattice(g, 2, [np.eye(2, dtype=np.int64) * (1 if x == g.identity else -1)
                           for x in g.elements()])
    with pytest.raises(InternalCheckError, match="unit vector is not invariant") as caught:
        replace(lats, torus=sign)
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

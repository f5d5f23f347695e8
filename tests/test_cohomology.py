import heapq
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest

from corpus import (
    biquadratic_field,
    cm_corpus,
    cyclic_cm,
    imag_quadratic,
    noncm_coprime_product,
    q8_cm,
)
from cmtori import cohomology as cohomology_module
from cmtori.abelian import (
    AbHom,
    cokernel_torsion,
    kernel_of_hom,
    smith_normal_form,
)
from cmtori.cohomology import (
    DEFAULT_BUDGET,
    CohomologyBudget,
    coboundary_matrix,
    cohomology,
    connecting_hom,
    ono_tamagawa,
    primitive_part_oracle,
    restrict_cochain,
    restriction_hom,
    sha_group,
    torus_invariants,
)
from cmtori.engine import h1_torus, primitive_part, sha2, tamagawa
from cmtori.errors import BudgetExceededError, InternalCheckError
from cmtori.groups import (
    Subgroup,
    cyclic,
    direct_product,
    full_subgroup,
    presentation,
    quaternion8,
    subgroup_generated,
    trivial_subgroup,
)
from cmtori.lattice import (
    GLattice,
    character_lattices,
    permutation_lattice,
    restrict_lattice,
    trivial_lattice,
)


def sign_lattice(group):
    # rank-1 lattice where the generator acts by -1
    mats = []
    for g in group.elements():
        mats.append(((1,),) if g == group.identity else ((-1,),))
    return GLattice(group, 1, tuple(mats))


def test_h1_of_sign_action_is_z2():
    g = cyclic(2)
    lat = sign_lattice(g)
    assert cohomology(lat, 1).group.factors == (2,)


def test_cyclic_group_trivial_coefficients():
    g = cyclic(2)
    lat = trivial_lattice(g, 1)
    assert cohomology(lat, 1).group.is_trivial
    assert cohomology(lat, 2).group.factors == (2,)
    assert _reference_factors(lat, 3) == ()
    g4 = cyclic(4)
    lat4 = trivial_lattice(g4, 1)
    assert cohomology(lat4, 2).group.factors == (4,)


def test_h2_trivial_coefficients_is_dual_abelianization():
    for g, expected in [(quaternion8(), (2, 2)), (cyclic(6), (6,)),
                        (cyclic(1), ())]:
        lat = trivial_lattice(g, 1)
        assert cohomology(lat, 2).group.factors == expected


def test_degree_three_periodicity():
    # cyclic cohomology has period 2: H^3 matches H^1 for both actions; the
    # oracle stops at degree 2, so H^3 comes from the bar reference
    g = cyclic(2)
    g4 = cyclic(4)
    assert _reference_factors(sign_lattice(g), 3) == (2,)
    assert _reference_factors(trivial_lattice(g, 1), 3) == ()
    assert _reference_factors(trivial_lattice(g4, 1), 3) == ()
    assert cohomology(sign_lattice(g), 1).group.factors == (2,)
    for lat in (sign_lattice(g), trivial_lattice(g4, 1)):
        with pytest.raises(BudgetExceededError) as exc:
            cohomology(lat, 3)
        assert str(exc.value) == "degree not supported"
        assert exc.value.context == {"degree": 3}


def test_h0_invariants():
    g = cyclic(2)
    assert cohomology(trivial_lattice(g, 3), 0).free_rank == 3
    assert cohomology(sign_lattice(g), 0).free_rank == 0
    perm, _ = permutation_lattice(g, trivial_subgroup(g))
    assert cohomology(perm, 0).free_rank == 1


def test_differential_squares_to_zero():
    for datum in (q8_cm(), cyclic_cm(4)):
        lats = character_lattices(datum)
        d0, d1 = (coboundary_matrix(lats.torus, q) for q in (0, 1))
        assert d0.any() and d1.any()
        assert not (d1 @ d0).any()
        for q in (0, 1):
            n = lats.torus.rank * (datum.group.order - 1) ** q
            once = _bar_coboundary(lats.torus, q, np.eye(n, dtype=np.int64))
            twice = _bar_coboundary(lats.torus, q + 1, once)
            assert once.any()
            assert not twice.any()


def test_broken_tree_integral_fails_the_hard_check(monkeypatch):
    lat = character_lattices(q8_cm()).torus
    real = cohomology_module._tree_integral

    monkeypatch.setattr(cohomology_module, "_tree_integral", lambda lat: -real(lat))
    with pytest.raises(InternalCheckError) as exc:
        coboundary_matrix(lat, 1)
    assert str(exc.value) == "d_1 d_0 is not zero"


def test_shapiro_consistency():
    # H^1(G, induced module) has the order of H^1 over the inducing subgroup
    for datum in (q8_cm(), cyclic_cm(4), biquadratic_field()):
        g = datum.group
        pair = datum.pairs[0]
        lats = character_lattices(datum)
        local, embed = pair.outer.as_group()
        inner_local = Subgroup(local, tuple(sorted(
            embed.index(x) for x in pair.inner.elements)))
        from cmtori.datum import NormTorusDatum, TorusPair
        local_datum = NormTorusDatum(local, (TorusPair(
            inner_local, full_subgroup(local)),))
        local_lats = character_lattices(local_datum)
        big = cohomology(lats.norm_one, 1).group
        small = cohomology(local_lats.norm_one, 1).group
        assert big.order == small.order


def test_norm_one_h1_is_relative_dual():
    for name, datum, expected in cm_corpus():
        if datum.group.order > 8:
            continue
        lats = character_lattices(datum)
        assert cohomology(lats.norm_one, 1).group.factors == expected["h1n1"], name


def test_q8_norm_one_h1():
    lats = character_lattices(q8_cm())
    assert lats.torus.rank == 5
    assert lats.norm_one.rank == 4
    assert cohomology(lats.norm_one, 1).group.factors == (2,)


def test_oracle_matches_engine_on_corpus():
    for name, datum, expected in cm_corpus():
        lats = character_lattices(datum)
        oracle_h1 = cohomology(lats.torus, 1).group
        assert oracle_h1.factors == h1_torus(datum).factors, name
        decs = datum.effective_decomposition_set()
        oracle_sha = sha_group(lats.torus, 2, decs)
        assert oracle_sha.factors == sha2(datum).factors, name
        assert ono_tamagawa(datum) == tamagawa(datum).tau, name
        # Sha^2 of the norm-one lattice vanishes for cyclic relative quotients
        assert sha_group(lats.norm_one, 2, decs).is_trivial, name
        # the norm-one torus is anisotropic
        assert cohomology(lats.norm_one, 0).free_rank == 0 or not datum.pairs, name


def test_primitive_part_oracle_matches_engine():
    for name, datum, expected in cm_corpus():
        if datum.group.order > 8:
            continue
        assert primitive_part_oracle(datum).order == primitive_part(datum).order, name


def test_restriction_to_trivial_and_full():
    datum = q8_cm()
    lats = character_lattices(datum)
    g = datum.group
    res, sub = restriction_hom(lats.torus, 2, trivial_subgroup(g))
    assert sub.group.is_trivial
    res_full, sub_full = restriction_hom(lats.torus, 2, full_subgroup(g))
    coh = cohomology(lats.torus, 2)
    assert sub_full.group.factors == coh.group.factors
    # restriction to the whole group is an isomorphism on classes
    assert kernel_of_hom(res_full.domain, [res_full]).group.is_trivial


def test_q8_sha2_depends_on_decomposition_set():
    base = q8_cm()
    lats = character_lattices(base)
    assert sha_group(lats.torus, 2, base.effective_decomposition_set()).factors == (2, 2)
    full = q8_cm(include_group=True)
    assert sha_group(lats.torus, 2, full.effective_decomposition_set()).is_trivial


def test_connecting_hom_matches_dual_transfer_rank():
    # the image of delta : H^1(norm-one) -> H^2(Z) has the order of the
    # dual-transfer image from the fast path, which is |im c| = |G^ab| / |K|
    # for the relative transfers c = (c_i) and their common kernel K (a map
    # and its dual have images of one order)
    from cmtori.abelian import image_of_hom
    from cmtori.engine import _combined_transfer
    from cmtori.transfer import group_abelianization

    for datum in (imag_quadratic(), cyclic_cm(4), q8_cm(), biquadratic_field()):
        lats = character_lattices(datum)
        z = trivial_lattice(datum.group, 1)
        delta = connecting_hom((z, lats.torus, lats.norm_one),
                               lats.unit_embedding,
                               lats.torus_to_norm_one.matrix, 1)
        g_ab = group_abelianization(datum.group).group
        kernel = kernel_of_hom(g_ab, _combined_transfer(datum))
        assert image_of_hom(delta).group.order == g_ab.order // kernel.group.order


def test_empty_datum_oracle_consistent():
    from corpus import empty_pairs_datum
    from cmtori.engine import tamagawa

    datum = empty_pairs_datum()
    assert ono_tamagawa(datum) == tamagawa(datum).tau == 1
    lats = character_lattices(datum)
    assert cohomology(lats.norm_one, 2).group.is_trivial  # rank-0 module


def test_budget_errors():
    g = cyclic(18)
    lat = trivial_lattice(g, 1)
    with pytest.raises(BudgetExceededError):
        cohomology(lat, 2)
    tight = CohomologyBudget(max_order_q2=20)
    assert cohomology(lat, 2, tight).group.factors == (18,)
    with pytest.raises(BudgetExceededError):
        cohomology(lat, 4)


# ---------------------------------------------------------------------------
# reference: the normalized bar resolution.  Cochains in degree q are
# functions on q-tuples of non-identity elements; H^q comes from a sparse
# column reduction of d_q and a Smith form of the image of d_(q-1) in kernel
# coordinates (the oracle's earlier algorithms)
# ---------------------------------------------------------------------------

def _bar_tables(group):
    """(non-identity elements, position of every element, products of positions).

    The identity's position is m = |G| - 1, one past the last, so
    ``products[a, b] == m`` marks a product that is the identity.
    """
    nonid = tuple(g for g in group.elements() if g != group.identity)
    m = len(nonid)
    pos = np.full(group.order, m, dtype=np.int64)
    pos[list(nonid)] = np.arange(m)
    table = np.array([group.table[x] for x in nonid], dtype=np.int64).reshape(m, group.order)
    return nonid, pos, pos[table[:, list(nonid)]]


def _bar_coboundary(lattice, q, cochains):
    """Bar d_q applied to a cochain vector or to each matrix column.

    Coordinate i of a q-cochain at (g_1, ..., g_q) sits at index
    (pos(g_1) ... pos(g_q) read in base m) * rank + i, m = |G| - 1, and

        (df)(g_0..g_q) = g_0 f(g_1..g_q) + sum_i (-1)^(i+1) f(.., g_i g_(i+1), ..)
                         + (-1)^(q+1) f(g_0..g_(q-1)),

    where a term with an identity argument vanishes.
    """
    x = np.asarray(cochains, dtype=np.int64)
    nonid, _, products = _bar_tables(lattice.group)
    m = len(nonid)
    rank = lattice.rank
    k = x.shape[1] if x.ndim == 2 else 1
    f = x.reshape(m ** q, rank, k)
    out = np.matmul(lattice.action[list(nonid)].reshape(m, 1, rank, rank), f[None])
    for i in range(q):
        inner = f.reshape(m ** i, m, m ** (q - 1 - i), rank, k)
        padded = np.concatenate(
            [inner, np.zeros((m ** i, 1) + inner.shape[2:], dtype=np.int64)], axis=1)
        out.reshape(m ** i, m, m, m ** (q - 1 - i), rank, k)[...] += (
            (-1) ** (i + 1) * padded[:, products])
    out.reshape(m ** q, m, rank, k)[...] += (-1) ** (q + 1) * f[:, None]
    return out.reshape((-1,) + x.shape[1:])


def _bar_restrict(parent, sub, q, vec):
    """Restrict a bar G-cochain to tuples from a subgroup."""
    _, pos_g, _ = _bar_tables(parent.group)
    mg = parent.group.order - 1
    local, embed = sub.as_group()
    parent_pos = pos_g[[embed[x] for x in local.elements() if x != local.identity]]
    index = np.zeros(1, dtype=np.int64)
    for _ in range(q):
        index = (index[:, None] * mg + parent_pos).ravel()
    return np.asarray(vec, dtype=np.int64).reshape(mg ** q, parent.rank)[index].ravel()


def _tree_path(pres, g):
    """The tree edges (h, i) from the identity to g, in order."""
    path = []
    while pres.parent[g] >= 0:
        path.append((int(pres.parent[g]), int(pres.letter[g])))
        g = pres.parent[g]
    return path[::-1]


def _to_bar(lattice, q, vec):
    """A presentation cochain as a bar cochain, walking tree words element by
    element: f -> (g -> sum of h f(s) over the tree edges (h, s) into g), and
    z -> ((g, h) -> sum of z(r) over the relators r met along h's tree word
    from g)."""
    g = lattice.group
    pres = presentation(g)
    rank = lattice.rank
    f = np.asarray(vec, dtype=np.int64).reshape(-1, rank)
    nonid = [x for x in g.elements() if x != g.identity]
    out = []
    for x in nonid:
        if q == 1:
            val = np.zeros(rank, dtype=np.int64)
            for h, i in _tree_path(pres, x):
                val += lattice.action[h] @ f[i]
            out.append(val)
            continue
        for y in nonid:
            val = np.zeros(rank, dtype=np.int64)
            for h, i in _tree_path(pres, y):
                r = pres.relator_of[g.table[x][h], i]
                if r >= 0:
                    val += f[r]
            out.append(val)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def _bar_torsion(lattice, q):
    """H^q as the torsion of the cokernel of the bar d_(q-1)."""
    n = lattice.rank * (lattice.group.order - 1) ** (q - 1)
    if lattice.group.order == 1:    # no cochains in degree q >= 1
        return cokernel_torsion(np.zeros((0, n), dtype=np.int64), 1)
    return cokernel_torsion(_bar_coboundary(lattice, q - 1, np.eye(n, dtype=np.int64)),
                            lattice.group.order)


def _bar_restriction_hom(lattice, sub, q, torsion=None):
    torsion = torsion or _bar_torsion(lattice, q)
    sub_torsion = _bar_torsion(restrict_lattice(lattice, sub), q)
    cols = [sub_torsion.coordinates(_bar_restrict(lattice, sub, q, gen))
            for gen in torsion.generators]
    matrix = tuple(tuple(col[i] for col in cols) for i in range(sub_torsion.group.rank))
    return AbHom(torsion.group, sub_torsion.group, matrix)


def _bar_sha(lattice, decs):
    """Sha^2 on the bar resolution: the common kernel of the restrictions."""
    torsion = _bar_torsion(lattice, 2)
    if torsion.group.is_trivial or not decs:
        return torsion.group
    homs = [_bar_restriction_hom(lattice, dec, 2, torsion) for dec in decs]
    return kernel_of_hom(torsion.group, homs).group

def _reference_columns(lattice, q):
    """Sparse columns of d_q, built element by element from the bar formula."""
    g = lattice.group
    rank = lattice.rank
    nonid = tuple(x for x in g.elements() if x != g.identity)
    m = len(nonid)
    pos = {x: i for i, x in enumerate(nonid)}
    cols = [dict() for _ in range(rank * m ** q)]

    def index(positions):
        idx = 0
        for p in positions:
            idx = idx * m + p
        return idx

    def add(col, row, val):
        if val:
            d = cols[col]
            new = d.get(row, 0) + val
            if new:
                d[row] = new
            else:
                del d[row]

    for out_positions in iter_product(range(m), repeat=q + 1):
        tup = tuple(nonid[p] for p in out_positions)
        base = index(out_positions) * rank
        mat = lattice.action[tup[0]].tolist()
        if q == 0:
            for i in range(rank):
                for j in range(rank):
                    add(j, base + i, mat[i][j] - (1 if i == j else 0))
            continue
        head_base = index(out_positions[1:]) * rank
        for i in range(rank):
            for j in range(rank):
                add(head_base + j, base + i, mat[i][j])
        sign = -1
        for cut in range(q):
            merged = g.table[tup[cut]][tup[cut + 1]]
            if merged != g.identity:
                mbase = index([pos[x] for x in tup[:cut] + (merged,) + tup[cut + 2:]]) * rank
                for i in range(rank):
                    add(mbase + i, base + i, sign)
            sign = -sign
        tail_base = index(out_positions[:q]) * rank
        for i in range(rank):
            add(tail_base + i, base + i, sign)
    return cols


def _reference_column_reduce(cols):
    """Column echelon form of sparse columns: (V^-1 by rows, kernel indices)."""
    ncols = len(cols)
    v_inv = [{j: 1} for j in range(ncols)]
    row_members = {}
    for j, col in enumerate(cols):
        for r in col:
            row_members.setdefault(r, set()).add(j)
    active = set(range(ncols))

    def add_col(dst, src, q):
        col_s, col_d = cols[src], cols[dst]
        for r, val in col_s.items():
            new = col_d.get(r, 0) + q * val
            if new:
                if r not in col_d:
                    row_members.setdefault(r, set()).add(dst)
                col_d[r] = new
            elif r in col_d:
                del col_d[r]
                row_members[r].discard(dst)
        vs = v_inv[src]
        for r, val in v_inv[dst].items():
            new = vs.get(r, 0) - q * val
            if new:
                vs[r] = new
            else:
                vs.pop(r, None)

    heap = [(len(members), r) for r, members in row_members.items()]
    heapq.heapify(heap)
    processed = set()
    while heap:
        cnt, row = heapq.heappop(heap)
        if row in processed:
            continue
        live = row_members.get(row, set()) & active
        if not live:
            processed.add(row)
            continue
        if len(live) != cnt:
            heapq.heappush(heap, (len(live), row))
            continue
        pivot = None
        while True:
            entries = sorted((abs(cols[j][row]), len(cols[j]), j)
                             for j in live if row in cols[j])
            if not entries:
                break
            if len(entries) == 1:
                pivot = entries[0][2]
                break
            best = entries[0][2]
            bval = cols[best][row]
            for _, _, j in entries[1:]:
                quot = cols[j][row] // bval
                if quot:
                    add_col(j, best, -quot)
            live = row_members.get(row, set()) & active
        processed.add(row)
        if pivot is not None:
            active.discard(pivot)
    assert not any(cols[j] for j in active)
    return v_inv, sorted(active)


def _reference_factors(lattice, q):
    """Invariant factors of H^q (q >= 1) through ker d_q / im d_(q-1)."""
    if lattice.rank * (lattice.group.order - 1) ** q == 0:
        return ()
    v_inv, kernel = _reference_column_reduce(_reference_columns(lattice, q))
    if not kernel:
        return ()
    position = {j: t for t, j in enumerate(kernel)}
    image = []
    for col in _reference_columns(lattice, q - 1):
        coords = [0] * len(kernel)
        for i, vrow in enumerate(v_inv):
            val = sum(coef * col.get(r, 0) for r, coef in vrow.items())
            if val:
                assert i in position, "image of d_(q-1) escapes ker d_q"
                coords[position[i]] = val
        image.append(coords)
    form = smith_normal_form(tuple(zip(*image)))
    assert len(form.diagonal) == len(kernel) and all(form.diagonal)
    return tuple(d for d in form.diagonal if d > 1)


def _dense(cols, nrows):
    out = np.zeros((nrows, len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        for r, val in col.items():
            out[r, j] = val
    return out


def _ono_datum():
    from cmtori.datum import NormTorusDatum, TorusPair

    g = direct_product(cyclic(2), cyclic(2), cyclic(2), cyclic(2)).group
    return NormTorusDatum(g, (TorusPair(trivial_subgroup(g), full_subgroup(g)),))


def _data_under_test():
    """(label, datum) over the corpus and the fuzz data of the first ten groups
    of the fuzz pool.

    The references here are pure Python on the bar resolution; on the
    abelian groups of order 16 appended to the pool later, with lattices of
    rank up to 15, they would take over a minute.  The engine = oracle test
    covers those data.
    """
    from corpus import fuzz_data

    data = [(name, datum) for name, datum, _ in cm_corpus()]
    return data + [(f"fuzz{i}", datum) for i, datum in enumerate(fuzz_data()[:40])]


def _lattices_under_test():
    """(label, lattice, subgroups) over the corpus and the fuzz data: the torus,
    norm-one and trivial lattices, each with the datum's decomposition
    groups, the whole group and the cyclic group of its least non-identity
    element."""
    out = []
    seen = set()
    for name, datum in _data_under_test():
        g = datum.group
        lats = character_lattices(datum)
        subs = list(datum.effective_decomposition_set())
        subs += [full_subgroup(g), subgroup_generated(g, [min(set(g.elements()) - {g.identity})])]
        for kind, lat in (("torus", lats.torus), ("norm_one", lats.norm_one),
                          ("Z", trivial_lattice(g, 1))):
            if lat not in seen:
                seen.add(lat)
                out.append((f"{name}/{kind}", lat, tuple(dict.fromkeys(subs))))
    return out


def test_coboundary_matches_reference_columns():
    # the two bar references agree
    for datum in (q8_cm(), noncm_coprime_product(), biquadratic_field()):
        lats = character_lattices(datum)
        m = datum.group.order - 1
        for lat in (lats.torus, lats.norm_one):
            for q in (0, 1, 2):
                n = lat.rank * m ** q
                expected = _dense(_reference_columns(lat, q), lat.rank * m ** (q + 1))
                assert np.array_equal(_bar_coboundary(lat, q, np.eye(n, dtype=np.int64)),
                                      expected)
                vec = np.arange(n, dtype=np.int64) % 7 - 3
                assert np.array_equal(_bar_coboundary(lat, q, vec), expected @ vec)


def _word_coboundary(lattice, f):
    """d_1 f by walking each relator letter by letter: the crossed
    homomorphism of f on w_g s w_(gs)^(-1)."""
    g = lattice.group
    pres = presentation(g)
    gens = pres.generators
    f = np.asarray(f, dtype=np.int64).reshape(len(gens), lattice.rank)
    out = []
    for x, i in pres.relators.tolist():
        end = g.table[x][gens[i]]
        word = [(s, 1) for _, s in _tree_path(pres, x)] + [(i, 1)]
        word += [(s, -1) for _, s in reversed(_tree_path(pres, end))]
        at, val = g.identity, np.zeros(lattice.rank, dtype=np.int64)
        for s, sign in word:
            if sign > 0:
                val += lattice.action[at] @ f[s]
                at = g.table[at][gens[s]]
            else:
                at = g.table[at][g.inverses[gens[s]]]
                val -= lattice.action[at] @ f[s]
        assert at == g.identity          # the relator is a relation
        out.append(val)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def test_presentation_coboundaries_match_fox_calculus():
    rng = np.random.default_rng(901)
    checked = 0
    for label, lat, _ in _lattices_under_test():
        g = lat.group
        pres = presentation(g)
        s = len(pres.generators)
        assert len(pres.relators) == g.order * (s - 1) + 1, label
        for x in g.elements():      # the tree words spell every element
            at = g.identity
            for h, i in _tree_path(pres, x):
                assert h == at
                at = g.table[at][pres.generators[i]]
            assert at == x, label
        d0, d1 = (coboundary_matrix(lat, q) for q in (0, 1))
        assert d0.shape == (s * lat.rank, lat.rank)
        assert d1.shape == (len(pres.relators) * lat.rank, s * lat.rank)
        for _ in range(2):
            f = rng.integers(-20, 20, size=s * lat.rank)
            assert np.array_equal(d1 @ f, _word_coboundary(lat, f)), label
            checked += 1
    assert checked >= 200


def test_ono_presentation_is_small():
    lat = character_lattices(_ono_datum()).norm_one
    assert coboundary_matrix(lat, 1).shape == (735, 60)     # bar d_1: 3,375 x 225


def test_oracle_matches_column_reduction_reference():
    compared = {1: 0, 2: 0}
    for label, lat, _ in _lattices_under_test():
        for q in (1, 2):
            try:
                DEFAULT_BUDGET.check(lat.group.order, lat.rank, q)
            except BudgetExceededError:
                continue
            assert cohomology(lat, q).group.factors == _reference_factors(lat, q), (label, q)
            compared[q] += 1
    assert compared[1] >= 100 and compared[2] >= 100, compared


def test_restriction_matches_bar_reference_through_class_equality():
    """Presentation classes, carried to the bar resolution by ``_to_bar``, are
    an isomorphism onto the bar classes, and restriction commutes with it:
    restricting on the bar side and restricting by ``restrict_cochain`` give
    the same class of the subgroup."""
    compared = {1: 0, 2: 0}
    for label, lat, subs in _lattices_under_test():
        if lat.group.order > 16 or lat.rank == 0:
            continue
        for q in (1, 2):
            coh = cohomology(lat, q)
            bar = _bar_torsion(lat, q)
            assert coh.group.factors == bar.group.factors, (label, q)
            reps = [coh.representative(j) for j in range(coh.group.rank)]
            carried = [_to_bar(lat, q, rep) for rep in reps]
            cols = [bar.coordinates(v) for v in carried]
            phi = AbHom(coh.group, bar.group,
                        tuple(tuple(col[i] for col in cols) for i in range(bar.group.rank)))
            assert kernel_of_hom(coh.group, [phi]).group.is_trivial, (label, q)
            for sub in subs:
                sub_lat = restrict_lattice(lat, sub)
                sub_bar = _bar_torsion(sub_lat, q)
                for rep, v in zip(reps, carried):
                    expected = sub_bar.coordinates(_bar_restrict(lat, sub, q, v))
                    restricted = _to_bar(sub_lat, q, restrict_cochain(lat, sub, q, rep))
                    assert sub_bar.coordinates(restricted) == expected, (label, q, sub.order)
                    compared[q] += 1
    assert compared[1] >= 100 and compared[2] >= 100, compared


def test_torus_invariants_match_bar_reference():
    compared = 0
    for label, datum in _data_under_test():
        if datum.group.order > 16:
            continue
        torus = character_lattices(datum).torus
        h1, sha = torus_invariants(datum)
        assert h1.factors == _reference_factors(torus, 1), label
        assert sha.factors == _bar_sha(torus, datum.effective_decomposition_set()).factors, label
        compared += 1
    assert compared >= 50


@pytest.mark.slow
def test_ono_example_matches_column_reduction_reference():
    lat = character_lattices(_ono_datum()).norm_one
    assert lat.rank == 15
    for q in (1, 2):
        assert cohomology(lat, q).group.factors == _reference_factors(lat, q), q
    assert cohomology(lat, 2).group.factors == (2,) * 6


def _checked_lattices():
    for datum in (q8_cm(), noncm_coprime_product(), cyclic_cm(6), _ono_datum()):
        lats = character_lattices(datum)
        yield lats.torus
        yield lats.norm_one
        yield trivial_lattice(datum.group, 1)


def _cocycle_defect(lat, q, vec):
    """d_q of a cochain: d_1 of the presentation in degree 1, the bar d_2 of
    its bar image in degree 2 (the presentation complex stops at d_1)."""
    if q == 1:
        return coboundary_matrix(lat, 1) @ vec
    return _bar_coboundary(lat, 2, _to_bar(lat, 2, vec))


def test_class_of_representatives_and_coboundaries():
    rng = np.random.default_rng(20261018)
    checked = 0
    for lat in _checked_lattices():
        for q in (1, 2):
            coh = cohomology(lat, q)
            d = coboundary_matrix(lat, q - 1)
            for j in range(coh.group.rank):
                rep = coh.representative(j)
                assert not _cocycle_defect(lat, q, rep).any()
                unit = [1 if i == j else 0 for i in range(coh.group.rank)]
                assert coh.class_of(rep).coords == tuple(unit)
                assert coh.class_of(3 * rep).coords == coh.group.element(
                    [3 * u for u in unit]).coords
                checked += 1
            for _ in range(3):
                x = rng.integers(-50, 50, size=d.shape[1])
                assert coh.class_of(d @ x).is_zero
            if coh.group.rank:
                x = rng.integers(-50, 50, size=d.shape[1])
                mixed = coh.representative(coh.group.rank - 1) * 5 + d @ x
                last = coh.group.factors[-1]
                assert coh.class_of(mixed).coords[-1] == 5 % last
    assert checked >= 10


def test_class_of_rejects_non_cocycles():
    rejected = 0
    for lat in _checked_lattices():
        for q in (1, 2):
            coh = cohomology(lat, q)
            dim = coboundary_matrix(lat, q - 1).shape[0]
            for start in (0, dim // 2, dim - 1):
                # a unit vector may be a cocycle (every 2-cochain of a cyclic
                # group is one): take the next one that is not
                for i in range(start, start + dim):
                    vec = np.zeros(dim, dtype=np.int64)
                    vec[i % dim] = 1
                    if _cocycle_defect(lat, q, vec).any():
                        break
                else:
                    continue
                with pytest.raises(InternalCheckError):
                    coh.class_of(vec)
                rejected += 1
            with pytest.raises(InternalCheckError):
                coh.class_of(np.zeros(dim + 1, dtype=np.int64))
    assert rejected >= 30


def test_restricted_cochains_are_cocycles_with_matching_classes():
    datum = q8_cm()
    lats = character_lattices(datum)
    for dec in datum.effective_decomposition_set():
        res, sub_coh = restriction_hom(lats.torus, 2, dec)
        parent = cohomology(lats.torus, 2)
        sub_lat = restrict_lattice(lats.torus, dec)
        for j in range(parent.group.rank):
            restricted = restrict_cochain(lats.torus, dec, 2, parent.representative(j))
            assert not _cocycle_defect(sub_lat, 2, restricted).any()
            assert sub_coh.class_of(restricted).coords == tuple(row[j] for row in res.matrix)


def test_budget_is_one_cache_key():
    # omitting the budget, passing it by position or by keyword is one call
    g = cyclic(4)
    lat = trivial_lattice(g, 1)
    first = cohomology(lat, 2)
    assert cohomology(lat, 2, DEFAULT_BUDGET) is first
    assert cohomology(lat, 2, budget=DEFAULT_BUDGET) is first
    sub = subgroup_generated(g, [2])
    first = restriction_hom(lat, 2, sub)
    assert restriction_hom(lat, 2, sub, DEFAULT_BUDGET) is first
    assert restriction_hom(lat, 2, sub, budget=DEFAULT_BUDGET) is first

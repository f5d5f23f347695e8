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
from cmtori.abelian import smith_normal_form
from cmtori.cohomology import (
    DEFAULT_BUDGET,
    CohomologyBudget,
    coboundary,
    cohomology,
    connecting_hom,
    ono_tamagawa,
    primitive_part_oracle,
    restrict_cochain,
    restriction_hom,
    sha_group,
)
from cmtori.engine import h1_torus, primitive_part, sha2, tamagawa
from cmtori.errors import BudgetExceededError, InternalCheckError
from cmtori.groups import (
    Subgroup,
    cyclic,
    direct_product,
    full_subgroup,
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
    assert cohomology(lat, 3).group.is_trivial
    g4 = cyclic(4)
    lat4 = trivial_lattice(g4, 1)
    assert cohomology(lat4, 2).group.factors == (4,)


def test_h2_trivial_coefficients_is_dual_abelianization():
    for g, expected in [(quaternion8(), (2, 2)), (cyclic(6), (6,)),
                        (cyclic(1), ())]:
        lat = trivial_lattice(g, 1)
        assert cohomology(lat, 2).group.factors == expected


def test_degree_three_periodicity():
    # cyclic cohomology has period 2: H^3 matches H^1 for both actions
    g = cyclic(2)
    assert cohomology(sign_lattice(g), 3).group.factors == (2,)
    assert cohomology(trivial_lattice(g, 1), 3).group.is_trivial
    g4 = cyclic(4)
    assert cohomology(trivial_lattice(g4, 1), 3).group.is_trivial


def test_h0_invariants():
    g = cyclic(2)
    assert cohomology(trivial_lattice(g, 3), 0).free_rank == 3
    assert cohomology(sign_lattice(g), 0).free_rank == 0
    perm, _ = permutation_lattice(g, trivial_subgroup(g))
    assert cohomology(perm, 0).free_rank == 1


def test_differential_squares_to_zero():
    for datum in (q8_cm(), cyclic_cm(4)):
        lats = character_lattices(datum)
        for q in (0, 1):
            n = lats.torus.rank * (datum.group.order - 1) ** q
            once = coboundary(lats.torus, q, np.eye(n, dtype=np.int64))
            twice = coboundary(lats.torus, q + 1, once)
            assert once.any()
            assert not twice.any()


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
    from cmtori.abelian import kernel_of_hom
    assert kernel_of_hom(res_full).group.is_trivial


def test_q8_sha2_depends_on_decomposition_set():
    base = q8_cm()
    lats = character_lattices(base)
    assert sha_group(lats.torus, 2, base.effective_decomposition_set()).factors == (2, 2)
    full = q8_cm(include_group=True)
    assert sha_group(lats.torus, 2, full.effective_decomposition_set()).is_trivial


def test_connecting_hom_matches_dual_transfer_rank():
    # the image of delta : H^1(norm-one) -> H^2(Z) has the order of the
    # dual-transfer image from the fast path
    from cmtori.abelian import image_of_hom
    from cmtori.engine import _combined_transfer
    from cmtori.abelian import dual_hom

    for datum in (imag_quadratic(), cyclic_cm(4), q8_cm(), biquadratic_field()):
        lats = character_lattices(datum)
        z = trivial_lattice(datum.group, 1)
        delta = connecting_hom((z, lats.torus, lats.norm_one),
                               lats.unit_embedding,
                               lats.torus_to_norm_one.matrix, 1)
        combined, _, _ = _combined_transfer(datum)
        dual = dual_hom(combined)
        assert image_of_hom(delta).group.order == image_of_hom(dual).group.order


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
# reference: H^q by a sparse column reduction of d_q and a Smith form of the
# image of d_(q-1) in kernel coordinates (the oracle's earlier algorithm)
# ---------------------------------------------------------------------------

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


def _lattices_under_test():
    """(label, lattice) over the corpus, the fuzz data and Ono's example."""
    from corpus import fuzz_data

    out = []
    seen = set()
    data = [(name, datum) for name, datum, _ in cm_corpus()]
    data += [(f"fuzz{i}", datum) for i, datum in enumerate(fuzz_data())]
    for name, datum in data:
        lats = character_lattices(datum)
        for kind, lat in (("torus", lats.torus), ("norm_one", lats.norm_one),
                          ("Z", trivial_lattice(datum.group, 1))):
            if lat not in seen:
                seen.add(lat)
                out.append((f"{name}/{kind}", lat))
    return out


def test_coboundary_matches_reference_columns():
    for datum in (q8_cm(), noncm_coprime_product(), biquadratic_field()):
        lats = character_lattices(datum)
        m = datum.group.order - 1
        for lat in (lats.torus, lats.norm_one):
            for q in (0, 1, 2):
                n = lat.rank * m ** q
                expected = _dense(_reference_columns(lat, q), lat.rank * m ** (q + 1))
                assert np.array_equal(coboundary(lat, q, np.eye(n, dtype=np.int64)),
                                      expected)
                vec = np.arange(n, dtype=np.int64) % 7 - 3
                assert np.array_equal(coboundary(lat, q, vec), expected @ vec)


def test_oracle_matches_column_reduction_reference():
    compared = {1: 0, 2: 0, 3: 0}
    for label, lat in _lattices_under_test():
        for q in (1, 2, 3):
            try:
                DEFAULT_BUDGET.check(lat.group.order, lat.rank, q)
            except BudgetExceededError:
                continue
            # the reference builds d_3 itself: over 600 columns it takes seconds
            if q == 3 and lat.rank * (lat.group.order - 1) ** 3 > 600:
                continue
            assert cohomology(lat, q).group.factors == _reference_factors(lat, q), (label, q)
            compared[q] += 1
    assert compared[1] >= 100 and compared[2] >= 100 and compared[3] >= 40, compared


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


def test_class_of_representatives_and_coboundaries():
    rng = np.random.default_rng(20261018)
    checked = 0
    for lat in _checked_lattices():
        m = lat.group.order - 1
        for q in (1, 2):
            coh = cohomology(lat, q)
            for j in range(coh.group.rank):
                rep = coh.representative(j)
                assert not coboundary(lat, q, rep).any()
                unit = [1 if i == j else 0 for i in range(coh.group.rank)]
                assert coh.class_of(rep).coords == tuple(unit)
                assert coh.class_of(3 * rep).coords == coh.group.element(
                    [3 * u for u in unit]).coords
                checked += 1
            for _ in range(3):
                x = rng.integers(-50, 50, size=lat.rank * m ** (q - 1))
                assert coh.class_of(coboundary(lat, q - 1, x)).is_zero
            if coh.group.rank:
                x = rng.integers(-50, 50, size=lat.rank * m ** (q - 1))
                mixed = coh.representative(coh.group.rank - 1) * 5 + coboundary(lat, q - 1, x)
                last = coh.group.factors[-1]
                assert coh.class_of(mixed).coords[-1] == 5 % last
    assert checked >= 10


def test_class_of_rejects_non_cocycles():
    rejected = 0
    for lat in _checked_lattices():
        m = lat.group.order - 1
        for q in (1, 2):
            coh = cohomology(lat, q)
            dim = lat.rank * m ** q
            for i in (0, dim // 2, dim - 1):
                vec = np.zeros(dim, dtype=np.int64)
                vec[i] = 1
                assert coboundary(lat, q, vec).any()
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
            assert not coboundary(sub_lat, 2, restricted).any()
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

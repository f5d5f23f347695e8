import numpy as np
import pytest

from cmtori.errors import DatumError, SearchRangeError
from cmtori.landau import (
    LandauPair,
    disjoint_family,
    is_landau_pair,
    is_prime_u64,
    p_from_q,
    search,
)


def sieve(limit):
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def test_prime_small_cases():
    assert is_prime_u64(2)
    assert not is_prime_u64(561)  # Carmichael
    assert is_prime_u64(999983)
    assert not is_prime_u64(0) and not is_prime_u64(1)
    for p in (53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert is_prime_u64(p)
        assert not is_prime_u64(p * p)


def test_prime_matches_sieve_dense_and_sampled():
    limit = 3 * 10 ** 5
    flags = sieve(limit)
    for n in range(limit):
        assert is_prime_u64(n) == bool(flags[n]), n
    big = sieve(10 ** 7)
    rng = np.random.default_rng(20260811)
    for n in rng.integers(10 ** 5, 10 ** 7, size=20000):
        n = int(n)
        assert is_prime_u64(n) == bool(big[n]), n


@pytest.mark.slow
def test_prime_matches_sieve_to_1e7():
    limit = 10 ** 7
    flags = sieve(limit)
    for n in range(limit):
        assert is_prime_u64(n) == bool(flags[n]), n


def test_prime_rejects_out_of_range():
    with pytest.raises(SearchRangeError):
        is_prime_u64(1 << 64)


def test_is_landau_pair():
    assert is_landau_pair(5, 181)      # 5 = 1+2^2, 181 = 1+5*36
    assert not is_landau_pair(5, 41)   # 40/5 = 8 is not a square
    assert not is_landau_pair(3, 19)   # 2 is not a square
    assert not is_landau_pair(2, 9)
    assert is_landau_pair(17, 613)
    assert p_from_q(181) == 5
    assert p_from_q(613) == 17


def test_search_small_window():
    res = search(2, 6)
    found = {(p.p, p.q) for p in res.pairs}
    assert (5, 181) in found
    assert (17, 613) in found
    for pair in res.pairs:
        assert is_landau_pair(pair.p, pair.q)
    assert res.pair_count == len(res.pairs)
    assert res.distinct_p_count == len({p.p for p in res.pairs})


def test_search_result_repr_omits_pairs():
    res = search(2, 6)
    assert res.pair_count > 0
    assert repr(res) == (
        f"SearchResult(pair_count={res.pair_count}, "
        f"distinct_p_count={res.distinct_p_count}, a_max=2, b_max=6, "
        f"elapsed_ms={res.elapsed_ms})")


def test_search_empty_range():
    res = search(0, 100)
    assert res.pair_count == 0 and res.distinct_p_count == 0


def test_search_monotone_in_bounds():
    base = search(50, 20)
    assert search(80, 20).pair_count >= base.pair_count
    assert search(50, 40).pair_count >= base.pair_count


def test_search_deterministic_across_workers():
    one = search(300, 30, workers=1)
    two = search(300, 30, workers=2)
    assert one.pairs == two.pairs
    assert one.pair_count == two.pair_count
    assert one.distinct_p_count == two.distinct_p_count


def test_search_overflow_guard():
    with pytest.raises(SearchRangeError):
        search(10 ** 9, 10 ** 2)


def test_disjoint_family():
    res = search(3, 8)
    fam = disjoint_family(res.pairs, 2)
    assert len(fam) == 2
    import math
    a, b = fam
    assert math.gcd(a.p * a.q, b.p * b.q) == 1
    only_five = [p for p in res.pairs if p.p == 5]
    with pytest.raises(DatumError):
        disjoint_family(only_five, 2)
    assert disjoint_family(res.pairs, 1)[0].p == 5


def test_certify_family_tau():
    from fractions import Fraction

    from cmtori.landau import certify_family

    res = search(5, 10)
    fam = disjoint_family(res.pairs, 2)
    report = certify_family(fam)
    assert report.product_tau == Fraction(1, 4)
    assert report.multiplicative


def test_desk_scale_regression():
    # frozen on first verified run; deterministic across runs and workers
    res = search(10 ** 4, 10 ** 2)
    assert (res.pair_count, res.distinct_p_count) == (5531, 1431)
    res2 = search(10 ** 4, 10 ** 2, workers=2)
    assert (res2.pair_count, res2.distinct_p_count) == (5531, 1431)

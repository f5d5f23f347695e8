import json
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from references import landau_csv, p_from_q, q_table_by_loop
from cmtori import cli, landau
from cmtori.errors import DatumError, SearchRangeError
from cmtori.landau import (
    LandauPair,
    disjoint_family,
    factorize,
    is_landau_pair,
    is_prime_u64,
    search,
)


def _reference_scan(a_lo, a_hi, b_max):
    """The search without sieve or certificate: Miller-Rabin on every p
    and on the q of every even b."""
    found = []
    for a in range(a_lo, a_hi):
        p = 1 + 4 * a * a
        if not is_prime_u64(p):
            continue
        # odd b gives even q, never a prime here
        for b in range(2, b_max + 1, 2):
            q = 1 + p * b * b
            if q >= 1 << 63:
                raise SearchRangeError("q left the supported range",
                                       a=a, b=b, q=q)
            if is_prime_u64(q):
                found.append((a, p, b, q))
    return found


def _rows(result):
    return tuple((pair.a, pair.p, pair.b, pair.q) for pair in result.pairs)


@lru_cache(maxsize=None)
def _reference_rows(a_max, b_max):
    return tuple(sorted(_reference_scan(1, a_max + 1, b_max), key=lambda r: (r[1], r[3])))


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


def test_search_table_is_read_only_and_gives_the_pairs():
    res = search(200, 300)
    table = res.table
    assert table.dtype == np.int64 and table.shape == (res.pair_count, 4)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    assert res.pairs == tuple(LandauPair(*row) for row in table.tolist())
    assert res.pairs is res.pairs


def test_search_empty_range():
    res = search(0, 100)
    assert res.pair_count == 0 and res.distinct_p_count == 0


def test_search_monotone_in_bounds():
    base = search(50, 20)
    assert search(80, 20).pair_count >= base.pair_count
    assert search(50, 40).pair_count >= base.pair_count


# (2000, 100): the benchmark's b range; (200, 300): three 64-bit words of
# even b; (49, 100): every a with p <= b^2 for some b; b_max 2 and 3: one b
@pytest.mark.parametrize("a_max, b_max", [(2000, 100), (200, 300), (49, 100),
                                          (40, 2), (40, 3)])
def test_search_matches_reference_scan(a_max, b_max):
    assert _rows(search(a_max, b_max)) == _reference_rows(a_max, b_max)


# the sizes above and the empty range, through the CLI on one and two workers
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("a_max, b_max", [(2000, 100), (200, 300), (49, 100),
                                          (40, 2), (40, 3), (0, 100)])
def test_cli_csv_matches_tuple_writer(a_max, b_max, workers, tmp_path, capsys):
    rows = _reference_rows(a_max, b_max)
    out = tmp_path / "pairs.csv"
    assert cli.main(["landau", "search", "--a-max", str(a_max), "--b-max", str(b_max),
                     "--threads", str(workers), "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["pair_count"], payload["distinct_p_count"]) == (
        len(rows), len({row[1] for row in rows}))
    assert out.read_bytes() == landau_csv(map(LandauPair._make, rows)).encode()


def test_search_keeps_sieving_primes_as_p_and_q():
    ells = set(landau._sieve_primes()[0])
    found = {(pair.p, pair.q) for pair in search(3, 6).pairs}
    for p, q in [(5, 181), (17, 613), (37, 149), (37, 593)]:
        assert p in ells and q in ells
        assert (p, q) in found


def _certify(qs, ps, b2s):
    """The batched certificate on Python ints, as a list of verdicts; p is
    implied by q = 1 + p b2, and checked against it."""
    assert all(q == 1 + p * b2 for q, p, b2 in zip(qs, ps, b2s))
    return landau._certify_batch(*(np.array(v, dtype=np.uint64) for v in (qs, b2s))).tolist()


def test_certificate_needs_p_above_b_squared():
    # q = 1 + 5 * 9702^2 is composite, every prime factor is 1 mod 5 and the
    # certificate accepts it; only p > b^2 makes the certificate a proof
    p, b = 5, 9702
    q = 1 + p * b * b
    assert factorize(q) == {13721: 1, 34301: 1}
    assert all(r % p == 1 for r in factorize(q))
    assert _certify([q], [p], [b * b]) == [1]
    assert _rows(search(1, b)) == _reference_rows(1, b)


def test_certificate_decides_every_q_with_p_above_b_squared():
    cases = []
    for a in range(50, 601):
        p = 1 + 4 * a * a
        if not is_prime_u64(p):
            continue
        for b in range(2, 101, 2):
            cases.append((1 + p * b * b, p, b * b))
    decided = len(cases)
    # and q just below 2^63, at the top of the supported range
    for a in range(15_000_000, 15_002_000):
        p = 1 + 4 * a * a
        if is_prime_u64(p):
            cases.extend((1 + p * b * b, p, b * b) for b in (96, 98, 100))
    assert max(q for q, _, _ in cases) > 1 << 62
    verdicts = _certify(*zip(*cases))
    for (q, p, b2), verdict in zip(cases, verdicts):
        assert verdict == is_prime_u64(q), (q, p, b2)
    assert decided > 3000


def test_certificate_needs_gcd_one():
    # 29341 = 13 * 37 * 61 is a Carmichael number prime to 2, 3, 5 and 7:
    # c^(q-1) = 1 for every base, but c^36 = 1 (mod 13), so no base decides it
    assert _certify([29341], [815], [36]) == [-1]


def _moduli():
    rng = np.random.default_rng(20261018)
    drawn = rng.integers(1, 1 << 62, size=200, dtype=np.int64)
    small = rng.integers(1, 1 << 20, size=50, dtype=np.int64)
    return [3, 5, (1 << 63) - 1, (1 << 63) - 25, (1 << 32) + 1, (1 << 32) - 1] + [
        2 * int(n) + 1 for n in np.concatenate([drawn, small])]


def _residues(seed):
    """Per modulus m, the residues 0, 1, m - 1 and a random one."""
    rng = np.random.default_rng(seed)
    return [(m, (0, 1, m - 1, int(rng.integers(0, m, dtype=np.uint64)))) for m in _moduli()]


def test_montgomery_sqrmod_matches_python_pow():
    xs, ms = zip(*[(x, m) for m, picks in _residues(9) for x in picks])
    mod = landau._montgomery(np.array(ms, dtype=np.uint64))
    assert [n * k % (1 << 64) for n, k in zip(ms, mod.inv.tolist())] == [1] * len(ms)
    assert mod.one.tolist() == [(1 << 64) % n for n in ms]
    assert [lo + (hi << 32) for lo, hi in zip(mod.m0.tolist(), mod.m1.tolist())] == list(ms)
    got = landau._mont_sqr(np.array(xs, dtype=np.uint64), mod).tolist()
    assert got == [x * x * pow(1 << 64, -1, n) % n for x, n in zip(xs, ms)]


def test_montgomery_powmod_matches_python_pow():
    rng = np.random.default_rng(8)
    es, ms = [], []
    for m in _moduli():
        for e in (0, 1, 2, m - 1, int(rng.integers(0, 1 << 62))):
            es.append(e), ms.append(m)
    mod = landau._montgomery(np.array(ms, dtype=np.uint64))
    for c in (2, 3, 5, 7, 61):
        got = landau._mont_pow_small(c, np.array(es, dtype=np.uint64), mod).tolist()
        assert got == [(pow(c, e, n) << 64) % n for e, n in zip(es, ms)], c


def test_int64_powmod_matches_python_pow_below_2_31():
    # the largest moduli _pow_mod is sound for: every product is below 2^62
    rng = np.random.default_rng(31)
    ms = [(1 << 31) - 1, (1 << 31) - 19, (1 << 31) - 2, 5, 3] + [
        int(m) for m in rng.integers((1 << 31) - 10 ** 6, 1 << 31, size=200)]
    xs, es, mods = [], [], []
    for m in ms:
        for x in (0, 1, 2, m - 1, int(rng.integers(0, m))):
            for e in (0, 1, m - 1, m - 2, (m - 1) // 4, int(rng.integers(0, 1 << 31))):
                xs.append(x), es.append(e), mods.append(m)
    x, e, m = (np.array(v, dtype=np.int64) for v in (xs, es, mods))
    assert landau._pow_mod(x, e, m).tolist() == [pow(*t) for t in zip(xs, es, mods)]
    # a small integer base, as the p-roots use it
    assert landau._pow_mod(7, e, m).tolist() == [pow(7, *t) for t in zip(es, mods)]


def test_p_roots_give_both_roots_of_every_prime():
    bound = 20000
    ells, roots, split, self_prime = landau._p_roots(bound)
    expected = [ell for ell in range(5, bound + 1, 4) if is_prime_u64(ell)]
    assert ells.tolist() == [ell for ell in expected for _ in (0, 1)]
    for ell, r, s in zip(ells[::2].tolist(), roots[::2].tolist(), roots[1::2].tolist()):
        assert 0 < r < ell and r + s == ell
        assert (4 * r * r + 1) % ell == 0 and (4 * s * s + 1) % ell == 0
    assert split == np.searchsorted(ells, landau._BLOCK)
    assert self_prime.tolist() == [r for r in roots.tolist() if is_prime_u64(1 + 4 * r * r)
                                   and 1 + 4 * r * r <= bound]


def test_q_table_matches_loop_reference():
    ells, offsets = landau._sieve_primes()
    for window in (0, 1, 2, 7, 10 ** 6):
        assert (landau._q_table(window) == q_table_by_loop(ells, offsets, window)).all()


def test_q_table_built_once_per_window():
    # five windows of 64 even b over two blocks of a, in one chunk: more
    # windows than a four-table cache holds, were it filled block by block
    assert landau._BLOCK < 9000 <= 2 * landau._BLOCK
    landau._q_table.cache_clear()
    assert _rows(search(9000, 600)) == _reference_rows(9000, 600)
    assert landau._q_table.cache_info().misses == 5


def test_p_sieve_stays_within_its_predicted_bytes():
    a = 10 ** 6
    bound = math.isqrt(1 + 4 * a * a)
    landau._p_roots.cache_clear()
    tracemalloc.start()
    try:
        landau._sieve_p(a - landau._BLOCK, a, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= landau._sieve_bytes(bound)


def _sieve_p_matches_primality(starts, hi_max):
    bound = math.isqrt(1 + 4 * (hi_max - 1) ** 2)
    for lo in starts:
        hi = min(lo + landau._BLOCK, hi_max)
        expected = [a for a in range(lo, hi) if is_prime_u64(1 + 4 * a * a)]
        assert landau._sieve_p(lo, hi, bound).tolist() == expected, lo


def test_p_sieve_is_complete():
    # blocks from a = 1 and blocks straddling those boundaries; p = 5, 17,
    # 37, ... are sieving primes themselves and must survive
    _sieve_p_matches_primality(range(1, 20001, landau._BLOCK), 20001)
    _sieve_p_matches_primality(range(landau._BLOCK // 2, 20001, landau._BLOCK), 20001)
    _sieve_p_matches_primality([10 ** 6 - landau._BLOCK // 2], 10 ** 6 + landau._BLOCK // 2)


def test_search_deterministic_across_workers():
    one = search(300, 30, workers=1)
    two = search(300, 30, workers=2)
    assert one.pairs == two.pairs
    assert one.pair_count == two.pair_count
    assert one.distinct_p_count == two.distinct_p_count


def test_search_with_several_words_deterministic_across_workers():
    assert search(200, 300, workers=2).pairs == search(200, 300, workers=1).pairs


def test_search_rejects_worker_count_below_one():
    for workers in (0, -3):
        with pytest.raises(DatumError):
            search(10, 10, workers=workers)


def test_search_clamps_worker_count_to_cpus(monkeypatch):
    requested = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(landau, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(landau.os, "cpu_count", lambda: 2)
    res = search(300, 30, workers=10 ** 6)
    assert requested == [2]
    assert res.pairs == search(300, 30, workers=1).pairs


def test_search_overflow_guard():
    with pytest.raises(SearchRangeError):
        search(10 ** 9, 10 ** 2)


def test_disjoint_family():
    res = search(3, 8)
    fam = disjoint_family(res.pairs, 2)
    assert len(fam) == 2
    a, b = fam
    assert math.gcd(a.p * a.q, b.p * b.q) == 1
    only_five = [p for p in res.pairs if p.p == 5]
    with pytest.raises(DatumError):
        disjoint_family(only_five, 2)
    assert disjoint_family(res.pairs, 1)[0].p == 5


def test_certify_family_tau():
    from fractions import Fraction

    from cmtori.constructors import certify_family

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

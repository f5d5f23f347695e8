"""High-throughput search for Landau pairs of primes.

A Landau pair is a pair of odd primes (p, q) with p = 1 + a^2 and
q = 1 + p b^2; the search enumerates p = 1 + 4a^2 (only even squares can
give an odd p) and then probes q over the even b (odd b give even q).
Two pairs are disjoint exactly when their p differ, because p is
recovered from q as the squarefree part of q - 1.  The module also holds
a deterministic 64-bit Miller-Rabin test and the factorization built on
it.

The search sieves before it tests, with no Python loop per candidate.
It walks a in blocks of ``_BLOCK`` values.

- p-stage: a complete numpy residue sieve.  An odd prime l divides
  p = 1 + 4a^2 exactly when l = 1 (mod 4) and a = +-i/2 (mod l), where
  i^2 = -1 (mod l): -1 = (2a)^2 must be a square mod l.  Each block is
  struck by every such l up to isqrt(1 + 4 (a_hi - 1)^2) of its chunk,
  by slices for l below the block length and by one fancy-indexed
  strike for the larger l, which hit a block at most once per root.  A p
  that is itself such an l (p = 5, 17, 37, ...) is re-admitted.  Proof
  that a survivor p is prime: a composite p has a prime factor
  l <= sqrt(p) <= the bound, l != p, so some root of l strikes it; and
  a prime p is struck only by l = p, which re-admits it.  The roots are
  computed once per bound, as c^((l-1)/4) for the least non-residue c.
- q-stage sieve: one table per odd prime l below ``_SIEVE_BOUND``,
  indexed by p mod l, whose bit i is set when l | 1 + p b^2 for the
  i-th even b of a window of 64.  The OR of the tables over all l marks
  the b whose q certainly has a factor l; ``np.unpackbits`` turns the
  rest into (p, b) candidate arrays.  A q below ``_SIEVE_BOUND`` may be a
  sieving prime itself, so it bypasses the sieve.
- q-stage proof: a surviving q with p > b^2 and q >= ``_SIEVE_BOUND`` is
  decided by Pocklington's criterion (Brillhart, Lehmer and Selfridge,
  Math. Comp. 29, 1975), for the bases c = 2, 3, 5, 7 in turn, on the
  whole window at once.  If c^(q-1) != 1 (mod q), q is composite
  (Fermat).  If c^(q-1) = 1 and gcd(c^(b^2) - 1, q) = 1, then q is
  prime.  Proof: let r be a prime factor of q.  The order of c mod r
  divides q - 1 = p b^2 but not b^2, and p is prime, so p divides the
  order, which divides r - 1: every prime factor r of q has
  r = 1 (mod p), so r > p.  And p > b^2 gives p^2 > p b^2 = q - 1, so
  p >= sqrt(q).  Hence every prime factor of q exceeds sqrt(q), and q is
  prime.  A q that no base decides, and every q with p <= b^2 or
  q < ``_SIEVE_BOUND``, goes to ``is_prime_u64``.
- Arithmetic: the powers mod q are Montgomery products (Math. Comp. 44,
  1985) in uint64, with the high word of each 64 x 64 -> 128-bit product
  built from 32-bit limbs.  This is exact for every odd modulus below
  2^63, which ``search`` guarantees for q.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DatumError, SearchRangeError

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

U64_LIMIT = 1 << 64
_SIGNED_LIMIT = 1 << 63

# the odd primes below this bound sieve q (see the module docstring)
_SIEVE_BOUND = 1024
# values of a per block, so a block's numpy arrays stay a few tens of KiB
_BLOCK = 4096
_CERTIFY_BASES = (2, 3, 5, 7)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin below 2^64.

    Trial division by the primes up to 97, then strong tests against the
    proven witness tiers ending in {2,...,37}, which certifies every
    64-bit integer.
    """
    if n >= U64_LIMIT:
        raise SearchRangeError("primality input exceeds 64 bits", n=n)
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 9409:  # 97^2
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < 3215031751:
        witnesses = (2, 3, 5, 7)
    elif n < 3474749660383:
        witnesses = (2, 3, 5, 7, 11, 13)
    elif n < 341550071728321:
        witnesses = (2, 3, 5, 7, 11, 13, 17)
    elif n < 3825123056546413051:
        witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    else:
        witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def square_part_root(n: int):
    """a with n = a^2, or None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_landau_pair(p: int, q: int) -> bool:
    """Both odd primes, p - 1 a square and (q - 1)/p a square."""
    if p < 3 or q < 3 or p % 2 == 0 or q % 2 == 0:
        return False
    if square_part_root(p - 1) is None:
        return False
    if (q - 1) % p != 0 or square_part_root((q - 1) // p) is None:
        return False
    return is_prime_u64(p) and is_prime_u64(q)


def factorize(n: int) -> dict[int, int]:
    """Prime-power factorization by trial division then Brent's rho walk."""
    if n < 1 or n >= _SIGNED_LIMIT:
        raise DatumError("factorization supports 1 <= n < 2^63", n=n)
    out: dict[int, int] = {}

    def record(p):
        out[p] = out.get(p, 0) + 1

    for p in (2, 3, 5):
        while n % p == 0:
            record(p)
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while d * d <= n and d < 10 ** 6:
        while n % d == 0:
            record(d)
            n //= d
        d += wheel[w]
        w = (w + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime_u64(m):
            record(m)
            continue
        stack.extend(_brent_rho_split(m))
    return dict(sorted(out.items()))


def _brent_rho_split(n: int):
    """One nontrivial factorization n = a * b of an odd composite."""
    if n % 2 == 0:
        return [2, n // 2]
    c = 1
    while True:
        x = 2
        y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return [d, n // d]
        c += 1


class LandauPair(NamedTuple):
    """One row of the search, p = 1 + 4a^2 and q = 1 + p b^2."""

    a: int
    p: int
    b: int
    q: int


@dataclass(frozen=True)
class SearchResult:
    pairs: tuple[LandauPair, ...]
    pair_count: int
    distinct_p_count: int
    a_max: int
    b_max: int
    elapsed_ms: int

    def __repr__(self):
        # the pair list runs to hundreds of thousands of entries at full scale
        return (f"SearchResult(pair_count={self.pair_count}, "
                f"distinct_p_count={self.distinct_p_count}, a_max={self.a_max}, "
                f"b_max={self.b_max}, elapsed_ms={self.elapsed_ms})")


def _primes_upto(n):
    """The primes up to n, by Eratosthenes' sieve."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for k in range(2, math.isqrt(n) + 1):
        if prime[k]:
            prime[k * k::k] = False
    return np.flatnonzero(prime)


@lru_cache(maxsize=1)
def _sieve_primes():
    """The odd primes l below ``_SIEVE_BOUND`` and the first row of each l
    in a q table."""
    ells = _primes_upto(_SIEVE_BOUND - 1)[1:].tolist()
    return ells, np.cumsum([0] + ells[:-1]).tolist()


# a table takes 8 bytes a row over the sum of the sieving primes (626 KiB
# at 1024); four cover b <= 512, and a wider b range rebuilds them per block
@lru_cache(maxsize=4)
def _q_table(window):
    """Row offset(l) + (p mod l), bit i: l | 1 + p b^2 for b = 128 window + 2i + 2."""
    ells, offsets = _sieve_primes()
    rows, bits = [], []
    for ell, offset in zip(ells, offsets):
        for i in range(64):
            b = 128 * window + 2 * i + 2
            if b % ell:
                # l | 1 + p b^2 exactly when p = -1/b^2 (mod l)
                rows.append(offset + pow(-b * b, -1, ell))
                bits.append(1 << i)
    table = np.zeros(offsets[-1] + ells[-1], dtype=np.uint64)
    np.bitwise_or.at(table, rows, np.array(bits, dtype=np.uint64))
    table.flags.writeable = False
    return table


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhi(x, y):
    """The high words of the 128-bit products x y of uint64 arrays, from
    32-bit limbs (every partial sum fits in 64 bits)."""
    x0, x1 = x & _LOW32, x >> _SHIFT32
    y0, y1 = y & _LOW32, y >> _SHIFT32
    mid = x1 * y0 + (x0 * y0 >> _SHIFT32)
    low = x0 * y1 + (mid & _LOW32)
    return x1 * y1 + (mid >> _SHIFT32) + (low >> _SHIFT32)


def _montgomery(m):
    """(-1/m mod 2^64 and 2^64 mod m) for an array of odd m < 2^63:
    the constants of ``_mont_mul``, and 1 in Montgomery form."""
    inv = m.copy()  # m m = 1 (mod 8); each Newton step doubles the bits
    for _ in range(5):
        inv *= np.uint64(2) - m * inv
    return np.uint64(0) - inv, (np.uint64(0) - m) % m


def _mont_mul(x, y, m, neg_inv):
    """x y / 2^64 mod m for x, y < m, elementwise (Montgomery's reduction,
    Math. Comp. 44, 1985): for k = (x y mod 2^64) neg_inv the low words
    of x y and k m sum to 0 or 2^64, so (x y + k m) / 2^64 is the sum of
    the high words plus that carry, and it is below 2m."""
    low = x * y
    t = _mulhi(x, y) + _mulhi(low * neg_inv, m) + (low != 0)
    return t - m * (t >= m)


def _mont_pow(x, e, m, neg_inv, one):
    """x^e in Montgomery form for x in Montgomery form and exponents e,
    elementwise, left to right over the bits of the largest e."""
    out = one
    for k in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
        out = _mont_mul(out, out, m, neg_inv)
        bit = (e >> np.uint64(k) & np.uint64(1)).astype(bool)
        out = np.where(bit, _mont_mul(out, x, m, neg_inv), out)
    return out


@lru_cache(maxsize=1)
def _p_roots(bound):
    """The primes l = 1 (mod 4) up to ``bound``, once for each root r of
    4 r^2 + 1 = 0 (mod l), with those roots; the index of the first
    l >= ``_BLOCK``; and the a with 1 + 4a^2 a prime up to ``bound``."""
    ells = _primes_upto(bound)
    ells = ells[ells % 4 == 1]
    half = np.zeros(len(ells), dtype=np.uint64)
    todo = np.arange(len(ells))
    m = ells.astype(np.uint64)
    neg_inv, one = _montgomery(m)
    c = one
    while len(todo):
        # i = c^((l-1)/4) has i^2 = -1 (mod l) exactly when c is a non-residue
        c = c + one
        c -= m * (c >= m)
        i = _mont_pow(c, m >> np.uint64(2), m, neg_inv, one)
        hit = _mont_mul(i, i, m, neg_inv) == m - one
        # i (l + 1)/2 / 2^64 = i/2 (mod l), out of Montgomery form
        half[todo[hit]] = _mont_mul(i[hit], (m[hit] + np.uint64(1)) >> np.uint64(1),
                                    m[hit], neg_inv[hit])
        todo, m, neg_inv, one, c = (v[~hit] for v in (todo, m, neg_inv, one, c))
    half = half.astype(np.int64)
    ells, roots = np.repeat(ells, 2), np.stack([half, ells - half], axis=1).ravel()
    # the a = r whose p is l itself; r < l < 2^31, so a wrapped 4r^2 + 1 never equals l
    self_prime = roots[4 * roots * roots + 1 == ells]
    for array in (ells, roots, self_prime):
        array.flags.writeable = False  # shared through the cache
    return ells, roots, np.searchsorted(ells, _BLOCK), self_prime


def _sieve_p(lo, hi, bound):
    """The a in [lo, hi) with p = 1 + 4a^2 prime, for hi - lo <= ``_BLOCK``
    and a ``bound`` of at least isqrt(1 + 4 (hi - 1)^2): the a that no
    prime l <= bound strikes, and those whose p is itself such an l."""
    ells, roots, split, self_prime = _p_roots(bound)
    alive = np.ones(hi - lo, dtype=bool)
    first = (roots - lo) % ells
    for ell, start in zip(ells[:split].tolist(), first[:split].tolist()):
        alive[start::ell] = False
    alive[first[split:][first[split:] < hi - lo]] = False
    alive[self_prime[(lo <= self_prime) & (self_prime < hi)] - lo] = True
    return np.flatnonzero(alive) + lo


def _sieve_q(p, window, width):
    """The candidates (row, b) of a window, b = 128 window + 2, ...,
    128 window + 2 width, in the order of row, then b: every
    q = 1 + p[row] b^2 that no sieving prime divides, and every q below
    ``_SIEVE_BOUND``."""
    ells, offsets = _sieve_primes()
    table = _q_table(window)
    struck = np.zeros(len(p), dtype=np.uint64)
    for ell, offset in zip(ells, offsets):
        struck |= table[offset + p % ell]
    struck = np.unpackbits(struck.astype("<u8").view(np.uint8), bitorder="little")
    struck = struck.reshape(len(p), 64)[:, :width].astype(bool)
    b = 128 * window + 2 + 2 * np.arange(width)
    if window == 0:
        # a q below the bound may be a sieving prime itself
        struck &= 1 + p[:, None] * b * b >= _SIEVE_BOUND
    rows, cols = np.nonzero(~struck)
    return rows, b[cols]


def _certify_batch(q, p, b2):
    """Per q = 1 + p b2 (uint64 arrays, odd q < 2^63): 1 if q is proved
    prime, 0 if proved composite, -1 if undecided.  Sound only for a
    prime p > b2."""
    verdict = np.full(len(q), -1, dtype=np.int8)
    todo = np.arange(len(q))
    neg_inv, one = _montgomery(q)
    c, last = one, 1
    for base in _CERTIFY_BASES:
        for _ in range(base - last):  # c = base 2^64 mod q
            c = c + one
            c -= q * (c >= q)
        last = base
        x = _mont_pow(c, b2, q, neg_inv, one)
        fermat = _mont_pow(x, p, q, neg_inv, one) != one
        coprime = np.gcd((x + q - one) % q, q) == 1
        verdict[todo[fermat]] = 0
        verdict[todo[~fermat & coprime]] = 1
        keep = ~fermat & ~coprime
        todo, q, p, b2, neg_inv, one, c = (
            v[keep] for v in (todo, q, p, b2, neg_inv, one, c))
    return verdict


def _scan_chunk(args):
    """The pairs (a, p, b, q) with a_lo <= a < a_hi and even b <= b_max,
    block by block of a, then window by window of 64 even b."""
    a_lo, a_hi, b_max = args
    found = []
    half = b_max // 2  # the number of even b
    bound = math.isqrt(1 + 4 * (a_hi - 1) ** 2)
    for lo in range(a_lo, a_hi, _BLOCK):
        a = _sieve_p(lo, min(lo + _BLOCK, a_hi), bound)
        p = 1 + 4 * a * a
        a_list, p_list = a.tolist(), p.tolist()
        for window in range((half + 63) // 64):
            rows, b = _sieve_q(p, window, min(64, half - 64 * window))
            pr, b2 = p[rows], b * b
            q = 1 + pr * b2
            verdict = np.full(len(q), -1, dtype=np.int8)
            sure = (pr > b2) & (q >= _SIEVE_BOUND)
            verdict[sure] = _certify_batch(*(v[sure].astype(np.uint64) for v in (q, pr, b2)))
            for k in np.flatnonzero(verdict < 0).tolist():
                verdict[k] = is_prime_u64(int(q[k]))
            keep = verdict == 1
            # the rows of one p share its int objects, as the tuples are kept
            rows = rows[keep].tolist()
            found.extend(zip(map(a_list.__getitem__, rows), map(p_list.__getitem__, rows),
                             b[keep].tolist(), q[keep].tolist()))
    return found


def search(a_max: int, b_max: int, workers: int = 1) -> SearchResult:
    """Enumerate Landau pairs with p = 1 + 4a^2, a <= a_max, b <= b_max.

    The output ordering (by (p, q)) and both counts are independent of
    the worker count, which is clamped to the number of CPUs.
    """
    if a_max < 0 or b_max < 0:
        raise DatumError("search bounds must be nonnegative")
    if workers < 1:
        raise DatumError("worker count must be at least 1", workers=workers)
    workers = min(workers, os.cpu_count() or 1)
    top_q = 1 + (1 + 4 * a_max * a_max) * b_max * b_max
    if top_q >= _SIGNED_LIMIT:
        raise SearchRangeError("search range overflows 63-bit q values",
                               max_q=top_q)
    start = time.monotonic()
    rows = []
    if a_max >= 1 and b_max >= 2:
        if workers == 1:
            rows = _scan_chunk((1, a_max + 1, b_max))
        else:
            chunk = max(1, (a_max + workers * 4 - 1) // (workers * 4))
            tasks = [(lo, min(lo + chunk, a_max + 1), b_max)
                     for lo in range(1, a_max + 1, chunk)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_scan_chunk, tasks):
                    rows.extend(part)
    rows.sort(key=lambda r: (r[1], r[3]))
    pairs = tuple(map(LandauPair._make, rows))
    distinct = len({r[1] for r in rows})
    elapsed = int((time.monotonic() - start) * 1000)
    return SearchResult(pairs, len(pairs), distinct, a_max, b_max, elapsed)


def disjoint_family(pairs, r: int):
    """r pairwise-disjoint pairs (distinct p), greedily by (p, q) order."""
    if r < 0:
        raise DatumError("family size must be nonnegative")
    chosen = []
    seen_p = set()
    for pair in sorted(pairs, key=lambda x: (x.p, x.q)):
        if pair.p in seen_p:
            continue
        seen_p.add(pair.p)
        chosen.append(pair)
        if len(chosen) == r:
            break
    if len(chosen) < r:
        raise DatumError("not enough disjoint pairs available",
                         requested=r, achievable=len(chosen))
    return tuple(chosen)

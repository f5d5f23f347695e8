"""High-throughput search for Landau pairs of primes.

A Landau pair is a pair of odd primes (p, q) with p = 1 + a^2 and
q = 1 + p b^2; the search enumerates p = 1 + 4a^2 (only even squares can
give an odd p) and then probes q over the even b (odd b give even q).
Two pairs are disjoint exactly when their p differ, because p is
recovered from q as the squarefree part of q - 1.  The module also holds
the 64-bit factorization built on the same Miller-Rabin test.

The search sieves before it tests.  It walks a in blocks of ``_BLOCK``
values, sieving by the odd primes l below ``_SIEVE_BOUND``.

- p-stage: a numpy residue sieve strikes every a with l | 1 + 4a^2; only
  l = 1 (mod 4) can divide, since -1 = (2a)^2 is then a square mod l.
  The survivors go to ``is_prime_u64``.
- q-stage sieve: one table per l, indexed by p mod l, whose bit i is set
  when l | 1 + p b^2 for the i-th even b of a window of 64.  The OR of
  the tables over all l marks the b whose q certainly has a factor l.
- A p or q below ``_SIEVE_BOUND`` may be a sieving prime itself, so it
  bypasses the sieve and goes to ``is_prime_u64``.
- q-stage proof: a surviving q with p > b^2 is decided by Pocklington's
  criterion (Brillhart, Lehmer and Selfridge, Math. Comp. 29, 1975), for
  the bases c = 2, 3, 5, 7 in turn.  If c^(q-1) != 1 (mod q), q is
  composite (Fermat).  If c^(q-1) = 1 and gcd(c^(b^2) - 1, q) = 1, then q
  is prime.  Proof: let r be a prime factor of q.  The order of c mod r
  divides q - 1 = p b^2 but not b^2, and p is prime, so p divides the
  order, which divides r - 1: every prime factor r of q has
  r = 1 (mod p), so r > p.  And p > b^2 gives p^2 > p b^2 = q - 1, so
  p >= sqrt(q).  Hence every prime factor of q exceeds sqrt(q), and q is
  prime.  A q that no base decides, and every q with p <= b^2, goes to
  ``is_prime_u64``.
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

# the odd primes below this bound sieve p and q (see the module docstring)
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


def p_from_q(q: int) -> int:
    """The p of a Landau pair is the squarefree part of q - 1."""
    return squarefree_part(q - 1)


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


def squarefree_part(n: int) -> int:
    part = 1
    for p, e in factorize(n).items():
        if e % 2:
            part *= p
    return part


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


@lru_cache(maxsize=1)
def _sieve_primes():
    """The odd primes l below ``_SIEVE_BOUND``, the first row of each l in
    a q table, and the pairs (l, r) with l | 1 + 4a^2 exactly when one of
    the r for l has a = r (mod l)."""
    ells = [n for n in range(3, _SIEVE_BOUND, 2)
            if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
    offsets = np.cumsum([0] + ells[:-1]).tolist()
    p_roots = [(ell, r) for ell in ells if ell % 4 == 1
               for r in np.flatnonzero((4 * np.arange(ell) ** 2 + 1) % ell == 0).tolist()]
    return ells, offsets, p_roots


# a table takes 8 bytes a row over the sum of the sieving primes (626 KiB
# at 1024); four cover b <= 512, and a wider b range rebuilds them per block
@lru_cache(maxsize=4)
def _q_table(window):
    """Row offset(l) + (p mod l), bit i: l | 1 + p b^2 for b = 128 window + 2i + 2."""
    ells, offsets, _ = _sieve_primes()
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


def _sieve_p(lo, hi):
    """The a in [lo, hi) for which no sieving prime l < p divides p = 1 + 4a^2."""
    _, _, p_roots = _sieve_primes()
    alive = np.ones(hi - lo, dtype=bool)
    for ell, r in p_roots:
        alive[(r - lo) % ell::ell] = False
    small = math.isqrt((_SIEVE_BOUND - 2) // 4)  # the last a with p < _SIEVE_BOUND
    alive[:max(0, small - lo + 1)] = True
    return (np.flatnonzero(alive) + lo).tolist()


def _sieve_q(ps, window):
    """For each p, the bits i of the window with a sieving prime dividing
    1 + p b^2, b = 128 window + 2i + 2."""
    ells, offsets, _ = _sieve_primes()
    table = _q_table(window)
    ps = np.array(ps, dtype=np.int64)
    mask = np.zeros(len(ps), dtype=np.uint64)
    for ell, offset in zip(ells, offsets):
        mask |= table[offset + ps % ell]
    return mask.tolist()


def _certify(q, p, b2):
    """True if q = 1 + p b2 is proved prime, False if proved composite,
    None if undecided.  Sound only for a prime p > b2."""
    for c in _CERTIFY_BASES:
        x = pow(c, b2, q)
        if pow(x, p, q) != 1:
            return False
        if math.gcd(x - 1, q) == 1:
            return True
    return None


def _scan_chunk(args):
    """The pairs (a, p, b, q) with a_lo <= a < a_hi and even b <= b_max,
    block by block of a, then window by window of 64 even b."""
    a_lo, a_hi, b_max = args
    found = []
    half = b_max // 2  # the number of even b
    for lo in range(a_lo, a_hi, _BLOCK):
        primes = [(a, p) for a in _sieve_p(lo, min(lo + _BLOCK, a_hi))
                  if is_prime_u64(p := 1 + 4 * a * a)]
        ps = [p for _, p in primes]
        for window in range((half + 63) // 64):
            every = (1 << min(64, half - 64 * window)) - 1
            masks = _sieve_q(ps, window)
            for (a, p), mask in zip(primes, masks):
                bits = every & ~mask
                if window == 0:
                    b = 2
                    while 1 + p * b * b < _SIEVE_BOUND:
                        bits |= (1 << (b // 2 - 1)) & every
                        b += 2
                while bits:
                    low = bits & -bits
                    bits ^= low
                    b = 128 * window + 2 * low.bit_length()
                    b2 = b * b
                    q = 1 + p * b2
                    if q < _SIEVE_BOUND or p <= b2:
                        prime = is_prime_u64(q)
                    else:
                        prime = _certify(q, p, b2)
                        if prime is None:
                            prime = is_prime_u64(q)
                    if prime:
                        found.append((a, p, b, q))
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

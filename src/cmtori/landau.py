"""High-throughput search for Landau pairs of primes.

A Landau pair is a pair of odd primes (p, q) with p = 1 + a^2 and
q = 1 + p b^2; the search enumerates p = 1 + 4a^2 (only even squares can
give an odd p) and then probes q over the b range.  Two pairs are
disjoint exactly when their p differ, because p is recovered from q as
the squarefree part of q - 1.  The module also holds the 64-bit
factorization built on the same Miller-Rabin test.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import DatumError, SearchRangeError

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

U64_LIMIT = 1 << 64
_SIGNED_LIMIT = 1 << 63


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
    from .constructors import squarefree_part

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

@dataclass(frozen=True)
class LandauPair:
    a: int
    p: int
    b: int
    q: int

    def __post_init__(self):
        if self.p != 1 + 4 * self.a * self.a or self.q != 1 + self.p * self.b * self.b:
            raise DatumError("pair fields are inconsistent")


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


def _scan_chunk(args):
    a_lo, a_hi, b_max = args
    found = []
    for a in range(a_lo, a_hi):
        p = 1 + 4 * a * a
        if not is_prime_u64(p):
            continue
        # odd b gives even q, never a prime here
        for b in range(2, b_max + 1, 2):
            q = 1 + p * b * b
            if q >= _SIGNED_LIMIT:
                raise SearchRangeError("q left the supported range",
                                       a=a, b=b, q=q)
            if is_prime_u64(q):
                found.append((a, p, b, q))
    return found


def search(a_max: int, b_max: int, workers: int = 1) -> SearchResult:
    """Enumerate Landau pairs with p = 1 + 4a^2, a <= a_max, b <= b_max.

    The output ordering (by (p, q)) and both counts are independent of
    the worker count.
    """
    if a_max < 0 or b_max < 0:
        raise DatumError("search bounds must be nonnegative")
    top_q = 1 + (1 + 4 * a_max * a_max) * b_max * b_max
    if top_q >= _SIGNED_LIMIT:
        raise SearchRangeError("search range overflows 63-bit q values",
                               max_q=top_q)
    start = time.monotonic()
    rows = []
    if a_max >= 1:
        if workers <= 1:
            rows = _scan_chunk((1, a_max + 1, b_max))
        else:
            chunk = max(1, (a_max + workers * 4 - 1) // (workers * 4))
            tasks = [(lo, min(lo + chunk, a_max + 1), b_max)
                     for lo in range(1, a_max + 1, chunk)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_scan_chunk, tasks):
                    rows.extend(part)
    rows.sort(key=lambda r: (r[1], r[3]))
    pairs = tuple(LandauPair(*r) for r in rows)
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


def certify_family(family):
    """Product report for the quaternion data of a disjoint family."""
    from .constructors import q8_landau
    from .engine import product_tamagawa

    data = [q8_landau(pair.p, pair.q).datum for pair in family]
    return product_tamagawa(data)

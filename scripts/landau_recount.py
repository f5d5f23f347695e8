"""Recount Landau pairs without using cmtori.

Enumerates p = 1 + 4a^2 (1 <= a <= a_max) and q = 1 + p b^2 for every
1 <= b <= b_max (100 by default), odd b included, testing both with
``sympy.isprime``.
Prints the pair count, the distinct-p count and a SHA-256 digest of the
sorted ``"a b"`` lines, so the result can be compared with
``cmtori.landau.search`` without sharing any of its code.

    python scripts/landau_recount.py --a-max 1000000
    python scripts/landau_recount.py --a-max 2000 --b-max 300

At the full scale it prints

    pairs=256617 distinct_p=86406
    sha256=7aaab40f285c91a088e591d2487225d94a86e0d40fecf07549087600c181b82d

and at ``--a-max 10000`` it gives the desk gate, 5531 pairs over 1431
distinct p.  ``tests/test_acceptance.py`` and ``tests/test_scripts.py``
reuse ``landau_pairs`` for their sampled cross-checks of the search.
"""

import argparse
import functools
import hashlib
from multiprocessing import Pool

from sympy import isprime

B_MAX = 100


def landau_pairs(a_values, b_max=B_MAX):
    """Every (a, b) with a in a_values, 1 <= b <= b_max, p and q prime."""
    rows = []
    for a in a_values:
        p = 1 + 4 * a * a
        if isprime(p):
            rows.extend((a, b) for b in range(1, b_max + 1)
                        if isprime(1 + p * b * b))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a-max", type=int, default=10 ** 6)
    parser.add_argument("--b-max", type=int, default=B_MAX)
    args = parser.parse_args()
    a_max = args.a_max
    step = 10 ** 4
    chunks = [range(lo, min(lo + step, a_max + 1))
              for lo in range(1, a_max + 1, step)]
    with Pool() as pool:
        parts = pool.map(functools.partial(landau_pairs, b_max=args.b_max), chunks)
    rows = sorted(r for part in parts for r in part)
    digest = hashlib.sha256("".join(f"{a} {b}\n" for a, b in rows).encode())
    print(f"pairs={len(rows)} distinct_p={len({a for a, _ in rows})}\n"
          f"sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()

"""Seeded inputs for the four workloads, built without cmtori.

Groups are written out as explicit Cayley tables with this module's own
element labels, so a datum file says exactly which group and subgroups
it means.  Landau pairs and composite Q values are chosen with sympy.
"""

from __future__ import annotations

import math
import random

from sympy import isprime, legendre_symbol, primefactors, totient

LANDAU_A_MAX = 100_000
LANDAU_B_MAX = 100
SWEEP_CYCLOTOMIC_MAX_G = 48
SWEEP_CYCLOTOMIC = 20
SWEEP_COMPOSITE_Q8 = 125
SWEEP_LANDAU_Q8 = 55


# ---------------------------------------------------------------------------
# small explicit groups: (order, mul) with elements 0..order-1, identity 0
# ---------------------------------------------------------------------------

def cyclic(n):
    return n, lambda a, b: (a + b) % n


def product(g, h):
    """Direct product; (x, y) is labelled x * |h| + y."""
    (m, gm), (n, hm) = g, h
    return m * n, lambda a, b: gm(a // n, b // n) * n + hm(a % n, b % n)


def dihedral(n):
    """Order 2n: k < n is r^k, n + k is r^k s, with s r = r^-1 s."""
    def mul(a, b):
        ka, sa = a % n, a >= n
        kb, sb = b % n, b >= n
        k = (ka - kb) % n if sa else (ka + kb) % n
        return k + n * (sa != sb)
    return 2 * n, mul


def quaternion8():
    """1, i, j, k, -1, -i, -j, -k as 0..7."""
    unit = {(0, 0): (0, 0), (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
            (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
            (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2)}

    def mul(a, b):
        sa, ua = divmod(a, 4)
        sb, ub = divmod(b, 4)
        if ua == 0 or ub == 0:
            sign, u = 0, ua + ub
        else:
            sign, u = unit[(ua, ub)]
        return 4 * ((sa + sb + sign) % 2) + u
    return 8, mul


def table(g):
    n, mul = g
    return [[mul(a, b) for b in range(n)] for a in range(n)]


def closure(g, gens):
    n, mul = g
    elems = {0} | set(gens)
    while True:
        new = {mul(a, b) for a in elems for b in elems} - elems
        if not new:
            return sorted(elems)
        elems |= new


def datum(g, pairs, iota=None, decomposition_groups=(), declared_complete=False):
    """Datum JSON: pairs are (H generators, Ntilde generators)."""
    payload = {
        "group": {"order": g[0], "table": table(g)},
        "pairs": [{"H": closure(g, h), "Ntilde": closure(g, nt)} for h, nt in pairs],
        "declared_complete": declared_complete,
    }
    if iota is not None:
        payload["iota"] = iota
    if decomposition_groups:
        payload["decomposition_groups"] = [closure(g, d) for d in decomposition_groups]
    return payload


# ---------------------------------------------------------------------------
# the 14-datum CM corpus and Ono's example
# ---------------------------------------------------------------------------

def cm_corpus():
    """(name, datum JSON) for the oracle workload."""
    c2, c4 = cyclic(2), cyclic(4)
    klein = product(c2, c2)               # (x, y) -> 2x + y
    c4c2 = product(c4, c2)                # (x, y) -> 2x + y
    c3c2 = product(cyclic(3), c2)         # (x, y) -> 2x + y
    c4c4 = product(c4, c4)                # (x, y) -> 4x + y
    d4 = dihedral(4)                      # r^2 = 2, s = 4
    q8 = quaternion8()                    # -1 = 4
    return [
        ("imag_quadratic", datum(c2, [([], [1])], iota=1)),
        ("imag_quadratic_double", datum(c2, [([], [1]), ([], [1])], iota=1)),
        ("two_distinct_imag_quadratics",
         datum(klein, [([1], [1, 2]), ([2], [1, 2])], iota=3)),
        ("biquadratic_field", datum(klein, [([], [3])], iota=3)),
        ("cyclic4_cm", datum(c4, [([], [2])], iota=2)),
        ("cyclic6_cm", datum(cyclic(6), [([], [3])], iota=3)),
        ("q8_cm", datum(q8, [([], [4])], iota=4)),
        ("q8_cm_full", datum(q8, [([], [4])], iota=4, decomposition_groups=[[1, 2]])),
        ("d4_cm", datum(d4, [([], [2])], iota=2)),
        ("nongalois_quartic_cm", datum(d4, [([4], [4, 2])], iota=2)),
        ("mixed_octic_quartic_cm", datum(d4, [([], [2]), ([4], [4, 2])], iota=2)),
        ("z4xz2_product", datum(c4c2, [([1], [4, 1]), ([2], [1, 2])], iota=5)),
        ("noncm_coprime_product", datum(c3c2, [([1], [1, 2]), ([2], [1, 2])])),
        ("z4xz4_product", datum(c4c4, [([1], [8, 1]), ([4], [4, 2])], iota=10)),
    ]


def ono_example():
    """Ono's (Z/2)^4 norm-one torus: one pair (trivial, whole group)."""
    g = product(product(cyclic(2), cyclic(2)), product(cyclic(2), cyclic(2)))
    return datum(g, [([], [1, 2, 4, 8])])


# ---------------------------------------------------------------------------
# quaternion data from (P, Q)
# ---------------------------------------------------------------------------

def q8_tau(p_value, q_value):
    """1/2 when (P/q) = +1 for every prime q | Q, else 2, as (num, den)."""
    if all(legendre_symbol(p_value % q, q) == 1 for q in primefactors(q_value)):
        return (1, 2)
    return (2, 1)


def q8_datum(p_value, q_value):
    """Quaternion CM datum: the whole group is a decomposition group
    exactly when some (P/q) = -1."""
    whole = [[1, 2]] if q8_tau(p_value, q_value) == (2, 1) else []
    return datum(quaternion8(), [([], [4])], iota=4,
                 decomposition_groups=whole, declared_complete=True)


def landau_pairs(rng, count, a_lo, a_hi, q_min=0):
    """count Landau pairs (a, b, P, Q) with distinct P, a in [a_lo, a_hi]."""
    out, seen = [], set()
    while len(out) < count:
        a = rng.randrange(a_lo, a_hi + 1)
        p = 1 + 4 * a * a
        if a in seen or not isprime(p):
            continue
        bs = [b for b in range(2, LANDAU_B_MAX + 1, 2)
              if 1 + p * b * b >= q_min and isprime(1 + p * b * b)]
        if bs:
            seen.add(a)
            b = rng.choice(bs)
            out.append((a, b, p, 1 + p * b * b))
    return out


def composite_q8(rng, count):
    """(P, Q) with P = 1 + 4a^2, Q = 1 + P b^2 composite and not a square.

    a <= 100 and b <= 20 keep Q below 1.7e7, so these stay cheap."""
    out = []
    while len(out) < count:
        a = rng.randrange(1, 101)
        b = rng.randrange(2, 21, 2)
        p = 1 + 4 * a * a
        q = 1 + p * b * b
        if isprime(q) or math.isqrt(q) ** 2 == q:
            continue
        out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def expected_cyclotomic_tau(n):
    """1 for n = 4 or an odd prime power, else 2."""
    primes = primefactors(n)
    return (1, 1) if n == 4 or (len(primes) == 1 and primes[0] != 2) else (2, 1)


def cyclotomic_sweep_values():
    """Every n > 2, n odd or 4 | n, with |(Z/n)^*| <= 48."""
    # phi(n) >= sqrt(n / 2), so phi(n) <= m forces n <= 2 m^2
    return [n for n in range(3, 2 * SWEEP_CYCLOTOMIC_MAX_G ** 2 + 1)
            if (n % 2 == 1 or n % 4 == 0) and totient(n) <= SWEEP_CYCLOTOMIC_MAX_G]


def tau_cap(seed):
    """Engine reports at or near the |G| = 512 cap, each datum once."""
    rng = random.Random(seed)
    family = landau_pairs(rng, 3, 1, 1000)
    files = {"dihedral256.json": {
        "group": {"family": "dihedral", "n": 256},
        "pairs": [{"H": [0], "Ntilde": [0, 128]}], "iota": 128}}
    files.update({f"q8_{i}.json": q8_datum(p, q)
                  for i, (_, _, p, q) in enumerate(family)})
    n_cap = rng.choice((771, 1024))
    ops = [
        {"argv": ["tau", "cyclotomic", "1155"], "check": "cyclotomic", "n": 1155,
         "order": int(totient(1155))},
        {"argv": ["tau", "cyclotomic", str(n_cap)], "check": "cyclotomic",
         "n": n_cap, "order": int(totient(n_cap))},
        {"argv": ["tau", "datum", "dihedral256.json"], "check": "dihedral",
         "order": 512},
        {"argv": ["tau", "product"] + [f"q8_{i}.json" for i in range(3)],
         "check": "product", "family": family, "order": 8 ** 3},
    ]
    return {"files": files, "ops": ops}


def tau_sweep(seed):
    """A warm process running a seeded list of small tau commands.

    Per pass: 125 quaternion commands on composite Q below 1.7e7 (about
    10 ms each), 20 cyclotomic n with |G| <= 48 (10-90 ms: each command
    still builds and validates its group), and 55 quaternion
    commands on Landau pairs with Q >= 1e12 (about 0.1 s each, as
    factorize trial-divides to 10^6).  The median falls inside the
    composite-Q group, away from the gap to the slower commands.  Every
    command but the Landau ones runs once, untimed, before the first
    pass."""
    rng = random.Random(seed)
    ops = [{"argv": ["tau", "cyclotomic", str(n)], "check": "cyclotomic", "n": n,
            "order": int(totient(n)), "warm": True}
           for n in rng.sample(cyclotomic_sweep_values(), SWEEP_CYCLOTOMIC)]
    ops += [{"argv": ["tau", "q8", str(p), str(q)], "check": "q8", "P": p, "Q": q,
             "order": 8, "warm": True}
            for p, q in composite_q8(rng, SWEEP_COMPOSITE_Q8)]
    ops += [{"argv": ["tau", "q8", str(p), str(q)], "check": "q8", "P": p, "Q": q,
             "order": 8}
            for _, _, p, q in landau_pairs(rng, SWEEP_LANDAU_Q8, 20_000, 100_000,
                                           q_min=10 ** 12)]
    rng.shuffle(ops)
    return {"files": {}, "ops": ops}


def oracle_verify(seed):
    """oracle verify and tau datum --oracle on the corpus, then Ono's example.

    The inputs are fixed and the seed is not used: the corpus is the
    whole point, and its order changes which later commands find the
    oracle's caches filled, which would make the timings depend on it."""
    corpus = cm_corpus()
    files = {f"{name}.json": payload for name, payload in corpus}
    ops = []
    for name, payload in corpus:
        order = payload["group"]["order"]
        ops.append({"argv": ["oracle", "verify", f"{name}.json"],
                    "check": "verify", "name": name, "order": order})
        ops.append({"argv": ["tau", "datum", "--oracle", f"{name}.json"],
                    "check": "oracle_datum", "name": name, "order": order})
    files["ono.json"] = ono_example()
    ops.append({"call": "ono", "file": "ono.json", "check": "ono", "order": 16})
    return {"files": files, "ops": ops}


def landau_search(seed):
    """The search at a <= 1e5, b <= 100 on one worker.  Its input is fixed;
    the seed picks the values of a the check re-enumerates with sympy."""
    return {"files": {}, "ops": [{
        "argv": ["landau", "search", "--a-max", str(LANDAU_A_MAX),
                 "--b-max", str(LANDAU_B_MAX), "--threads", "1",
                 "--out", "landau_pairs.csv"],
        "check": "landau", "out": "landau_pairs.csv",
        "a_max": LANDAU_A_MAX, "b_max": LANDAU_B_MAX}]}


WORKLOADS = {
    "tau_cap": tau_cap,
    "tau_sweep": tau_sweep,
    "oracle_verify": oracle_verify,
    "landau_search": landau_search,
}

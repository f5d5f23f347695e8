"""Checks of cmtori's outputs against values computed without cmtori.

Every function returns a list of problems; an empty list means the
output is right.  Number theory comes from sympy.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

from sympy import isprime, legendre_symbol, primefactors

from inputs import LANDAU_A_MAX, LANDAU_B_MAX, expected_cyclotomic_tau, q8_tau

# scripts/landau_recount.py --a-max 100000: pairs, distinct p, SHA-256 of
# the sorted "a b" lines
LANDAU_REFERENCE = (36_322, 10_913,
                    "4d1455ebfd421d547a2cad7c7adfa905a4453a547788f8e46562c5b16add606c")
LANDAU_SAMPLE = 300

# the one verify_structure check expected to fail, and where
REFUTED = ("noncm_coprime_product", "h2_norm_one_coprime_product")


def _frac(payload):
    return Fraction(payload["num"], payload["den"])


def report_problems(report):
    """Ono's formula and the four-term order identity on an engine report."""
    h1, sha = math.prod(report["h1_torus"]), math.prod(report["sha2"])
    h1n1, prim = math.prod(report["h1_norm_one"]), report["primitive_order"]
    problems = []
    if _frac(report["tau"]) != Fraction(h1, sha):
        problems.append(f"tau {_frac(report['tau'])} is not |H1| / |Sha2| = {h1}/{sha}")
    if sha * h1n1 != h1 * prim:
        problems.append(f"four-term orders: |Sha2| |H1(norm one)| = {sha * h1n1}, "
                        f"|H1| |prim| = {h1 * prim}")
    return problems


def _tau_problems(report, expected):
    problems = report_problems(report)
    if _frac(report["tau"]) != Fraction(*expected):
        problems.append(f"tau {_frac(report['tau'])}, expected {Fraction(*expected)}")
    return problems


def cyclotomic_problems(op, out):
    return _tau_problems(out["report"], expected_cyclotomic_tau(op["n"]))


def q8_problems(op, out):
    p_value, q_value = op["P"], op["Q"]
    problems = _tau_problems(out["report"], q8_tau(p_value, q_value))
    symbols = {str(q): legendre_symbol(p_value % q, q) for q in primefactors(q_value)}
    if out["legendre"] != symbols:
        problems.append(f"Legendre table {out['legendre']}, expected {symbols}")
    return problems


def dihedral_problems(op, out):
    return _tau_problems(out["report"], (2, 1))


def product_problems(op, out):
    """A disjoint family of r Landau pairs has tau = 2^-r, multiplicatively."""
    family = op["family"]
    problems = []
    for a, b, p, q in family:
        if p != 1 + 4 * a * a or q != 1 + p * b * b or not (isprime(p) and isprime(q)):
            problems.append(f"({a}, {b}) is not a Landau pair")
    if len({p for _, _, p, _ in family}) != len(family):
        problems.append("the family is not disjoint")
    expected = Fraction(1, 2 ** len(family))
    factors = [_frac(r["tau"]) for r in out["factors"]]
    if factors != [Fraction(*q8_tau(p, q)) for _, _, p, q in family]:
        problems.append(f"factor taus {factors}")
    if _frac(out["product_tau"]) != expected or _frac(out["combined"]["tau"]) != expected:
        problems.append(f"product tau {_frac(out['product_tau'])}, combined "
                        f"{_frac(out['combined']['tau'])}, expected {expected}")
    if out["multiplicative"] is not True:
        problems.append("product not reported multiplicative")
    for report in out["factors"] + [out["combined"]]:
        problems.extend(report_problems(report))
    return problems


def verify_problems(op, out):
    """Every applicable check passes, except the refuted coprime prediction."""
    problems = []
    seen = set()
    for check in out["checks"]:
        key = (op["name"], check["name"])
        seen.add(key)
        if key == REFUTED:
            if not check["applicable"] or check["passed"]:
                problems.append(f"{check['name']} should be applicable and refuted")
        elif check["applicable"] and not check["passed"]:
            problems.append(f"{check['name']} failed: {check.get('details', '')}")
    if op["name"] == REFUTED[0] and REFUTED not in seen:
        problems.append(f"{REFUTED[1]} missing")
    return problems


def oracle_datum_problems(op, out):
    """The engine and the oracle agree on tau, H1 and Sha2."""
    report, oracle = out["report"], out["oracle"]
    problems = report_problems(report)
    if (_frac(oracle["tau"]) != _frac(report["tau"])
            or oracle["h1_torus"] != report["h1_torus"]
            or oracle["sha2"] != report["sha2"]):
        problems.append(f"engine {report['tau']} {report['h1_torus']} "
                        f"{report['sha2']} and oracle {oracle} disagree")
    if oracle["agrees"] is not True:
        problems.append("the CLI reports disagreement")
    return problems


def ono_problems(op, out):
    ratio = Fraction(math.prod(out["h1"]), math.prod(out["sha2"]))
    problems = [] if ratio == Fraction(1, 4) else [f"|H1| / |Sha2| = {ratio}, expected 1/4"]
    if out["rank"] != 15:
        problems.append(f"norm-one lattice rank {out['rank']}, expected 15")
    return problems


def sampled_pairs(a_values, prime=isprime):
    """Every (a, b), b in 1..B_MAX odd or even, with p and q prime."""
    rows = []
    for a in a_values:
        p = 1 + 4 * a * a
        if prime(p):
            rows.extend((a, b) for b in range(1, LANDAU_B_MAX + 1) if prime(1 + p * b * b))
    return rows


def landau_problems(rows, payload, seed, reference=LANDAU_REFERENCE,
                    a_max=LANDAU_A_MAX, prime=isprime):
    """The search's rows (a, p, b, q) against the recount reference, sympy
    primality of every pair, and a seeded sympy re-enumeration."""
    problems = []
    pairs = sorted((a, b) for a, _, b, _ in rows)
    digest = hashlib.sha256("".join(f"{a} {b}\n" for a, b in pairs).encode()).hexdigest()
    distinct = len({a for a, _ in pairs})
    if (len(pairs), distinct, digest) != reference:
        problems.append(f"pairs {len(pairs)}, distinct p {distinct}, sha256 {digest}; "
                        f"reference {reference}")
    if (payload["pair_count"], payload["distinct_p_count"]) != (len(pairs), distinct):
        problems.append(f"reported counts {payload['pair_count']}, "
                        f"{payload['distinct_p_count']} differ from the list")
    bad = [r for r in rows
           if r[1] != 1 + 4 * r[0] ** 2 or r[3] != 1 + r[1] * r[2] ** 2
           or not 1 <= r[0] <= a_max or not 1 <= r[2] <= LANDAU_B_MAX]
    primes = {}
    for a, p, b, q in rows:
        for n in (p, q):
            if n not in primes:
                primes[n] = prime(n)
            if not primes[n]:
                bad.append((a, p, b, q))
    if bad:
        problems.append(f"{len(bad)} listed pairs are not Landau pairs, e.g. {bad[0]}")
    rng = random.Random(seed)
    sample = sorted({1, a_max} | set(rng.sample(range(1, a_max + 1),
                                                min(LANDAU_SAMPLE, a_max))))
    expected = set(sampled_pairs(sample, prime))
    chosen = set(sample)
    found = {(a, b) for a, _, b, _ in rows if a in chosen}
    if expected != found:
        problems.append(f"sampled a: missing {sorted(expected - found)[:5]}, "
                        f"spurious {sorted(found - expected)[:5]}")
    return problems


OP_CHECKS = {
    "cyclotomic": cyclotomic_problems,
    "q8": q8_problems,
    "dihedral": dihedral_problems,
    "product": product_problems,
    "verify": verify_problems,
    "oracle_datum": oracle_datum_problems,
    "ono": ono_problems,
}

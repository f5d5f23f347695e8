"""Named field families as norm-torus data, with structural classifiers.

Each constructor returns the datum together with the tau value the
structure theory predicts; the engine recomputes tau independently and
the two must agree whenever the decomposition set is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .abelian import FinAb
from .cohomology import involution_complement, xi_complement, xi_obstruction
from .datum import NormTorusDatum, TamagawaReport, TorusPair
from .engine import (
    NK_ONE,
    abelian_cm_tamagawa,
    density_bound,
    imaginary_quadratic_count,
    product_tamagawa,
    tamagawa,
)
from .errors import DatumError, InternalCheckError
from .groups import (
    FiniteGroup,
    center,
    dihedral,
    full_subgroup,
    quaternion8,
    residues_of,
    subgroup_generated,
    trivial_subgroup,
    units_mod,
)
from .landau import factorize, is_prime_u64


# ---------------------------------------------------------------------------
# arithmetic helpers
# ---------------------------------------------------------------------------

def legendre(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion; p must be an odd prime."""
    if p < 3 or p % 2 == 0 or not is_prime_u64(p):
        raise DatumError("legendre symbol needs an odd prime", p=p)
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# ---------------------------------------------------------------------------
# cyclotomic family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyResult:
    datum: NormTorusDatum
    predicted_tau: Fraction | None
    notes: tuple[str, ...] = ()


def cyclotomic(n: int) -> FamilyResult:
    """CM datum of the n-th cyclotomic field (n > 2, n odd or 4 | n).

    Decomposition groups: every cyclic subgroup arises from an unramified
    prime; each ramified prime p contributes inertia (the kernel of
    reduction mod n/p^a) extended by a Frobenius lift; the archimedean
    place contributes the complex conjugation.
    """
    if n <= 2 or (n % 2 == 0 and n % 4 != 0):
        raise DatumError("cyclotomic family needs n > 2 with n odd or 4 | n", n=n)
    g = units_mod(n)
    residues = residues_of(g)
    index = {r: i for i, r in enumerate(residues)}
    iota = index[n - 1]
    pair = TorusPair(trivial_subgroup(g), subgroup_generated(g, [iota]))
    ram = []
    for p in factorize(n):
        m = n
        while m % p == 0:
            m //= p
        inertia = [index[r] for r in residues if r % m == (1 % m)]
        # Frobenius lift: congruent to p mod m, to 1 mod the p-part
        pa = n // m
        frob = None
        for r in residues:
            if r % m == p % m and r % pa == 1 % pa:
                frob = index[r]
                break
        if frob is None:
            raise DatumError("no Frobenius lift found", p=p)
        ram.append(subgroup_generated(g, inertia + [frob]))
    datum = NormTorusDatum(g, (pair,), iota=iota,
                           decomposition_groups=tuple(ram),
                           include_all_cyclic=True, declared_complete=True)
    fact = factorize(n)
    if n == 4 or (len(fact) == 1 and 2 not in fact):
        predicted = Fraction(1)
    else:
        predicted = Fraction(2)
    return FamilyResult(datum, predicted)


class _PrimePower(NamedTuple):
    """(Z/q^b)^* with the generators of its 2-Sylow subgroup."""

    prime: int
    modulus: int                      # q^b
    odd: int                          # the odd part of phi(q^b)
    generators: tuple[tuple[int, int], ...]   # (gamma, k): gamma of order 2^k


def _prime_power(q: int, b: int) -> _PrimePower:
    """For odd q the 2-Sylow subgroup of the cyclic (Z/q^b)^* is generated
    by z^odd for any quadratic non-residue z mod q: z is an odd power of a
    generator, since squares mod q^b reduce to squares mod q.  For q = 2 it
    is the whole group, <-1> x <5> (the second factor from b = 3 on)."""
    modulus = q ** b
    if q == 2:
        return _PrimePower(2, modulus, 1, ((modulus - 1, 1),) + (((5, b - 2),) if b > 2 else ()))
    bits = ((q - 1) & (1 - q)).bit_length() - 1
    odd = modulus // q * (q - 1) >> bits
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
    return _PrimePower(q, modulus, odd, ((pow(z, odd, modulus), bits),))


def _log2(y: int, gamma: int, bits: int, modulus: int) -> int:
    """k mod 2^bits with gamma^k = y, for gamma of order 2^bits: Pohlig-Hellman
    on a cyclic 2-group.  With the bits of k below i cleared from y,
    y^(2^(bits-1-i)) is 1 exactly when bit i is 0; ``bits`` powers of at most
    ``bits`` squarings each."""
    k = 0
    step = pow(gamma, -1, modulus)          # gamma^(-2^i)
    for i in range(bits):
        if pow(y, 1 << (bits - 1 - i), modulus) != 1:
            k |= 1 << i
            y = y * step % modulus
        step = step * step % modulus
    if y != 1:
        raise InternalCheckError("element is not in the 2-Sylow subgroup",
                                 modulus=modulus)
    return k


def _sylow2_coordinates(x: int, part: _PrimePower) -> list[int]:
    """Coordinates, on ``part.generators``, of the 2-part of the unit x mod
    part.modulus.  For odd q, x^odd is the 2-part raised to ``odd``, a unit
    mod its order; for q = 2, x = (-1)^s 5^t with s = 1 when x = 3 mod 4."""
    y = x % part.modulus
    if part.prime == 2:
        sign = y % 4 // 2
        if len(part.generators) == 1:
            return [sign]
        return [sign, _log2(part.modulus - y if sign else y, 5,
                            part.generators[1][1], part.modulus)]
    (gamma, bits), = part.generators
    k = _log2(pow(y, part.odd, part.modulus), gamma, bits, part.modulus)
    return [k * pow(part.odd, -1, 1 << bits) % (1 << bits)]


def cyclotomic_report(n: int) -> tuple[TamagawaReport, Fraction]:
    """``tamagawa(cyclotomic(n).datum)`` and the predicted tau, with no table.

    G = (Z/n)^* is the product of the (Z/q^b)^* over q^b || n.  The report
    of its CM datum is that of the 2-Sylow subgroup P, with iota = -1 and
    the projections of the ramified decomposition groups
    (``engine.abelian_cm_tamagawa``).  P is the product of the 2-Sylow
    subgroups of the factors, in coordinates read off 2-parts of discrete
    logs: one cyclic factor per odd q, two for 2^b with b > 2, one for 4.
    D_p is inertia, the factor at p, with the Frobenius lift that is p at
    every other factor and 1 at p.  The cost is a factorization, one
    ``_log2`` per pair of prime factors (at most 62^2 squarings each) and
    ``abelian`` algebra in rank at most 16: it grows with the number of
    cyclic factors, never with phi(n).
    """
    if n <= 2 or (n % 2 == 0 and n % 4 != 0):
        raise DatumError("cyclotomic family needs n > 2 with n odd or 4 | n", n=n)
    fact = factorize(n)
    parts = [_prime_power(q, b) for q, b in fact.items()]
    owner = [j for j, part in enumerate(parts) for _ in part.generators]
    bits = [k for part in parts for _, k in part.generators]
    # P in invariant-factor form: the cyclic factors sorted by order
    order = sorted(range(len(bits)), key=bits.__getitem__)
    p_group = FinAb(tuple(1 << bits[i] for i in order))

    def element(residue_at):
        """The 2-part of the unit that is residue_at(j) mod the j-th q^b."""
        flat = [c for j, part in enumerate(parts)
                for c in _sylow2_coordinates(residue_at(j), part)]
        return p_group.element([flat[i] for i in order])

    iota = element(lambda j: -1)
    decomposition = []
    for j, ramified in enumerate(parts):
        inertia = [p_group.element([int(i == t) for i in order])
                   for t in range(len(bits)) if owner[t] == j]
        frobenius = element(lambda i: 1 if i == j else ramified.prime)
        decomposition.append(inertia + [frobenius])
    report = abelian_cm_tamagawa(p_group, iota, decomposition)
    predicted = Fraction(1) if n == 4 or (len(fact) == 1 and 2 not in fact) else Fraction(2)
    return report, predicted


# ---------------------------------------------------------------------------
# quaternion family
# ---------------------------------------------------------------------------

def q8_landau(p_value: int, q_value: int) -> FamilyResult:
    """Quaternion CM datum attached to integers P, Q with P-1 = a^2,
    Q-1 = P b^2, Q not a square.

    Every decomposition group is cyclic except at primes q | Q with
    (P/q) = -1, where it is the whole group; tau is 1/2 when no such
    prime exists and 2 otherwise.
    """
    failures = []
    if p_value < 1 or p_value % 2 == 0:
        failures.append("P must be odd and positive")
    if q_value < 1 or q_value % 2 == 0:
        failures.append("Q must be odd and positive")
    if p_value >= 1 and math.isqrt(p_value) ** 2 == p_value:
        failures.append("P is a perfect square")
    if p_value >= 1 and math.isqrt(p_value - 1) ** 2 != p_value - 1:
        failures.append("P - 1 is not a perfect square")
    if q_value >= 1 and p_value >= 1:
        rem = q_value - 1
        if rem % p_value != 0 or math.isqrt(rem // p_value) ** 2 != rem // p_value:
            failures.append("Q - 1 is not P times a perfect square")
    if q_value >= 1 and math.isqrt(q_value) ** 2 == q_value:
        failures.append("Q is a perfect square")
    if failures:
        raise DatumError("; ".join(failures), P=p_value, Q=q_value)
    g = quaternion8()
    pair = TorusPair(trivial_subgroup(g), center(g))
    legendre_table = {}
    noncyclic = False
    for q in factorize(q_value):
        symbol = legendre(p_value, q)
        legendre_table[q] = symbol
        if symbol == -1:
            noncyclic = True
    extras = (full_subgroup(g),) if noncyclic else ()
    datum = NormTorusDatum(g, (pair,), iota=1, decomposition_groups=extras,
                           include_all_cyclic=True, declared_complete=True)
    predicted = Fraction(2) if noncyclic else Fraction(1, 2)
    notes = tuple(f"({p_value}/{q}) = {s}" for q, s in sorted(legendre_table.items()))
    return FamilyResult(datum, predicted, notes)


def certify_family(family):
    """Product report for the quaternion data of a disjoint family of Landau pairs."""
    return product_tamagawa([q8_landau(pair.p, pair.q).datum for pair in family])


# ---------------------------------------------------------------------------
# dihedral and abelian classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DihedralResult:
    datum: NormTorusDatum
    structural_tau: Fraction
    engine_lower_bound: Fraction
    s_count: int


def dihedral_cm(n: int) -> DihedralResult:
    """Dihedral CM datum of order 2n; n must be even for a central involution."""
    if n % 2 != 0 or n < 2:
        raise DatumError(
            "dihedral CM field needs even n: odd dihedral groups have no "
            "central involution", n=n)
    g = dihedral(n)
    iota = n // 2
    pair = TorusPair(trivial_subgroup(g), subgroup_generated(g, [iota]))
    datum = NormTorusDatum(g, (pair,), iota=iota, include_all_cyclic=True,
                           declared_complete=False)
    count, verdict = density_bound(g, iota)
    if verdict != NK_ONE:
        raise DatumError("density bound unexpectedly weak", count=count)
    report = tamagawa(datum)
    return DihedralResult(datum, Fraction(2), report.tau, count)


@dataclass(frozen=True)
class ClassifierResult:
    value: Fraction | None         # None when only an interval is known
    interval: tuple[Fraction, ...]
    engine_tau: Fraction
    reason: str


def _cm_datum_for(group: FiniteGroup, iota: int) -> NormTorusDatum:
    pair = TorusPair(trivial_subgroup(group), subgroup_generated(group, [iota]))
    return NormTorusDatum(group, (pair,), iota=iota, include_all_cyclic=True)


def abelian_classifier(group: FiniteGroup, iota: int) -> ClassifierResult:
    """tau of an abelian Galois CM field: 1 when the half-degree is odd,
    2 when the involution splits off, otherwise the interval {1, 2}."""
    if not group.is_abelian():
        raise DatumError("abelian classifier needs an abelian group")
    if group.element_order(iota) != 2:
        raise DatumError("iota must have order 2")
    datum = _cm_datum_for(group, iota)
    engine_tau = tamagawa(datum).tau
    half = group.order // 2
    if half % 2 == 1:
        return ClassifierResult(Fraction(1), (Fraction(1),), engine_tau,
                                "odd half-degree")
    count, _ = imaginary_quadratic_count(group, iota)
    if count >= 1:
        # an index-2 subgroup avoiding iota splits the sequence
        return ClassifierResult(Fraction(2), (Fraction(2),), engine_tau,
                                "involution splits off, even half-degree")
    return ClassifierResult(None, (Fraction(1), Fraction(2)), engine_tau,
                            "non-split with even half-degree")


def split_classifier(group: FiniteGroup, iota: int) -> ClassifierResult:
    """tau for a split involution sequence; delegates to the two-torsion
    obstruction class when the complement has odd abelianization."""
    if group.element_order(iota) != 2 or iota not in center(group):
        raise DatumError("iota must be a central involution")
    datum = _cm_datum_for(group, iota)
    complement = involution_complement(group, iota)
    if complement is None:
        raise DatumError("involution sequence does not split")
    engine_tau = tamagawa(datum).tau
    half = group.order // 2
    if half % 2 == 1:
        return ClassifierResult(Fraction(1), (Fraction(1),), engine_tau,
                                "odd half-degree")
    if xi_complement(datum) is None:
        return ClassifierResult(Fraction(2), (Fraction(2),), engine_tau,
                                "complement has even abelianization")
    tau, details = xi_obstruction(datum)
    return ClassifierResult(tau, (tau,), engine_tau,
                            f"two-torsion obstruction: {details}")

"""Norm-torus data: a finite group with marked subgroup pairs.

A datum (G, [(H_i, N~_i)]_i, D) abstracts a tower of number fields: H_i
fixes the extension field, N~_i fixes the base field (H_i inside N~_i),
and D collects decomposition groups.  Every cyclic subgroup of G is a
decomposition group of some unramified prime, so the cyclic floor can be
adjoined; ramified and archimedean primes may contribute more, which only
the caller can know (the ``declared_complete`` flag records that claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .abelian import FinAb
from .errors import DatumError
from .groups import (
    FiniteGroup,
    Subgroup,
    center,
    cyclic_subgroups_up_to_conjugacy,
    dedupe_up_to_conjugacy,
    is_normal,
    subgroup_generated,
)
from .transfer import relative_target


@dataclass(frozen=True)
class TorusPair:
    """inner = Gal(L/extension field), outer = Gal(L/base field); inner <= outer."""

    inner: Subgroup
    outer: Subgroup

    def __post_init__(self):
        if self.inner.group != self.outer.group:
            raise DatumError("pair subgroups live in different groups")
        if not self.outer.contains_subgroup(self.inner):
            raise DatumError("inner subgroup not contained in outer subgroup")

    @property
    def relative_degree(self) -> int:
        return self.outer.order // self.inner.order


@dataclass(frozen=True)
class NormTorusDatum:
    group: FiniteGroup
    pairs: tuple[TorusPair, ...]
    iota: int | None = None
    decomposition_groups: tuple[Subgroup, ...] = ()
    include_all_cyclic: bool = True
    declared_complete: bool = False

    def __post_init__(self):
        g = self.group
        for pair in self.pairs:
            if pair.inner.group != g:
                raise DatumError("pair subgroups belong to a different group")
        for d in self.decomposition_groups:
            if d.group != g:
                raise DatumError("decomposition subgroup belongs to a different group")
        if self.iota is not None:
            i = self.iota
            if not (0 <= i < g.order):
                raise DatumError("iota out of range", iota=i)
            if g.element_order(i) != 2:
                raise DatumError("iota must have order 2", iota=i)
            if i not in center(g):
                raise DatumError("iota must be central", iota=i)
            for k, pair in enumerate(self.pairs):
                if pair.relative_degree != 2:
                    raise DatumError("CM pair must have relative degree 2", pair=k)
                if i not in pair.outer or i in pair.inner:
                    raise DatumError(
                        "iota must land on the involution of each relative quotient",
                        pair=k)

    @property
    def is_cm(self) -> bool:
        return self.iota is not None

    @property
    def rank(self) -> int:
        return len(self.pairs)

    def relative_degree_product(self) -> int:
        out = 1
        for pair in self.pairs:
            out *= pair.relative_degree
        return out

    @lru_cache(maxsize=1024)
    def cyclic_relative_quotients(self) -> bool:
        """Each inner normal in its outer with cyclic quotient (fast-path flag).

        With inner normal in outer, the relative target
        outer^ab / im(inner) is (outer/inner)^ab.  A finite group Q is
        cyclic exactly when Q^ab is cyclic of order |Q|: then [Q, Q] = 1,
        and a cyclic Q is abelian.  The engine builds the relative target
        anyway, so no quotient table is needed.
        """
        for pair in self.pairs:
            local, _ = pair.outer.as_group()
            if not is_normal(local, pair.outer.localize(pair.inner)):
                return False
            target = relative_target(pair.outer, pair.inner).group
            if not target.is_cyclic or target.order != pair.relative_degree:
                return False
        return True

    @lru_cache(maxsize=1024)
    def normal_outer(self) -> bool:
        return all(is_normal(self.group, pair.outer) for pair in self.pairs)

    @lru_cache(maxsize=1024)
    def effective_decomposition_set(self) -> tuple[Subgroup, ...]:
        """User groups, the cyclic floor when requested, the archimedean group
        generated by iota, all deduplicated up to conjugacy."""
        groups = list(self.decomposition_groups)
        if self.include_all_cyclic:
            groups.extend(cyclic_subgroups_up_to_conjugacy(self.group))
        if self.iota is not None:
            groups.append(subgroup_generated(self.group, [self.iota]))
        if not groups:
            return ()
        return tuple(dedupe_up_to_conjugacy(self.group, groups))


@dataclass(frozen=True)
class TamagawaReport:
    """Engine output; tau is exact and is only a lower bound unless ``exact``."""

    h1_torus: FinAb            # H^1 of the torus character lattice
    h1_norm_one: FinAb         # H^1 of the norm-one character lattice
    primitive_order: int       # order of the primitive part of H^2(Z)
    sha2: FinAb                # Sha^2 of the torus character lattice
    tau: Fraction
    n_k: int | None            # global norm index (CM data only)
    exact: bool

    def __post_init__(self):
        if self.sha2.order * self.h1_norm_one.order != self.h1_torus.order * self.primitive_order:
            raise DatumError(
                "four-term exactness violated",
                sha2=self.sha2.order, h1_norm_one=self.h1_norm_one.order,
                h1_torus=self.h1_torus.order, primitive=self.primitive_order)

"""Per-layer tracing of cmtori from outside the program.

``Tracer.install`` wraps public functions of the cmtori modules.  A
module that did ``from .groups import closure`` holds its own binding, so
every ``cmtori.*`` module attribute bound to a traced function is
replaced, not just the defining one.  Spans nest: a span's self time is
its duration minus the time of the traced spans it called.  Only the
per-name totals are kept, so tracing a 600k-call prime search stays
small.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute); a span may be split further by its
# arguments (see _span_name)
SPANS = {
    "groups.from_table": ("cmtori.groups", "from_table"),
    "groups.closure": ("cmtori.groups", "closure"),
    "groups.canonical_conjugate": ("cmtori.groups", "canonical_conjugate"),
    "groups.cyclic_subgroups_up_to_conjugacy":
        ("cmtori.groups", "cyclic_subgroups_up_to_conjugacy"),
    "groups.abelianization": ("cmtori.groups", "abelianization"),
    "transfer.group_abelianization": ("cmtori.transfer", "group_abelianization"),
    "transfer.subgroup_abelianization": ("cmtori.transfer", "subgroup_abelianization"),
    "transfer.relative_transfer": ("cmtori.transfer", "relative_transfer"),
    "abelian.smith_normal_form": ("cmtori.abelian", "smith_normal_form"),
    "engine.h1_torus": ("cmtori.engine", "h1_torus"),
    "engine.primitive_part": ("cmtori.engine", "primitive_part"),
    "engine.sha2": ("cmtori.engine", "sha2"),
    "lattice.character_lattices": ("cmtori.lattice", "character_lattices"),
    "cohomology.cohomology": ("cmtori.cohomology", "cohomology"),
    "cohomology.restriction_hom": ("cmtori.cohomology", "restriction_hom"),
    "cohomology.restrict_cochain": ("cmtori.cohomology", "restrict_cochain"),
    "cohomology.connecting_hom": ("cmtori.cohomology", "connecting_hom"),
    "cohomology.sha_group": ("cmtori.cohomology", "sha_group"),
    "constructors.factorize": ("cmtori.constructors", "factorize"),
    "constructors.cyclotomic": ("cmtori.constructors", "cyclotomic"),
    "constructors.q8_landau": ("cmtori.constructors", "q8_landau"),
    "constructors.dihedral_cm": ("cmtori.constructors", "dihedral_cm"),
    "landau.is_prime_u64": ("cmtori.landau", "is_prime_u64"),
    "landau.search": ("cmtori.landau", "search"),
    "formats.validate_against": ("cmtori.formats", "validate_against"),
    "formats.dump": ("cmtori.formats", "dump"),
    "cli.build_parser": ("cmtori.cli", "build_parser"),
}

# lru caches whose statistics feed a metric: metric -> (module, attribute)
CACHES = {
    "engine.cache_hits": [("cmtori.engine", "_combined_transfer"),
                          ("cmtori.engine", "primitive_part")],
    "transfer.abelianization_misses": [("cmtori.transfer", "group_abelianization"),
                                       ("cmtori.transfer", "subgroup_abelianization")],
}

# per-layer metric -> (kind, spans); kind "s" sums self times, "calls"
# sums call counts, "max" takes the largest recorded size
LAYERS = {
    "groups.from_table_s": ("s", ["groups.from_table"]),
    "groups.from_table_calls": ("calls", ["groups.from_table"]),
    "groups.closure_s": ("s", ["groups.closure"]),
    "groups.closure_calls": ("calls", ["groups.closure"]),
    "groups.conjugacy_s": ("s", ["groups.canonical_conjugate",
                                 "groups.cyclic_subgroups_up_to_conjugacy"]),
    "groups.hash_s": ("s", ["groups.hash"]),
    "groups.hash_calls": ("calls", ["groups.hash"]),
    "transfer.abelianization_s": ("s", ["groups.abelianization",
                                        "transfer.group_abelianization",
                                        "transfer.subgroup_abelianization"]),
    "transfer.relative_transfer_s": ("s", ["transfer.relative_transfer"]),
    "abelian.snf_s": ("s", ["abelian.smith_normal_form"]),
    "abelian.snf_calls": ("calls", ["abelian.smith_normal_form"]),
    "abelian.snf_max_entries": ("max", ["abelian.smith_normal_form"]),
    "engine.h1_torus_s": ("s", ["engine.h1_torus"]),
    "engine.primitive_part_s": ("s", ["engine.primitive_part"]),
    "engine.sha2_s": ("s", ["engine.sha2"]),
    "lattice.character_lattices_s": ("s", ["lattice.character_lattices"]),
    "lattice.max_rank": ("max", ["lattice.character_lattices"]),
    "cohomology.h1_s": ("s", ["cohomology.h1"]),
    "cohomology.h2_s": ("s", ["cohomology.h2"]),
    "cohomology.max_cochain_dim": ("max", ["cohomology.h1", "cohomology.h2"]),
    "cohomology.restriction_s": ("s", ["cohomology.restriction_hom",
                                       "cohomology.restrict_cochain"]),
    "cohomology.connecting_s": ("s", ["cohomology.connecting_hom"]),
    "cohomology.sha_s": ("s", ["cohomology.sha_group"]),
    "constructors.factorize_s": ("s", ["constructors.factorize"]),
    "constructors.factorize_calls": ("calls", ["constructors.factorize"]),
    "constructors.family_s": ("s", ["constructors.cyclotomic", "constructors.q8_landau",
                                    "constructors.dihedral_cm"]),
    "landau.is_prime_s": ("s", ["landau.is_prime_u64"]),
    "landau.is_prime_calls": ("calls", ["landau.is_prime_u64"]),
    "formats.validate_s": ("s", ["formats.validate_against"]),
    "formats.validate_calls": ("calls", ["formats.validate_against"]),
    "formats.dump_s": ("s", ["formats.dump"]),
    "cli.parse_s": ("s", ["cli.build_parser", "cli.parse_args"]),
}


def _span_name(name, args):
    """cohomology(lattice, q) is reported per degree."""
    if name == "cohomology.cohomology":
        return f"cohomology.h{args[1]}"
    return name


def _cochain_dim(lattice, q):
    """Rows of d_q: C^{q+1} has rank * (|G| - 1)^(q + 1) coordinates."""
    return lattice.rank * (lattice.group.order - 1) ** (q + 1) if q else 0


# span name -> the size it records for a "max" metric
SIZES = {
    "abelian.smith_normal_form":
        lambda args, result: len(args[0]) * (len(args[0][0]) if args[0] else 0),
    "lattice.character_lattices":
        lambda args, result: max(result.torus.rank, result.norm_one.rank),
    "cohomology.cohomology": lambda args, result: _cochain_dim(args[0], args[1]),
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(int)
        self.pairs_found = 0
        self._stack = [0.0]
        self._cache_start = {}

    def span(self, name, fn):
        stack, self_s, calls, sizes = self._stack, self.self_s, self.calls, self.sizes
        perf = time.perf_counter
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            span = _span_name(name, args)
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[span] += elapsed - inner
                calls[span] += 1
            if size:
                sizes[span] = max(sizes[span], size(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a cmtori module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cmtori" or n.startswith("cmtori.")]
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        groups = sys.modules["cmtori.groups"]
        groups.FiniteGroup.__hash__ = self.span("groups.hash",
                                                groups.FiniteGroup.__hash__)
        cli = sys.modules["cmtori.cli"]
        build_parser = cli.build_parser
        wrap = self.span

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = wrap("cli.parse_args", parser.parse_args)
            return parser

        cli.build_parser = traced_build_parser
        landau = sys.modules["cmtori.landau"]
        search = landau.search

        def counted_search(*args, **kwargs):
            result = search(*args, **kwargs)
            self.pairs_found += result.pair_count
            return result

        landau.search = cli.search = counted_search
        self._cache_start = self._cache_stats()

    @staticmethod
    def _cache_stats():
        out = {}
        for metric, targets in CACHES.items():
            hits = misses = 0
            for module, attr in targets:
                fn = getattr(sys.modules[module], attr)
                info = (fn if hasattr(fn, "cache_info") else fn.__wrapped__).cache_info()
                hits, misses = hits + info.hits, misses + info.misses
            out[metric] = hits if metric.endswith("hits") else misses
        return out

    def layers(self):
        """Per-layer metrics accumulated since ``install``."""
        out = {}
        for metric, (kind, spans) in LAYERS.items():
            if kind == "s":
                out[metric] = sum(self.self_s.get(s, 0.0) for s in spans)
            elif kind == "calls":
                out[metric] = sum(self.calls.get(s, 0) for s in spans)
            else:
                out[metric] = max(self.sizes.get(s, 0) for s in spans)
        now = self._cache_stats()
        for metric, start in self._cache_start.items():
            out[metric] = now[metric] - start
        tests = self.calls.get("landau.is_prime_u64", 0)
        out["landau.pairs_per_prime_test"] = self.pairs_found / tests if tests else 0.0
        return out

"""Cost of the oracle's lattices and degree-2 cohomology against the group order.

For each case below, a fresh interpreter builds the character lattices
of a datum with ``cmtori.lattice.character_lattices`` and, for the
degree-2 cases, computes H^2 of one of them with ``cmtori.cohomology``,
timing each call on its own (cold caches, as for a CLI command).  Each
case is run ``--runs`` times in turn; the script writes the median and
quartiles of the lattice time (``lattice_s``) and of the H^2 time, the
peak resident set of the process (``ru_maxrss``) after and before the
H^2 call, with the shape of the matrix d_1 of the presentation
resolution that the oracle eliminates (``d1_shape``) and, for
comparison, the shape d_1 has on the normalized bar resolution
(``bar_d1_shape``), to ``BENCH_oracle_q2.json``:

    python scripts/oracle_cost.py --runs 5

Run it from the root of a checkout; it imports ``src/``.  The degree-2
cases are the CM torus lattice of a cyclic group of each order 4, 8, 12,
16, 24, the heaviest lattice the test suite and the benchmark meet at
two orders (the rank-15 norm-one lattice of Ono's (Z/2)^4 example, order
16, and the rank-13 torus lattice of A4 x C2, order 24), and the CM tori
of the cyclic group C_n and the dihedral group D_n of each order 32, 48
and 64.  H^2 is computed under a degree-2 cap of 64 here; the CLI keeps
its own default.  The CM tori of C_128 and D_64 (order 128) are
lattice-only cases, for which the peak resident set is read after the
lattices are built.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (4, 8, 12, 16, 24)
FAMILY_ORDERS = (32, 48, 64)
LATTICE_ORDERS = (128,)
MAX_ORDER_Q2 = 64


def _family(family, n):
    return f"{family}{n if family == 'C' else n // 2} CM torus"


# (label, order, whether H^2 is computed); the child builds each from its label
CASES = [(f"C{n} CM torus", n, True) for n in ORDERS] + [
    ("(Z/2)^4 Ono norm-one", 16, True),
    ("A4 x C2 CM torus", 24, True),
] + [(_family(family, n), n, True) for family in "CD" for n in FAMILY_ORDERS] + [
    (_family(family, n), n, False) for family in "CD" for n in LATTICE_ORDERS]


def _datum(label):
    from cmtori.datum import NormTorusDatum, TorusPair
    from cmtori.groups import (
        center,
        cyclic,
        dihedral,
        direct_product,
        from_permutation_generators,
        full_subgroup,
        subgroup_generated,
        trivial_subgroup,
    )

    if label.startswith("(Z/2)^4"):
        g = direct_product(cyclic(2), cyclic(2), cyclic(2), cyclic(2)).group
        return NormTorusDatum(g, (TorusPair(trivial_subgroup(g), full_subgroup(g)),)), "norm_one"
    if label.startswith("A4"):
        a4 = from_permutation_generators([[[0, 1, 2]], [[1, 2, 3]]], 4)
        prod = direct_product(a4, cyclic(2))
        g, iota = prod.group, prod.pack((a4.identity, 1))
    elif label.startswith("D"):
        g = dihedral(int(label.split()[0][1:]))
        iota = next(z for z in center(g).elements if z != g.identity)
    else:
        n = int(label.split()[0][1:])
        g, iota = cyclic(n), n // 2
    pair = TorusPair(trivial_subgroup(g), subgroup_generated(g, [iota]))
    return NormTorusDatum(g, (pair,), iota=iota), "torus"


def child(label):
    """Runs in a fresh interpreter: the lattices and one H^2, each timed;
    prints one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    from cmtori.cohomology import CohomologyBudget, cohomology
    from cmtori.groups import presentation
    from cmtori.lattice import character_lattices

    datum, kind = _datum(label)
    start = time.perf_counter()
    lattice = getattr(character_lattices(datum), kind)
    out = {"lattice_s": time.perf_counter() - start, "rank": lattice.rank}
    base_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if next(h2 for case, _, h2 in CASES if case == label):
        budget = CohomologyBudget(max_order_q2=MAX_ORDER_Q2)
        start = time.perf_counter()
        h2 = cohomology(lattice, 2, budget).group
        seconds = time.perf_counter() - start
        pres = presentation(datum.group)
        m = datum.group.order - 1
        out.update(seconds=seconds, base_rss_mb=base_kib / 1024,
                   d1_shape=[lattice.rank * len(pres.relators),
                             lattice.rank * len(pres.generators)],
                   bar_d1_shape=[lattice.rank * m * m, lattice.rank * m],
                   h2=list(h2.factors))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def _cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_oracle_q2.json"))
    args = parser.parse_args(argv)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    samples = {label: [] for label, _, _ in CASES}
    for _ in range(args.runs):
        for label, _, _ in CASES:
            out = subprocess.run([sys.executable, __file__, "--child", label],
                                 capture_output=True, text=True, check=True, env=env)
            samples[label].append(json.loads(out.stdout.splitlines()[-1]))
    rows = []
    for label, order, h2 in CASES:
        runs = samples[label]
        row = {"case": label, "order": order, "rank": runs[0]["rank"],
               "lattice_s": _quartiles([r["lattice_s"] for r in runs])}
        if h2:
            row.update(d1_shape=runs[0]["d1_shape"], bar_d1_shape=runs[0]["bar_d1_shape"],
                       h2=runs[0]["h2"],
                       seconds=_quartiles([r["seconds"] for r in runs]),
                       base_rss_mb=_quartiles([r["base_rss_mb"] for r in runs]))
        row.update(peak_rss_mb=_quartiles([r["peak_rss_mb"] for r in runs]), runs=len(runs))
        rows.append(row)
        degree2 = (f"d1={row['d1_shape']} H2={row['h2']} {row['seconds']['median']:.3f} s "
                   if h2 else "")
        print(f"{label:24s} |G|={order:3d} lattices {row['lattice_s']['median']:.3f} s "
              f"{degree2}peak {row['peak_rss_mb']['median']:.1f} MiB")
    record = {
        "what": "character_lattices and cohomology(lattice, 2) from a cold start, per case",
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "cases": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(sys.argv[2])
    else:
        main()

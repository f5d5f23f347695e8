"""Degree-2 cost of the bar-resolution oracle against the group order.

For each case below, a fresh interpreter builds the character lattices
of a datum and computes H^2 of one of them with ``cmtori.cohomology``,
timing only that call (cold caches, as for a CLI command).  Each case is
run ``--runs`` times in turn; the script writes the median and quartiles
of the time, the peak resident set of the process (``ru_maxrss``) after
and before the call, with the shape of d_1 that the oracle eliminates,
to ``BENCH_oracle_q2.json``:

    python scripts/oracle_cost.py --runs 5

Run it from the root of a checkout; it imports ``src/``.  The cases are
the CM torus lattice of a cyclic group of each order 4, 8, 12, 16, 24,
plus the heaviest lattice the test suite and the benchmark meet at two
orders: the rank-15 norm-one lattice of Ono's (Z/2)^4 example (order 16)
and the rank-13 torus lattice of A4 x C2 (order 24).  This is the
evidence for the degree-2 budget, ``CohomologyBudget.max_order_q2``.
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

# (label, order); the child builds each from its label
CASES = [(f"C{n} CM torus", n) for n in ORDERS] + [
    ("(Z/2)^4 Ono norm-one", 16),
    ("A4 x C2 CM torus", 24),
]


def _datum(label):
    from cmtori.datum import NormTorusDatum, TorusPair
    from cmtori.groups import (
        cyclic,
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
    else:
        n = int(label.split()[0][1:])
        g, iota = cyclic(n), n // 2
    pair = TorusPair(trivial_subgroup(g), subgroup_generated(g, [iota]))
    return NormTorusDatum(g, (pair,), iota=iota), "torus"


def child(label):
    """Runs in a fresh interpreter: one H^2, timed; prints one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    from cmtori.cohomology import CohomologyBudget, cohomology
    from cmtori.lattice import character_lattices

    datum, kind = _datum(label)
    lattice = getattr(character_lattices(datum), kind)
    budget = CohomologyBudget(max_order_q2=max(ORDERS))
    base_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    h2 = cohomology(lattice, 2, budget).group
    seconds = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = datum.group.order - 1
    print(json.dumps({
        "seconds": seconds, "peak_rss_mb": peak_kib / 1024, "base_rss_mb": base_kib / 1024,
        "rank": lattice.rank, "d1_shape": [lattice.rank * m * m, lattice.rank * m],
        "h2": list(h2.factors)}))


def _cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_oracle_q2.json"))
    args = parser.parse_args(argv)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    samples = {label: [] for label, _ in CASES}
    for _ in range(args.runs):
        for label, _ in CASES:
            out = subprocess.run([sys.executable, __file__, "--child", label],
                                 capture_output=True, text=True, check=True, env=env)
            samples[label].append(json.loads(out.stdout.splitlines()[-1]))
    rows = []
    for label, order in CASES:
        runs = samples[label]
        rows.append({
            "case": label, "order": order, "rank": runs[0]["rank"],
            "d1_shape": runs[0]["d1_shape"], "h2": runs[0]["h2"],
            "seconds": _quartiles([r["seconds"] for r in runs]),
            "peak_rss_mb": _quartiles([r["peak_rss_mb"] for r in runs]),
            "base_rss_mb": _quartiles([r["base_rss_mb"] for r in runs]),
            "runs": len(runs),
        })
        print(f"{label:24s} |G|={order:3d} d1={runs[0]['d1_shape']} "
              f"H2={runs[0]['h2']} {rows[-1]['seconds']['median']:.3f} s "
              f"peak {rows[-1]['peak_rss_mb']['median']:.1f} MiB")
    record = {
        "what": "cohomology(lattice, 2) from a cold start, per case",
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

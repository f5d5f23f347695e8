"""Cost of the product pipeline on quaternion data of disjoint Landau families.

For each family size r in ``SIZES``, a fresh interpreter builds the
``q8_landau`` data of the first r pairs of
``disjoint_family(search(10**4, 100).pairs, r)``, then times one call of
``engine.product_tamagawa`` on them (``seconds``).  It records tau (as
num/den), whether tau is the product of the factors' predicted tau, the
two flags of the report and the peak resident set of the process after
the call.  The sizes run in order, and the script stops after the first
size whose median ``seconds`` exceeds ``STOP_S`` (a minute); 1,431 is
every distinct p of ``search(10**4, 100)``.

With ``--parent-src``, the sizes 1, 2 and 3 (the ones the Cayley-table
route of older checkouts handles) also run on that ``src/`` directory, in
turn with this checkout's, and their rows go under ``"parent"``:

    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python scripts/product_cost.py --runs 5 --parent-src /tmp/parent/src

Both ``src/`` trees are byte-compiled first.  The script writes the
median and quartiles of every time to ``BENCH_product.json``.  Run it
from the root of a checkout; it imports ``src/`` and changes nothing
else.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy

from oracle_cost import _cpu_model, _quartiles
from tau_cost import _peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 2, 3, 4, 8, 16, 64, 256, 1024, 1431)
PARENT_SIZES = (1, 2, 3)
STOP_S = 60.0


def child(src, r):
    """Runs in a fresh interpreter: one product of r quaternion data; prints one JSON line."""
    sys.path.insert(0, src)
    from cmtori.constructors import q8_landau
    from cmtori.engine import product_tamagawa
    from cmtori.landau import disjoint_family, search

    family = disjoint_family(search(10 ** 4, 100).pairs, r)
    results = [q8_landau(pair.p, pair.q) for pair in family]
    start = time.perf_counter()
    report = product_tamagawa([result.datum for result in results])
    seconds = time.perf_counter() - start
    predicted = Fraction(1)
    for result in results:
        predicted *= result.predicted_tau
    print(json.dumps({"tau": str(report.combined.tau),
                      "predicted": report.combined.tau == predicted,
                      "multiplicative": report.multiplicative,
                      "primitive_inclusion": report.primitive_inclusion,
                      "seconds": seconds,
                      "peak_rss_mb": _peak_rss_mb()}))


def _run_child(src, r):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--child", str(src), str(r)],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def _row(r, samples):
    first = samples[0]
    return {"r": r, "tau": first["tau"], "predicted": first["predicted"],
            "multiplicative": first["multiplicative"],
            "primitive_inclusion": first["primitive_inclusion"],
            "seconds": _quartiles([s["seconds"] for s in samples]),
            "peak_rss_mb": _quartiles([s["peak_rss_mb"] for s in samples]),
            "runs": len(samples)}


def measure(sizes, runs, parent_src=None):
    """(rows of this checkout, rows of the parent ``src/``), one per size."""
    src = ROOT / "src"
    rows, parent_rows = [], []
    for r in sizes:
        mine, theirs = [], []
        for _ in range(runs):
            mine.append(_run_child(src, r))
            if parent_src is not None and r in PARENT_SIZES:
                theirs.append(_run_child(parent_src, r))
        rows.append(_row(r, mine))
        line = f"r={r:5d} seconds {rows[-1]['seconds']['median']:.4f}"
        if theirs:
            parent_rows.append(_row(r, theirs))
            line += f" (parent {parent_rows[-1]['seconds']['median']:.4f})"
        print(line + f" tau {rows[-1]['tau']}", flush=True)
        if rows[-1]["seconds"]["median"] > STOP_S:
            break
    return rows, parent_rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--parent-src", type=Path)
    parser.add_argument("--out", default=str(ROOT / "BENCH_product.json"))
    args = parser.parse_args(argv)
    for src in filter(None, (ROOT / "src", args.parent_src)):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True)
    rows, parent_rows = measure(SIZES, args.runs, args.parent_src)
    record = {
        "what": "engine.product_tamagawa on the q8_landau data of the first r pairs of "
                "disjoint_family(search(10**4, 100).pairs, r), one fresh interpreter per run",
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "sizes": rows,
    }
    if parent_rows:
        record["parent"] = parent_rows
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(sys.argv[2], int(sys.argv[3]))
    else:
        main()

"""Census of ``tau cyclotomic``: the table-free route against the table engine
and against the predicted tau.

    python scripts/cyclotomic_census.py
    python scripts/cyclotomic_census.py --max-phi 512 --n-max 60000

Two parts, written to ``BENCH_cyclotomic.json``:

- ``table``: for every admissible n (n > 2, n odd or 4 | n) with
  phi(n) <= ``--max-phi``, ``constructors.cyclotomic_report(n)`` against
  ``engine.tamagawa(constructors.cyclotomic(n).datum)``, the Cayley-table
  engine, field by field; the n whose reports differ, and the time each
  side took.
- ``prediction``: for every admissible n <= ``--n-max``, the route's tau
  against the predicted tau (1 for n = 4 or an odd prime power, 2
  otherwise), computed here from a sieve; the n with tau = 1
  (every other n has tau = 2), the n that disagree, and the time the route
  took in all and on its slowest n.

At the defaults, on 2 shared vCPUs with Python 3.11.7, the first part
takes 0.9 s on the route against 28 s on the table engine, and the
second about a minute (61 s for 44,999 n).

Run it from the root of a checkout; it imports ``src/``.
"""

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from cmtori import constructors, engine  # noqa: E402
from oracle_cost import _cpu_model  # noqa: E402

FIELDS = ("h1_torus", "h1_norm_one", "primitive_order", "sha2", "tau", "n_k", "exact")


def admissible(n_max):
    """Every n in 3..n_max with n odd or 4 | n."""
    return [n for n in range(3, n_max + 1) if n % 2 or n % 4 == 0]


def admissible_to_phi(max_phi):
    """Every admissible n with phi(n) <= max_phi, by a totient sieve.

    phi(n) / n >= prod_{p <= 17} (1 - 1/p) > 1/6 below 2*3*...*19 = 9,699,690,
    so phi(n) <= max_phi forces n <= 6 max_phi while that is below it."""
    limit = 6 * max_phi
    if limit >= 9_699_690:
        raise ValueError("max_phi too large for the sieve bound")
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return [n for n in admissible(limit) if phi[n] <= max_phi]


def predicted_taus(n_max):
    """tau[n] = 1 for n = 4 or an odd prime power, 2 otherwise, from a
    smallest-prime-factor sieve (no cmtori code)."""
    spf = list(range(n_max + 1))
    for p in range(2, int(n_max ** 0.5) + 1):
        if spf[p] == p:
            for k in range(p * p, n_max + 1, p):
                if spf[k] == k:
                    spf[k] = p
    tau = [2] * (n_max + 1)
    for n in range(3, n_max + 1):
        m = n
        while m % spf[n] == 0:
            m //= spf[n]
        if m == 1 and (spf[n] != 2 or n == 4):
            tau[n] = 1
    return tau


def table_part(max_phi):
    values = admissible_to_phi(max_phi)
    route_s = table_s = 0.0
    differ = []
    for n in values:
        start = time.perf_counter()
        report, _ = constructors.cyclotomic_report(n)
        route_s += time.perf_counter() - start
        start = time.perf_counter()
        reference = engine.tamagawa(constructors.cyclotomic(n).datum)
        table_s += time.perf_counter() - start
        if any(getattr(report, f) != getattr(reference, f) for f in FIELDS):
            differ.append(n)
    return {"max_phi": max_phi, "count": len(values), "fields": list(FIELDS),
            "identical": not differ, "differ": differ,
            "route_s": route_s, "table_s": table_s}


def prediction_part(n_max):
    values = admissible(n_max)
    predicted = predicted_taus(n_max)
    ones, disagree = [], []
    slowest = (0.0, None)
    start_all = time.perf_counter()
    for n in values:
        start = time.perf_counter()
        report, _ = constructors.cyclotomic_report(n)
        seconds = time.perf_counter() - start
        slowest = max(slowest, (seconds, n))
        if report.tau == 1:
            ones.append(n)
        if report.tau != predicted[n]:
            disagree.append(n)
    total = time.perf_counter() - start_all
    return {"n_max": n_max, "count": len(values), "agree": not disagree,
            "disagree": disagree, "tau_1": ones, "tau_2_count": len(values) - len(ones),
            "route_s": total, "slowest_s": slowest[0], "slowest_n": slowest[1]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-phi", type=int, default=512)
    parser.add_argument("--n-max", type=int, default=60_000)
    parser.add_argument("--out", default=str(ROOT / "BENCH_cyclotomic.json"))
    args = parser.parse_args(argv)
    table = table_part(args.max_phi)
    print(f"phi(n) <= {table['max_phi']}: {table['count']} n, identical={table['identical']}, "
          f"route {table['route_s']:.2f} s, table engine {table['table_s']:.2f} s")
    prediction = prediction_part(args.n_max)
    print(f"n <= {prediction['n_max']}: {prediction['count']} n, agree={prediction['agree']}, "
          f"tau = 1 on {len(prediction['tau_1'])}, route {prediction['route_s']:.2f} s, "
          f"slowest n = {prediction['slowest_n']} ({prediction['slowest_s']:.4f} s)")
    record = {
        "what": "tau cyclotomic by constructors.cyclotomic_report: against the table engine "
                "on every admissible n with phi(n) <= max_phi, and against the predicted tau "
                "on every admissible n <= n_max; one process, times in seconds",
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "table": table,
        "prediction": prediction,
    }
    # one line per list of integers, not one line per integer
    text = re.sub(r"\[\n\s*(\d[\d,\s]*?)\n\s*\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(record, indent=1))
    Path(args.out).write_text(text + "\n")
    return 0 if table["identical"] and prediction["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())

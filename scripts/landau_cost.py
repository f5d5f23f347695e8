"""Cost of the Landau search, stage by stage.

For each size (a <= 1e4 and a <= 1e5 by default, each at b <= 100; the
sizes are every pair of a ``--a-max`` and a ``--b-max``), a fresh
interpreter runs ``cmtori.landau.search`` on one worker twice: once as
is (``search_s``), and once with the stages of the scan wrapped by
timers and counters (``traced_search_s``).  The stages are

- ``p_sieve``: the complete residue sieve on p = 1 + 4a^2 (``_sieve_p``,
  which finds the roots of 4a^2 + 1 modulo the sieving primes on first
  use); its survivors are the prime p, so ``p_tests`` (``is_prime_u64``
  calls on p) stays 0;
- ``q_sieve``: the table sieve on q = 1 + p b^2 (``_sieve_q``, which
  builds the table of a window of 64 even b on first use; ``q_tables``
  counts the builds);
- ``certificate``: the batched Fermat and Pocklington tests
  (``_certify_batch``);
- ``q_fallback``: ``is_prime_u64`` on a q the certificate does not
  decide, or may not decide (q below the sieve bound, or p <= b^2).

Each size is run ``--runs`` times in turn; the script writes the median
and quartiles of every time, and the counts of the first run (they do
not vary), to ``BENCH_landau.json``:

    python scripts/landau_cost.py --runs 5
    python scripts/landau_cost.py --runs 5 --a-max 100000 --b-max 100 --b-max 1000

Run it from the root of a checkout; it imports ``src/``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy

from oracle_cost import _cpu_model, _quartiles

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("p_sieve", "q_sieve", "certificate", "q_fallback")


def _traced_search(landau, a_max, b_max):
    """The search with its stages timed; (seconds, stage seconds, counts).

    ``_scan_chunk`` calls ``_sieve_p`` once per block and ``_sieve_q``
    before the q-tests of a window, so the last of the two entered tells
    which stage an ``is_prime_u64`` call belongs to."""
    seconds = dict.fromkeys(STAGES, 0.0)
    counts = {"p_sieve_survivors": 0, "p_tests": 0, "primes_p": 0,
              "q_sieve_survivors": 0, "certified": 0, "fermat_rejected": 0,
              "undecided": 0, "q_fallbacks": 0}
    stage = ["p_sieve"]
    originals = {name: getattr(landau, name)
                 for name in ("_sieve_p", "_sieve_q", "_certify_batch", "is_prime_u64")}

    def sieve_p(lo, hi, bound):
        start = time.perf_counter()
        out = originals["_sieve_p"](lo, hi, bound)
        seconds["p_sieve"] += time.perf_counter() - start
        counts["p_sieve_survivors"] += len(out)
        stage[0] = "p_sieve"
        return out

    def sieve_q(p, window, width):
        start = time.perf_counter()
        out = originals["_sieve_q"](p, window, width)
        seconds["q_sieve"] += time.perf_counter() - start
        stage[0] = "q_fallback"
        return out

    def certify(*args):
        start = time.perf_counter()
        out = originals["_certify_batch"](*args)
        seconds["certificate"] += time.perf_counter() - start
        counts["certified"] += int((out == 1).sum())
        counts["fermat_rejected"] += int((out == 0).sum())
        counts["undecided"] += int((out < 0).sum())
        return out

    def is_prime(n):
        start = time.perf_counter()
        out = originals["is_prime_u64"](n)
        seconds[stage[0]] += time.perf_counter() - start
        counts["p_tests" if stage[0] == "p_sieve" else "q_fallbacks"] += 1
        return out

    for cached in (landau._sieve_primes, landau._q_table, landau._p_roots):
        cached.cache_clear()  # cold tables and roots, as in the plain run
    for name, wrapper in (("_sieve_p", sieve_p), ("_sieve_q", sieve_q),
                          ("_certify_batch", certify), ("is_prime_u64", is_prime)):
        setattr(landau, name, wrapper)
    try:
        start = time.perf_counter()
        result = landau.search(a_max, b_max)
        elapsed = time.perf_counter() - start
    finally:
        for name, original in originals.items():
            setattr(landau, name, original)
    counts["q_tables"] = landau._q_table.cache_info().misses
    # every sieve survivor is prime; a q reaches the proof stage through
    # _certify_batch or straight to is_prime_u64
    counts["primes_p"] = counts["p_sieve_survivors"]
    counts["q_sieve_survivors"] = (counts["certified"] + counts["fermat_rejected"]
                                   + counts["q_fallbacks"])
    counts["pairs"] = result.pair_count
    return elapsed, seconds, counts


def child(a_max, b_max):
    """Runs in a fresh interpreter: the plain search, then the traced one;
    prints one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    from cmtori import landau

    start = time.perf_counter()
    pairs = landau.search(a_max, b_max).pair_count
    search_s = time.perf_counter() - start
    traced_s, seconds, counts = _traced_search(landau, a_max, b_max)
    if counts["pairs"] != pairs:
        raise SystemExit(f"traced search found {counts['pairs']} pairs, not {pairs}")
    print(json.dumps({"search_s": search_s, "traced_search_s": traced_s,
                      "stages": seconds, "counts": counts}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--a-max", type=int, action="append",
                        help="repeatable; default 10000 and 100000")
    parser.add_argument("--b-max", type=int, action="append",
                        help="repeatable; default 100")
    parser.add_argument("--out", default=str(ROOT / "BENCH_landau.json"))
    args = parser.parse_args(argv)
    sizes = [(a_max, b_max) for a_max in args.a_max or [10 ** 4, 10 ** 5]
             for b_max in args.b_max or [100]]
    samples = {size: [] for size in sizes}
    for _ in range(args.runs):
        for size in sizes:
            out = subprocess.run([sys.executable, __file__, "--child", *map(str, size)],
                                 capture_output=True, text=True, check=True)
            samples[size].append(json.loads(out.stdout.splitlines()[-1]))
    sys.path.insert(0, str(ROOT / "src"))
    from cmtori import landau

    rows = []
    for a_max, b_max in sizes:
        runs = samples[a_max, b_max]
        counts = dict(runs[0]["counts"])
        grid_q = counts["primes_p"] * (b_max // 2)
        counts.update(p_grid=a_max, q_grid=grid_q,
                      p_survivor_fraction=counts["p_sieve_survivors"] / a_max,
                      q_survivor_fraction=counts["q_sieve_survivors"] / grid_q,
                      is_prime_calls=counts["p_tests"] + counts["q_fallbacks"])
        row = {"a_max": a_max, "b_max": b_max, "runs": len(runs),
               "search_s": _quartiles([r["search_s"] for r in runs]),
               "traced_search_s": _quartiles([r["traced_search_s"] for r in runs]),
               "stages_s": {stage: _quartiles([r["stages"][stage] for r in runs])
                            for stage in STAGES},
               "counts": counts}
        rows.append(row)
        stages = " ".join(f"{stage} {row['stages_s'][stage]['median']:.3f}" for stage in STAGES)
        print(f"a<={a_max:<7d} b<={b_max:<5d} search {row['search_s']['median']:.3f} s | {stages} | "
              f"q survivors {counts['q_survivor_fraction']:.1%}, "
              f"is_prime_u64 {counts['is_prime_calls']}, pairs {counts['pairs']}")
    record = {
        "what": "landau.search(a_max, b_max) on one worker from a cold start, stage by stage",
        "sieve_bound": landau._SIEVE_BOUND, "block": landau._BLOCK,
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "sizes": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(int(sys.argv[2]), int(sys.argv[3]))
    else:
        main()

"""Cost of the Landau search, stage by stage, and of the CLI command around it.

For each size (a_max, b_max, workers) of ``SIZES``, or of the repeatable
``--size A B WORKERS``, a fresh interpreter runs, each from cold caches,

- ``search_s``: ``cmtori.landau.search(a_max, b_max, workers)`` as is;
- ``cli_s``: the whole command ``landau search --a-max A --b-max B
  --threads WORKERS --out FILE`` through ``cmtori.cli.main``: the search,
  the CSV file and the JSON report;
- ``traced_search_s``, on one worker only: the search with the stages of
  the scan wrapped by timers and counters.  The stages are
  - ``p_sieve``: the complete residue sieve on p = 1 + 4a^2
    (``_sieve_p``, which finds the roots of 4a^2 + 1 modulo the sieving
    primes on first use); its survivors are the prime p, so ``p_tests``
    (``is_prime_u64`` calls on p) stays 0;
  - ``q_sieve``: the table sieve on q = 1 + p b^2 (``_sieve_q``, which
    builds the table of a window of 64 even b on first use; ``q_tables``
    counts the builds);
  - ``certificate``: the batched Fermat and Pocklington tests
    (``_certify_batch``);
  - ``q_fallback``: ``is_prime_u64`` on a q the certificate does not
    decide, or may not decide (q below the sieve bound, or p <= b^2).

Each size is run ``--runs`` times in turn.  With ``--parent-src``, each
run is followed by the same run on that ``src/`` directory, and those
rows go under ``"parent"``:

    git archive --prefix=parent/ HEAD~1 | tar x -C /tmp
    python scripts/landau_cost.py --runs 5 --parent-src /tmp/parent/src

Both ``src/`` trees are byte-compiled first.  The script writes the
median and quartiles of every time, and the counts of the first run
(they do not vary), to ``BENCH_landau.json``.  Run it from the root of a
checkout; it imports ``src/`` and changes nothing else.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from oracle_cost import _cpu_model, _quartiles

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("p_sieve", "q_sieve", "certificate", "q_fallback")
# (a_max, b_max, workers): the benchmark's search, wider b, and the full scale
SIZES = ((10 ** 4, 100, 1), (10 ** 5, 100, 1), (10 ** 5, 300, 1), (10 ** 5, 1000, 1),
         (10 ** 6, 100, 2))


def _clear_caches(landau):
    """Cold tables and roots, as in a fresh process."""
    for cached in (landau._sieve_primes, landau._q_table, landau._p_roots):
        cached.cache_clear()


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

    _clear_caches(landau)
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


def _timed_cli(cli, a_max, b_max, workers):
    """(seconds, JSON report) of one ``landau search --out`` command."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["landau", "search", "--a-max", str(a_max), "--b-max", str(b_max),
                "--threads", str(workers), "--out", str(Path(tmp) / "pairs.csv")]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{argv} exited {code}: {buf.getvalue()}")
    return seconds, json.loads(buf.getvalue())


def child(src, a_max, b_max, workers):
    """Runs in a fresh interpreter: the plain search, the CLI command and,
    on one worker, the traced search; prints one JSON line."""
    sys.path.insert(0, src)
    from cmtori import cli, landau

    start = time.perf_counter()
    pairs = landau.search(a_max, b_max, workers).pair_count
    out = {"search_s": time.perf_counter() - start, "counts": {"pairs": pairs}}
    _clear_caches(landau)
    out["cli_s"], report = _timed_cli(cli, a_max, b_max, workers)
    if report["pair_count"] != pairs:
        raise SystemExit(f"the CLI found {report['pair_count']} pairs, not {pairs}")
    if workers == 1:
        out["traced_search_s"], out["stages"], out["counts"] = _traced_search(
            landau, a_max, b_max)
        if out["counts"]["pairs"] != pairs:
            raise SystemExit(f"traced search found {out['counts']['pairs']} pairs, not {pairs}")
    print(json.dumps(out))


def _run_child(src, size):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--child", str(src), *map(str, size)],
                         capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def _row(size, runs):
    a_max, b_max, workers = size
    counts = dict(runs[0]["counts"])
    row = {"a_max": a_max, "b_max": b_max, "workers": workers, "runs": len(runs),
           "search_s": _quartiles([r["search_s"] for r in runs]),
           "cli_s": _quartiles([r["cli_s"] for r in runs])}
    if workers == 1:
        grid_q = counts["primes_p"] * (b_max // 2)
        counts.update(p_grid=a_max, q_grid=grid_q,
                      p_survivor_fraction=counts["p_sieve_survivors"] / a_max,
                      q_survivor_fraction=counts["q_sieve_survivors"] / grid_q,
                      is_prime_calls=counts["p_tests"] + counts["q_fallbacks"])
        row["traced_search_s"] = _quartiles([r["traced_search_s"] for r in runs])
        row["stages_s"] = {stage: _quartiles([r["stages"][stage] for r in runs])
                           for stage in STAGES}
    row["counts"] = counts
    return row


def _line(row):
    line = (f"a<={row['a_max']:<7d} b<={row['b_max']:<5d} workers {row['workers']} "
            f"search {row['search_s']['median']:.3f} s, cli {row['cli_s']['median']:.3f} s")
    if "stages_s" in row:
        line += " | " + " ".join(f"{stage} {row['stages_s'][stage]['median']:.3f}"
                                 for stage in STAGES)
        counts = row["counts"]
        line += (f" | q survivors {counts['q_survivor_fraction']:.1%}, "
                 f"is_prime_u64 {counts['is_prime_calls']}")
    return line + f", pairs {row['counts']['pairs']}"


def measure(sizes, runs, parent_src=None):
    """(rows of this checkout, rows of the parent ``src/``), one per size."""
    rows, parent_rows = [], []
    for size in sizes:
        mine, theirs = [], []
        for _ in range(runs):
            mine.append(_run_child(ROOT / "src", size))
            if parent_src is not None:
                theirs.append(_run_child(parent_src, size))
        rows.append(_row(size, mine))
        print(_line(rows[-1]), flush=True)
        if theirs:
            parent_rows.append(_row(size, theirs))
            print("  parent " + _line(parent_rows[-1]), flush=True)
    return rows, parent_rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--size", type=int, nargs=3, action="append",
                        metavar=("A_MAX", "B_MAX", "WORKERS"),
                        help="repeatable; default the sizes of SIZES")
    parser.add_argument("--parent-src", type=Path)
    parser.add_argument("--out", default=str(ROOT / "BENCH_landau.json"))
    args = parser.parse_args(argv)
    for src in filter(None, (ROOT / "src", args.parent_src)):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True)
    rows, parent_rows = measure([tuple(size) for size in args.size or SIZES], args.runs,
                                args.parent_src)
    sys.path.insert(0, str(ROOT / "src"))
    from cmtori import landau

    record = {
        "what": "landau.search(a_max, b_max, workers) and the landau search --out command, "
                "each from a cold start in a fresh interpreter; stage by stage on one worker",
        "sieve_bound": landau._SIEVE_BOUND, "block": landau._BLOCK,
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "sizes": rows,
    }
    if parent_rows:
        record["parent"] = parent_rows
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--child":
        child(sys.argv[2], *map(int, sys.argv[3:]))
    else:
        main()

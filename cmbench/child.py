"""Runs one plan of cmtori operations in this interpreter and times them.

    python3 cmbench/child.py PLAN.json RESULT.json

The plan names the checkout's ``src`` directory, the operations, and how
to run them: ``passes`` timed passes (or as many as fit in ``seconds``),
after running the operations marked ``warm`` once untimed, and with one
extra traced pass when ``trace`` is set.  Times are taken here, around
each call, so interpreter start-up never enters them.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path


def _vm_hwm_mb():
    """Peak resident set of this process (VmHWM), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _ono(path):
    """Ono's example through the public lattice and cohomology calls."""
    from cmtori import cohomology, formats, lattice

    with open(path) as handle:
        datum = formats.datum_from_json(json.load(handle))
    lats = lattice.character_lattices(datum)
    h1 = cohomology.cohomology(lats.norm_one, 1).group
    sha = cohomology.sha_group(lats.norm_one, 2, datum.effective_decomposition_set())
    return {"h1": list(h1.factors), "sha2": list(sha.factors),
            "rank": lats.norm_one.rank, "order": datum.group.order}


def run_op(op):
    """(exit code, seconds, output); the output is the parsed JSON result."""
    from cmtori import cli

    buf = io.StringIO()
    start = time.perf_counter()
    try:
        if "call" in op:
            out = _ono(op["file"])
            code = 0
        else:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op["argv"])
            out = None
    except SystemExit as exc:
        code, out = exc.code if isinstance(exc.code, int) else 2, None
    except Exception:  # an operation that raises is counted as failed
        return -1, time.perf_counter() - start, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if out is None:
        text = buf.getvalue()
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            out = text
    return code, elapsed, out


def run_pass(ops):
    start = time.perf_counter()
    results = [run_op(op) for op in ops]
    wall = time.perf_counter() - start
    return {"wall_s": wall,
            "ops": [{"code": c, "s": s, "out": o} for c, s, o in results]}


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import cmtori.cli  # noqa: F401  (loads every cmtori module)

    loaded = Path(sys.modules["cmtori"].__file__).resolve()
    if Path(plan["src"]).resolve() not in loaded.parents:
        raise SystemExit(f"cmtori was imported from {loaded}, not the checkout")
    ops = plan["ops"]
    for op in ops:
        if op.get("warm"):
            run_op(op)
    passes = []
    begin = time.perf_counter()
    while len(passes) < plan["passes"]:
        passes.append(run_pass(ops))
        elapsed = time.perf_counter() - begin
        median = statistics.median(p["wall_s"] for p in passes)
        if plan.get("seconds") and elapsed + median > plan["seconds"]:
            break
    result = {"passes": passes, "peak_rss_mb": _vm_hwm_mb()}
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced = run_pass(ops)
        result["traced"] = traced
        result["layers"] = tracer.layers()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])

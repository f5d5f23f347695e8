"""Cost of the engine at the |G| = 512 cap, command by command.

The commands are those of the ``tau_cap`` workload of ``cmbench/inputs.py``
(seed 1001), with ``tau cyclotomic`` on both n the workload draws from
(771 and 1024), then ``tau datum`` on four abelian CM data of order 512
that the script writes from family specs: H = 1 and Ntilde = <iota> over
(Z/2)^9, C4^4 x C2, C8^3 and C2^5 x C16, with iota the product of the
involutions of the cyclic factors.  Every cyclic subgroup is a
decomposition group, so these stress the finite-abelian-group algebra.
For each command a fresh interpreter imports ``cmtori.cli`` and times one
call of ``cli.main`` on it (``wall_s``, with the peak resident set of the
process after it).  A second fresh interpreter runs the same command
with three stages of the group layer wrapped by the tracer of
``cmbench/spans.py``, and reports the self time and call count of each:

- ``cyclic_subgroups``: ``groups.cyclic_subgroups_up_to_conjugacy``, the
  cyclic floor of the decomposition groups, one per conjugacy class;
- ``subgroup_tables``: ``groups._subgroup_as_group``, the Cayley table of
  a subgroup in local coordinates (cache hits included);
- ``normality``: ``groups.is_normal``.

Each command is run ``--runs`` times in turn; the script writes the
median and quartiles of every time to ``BENCH_tau.json``:

    python scripts/tau_cost.py --runs 5

Run it from the root of a checkout; it imports ``src/`` and reads
``cmbench/`` without changing it.
"""

import argparse
import contextlib
import importlib.util
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
SEED = 1001
# stage -> the function of cmtori.groups it times
STAGES = {
    "cyclic_subgroups": "cyclic_subgroups_up_to_conjugacy",
    "subgroup_tables": "_subgroup_as_group",
    "normality": "is_normal",
}
# the cyclotomic n of the tau_cap workload near the cap -> phi(n)
CAP_CYCLOTOMIC = {771: 512, 1024: 512}
# datum file -> the orders of the cyclic factors of its group
ABELIAN_CAP = {"c2^9.json": (2,) * 9, "c4^4xc2.json": (4, 4, 4, 4, 2),
               "c8^3.json": (8, 8, 8), "c2^5xc16.json": (2,) * 5 + (16,)}


def _load(path):
    spec = importlib.util.spec_from_file_location(f"cmbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def abelian_cm_spec(orders):
    """The datum H = 1, Ntilde = <iota> over the product of cyclic groups of
    these orders, iota the product of their involutions (packed last factor
    fastest, as ``groups.direct_product`` packs)."""
    iota = 0
    for n in orders:
        iota = iota * n + n // 2
    return {"group": {"family": "product",
                      "factors": [{"family": "cyclic", "n": n} for n in orders]},
            "pairs": [{"H": [0], "Ntilde": [0, iota]}], "iota": iota}


def _trace_stages():
    """Wrap each stage wherever a cmtori module binds it; returns the tracer."""
    tracer = _load(ROOT / "cmbench" / "spans.py").Tracer()
    groups = sys.modules["cmtori.groups"]
    modules = [m for n, m in sys.modules.items() if n == "cmtori" or n.startswith("cmtori.")]
    for stage, attr in STAGES.items():
        original = getattr(groups, attr)
        wrapper = tracer.span(stage, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return tracer


def _peak_rss_mb():
    """Peak resident set of this process (VmHWM), in MiB.  Not ru_maxrss:
    Linux carries that across exec, so a child would report the peak of
    the process that started it (this script's main process, which loads
    sympy through ``cmbench/inputs.py``) whenever that is larger."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def child(traced, argv):
    """Runs in a fresh interpreter: one CLI command, timed; prints one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    from cmtori import cli

    tracer = _trace_stages() if traced else None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}")
    out = {"seconds": seconds,
           "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out["stages"] = {stage: {"self_s": tracer.self_s.get(stage, 0.0),
                                 "calls": tracer.calls.get(stage, 0)} for stage in STAGES}
    print(json.dumps(out))


def measure(files, commands, runs):
    """One row per (argv, order) in ``commands``, each run ``runs`` times in
    turn, in a directory that holds the datum ``files``."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    plain = {i: [] for i in range(len(commands))}
    traced = {i: [] for i in range(len(commands))}
    with tempfile.TemporaryDirectory() as work:
        for name, payload in files.items():
            Path(work, name).write_text(json.dumps(payload))
        for _ in range(runs):
            for i, (argv, _) in enumerate(commands):
                for flag, samples in (("0", plain), ("1", traced)):
                    out = subprocess.run([sys.executable, __file__, "--child", flag, *argv],
                                         cwd=work, capture_output=True, text=True,
                                         check=True, env=env)
                    samples[i].append(json.loads(out.stdout.splitlines()[-1]))
    rows = []
    for i, (argv, order) in enumerate(commands):
        stages = {stage: {"self_s": _quartiles([r["stages"][stage]["self_s"]
                                                for r in traced[i]]),
                          "calls": traced[i][0]["stages"][stage]["calls"]}
                  for stage in STAGES}
        rows.append({"argv": argv, "order": order,
                     "wall_s": _quartiles([r["seconds"] for r in plain[i]]),
                     "peak_rss_mb": _quartiles([r["peak_rss_mb"] for r in plain[i]]),
                     "stages": stages, "runs": runs})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_tau.json"))
    args = parser.parse_args(argv)
    # where PYTHONDONTWRITEBYTECODE is set, a module with stale byte code is
    # compiled again in every child, which raises its peak RSS by about 2 MiB
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    spec = _load(ROOT / "cmbench" / "inputs.py").tau_cap(SEED)
    files = dict(spec["files"])
    commands = [(op["argv"], op["order"]) for op in spec["ops"]]
    # the workload draws one of 771 and 1024 per seed: time both
    for n, order in CAP_CYCLOTOMIC.items():
        argv = ["tau", "cyclotomic", str(n)]
        if (argv, order) not in commands:
            commands.insert(2, (argv, order))
    for name, orders in ABELIAN_CAP.items():
        files[name] = abelian_cm_spec(orders)
        commands.append((["tau", "datum", name], 512))
    rows = measure(files, commands, args.runs)
    for row in rows:
        stages = " ".join(f"{stage} {row['stages'][stage]['self_s']['median']:.3f} s"
                          for stage in STAGES)
        print(f"{' '.join(row['argv'])[:40]:40s} |G|={row['order']} "
              f"{row['wall_s']['median']:.3f} s ({stages})")
    record = {
        "what": f"cli.main on each tau_cap command of cmbench/inputs.py (seed {SEED}) "
                "and on tau datum for four abelian CM data of order 512, from a cold start",
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "commands": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) > 3 and sys.argv[1] == "--child":
        child(sys.argv[2] == "1", sys.argv[3:])
    else:
        main()

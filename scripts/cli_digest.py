"""A digest of the CLI's output on the benchmark's commands, to compare checkouts.

    python scripts/cli_digest.py --seeds 1 2

For each seed, runs ``cmtori.cli.main`` in this process on every command
of the ``tau_cap``, ``tau_sweep`` and ``oracle_verify`` workloads of
``cmbench/inputs.py`` (``--workloads`` picks fewer), each workload in a
directory of its own that holds its datum files.  Then it runs the
probes: data whose permutation generators have a malformed shape, through
``tau datum``, ``oracle verify`` and ``classify``.  Last it runs
``landau search`` at a <= 1e5, b <= 100 (the ``landau_search`` workload)
and at a <= 2000, b <= 300 (three windows of 64 even b), whatever the
seeds.  It prints one line per group, with the number of commands and a
SHA-256 of their (argv, exit code, standard output) triples:

    workloads commands=<n> sha256=<hex>
    probes commands=18 sha256=<hex>
    landau commands=2 sha256=<hex>

For ``landau search`` the standard output is the JSON with its
``elapsed_ms`` removed (the search reports its own run time), followed by
the bytes of the CSV it wrote.  Equal digests mean byte-identical output
and exit codes.  A command that raises is recorded with the name of its
exception in place of an exit code.  The ``oracle_verify`` step that
calls the library directly (Ono's example) is not a CLI command and is
skipped.  Run it from the root of a checkout; it imports ``src/`` and
reads ``cmbench/`` without changing it.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cmtori import cli  # noqa: E402

_spec = importlib.util.spec_from_file_location("cmbench_inputs", ROOT / "cmbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

WORKLOADS = ("tau_cap", "tau_sweep", "oracle_verify")
PROBE_GENERATORS = ([5], ["abc"], [{"a": 1}], [None], [[[0, 1], 2]], [[0, [1, 2]]])
PROBE_COMMANDS = (["tau", "datum"], ["oracle", "verify"], ["classify"])
LANDAU_SIZES = ((10 ** 5, 100), (2000, 300))


def workload_plans(workloads, seeds):
    """(files, argv lists) per seed and workload, in that order."""
    plans = []
    for seed in seeds:
        for name in workloads:
            spec = inputs.WORKLOADS[name](seed)
            plans.append((spec["files"], [op["argv"] for op in spec["ops"] if "argv" in op]))
    return plans


def probe_plans():
    files = {f"probe{k}.json": {"group": {"permutation_generators": gens, "degree": 3},
                                "pairs": []}
             for k, gens in enumerate(PROBE_GENERATORS)}
    return [(files, [command + [name] for name in files for command in PROBE_COMMANDS])]


def landau_plans():
    argvs = [["landau", "search", "--a-max", str(a_max), "--b-max", str(b_max),
              "--out", f"pairs_{a_max}_{b_max}.csv"] for a_max, b_max in LANDAU_SIZES]
    return [({}, argvs)]


def _run(argv):
    """(exit code or exception name, standard output) of one command."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is an outcome to record, not to stop at
        code = type(exc).__name__
    return code, buf.getvalue()


def _run_landau(argv):
    """``_run``, with the search's run time dropped from its JSON and the
    CSV it wrote appended."""
    code, out = _run(argv)
    if code == 0:
        payload = json.loads(out)
        del payload["elapsed_ms"]
        out = json.dumps(payload) + Path(payload["out"]).read_text()
    return code, out


def digest(plans, run):
    """(command count, SHA-256 hex digest) over every command of the plans."""
    sha = hashlib.sha256()
    count = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for k, (files, argvs) in enumerate(plans):
            work = Path(tmp) / str(k)
            work.mkdir()
            for name, payload in files.items():
                (work / name).write_text(json.dumps(payload))
            os.chdir(work)
            try:
                for argv in argvs:
                    sha.update(json.dumps([argv, *run(argv)]).encode() + b"\n")
                    count += 1
            finally:
                os.chdir(cwd)
    return count, sha.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1001])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    for label, plans, run in (("workloads", workload_plans(args.workloads, args.seeds), _run),
                              ("probes", probe_plans(), _run),
                              ("landau", landau_plans(), _run_landau)):
        count, hexdigest = digest(plans, run)
        print(f"{label} commands={count} sha256={hexdigest}", flush=True)


if __name__ == "__main__":
    main()

"""Start-up cost of the CLI: imports and trivial commands, each in a fresh interpreter.

Every CLI command pays for the interpreter and its imports before any
work.  This script times, as the wall time of a fresh ``python`` process
started from here:

- ``imports``: a bare interpreter (``pass``), ``import numpy``,
  ``import jsonschema`` (a test dependency only, kept as the reference
  for the import the CLI no longer makes), and ``import cmtori.M`` for
  each module M, in the order the modules import each other, ending
  with ``cmtori.cli``;
- ``commands``: ``tau cyclotomic 12``, ``oracle verify`` on one datum
  of the benchmark corpus (``cmbench/inputs.py``) and
  ``landau search --a-max 100 --b-max 100``, each run with
  ``python -m cmtori.cli``.

It first byte-compiles ``src/`` with ``python -m compileall``: where
``PYTHONDONTWRITEBYTECODE`` is set, a module whose cached byte code is
stale is compiled again at every start, which would be timed too.  Each
case runs ``--runs`` times, all cases in turn within a run; the script
writes the median and quartiles of each to ``BENCH_startup.json``:

    python scripts/startup_cost.py --runs 11

Run it from the root of a checkout; it imports ``src/`` and reads
``cmbench/`` without changing it.
"""

import argparse
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
MODULES = ("errors", "landau", "abelian", "groups", "transfer", "datum", "lattice", "engine",
           "cohomology", "constructors", "formats", "cli")
IMPORTS = {"interpreter": "pass", "numpy": "import numpy", "jsonschema": "import jsonschema"}
IMPORTS.update({f"cmtori.{m}": f"import cmtori.{m}" for m in MODULES})
CORPUS_DATUM = "q8_cm"
COMMANDS = {
    "tau cyclotomic 12": ["tau", "cyclotomic", "12"],
    f"oracle verify {CORPUS_DATUM}": ["oracle", "verify", f"{CORPUS_DATUM}.json"],
    "landau search --a-max 100": ["landau", "search", "--a-max", "100", "--b-max", "100"],
}


def _corpus_datum():
    spec = importlib.util.spec_from_file_location("cmbench_inputs",
                                                  ROOT / "cmbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return dict(inputs.cm_corpus())[CORPUS_DATUM]


def _seconds(argv, cwd, env):
    start = time.perf_counter()
    subprocess.run(argv, cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(runs):
    """{"imports": {case: quartiles}, "commands": {case: quartiles}}."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    cases = [("imports", name, [sys.executable, "-c", code]) for name, code in IMPORTS.items()]
    cases += [("commands", name, [sys.executable, "-m", "cmtori.cli", *argv])
              for name, argv in COMMANDS.items()]
    samples = {name: [] for _, name, _ in cases}
    with tempfile.TemporaryDirectory() as work:
        Path(work, f"{CORPUS_DATUM}.json").write_text(json.dumps(_corpus_datum()))
        for _ in range(runs):
            for _, name, argv in cases:
                samples[name].append(_seconds(argv, work, env))
    out = {"imports": {}, "commands": {}}
    for kind, name, _ in cases:
        out[kind][name] = _quartiles(samples[name])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11)
    parser.add_argument("--out", default=str(ROOT / "BENCH_startup.json"))
    args = parser.parse_args(argv)
    result = measure(args.runs)
    for kind in ("imports", "commands"):
        for name, q in result[kind].items():
            print(f"{kind:8s} {name:32s} {q['median']:.3f} s")
    record = {
        "what": "wall time of a fresh interpreter per case, byte code compiled first",
        "runs": args.runs,
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        **result,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()

"""End-to-end benchmark of cmtori: the engine, the oracle and the Landau search.

    python3 cmbench/run.py --workload tau_cap --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; cmtori is imported from its ``src``.
Workloads (see README.md): tau_cap, tau_sweep, oracle_verify,
landau_search.  Every output is checked against values computed without
cmtori.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A full record of the run goes to ``.cmbench_records/`` in the checkout.
"""

from __future__ import annotations

import os

# one thread per process: the workloads must not run more threads than cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".cmbench_records"
RUN_LIMIT_S = 170
SETUP_SAMPLES = 7
# a pass of these runs in a fresh interpreter, so cmtori's caches start empty
FRESH = ("tau_cap", "oracle_verify", "landau_search")


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _time_limit(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def measure_setup():
    """Median wall time of a fresh interpreter through ``import cmtori.cli``.

    One untimed start first, so byte-code compilation is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cmtori.cli"], cwd=ROOT,
                       env=_env(), check=True)
        if i:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_child(workdir, tag, plan):
    plan_path = workdir / f"plan_{tag}.json"
    result_path = workdir / f"result_{tag}.json"
    plan_path.write_text(json.dumps(dict(plan, src=str(SRC))))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(plan_path), str(result_path)],
        cwd=ROOT, env=_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"child {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def resolve(ops, workdir, files, pass_index):
    """Point file arguments at the work directory; outputs get one file per pass."""
    out = []
    for op in ops:
        op = dict(op)
        if "argv" in op:
            argv = []
            for arg in op["argv"]:
                if arg == op.get("out"):
                    arg = str(workdir / f"{pass_index}_{arg}")
                elif arg in files:
                    arg = str(workdir / arg)
                argv.append(arg)
            op["argv"] = argv
        if "file" in op:
            op["file"] = str(workdir / op["file"])
        out.append(op)
    return out


def run_workload(name, spec, seconds, trace, workdir):
    """Timed passes (and a traced one) -> (list of (pass, ops), peak RSS list, layers)."""
    for fname, payload in spec["files"].items():
        (workdir / fname).write_text(json.dumps(payload))
    ops = spec["ops"]
    passes, rss, layers = [], [], None
    if name not in FRESH:
        plan = {"ops": resolve(ops, workdir, spec["files"], 0), "trace": bool(trace),
                "passes": 1 if trace else 10 ** 6, "seconds": seconds}
        result = run_child(workdir, "sweep", plan)
        passes = [(p, plan["ops"]) for p in result["passes"]]
        rss.append(result["peak_rss_mb"])
        if trace:
            passes.append((result["traced"], plan["ops"]))
            layers = result["layers"]
        return passes, rss, layers
    rounds = []
    begin = time.perf_counter()
    while True:
        k = len(rounds)
        plan = {"ops": resolve(ops, workdir, spec["files"], k), "trace": False,
                "passes": 1}
        start = time.perf_counter()
        result = run_child(workdir, f"pass{k}", plan)
        rounds.append(time.perf_counter() - start)
        passes.append((result["passes"][0], plan["ops"]))
        rss.append(result["peak_rss_mb"])
        if trace or time.perf_counter() - begin + statistics.median(rounds) > seconds:
            break
    if trace:
        plan = {"ops": resolve(ops, workdir, spec["files"], len(rounds)), "trace": True,
                "passes": 0}
        result = run_child(workdir, "traced", plan)
        passes.append((result["traced"], plan["ops"]))
        layers = result["layers"]
    return passes, rss, layers


def _stable(out):
    """An output with its run-dependent fields removed."""
    if isinstance(out, dict):
        return {k: v for k, v in out.items() if k not in ("elapsed_ms", "out")}
    return out


def check(passes, seed):
    """(attempted, failures, problems): failures are operations that exited
    non-zero, problems are wrong outputs of the others."""
    import checks

    attempted = 0
    failures, problems = [], []
    firsts = {}
    for pass_result, ops in passes:
        for i, (op, res) in enumerate(zip(ops, pass_result["ops"])):
            attempted += 1
            label = op.get("argv", op.get("call"))
            if res["code"] != 0:
                failures.append(f"{label}: exit {res['code']} {str(res['out'])[-300:]}")
                continue
            out = res["out"]
            if op["check"] == "landau":
                csv = Path(op["argv"][op["argv"].index("--out") + 1]).read_text()
                out = dict(out, rows=[tuple(map(int, line.split(",")))
                                      for line in csv.splitlines()])
            if i in firsts:
                if _stable(out) != _stable(firsts[i]):
                    problems.append(f"{label}: output changed between passes")
                continue
            firsts[i] = out
            if op["check"] == "landau":
                found = checks.landau_problems(out["rows"], out, seed)
            else:
                found = checks.OP_CHECKS[op["check"]](op, out)
            problems.extend(f"{label}: {p}" for p in found)
    return attempted, failures, problems


def end_to_end(passes, rss, setup_s):
    """Medians over the run; an operation's time is its median over passes."""
    walls = [p["wall_s"] for p, _ in passes]
    per_op = [statistics.median(p["ops"][i]["s"] for p, _ in passes)
              for i in range(len(passes[0][0]["ops"]))]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(per_op),
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(layers, passes):
    """The traced pass's layers, and what tracing cost on the same inputs."""
    untraced, traced = passes[-2][0], passes[-1][0]
    return dict(layers, **{"trace.overhead_s": traced["wall_s"] - untraced["wall_s"]})


def sizes(spec, passes, layers):
    """Input sizes: |G| (or the search bounds) of each operation, the
    lattice and cochain sizes of Ono's example, and the traced maxima."""
    out = {"ops": [dict({"argv": op.get("argv", op.get("call"))},
                        **{k: op[k] for k in ("order", "a_max", "b_max") if k in op})
                   for op in spec["ops"]]}
    pass_result, ops = passes[0]
    for op, res in zip(ops, pass_result["ops"]):
        if op.get("call") == "ono" and res["code"] == 0:
            rank, m = res["out"]["rank"], res["out"]["order"] - 1
            out["ono"] = {"group_order": m + 1, "norm_one_rank": rank,
                          "cochain_dims": {f"C{q}": rank * m ** q for q in (1, 2, 3)}}
    if layers:
        out["lattice_max_rank"] = layers["lattice.max_rank"]
        out["max_cochain_dim"] = layers["cohomology.max_cochain_dim"]
    return out


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine():
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "jsonschema": _version("jsonschema"), "sympy": _version("sympy")}


def source_identity():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="cmtori end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["tau_cap", "tau_sweep", "oracle_verify", "landau_search"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cmtori" / "cli.py").is_file():
        print(f"cmtori sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    # subprocess.run kills its child when the alarm's exception reaches it;
    # a timeout= argument instead would poll the child in 50 ms steps
    signal.signal(signal.SIGALRM, _time_limit)
    signal.alarm(int(RUN_LIMIT_S))
    sys.path.insert(0, str(BENCH))
    import inputs

    spec = inputs.WORKLOADS[args.workload](args.seed)
    workdir = RECORDS / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup()
        passes, rss, layers = run_workload(args.workload, spec, args.seconds, args.trace,
                                           workdir)
        attempted, failures, problems = check(passes, args.seed)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(layers, passes) if args.trace else end_to_end(passes, rss, setup_s)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                         "BENCHMARK.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "source": source_identity(),
        "sizes": sizes(spec, passes, layers),
        "passes": [{"wall_s": p["wall_s"], "op_s": [o["s"] for o in p["ops"]]}
                   for p, _ in passes],
        "peak_rss_mb": rss, "failures": failures, "problems": problems,
        "metrics": metrics,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RECORDS / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}"
               f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    for line in failures + problems:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        sys.exit(1)

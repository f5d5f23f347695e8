import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from cmtori.landau import search

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_of_one_sample():
    assert _load("oracle_cost")._quartiles([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25}


def test_landau_cost_with_one_run(tmp_path):
    out = tmp_path / "landau.json"
    subprocess.run([sys.executable, str(SCRIPTS / "landau_cost.py"), "--runs", "1",
                    "--a-max", "300", "--out", str(out)], check=True, capture_output=True)
    (size,) = json.loads(out.read_text())["sizes"]
    counts = size["counts"]
    assert counts["pairs"] == search(300, 100).pair_count
    # the p-sieve is complete: its survivors are the primes, with no test
    assert counts["p_tests"] == 0
    assert counts["primes_p"] == counts["p_sieve_survivors"] <= counts["p_grid"] == 300
    assert counts["q_grid"] == counts["primes_p"] * 50
    assert counts["q_sieve_survivors"] == (counts["certified"] + counts["fermat_rejected"]
                                           + counts["q_fallbacks"])
    assert counts["certified"] + counts["q_fallbacks"] >= counts["pairs"]
    assert counts["is_prime_calls"] == counts["p_tests"] + counts["q_fallbacks"]
    assert counts["q_tables"] == 1  # b <= 100 is one window of 64 even b
    assert size["search_s"]["q1"] == size["search_s"]["median"] == size["search_s"]["q3"]


def test_oracle_cost_child_reports_both_d1_shapes():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "oracle_cost.py"), "--child",
                           "(Z/2)^4 Ono norm-one"], check=True, capture_output=True, text=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["d1_shape"] == [735, 60]
    assert out["bar_d1_shape"] == [3375, 225]
    assert out["h2"] == [2] * 6


def test_cli_digest_repeats_on_oracle_verify():
    runs = [subprocess.run([sys.executable, str(SCRIPTS / "cli_digest.py"), "--workloads",
                            "oracle_verify", "--seeds", "1"],
                           check=True, capture_output=True, text=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    workloads, probes, landau = runs[0].splitlines()
    assert workloads.startswith("workloads commands=28 sha256=")
    assert probes.startswith("probes commands=18 sha256=")
    assert landau.startswith("landau commands=2 sha256=")


def test_tau_cost_with_one_run(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))      # tau_cost imports oracle_cost
    tau_cost = _load("tau_cost")
    (row,) = tau_cost.measure({}, [(["tau", "cyclotomic", "15"], 8)], runs=1)
    assert row["argv"] == ["tau", "cyclotomic", "15"] and row["runs"] == 1
    assert row["wall_s"]["q1"] == row["wall_s"]["median"] == row["wall_s"]["q3"] > 0
    assert set(row["stages"]) == {"cyclic_subgroups", "subgroup_tables", "normality"}
    assert row["stages"]["cyclic_subgroups"]["calls"] == 1   # one datum
    assert all(stage["calls"] > 0 and stage["self_s"]["median"] >= 0
               for stage in row["stages"].values())


def test_startup_cost_with_one_run(tmp_path):
    out = tmp_path / "startup.json"
    subprocess.run([sys.executable, str(SCRIPTS / "startup_cost.py"), "--runs", "1",
                    "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert record["runs"] == 1
    imports, commands = record["imports"], record["commands"]
    assert list(imports)[:3] == ["interpreter", "numpy", "jsonschema"]
    assert list(imports)[-1] == "cmtori.cli" and len(imports) == 15
    assert list(commands) == ["tau cyclotomic 12", "oracle verify q8_cm",
                              "landau search --a-max 100"]
    for q in [*imports.values(), *commands.values()]:
        assert q["q1"] == q["median"] == q["q3"] > 0


def test_src_lines_counts_code_and_docstrings():
    src_lines = _load("src_lines")
    source = ('"""Module\n\ndocstring."""\n\n# a comment\nx = 1  # trailing\n\n\n'
              'def f():\n    """One line."""\n    return """not a\ndocstring"""\n')
    assert src_lines.count(source) == (4, 4)
    assert src_lines.count("y = 2\n") == (1, 0)
    out = subprocess.run([sys.executable, str(SCRIPTS / "src_lines.py")],
                         check=True, capture_output=True, text=True).stdout
    *modules, total = out.splitlines()
    counts = [[int(field.split("=")[1]) for field in line.split()[1:]] for line in modules]
    assert "engine.py" in {line.split()[0] for line in modules}
    assert total == "total code={} docstring={}".format(*map(sum, zip(*counts)))

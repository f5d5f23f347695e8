import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

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
                    "--size", "300", "100", "1", "--size", "300", "100", "2",
                    "--out", str(out)], check=True, capture_output=True)
    size, two = json.loads(out.read_text())["sizes"]
    counts = size["counts"]
    assert counts["pairs"] == two["counts"]["pairs"] == search(300, 100).pair_count
    # the p-sieve is complete: its survivors are the primes, with no test
    assert counts["p_tests"] == 0
    assert counts["primes_p"] == counts["p_sieve_survivors"] <= counts["p_grid"] == 300
    assert counts["q_grid"] == counts["primes_p"] * 50
    assert counts["q_sieve_survivors"] == (counts["certified"] + counts["fermat_rejected"]
                                           + counts["q_fallbacks"])
    assert counts["certified"] + counts["q_fallbacks"] >= counts["pairs"]
    assert counts["is_prime_calls"] == counts["p_tests"] + counts["q_fallbacks"]
    assert counts["q_tables"] == 1  # b <= 100 is one window of 64 even b
    for row, workers in ((size, 1), (two, 2)):
        assert row["workers"] == workers and row["runs"] == 1
        for field in ("search_s", "cli_s"):
            assert row[field]["q1"] == row[field]["median"] == row[field]["q3"] > 0
    # the stages are traced on one worker only
    assert "stages_s" in size and "stages_s" not in two


def test_oracle_cost_child_reports_both_d1_shapes():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "oracle_cost.py"), "--child",
                           "(Z/2)^4 Ono norm-one"], check=True, capture_output=True, text=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["d1_shape"] == [735, 60]
    assert out["bar_d1_shape"] == [3375, 225]
    assert out["h2"] == [2] * 6
    proc = subprocess.run([sys.executable, str(SCRIPTS / "oracle_cost.py"), "--child",
                           "(Z/2)^4 Ono norm-one", "verify"],
                          check=True, capture_output=True, text=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["all_passed"] is True and out["verify_s"] > 0


def test_cli_digest_repeats_on_oracle_verify():
    runs = [subprocess.run([sys.executable, str(SCRIPTS / "cli_digest.py"), "--workloads",
                            "oracle_verify", "--seeds", "1"],
                           check=True, capture_output=True, text=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    workloads, probes, landau, products = runs[0].splitlines()
    assert workloads.startswith("workloads commands=28 sha256=")
    assert probes.startswith("probes commands=18 sha256=")
    assert landau.startswith("landau commands=4 sha256=")
    assert products.startswith("products commands=6 sha256=")


def test_product_cost_up_to_four_factors(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))      # product_cost imports tau_cost
    product_cost = _load("product_cost")
    rows, parent_rows = product_cost.measure([1, 4], runs=1)
    assert parent_rows == []
    assert [(row["r"], row["tau"]) for row in rows] == [(1, "1/2"), (4, "1/16")]
    assert all(row["predicted"] and row["multiplicative"] and row["primitive_inclusion"]
               for row in rows)


def test_tau_cost_with_one_run(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))      # tau_cost imports oracle_cost
    tau_cost = _load("tau_cost")
    files = {"c4.json": tau_cost.abelian_cm_spec((4,))}
    (row,) = tau_cost.measure(files, [(["tau", "datum", "c4.json"], 4)], runs=1)
    assert row["argv"] == ["tau", "datum", "c4.json"] and row["runs"] == 1
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


def test_cyclotomic_census_at_a_tiny_bound(tmp_path):
    out = tmp_path / "cyclotomic.json"
    subprocess.run([sys.executable, str(SCRIPTS / "cyclotomic_census.py"), "--max-phi", "8",
                    "--n-max", "40", "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text())
    table, prediction = record["table"], record["prediction"]
    # phi(n) <= 8: 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24
    assert table["count"] == 11 and table["identical"] and table["differ"] == []
    assert prediction["count"] == 29 and prediction["agree"]
    assert prediction["tau_1"] == [3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37]
    assert prediction["tau_2_count"] == 29 - 15


def test_landau_recount_b_bound_cross_checks_search():
    """search(2000, 300) against the sympy recount at b <= 300, on seeded a."""
    pytest.importorskip("sympy")
    recount = _load("landau_recount")
    result = search(2000, 300)
    sample = {1, 2000} | set(random.Random(300).sample(range(1, 2001), 150))
    expected = set(recount.landau_pairs(sorted(sample), b_max=300))
    found = {(pair.a, pair.b) for pair in result.pairs if pair.a in sample}
    assert found == expected
    assert max(b for _, b in expected) > 100

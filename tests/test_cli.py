import json
import subprocess
import sys

import pytest

from corpus import cyclic_cm, empty_pairs_datum, noncm_coprime_product, q8_cm
from cmtori import cli, formats
from cmtori.cli import main
from cmtori.landau import is_prime_u64


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_tau_cyclotomic_12():
    code, out = run_cli(["tau", "cyclotomic", "12"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["tau"] == {"num": 2, "den": 1}
    assert payload["report"]["exact"] is True
    assert payload["agrees"] is True


def test_tau_cyclotomic_rejects_mod_2():
    for n in (1, 2, 6, 10):
        code, out = run_cli(["tau", "cyclotomic", str(n)])
        assert code == 3
        assert json.loads(out) == {"error": {
            "code": 3, "context": {"n": n},
            "message": "cyclotomic family needs n > 2 with n odd or 4 | n"}}
    for n in (2 ** 63, 2 ** 63 + 1, 10 ** 20):
        code, out = run_cli(["tau", "cyclotomic", str(n)])
        assert code == 3
        assert json.loads(out)["error"]["context"] == {"n": n}


def test_tau_cyclotomic_past_the_table_cap():
    """phi(1157) = 1,056: no table is built, and tau is the prediction."""
    code, out = run_cli(["tau", "cyclotomic", "1157"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["tau"] == payload["predicted_tau"] == {"num": 2, "den": 1}
    assert payload["agrees"] is True


# each command runs in a child under an address-space limit, so an
# unbounded allocation fails the child, not the host
_LIMITED_CLI = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from cmtori.cli import main
for arg in sys.argv[1:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["tau", "cyclotomic", arg])
    print(json.dumps([arg, code, json.loads(buf.getvalue())]))
"""


def test_tau_cyclotomic_adversarial_n_end_quickly():
    """Large prime powers, 2^62, products of many primes = 1 mod 2^k, a
    large prime = 1 mod 2^32 and a product of two primes near 2^31 end in
    a few seconds with exit 0 (or 3 past 2^63), never a traceback."""
    many = 1
    q = 65
    while True:                      # primes = 1 mod 64 while the product is below 2^63
        if is_prime_u64(q):
            if many * q >= 2 ** 63:
                break
            many *= q
        q += 64
    big = 2 ** 62 + 1
    while not is_prime_u64(big):
        big += 2 ** 32
    values = [2 ** 62, 3 ** 39, many, big, 2147483647 * 2147483629, 2 ** 63 - 1, 2 ** 63]
    proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, *map(str, values)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [int(arg) for arg, _, _ in rows] == values
    for arg, code, payload in rows:
        if int(arg) >= 2 ** 63:
            assert code == 3 and payload["error"]["context"] == {"n": int(arg)}
        else:
            assert code == 0 and payload["agrees"] is True, arg


def test_tau_q8():
    code, out = run_cli(["tau", "q8", "5", "181"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["tau"] == {"num": 1, "den": 2}
    assert payload["legendre"] == {"181": 1}
    code, out = run_cli(["tau", "q8", "5", "21"])
    payload = json.loads(out)
    assert payload["report"]["tau"] == {"num": 2, "den": 1}
    assert payload["legendre"] == {"3": -1, "7": -1}


def test_tau_q8_invalid_exit_code():
    code, out = run_cli(["tau", "q8", "5", "25"])
    assert code == 3


def test_datum_roundtrip_and_oracle(tmp_path):
    datum = q8_cm()
    payload = formats.datum_to_json(datum)
    reparsed = formats.datum_from_json(payload)
    assert formats.datum_to_json(reparsed) == payload
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["tau", "datum", str(path), "--oracle"])
    assert code == 0
    result = json.loads(out)
    assert result["report"]["tau"] == {"num": 1, "den": 2}
    assert result["oracle"]["agrees"] is True


def test_datum_empty_pairs(tmp_path):
    payload = formats.datum_to_json(empty_pairs_datum())
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["tau", "datum", str(path)])
    assert code == 0
    result = json.loads(out)
    assert result["report"]["tau"] == {"num": 1, "den": 1}
    assert result["report"]["primitive_order"] == 1


def test_byte_identical_output(tmp_path):
    payload = formats.datum_to_json(cyclic_cm(4))
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(payload))
    outs = {run_cli(["tau", "datum", str(path), "--oracle"])[1] for _ in range(3)}
    assert len(outs) == 1


def test_malformed_json_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run_cli(["tau", "datum", str(path)])
    assert code == 3
    assert "malformed" in json.loads(out)["error"]["message"]


def test_schema_rejects_bad_datum(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"group": {"family": "cyclic", "n": 2},
                                "pairs": [{"H": [0]}]}))
    code, out = run_cli(["tau", "datum", str(path)])
    assert code == 3
    assert "schema" in json.loads(out)["error"]["message"]


def test_ragged_table_exit_code(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"group": {"table": [[0, 1], [1]]},
                                "pairs": [{"H": [0], "Ntilde": [0]}]}))
    code, out = run_cli(["tau", "datum", str(path)])
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == 3
    assert error["message"] == "table is not square"
    assert error["context"] == {"row": 1, "length": 1}


def _datum_error(tmp_path, payload, command=("oracle", "verify")):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli([*command, str(path)])
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == 3
    return error


def test_family_without_n_exit_code(tmp_path):
    error = _datum_error(tmp_path, {"group": {"family": "cyclic"}, "pairs": []})
    assert error["message"] == "cyclic family spec needs 'n'"
    assert error["context"] == {"family": "cyclic"}


def test_cycle_entry_out_of_range_exit_code(tmp_path):
    error = _datum_error(tmp_path, {
        "group": {"permutation_generators": [[[0, 1, 2]], [[0, 3]]], "degree": 3},
        "pairs": []}, ("tau", "datum"))
    assert error["message"] == "cycle entry out of range"
    assert error["context"] == {"entry": 3, "degree": 3}


def test_overlapping_cycles_exit_code(tmp_path):
    error = _datum_error(tmp_path, {
        "group": {"permutation_generators": [[[0, 1]], [[0, 1], [0, 2]]], "degree": 3},
        "pairs": []}, ("tau", "datum"))
    assert error["message"] == "cycles of a generator are not disjoint"
    assert error["context"] == {"generator": 1, "point": 0}


@pytest.mark.parametrize("generators", [[5], ["abc"], [{"a": 1}], [None],
                                        [[[0, 1], 2]], [[0, [1, 2]]]], ids=json.dumps)
@pytest.mark.parametrize("command", [("tau", "datum"), ("oracle", "verify"), ("classify",)],
                         ids=" ".join)
def test_malformed_permutation_generator_exit_code(tmp_path, command, generators):
    # a generator is an image array of integers or a list of integer cycles
    error = _datum_error(tmp_path, {
        "group": {"permutation_generators": generators, "degree": 3},
        "pairs": []}, command)
    assert error["message"].startswith("payload violates schema datum.schema.json")


def test_ntilde_element_out_of_range_exit_code(tmp_path):
    error = _datum_error(tmp_path, {"group": {"family": "cyclic", "n": 4},
                                    "pairs": [{"H": [0], "Ntilde": [0, 2, 4]}]})
    assert error["message"] == "subgroup element out of range"
    assert error["context"] == {"element": 4, "order": 4}


@pytest.mark.parametrize("command", [("tau", "datum"), ("oracle", "verify"), ("classify",)],
                         ids=" ".join)
def test_table_entry_beyond_int64_exit_code(tmp_path, command):
    for entry in (10 ** 40, 2 ** 63):
        error = _datum_error(tmp_path, {"group": {"order": 2, "table": [[0, 1], [1, entry]]},
                                        "pairs": []}, command)
        assert error["message"] == "table entry out of range"
        assert error["context"] == {}


def test_fast_path_unavailable_exit_code(tmp_path):
    from cmtori.datum import NormTorusDatum, TorusPair
    from cmtori.groups import dihedral, subgroup_generated, trivial_subgroup

    g = dihedral(3)
    datum = NormTorusDatum(g, (TorusPair(trivial_subgroup(g),
                                         subgroup_generated(g, [3])),))
    path = tmp_path / "np.json"
    path.write_text(json.dumps(formats.datum_to_json(datum)))
    code, out = run_cli(["tau", "datum", str(path)])
    assert code == 4


def test_budget_exit_code(tmp_path):
    payload = formats.datum_to_json(cyclic_cm(4))
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["tau", "datum", str(path), "--oracle", "--max-order", "2"])
    assert code == 5


def test_degree_one_budget_checked_before_lattices(tmp_path, monkeypatch):
    # |G| = 128 is over the degree-1 cap of 64: both commands exit 5 with
    # the payload of the first degree-1 cohomology call, building no lattice
    from cmtori import cohomology

    def no_lattices(datum):
        raise AssertionError("character_lattices called")

    monkeypatch.setattr(cohomology, "character_lattices", no_lattices)
    path = tmp_path / "c128.json"
    path.write_text(json.dumps(formats.datum_to_json(cyclic_cm(128))))
    for args, rank in ((["oracle", "verify", str(path)], 64),
                       (["tau", "datum", "--oracle", str(path)], 65)):
        code, out = run_cli(args)
        assert code == 5
        assert json.loads(out) == {"error": {
            "code": 5, "message": "cohomology budget exceeded",
            "context": {"cap": 64, "cochain_dim": rank * 127, "degree": 1,
                        "group_order": 128, "rank": rank}}}


def test_overflow_exit_code():
    code, out = run_cli(["landau", "search", "--a-max", "1000000000",
                         "--b-max", "100"])
    assert code == 6


def test_landau_threads_below_one_exit_code():
    for threads in ("0", "-2"):
        code, out = run_cli(["landau", "search", "--a-max", "10", "--b-max", "10",
                             "--threads", threads])
        assert code == 3
        error = json.loads(out)["error"]
        assert error["code"] == 3 and error["context"] == {"workers": int(threads)}


def test_product_pipeline(tmp_path):
    from cmtori.constructors import cyclotomic

    f5 = tmp_path / "cyc5.json"
    f7 = tmp_path / "cyc7.json"
    f5.write_text(json.dumps(formats.datum_to_json(cyclotomic(5).datum)))
    f7.write_text(json.dumps(formats.datum_to_json(cyclotomic(7).datum)))
    code, out = run_cli(["tau", "product", str(f5), str(f7)])
    assert code == 0
    payload = json.loads(out)
    assert payload["product_tau"] == {"num": 1, "den": 1}
    assert payload["combined"]["tau"] == {"num": 1, "den": 1}
    assert payload["multiplicative"] is True
    assert payload["primitive_inclusion"] is True


def test_product_of_four_landau_quaternion_data(tmp_path):
    """Q8^4 has 4,096 elements, past the table cap; the product pipeline
    never builds it and reports tau = 2^-4 multiplicatively."""
    from cmtori.constructors import q8_landau
    from cmtori.landau import disjoint_family, search

    files = []
    for k, pair in enumerate(disjoint_family(search(10 ** 4, 100).pairs, 4)):
        files.append(tmp_path / f"q8_{k}.json")
        files[-1].write_text(json.dumps(formats.datum_to_json(q8_landau(pair.p, pair.q).datum)))
    code, out = run_cli(["tau", "product", *map(str, files)])
    assert code == 0
    payload = json.loads(out)
    assert payload["product_tau"] == payload["combined"]["tau"] == {"num": 1, "den": 16}
    assert payload["multiplicative"] is True
    assert payload["primitive_inclusion"] is True


def test_classify(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(formats.datum_to_json(cyclic_cm(4))))
    code, out = run_cli(["classify", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["abelian"] is True
    assert payload["imaginary_quadratic"]["count"] == 0
    assert payload["abelian_classifier"]["engine_tau"] == {"num": 1, "den": 1}


def test_classify_gates_field_level_classifiers(tmp_path):
    # the density lemma presumes a Galois CM field; a datum with a
    # nontrivial inner subgroup must not receive its verdict
    from corpus import nongalois_quartic_cm

    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(formats.datum_to_json(nongalois_quartic_cm())))
    code, out = run_cli(["classify", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["galois_cm_field"] is False
    assert "density" not in payload


def test_oracle_verify(tmp_path):
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(formats.datum_to_json(q8_cm())))
    code, out = run_cli(["oracle", "verify", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True


def test_landau_search_cli(tmp_path):
    out_file = tmp_path / "pairs.csv"
    code, out = run_cli(["landau", "search", "--a-max", "3", "--b-max", "8",
                         "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_count"] >= 1
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["1", "5"]


def test_landau_search_unwritable_out_exit_code(tmp_path, monkeypatch):
    # the output is opened before the search, so a bad path fails at once
    def never(*args, **kwargs):
        raise AssertionError("search ran before the output was opened")

    monkeypatch.setattr(cli, "search", never)
    target = tmp_path / "missing" / "pairs.csv"
    code, out = run_cli(["landau", "search", "--a-max", "5", "--b-max", "10",
                         "--out", str(target)])
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == 3 and error["context"] == {"path": str(target)}
    assert error["message"].startswith("cannot write output file: ")
    assert not target.parent.exists()


def test_datum_with_permutation_group(tmp_path):
    # S3 given by cycles; the rotation subgroup is outer for a non-CM pair
    payload = {
        "group": {"permutation_generators": [[[0, 1, 2]], [[0, 1]]], "degree": 3},
        "pairs": [{"H": [0], "Ntilde": [0, 1, 2, 3, 4, 5]}],
        "include_all_cyclic": True,
        "declared_complete": False,
    }
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["tau", "datum", str(path)])
    # outer = S3 is normal and S3/1 is noncyclic: fast path refuses
    assert code == 4


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "cmtori.cli", "tau",
                           "cyclotomic", "5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["tau"] == {"num": 1, "den": 1}


def test_parser_built_once_with_unchanged_output(capsys, monkeypatch):
    """One process runs a valid command, a usage error, --help and another
    valid command; each prints what it prints in a process of its own."""
    from cmtori.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    sequence = [["tau", "cyclotomic", "12"], ["tau", "cyclotomic", "x"], ["--help"],
                ["tau", "q8", "5", "21"]]
    together = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        together.append((code, out, err))
    assert build_parser() is build_parser()
    separate = []
    for argv in sequence:
        proc = subprocess.run([sys.executable, "-m", "cmtori.cli", *argv],
                              capture_output=True, text=True)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in together] == [0, 2, 0, 0]
    assert together == separate


def test_non_utf8_datum_exit_code(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    for command in (["tau", "datum"], ["oracle", "verify"], ["classify"]):
        code, out = run_cli([*command, str(path)])
        assert code == 3
        error = json.loads(out)["error"]
        assert error["code"] == 3 and error["context"] == {"path": str(path)}
        assert error["message"].startswith("datum file is not UTF-8: ")


def _nested_product(depth, extra_key=False):
    """A datum whose group is C1 inside ``depth`` one-factor products, as text:
    json.dumps itself recurses on the depth."""
    group = ('{"family": "product", "factors": [' * depth + '{"family": "cyclic", "n": 1}'
             + "]}" * depth)
    if extra_key:
        group = group[:-1] + ', "bogus": 1}'
    return '{"group": ' + group + ', "pairs": []}'


def test_deeply_nested_product_exit_code(tmp_path):
    """Past the JSON parser's depth, which the recursion limit bounds (under
    500 products deep at the default limit of 1000), the datum exits 3.
    Below it the schema walker and construct_group never recurse on the
    depth, so every depth the parser accepts exits 0, or 3 for a schema
    violation."""
    path = tmp_path / "deep.json"
    limit = sys.getrecursionlimit()
    path.write_text(_nested_product(limit))     # 2 * limit nested containers
    code, out = run_cli(["tau", "datum", str(path)])
    assert code == 3
    assert json.loads(out)["error"] == {"code": 3, "context": {"path": str(path)},
                                        "message": "malformed JSON: nested too deeply to parse"}
    path.write_text(_nested_product(250))
    code, out = run_cli(["tau", "datum", str(path)])
    assert code == 0
    assert json.loads(out)["report"]["tau"] == {"num": 1, "den": 1}
    for extra_key in (False, True):
        codes = {}
        for depth in range(250, limit // 2 + 20, 2):
            path.write_text(_nested_product(depth, extra_key))
            code, out = run_cli(["tau", "datum", str(path)])
            message = json.loads(out).get("error", {}).get("message", "")
            codes[depth] = (code, message.startswith("malformed JSON"))
        # the parser accepts every depth below some depth and none from it on
        first_too_deep = min(d for d, (_, too_deep) in codes.items() if too_deep)
        assert all(too_deep == (d >= first_too_deep) for d, (_, too_deep) in codes.items())
        assert {code for code, _ in codes.values()} == {3 if extra_key else 0, 3}
        assert all(code == (3 if extra_key else 0)
                   for d, (code, _) in codes.items() if d < first_too_deep)

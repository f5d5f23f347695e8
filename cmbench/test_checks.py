"""Self-tests of the benchmark's checks: planted wrong outputs are rejected.

    python3 -m pytest -q cmbench/test_checks.py
"""

import hashlib
import sys
from pathlib import Path

from sympy import isprime

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402

A_MAX = 400


def report(tau, h1=(), h1n1=(2,), prim=2, sha=()):
    return {"h1_torus": list(h1), "h1_norm_one": list(h1n1), "primitive_order": prim,
            "sha2": list(sha), "tau": {"num": tau[0], "den": tau[1]}, "n_K": 1,
            "exact": True}


def test_cyclotomic_tau_off_by_two_is_rejected():
    op = {"n": 15}
    good = report((2, 1), h1=(2,), h1n1=(2,), prim=1)
    assert checks.cyclotomic_problems(op, {"report": good}) == []
    # tau halved, the rest left alone: Ono's formula and the expected value fail
    halved = dict(good, tau={"num": 1, "den": 1})
    assert len(checks.cyclotomic_problems(op, {"report": halved})) == 2
    # a self-consistent report with the wrong tau: only the expected value fails
    consistent = report((1, 1))
    assert checks.report_problems(consistent) == []
    assert checks.cyclotomic_problems(op, {"report": consistent})
    assert checks.cyclotomic_problems({"n": 9}, {"report": consistent}) == []


def test_q8_tau_and_legendre_table():
    # Q = 21 = 3 * 7 and (5/3) = (5/7) = -1, so tau = 2
    op = {"P": 5, "Q": 21}
    out = {"report": report((2, 1), h1=(2,), h1n1=(2,), prim=1),
           "legendre": {"3": -1, "7": -1}}
    assert checks.q8_problems(op, out) == []
    assert checks.q8_problems(op, dict(out, legendre={"3": -1, "7": 1}))
    off = dict(out, report=report((1, 2), h1=(2,), h1n1=(2,), prim=4, sha=(2, 2)))
    assert checks.q8_problems(op, off)


FAMILY = [(1, 6, 5, 181), (2, 6, 17, 613), (3, 2, 37, 149)]


def test_product_of_three_landau_pairs():
    factor = report((1, 2), h1=(2,), h1n1=(2,), prim=4, sha=(2, 2))
    combined = report((1, 8), h1=(2, 2, 2), h1n1=(2, 2, 2), prim=64, sha=(2,) * 6)
    out = {"factors": [factor] * 3, "combined": combined,
           "product_tau": {"num": 1, "den": 8}, "multiplicative": True}
    assert checks.product_problems({"family": FAMILY}, out) == []
    wrong = dict(out, product_tau={"num": 1, "den": 4})
    assert checks.product_problems({"family": FAMILY}, wrong)
    # 1 + 17 * 4^2 = 273 = 3 * 7 * 13 is no Landau pair
    assert checks.product_problems({"family": FAMILY[:2] + [(2, 4, 17, 273)]}, out)
    assert checks.product_problems({"family": FAMILY[:2] + [FAMILY[0]]}, out)


def test_engine_oracle_disagreement_is_rejected():
    engine = report((1, 2), h1=(2,), h1n1=(2,), prim=4, sha=(2, 2))
    oracle = {"tau": {"num": 1, "den": 2}, "h1_torus": [2], "sha2": [2, 2], "agrees": True}
    assert checks.oracle_datum_problems({}, {"report": engine, "oracle": oracle}) == []
    other = dict(oracle, tau={"num": 1, "den": 1}, sha2=[2])
    assert checks.oracle_datum_problems({}, {"report": engine, "oracle": other})


def verify_out(**failed):
    names = ["h1_norm_one_order", "h1_torus_matches_engine", "four_term_orders",
             "sha2_norm_one_vanishes", "h0_norm_one_vanishes",
             "h2_norm_one_vanishes_single_factor", "d_probe_trivial_connecting",
             "h2_norm_one_coprime_product", "xi_obstruction"]
    return {"checks": [{"name": n, "applicable": True, "passed": not failed.get(n),
                        "details": ""} for n in names], "all_passed": not failed}


def test_failed_core_structure_check_is_rejected():
    op = {"name": "q8_cm"}
    assert checks.verify_problems(op, verify_out()) == []
    assert checks.verify_problems(op, verify_out(four_term_orders=True))
    assert checks.verify_problems(op, verify_out(h2_norm_one_coprime_product=True))


def test_coprime_prediction_must_be_refuted():
    op = {"name": "noncm_coprime_product"}
    assert checks.verify_problems(op, verify_out(h2_norm_one_coprime_product=True)) == []
    assert checks.verify_problems(op, verify_out())


def test_ono_ratio():
    assert checks.ono_problems({}, {"h1": [2], "sha2": [2, 2, 2], "rank": 15}) == []
    assert checks.ono_problems({}, {"h1": [2], "sha2": [2, 2], "rank": 15})


def landau_rows():
    rows = [(a, 1 + 4 * a * a, b, 1 + (1 + 4 * a * a) * b * b)
            for a, b in checks.sampled_pairs(range(1, A_MAX + 1))]
    return rows


def reference(rows):
    pairs = sorted((a, b) for a, _, b, _ in rows)
    digest = hashlib.sha256("".join(f"{a} {b}\n" for a, b in pairs).encode()).hexdigest()
    return len(pairs), len({a for a, _ in pairs}), digest


def landau(rows, prime=isprime):
    payload = {"pair_count": len(rows), "distinct_p_count": len({r[1] for r in rows})}
    return checks.landau_problems(rows, payload, seed=1, reference=reference(rows),
                                  a_max=A_MAX, prime=prime)


def test_landau_list_is_accepted():
    rows = landau_rows()
    assert len(rows) > 50
    assert landau(rows) == []
    # the list must also match the recorded reference
    payload = {"pair_count": len(rows), "distinct_p_count": len({r[1] for r in rows})}
    assert checks.landau_problems(rows, payload, 1, a_max=A_MAX)


def test_landau_composite_q_is_rejected():
    rows = landau_rows()
    a, p, b, q = rows[0]
    b2 = next(c for c in range(2, 101, 2) if not isprime(1 + p * c * c))
    planted = rows[:1] + [(a, p, b2, 1 + p * b2 * b2)] + rows[1:]
    assert any("not Landau pairs" in problem for problem in landau(planted))


def test_landau_dropped_pair_with_odd_b_is_rejected():
    # a = 1 is always sampled; pretend 1 + 5 * 3^2 = 46 were prime, so the
    # sympy enumeration finds (1, 3), which the list lacks
    rows = landau_rows()

    def prime(n):
        return n == 46 or isprime(n)

    assert any("missing [(1, 3)]" in problem for problem in landau(rows, prime))


def test_inputs_are_seeded():
    assert inputs.tau_sweep(3) == inputs.tau_sweep(3)
    assert inputs.tau_sweep(3) != inputs.tau_sweep(4)
    ops = inputs.tau_sweep(3)["ops"]
    assert len(ops) == (inputs.SWEEP_CYCLOTOMIC + inputs.SWEEP_COMPOSITE_Q8
                        + inputs.SWEEP_LANDAU_Q8)

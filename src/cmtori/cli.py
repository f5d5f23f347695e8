"""Command-line front end.

Exit codes: 0 success, 2 usage, 3 invalid datum or group, 4 fast path
unavailable, 5 budget exceeded, 6 overflow.  All results and errors are
emitted as canonical JSON on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import constructors, engine, formats
from .cohomology import CohomologyBudget, torus_invariants, verify_structure
from .errors import CmtoriError, DatumError
from .landau import search


def _emit(payload):
    sys.stdout.write(formats.dump(payload))


def _load_datum(path):
    """The datum in a JSON file.  Whatever the parser accepts, the schema
    walker and ``construct_group`` handle without recursing on its depth."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise DatumError(f"cannot read datum file: {exc}", path=path)
    except UnicodeDecodeError as exc:
        raise DatumError(f"datum file is not UTF-8: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise DatumError(f"malformed JSON: {exc}", path=path)
    except RecursionError:
        raise DatumError("malformed JSON: nested too deeply to parse", path=path) from None
    return formats.datum_from_json(payload)


def _tau_cyclotomic(args):
    report, predicted = constructors.cyclotomic_report(args.n)
    _emit({
        "n": args.n,
        "predicted_tau": formats.fraction_to_json(predicted),
        "report": formats.report_to_json(report),
        "agrees": report.tau == predicted,
    })
    return 0


def _tau_q8(args):
    fam = constructors.q8_landau(args.P, args.Q)
    report = engine.tamagawa(fam.datum)
    legendre_table = {}
    for q in constructors.factorize(args.Q):
        legendre_table[str(q)] = constructors.legendre(args.P, q)
    _emit({
        "P": args.P,
        "Q": args.Q,
        "predicted_tau": formats.fraction_to_json(fam.predicted_tau),
        "legendre": legendre_table,
        "report": formats.report_to_json(report),
        "agrees": report.tau == fam.predicted_tau,
    })
    return 0


def _tau_datum(args):
    datum = _load_datum(args.file)
    report = engine.tamagawa(datum)
    payload = {"report": formats.report_to_json(report)}
    if args.oracle:
        budget = CohomologyBudget(max_order_q2=args.max_order)
        oracle_h1, oracle_sha = torus_invariants(datum, budget)
        oracle_tau = Fraction(oracle_h1.order, oracle_sha.order)
        payload["oracle"] = {
            "tau": formats.fraction_to_json(oracle_tau),
            "h1_torus": list(oracle_h1.factors),
            "sha2": list(oracle_sha.factors),
            "agrees": (oracle_tau == report.tau
                       and oracle_h1.factors == report.h1_torus.factors
                       and oracle_sha.factors == report.sha2.factors),
        }
    _emit(payload)
    return 0


def _tau_product(args):
    data = [_load_datum(path) for path in args.files]
    result = engine.product_tamagawa(data)
    _emit({
        "factors": [formats.report_to_json(r) for r in result.factor_reports],
        "product_tau": formats.fraction_to_json(result.product_tau),
        "combined": formats.report_to_json(result.combined),
        "multiplicative": result.multiplicative,
        "primitive_inclusion": result.primitive_inclusion,
    })
    return 0


def _classify(args):
    datum = _load_datum(args.file)
    g = datum.group
    payload = {"group_order": g.order, "abelian": g.is_abelian(),
               "pairs": len(datum.pairs)}
    # the field-level classifiers presume a Galois CM field: the datum's
    # fields must be the splitting field itself (trivial inner subgroups)
    galois_cm = (datum.iota is not None
                 and all(p.inner.order == 1 for p in datum.pairs))
    payload["galois_cm_field"] = galois_cm
    if galois_cm:
        count, verdict = engine.density_bound(g, datum.iota)
        payload["density"] = {"s_count": count, "verdict": verdict}
        iq_count, iq_verdict = engine.imaginary_quadratic_count(g, datum.iota)
        payload["imaginary_quadratic"] = {"count": iq_count, "verdict": iq_verdict}
        if g.is_abelian():
            res = constructors.abelian_classifier(g, datum.iota)
            payload["abelian_classifier"] = {
                "value": formats.fraction_to_json(res.value) if res.value else None,
                "interval": [formats.fraction_to_json(v) for v in res.interval],
                "engine_tau": formats.fraction_to_json(res.engine_tau),
                "reason": res.reason,
            }
    _emit(payload)
    return 0


def _oracle_verify(args):
    datum = _load_datum(args.file)
    budget = CohomologyBudget(max_order_q2=args.max_order)
    report = verify_structure(datum, budget)
    _emit(formats.structure_report_to_json(report))
    return 0


def _landau_search(args):
    try:
        # opened before the search, in append mode so that a failed search
        # leaves an existing file as it was
        out = open(args.out, "a") if args.out else contextlib.nullcontext()
    except OSError as exc:
        raise DatumError(f"cannot write output file: {exc}", path=args.out)
    with out as handle:
        result = search(args.a_max, args.b_max, workers=args.threads)
        payload = {
            "pair_count": result.pair_count,
            "distinct_p_count": result.distinct_p_count,
            "a_max": result.a_max,
            "b_max": result.b_max,
            "elapsed_ms": result.elapsed_ms,
        }
        if handle:
            handle.truncate(0)
            rows = result.table.ravel().tolist()
            handle.write("%d,%d,%d,%d\n" * result.pair_count % tuple(rows))
            payload["out"] = args.out
    formats.validate_against("landau.schema.json", payload)
    _emit(payload)
    return 0


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cmtori",
        description="Tamagawa numbers of CM and norm-type tori from "
                    "finite-group data")
    sub = parser.add_subparsers(dest="command", required=True)

    tau = sub.add_parser("tau", help="compute a Tamagawa report")
    tau_sub = tau.add_subparsers(dest="family", required=True)
    p = tau_sub.add_parser("cyclotomic", help="n-th cyclotomic CM field")
    p.add_argument("n", type=int)
    p.set_defaults(func=_tau_cyclotomic)
    p = tau_sub.add_parser("q8", help="quaternion CM field from (P, Q)")
    p.add_argument("P", type=int)
    p.add_argument("Q", type=int)
    p.set_defaults(func=_tau_q8)
    p = tau_sub.add_parser("datum", help="engine run on a datum file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the presentation-resolution oracle")
    p.add_argument("--max-order", type=int, default=16)
    p.set_defaults(func=_tau_datum)
    p = tau_sub.add_parser("product", help="multiplicativity pipeline")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_tau_product)

    p = sub.add_parser("classify", help="structural classifiers for a datum")
    p.add_argument("file")
    p.set_defaults(func=_classify)

    oracle = sub.add_parser("oracle", help="presentation-resolution oracle")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = oracle_sub.add_parser("verify", help="structure verification report")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, default=16)
    p.set_defaults(func=_oracle_verify)

    landau = sub.add_parser("landau", help="Landau-pair prime search")
    landau_sub = landau.add_subparsers(dest="landau_command", required=True)
    p = landau_sub.add_parser("search")
    p.add_argument("--a-max", type=int, required=True)
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_landau_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CmtoriError as exc:
        _emit(exc.payload())
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

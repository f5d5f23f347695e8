"""Stable JSON formats for data and reports.

The datum schema mirrors NormTorusDatum one-to-one: {"group": ...,
"pairs": [{"H": [...], "Ntilde": [...]}], "iota": k, "decomposition_groups":
[[...]], "include_all_cyclic": bool, "declared_complete": bool}.  Rationals
are always {"num", "den"} integer pairs; emitted JSON uses sorted keys so
identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import jsonschema

from .cohomology import StructureReport
from .datum import NormTorusDatum, TamagawaReport, TorusPair
from .errors import DatumError
from .groups import FiniteGroup, Subgroup, construct_group


@lru_cache(maxsize=None)
def _validator(name: str):
    """The schema's validator, checked against its metaschema once."""
    schema = json.loads(resources.files("cmtori.schemas").joinpath(name).read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_against(name: str, payload):
    # the error jsonschema.validate would raise, without rebuilding the validator
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(payload))
    if error is not None:
        raise DatumError(f"payload violates schema {name}: {error.message}")


def fraction_to_json(x: Fraction):
    return {"num": x.numerator, "den": x.denominator}


def group_to_json(group: FiniteGroup):
    return {"order": group.order, "table": [list(row) for row in group.table]}


def datum_to_json(datum: NormTorusDatum):
    payload = {
        "group": group_to_json(datum.group),
        "pairs": [{"H": list(p.inner.elements), "Ntilde": list(p.outer.elements)}
                  for p in datum.pairs],
        "decomposition_groups": [list(d.elements)
                                 for d in datum.decomposition_groups],
        "include_all_cyclic": datum.include_all_cyclic,
        "declared_complete": datum.declared_complete,
    }
    if datum.iota is not None:
        payload["iota"] = datum.iota
    return payload


def datum_from_json(payload) -> NormTorusDatum:
    validate_against("datum.schema.json", payload)
    group = construct_group(payload["group"])
    pairs = []
    for entry in payload["pairs"]:
        inner = Subgroup(group, tuple(entry["H"]))
        outer = Subgroup(group, tuple(entry["Ntilde"]))
        pairs.append(TorusPair(inner, outer))
    decs = tuple(Subgroup(group, tuple(d))
                 for d in payload.get("decomposition_groups", []))
    return NormTorusDatum(
        group=group,
        pairs=tuple(pairs),
        iota=payload.get("iota"),
        decomposition_groups=decs,
        include_all_cyclic=payload.get("include_all_cyclic", True),
        declared_complete=payload.get("declared_complete", False),
    )


def report_to_json(report: TamagawaReport):
    payload = {
        "h1_torus": list(report.h1_torus.factors),
        "h1_norm_one": list(report.h1_norm_one.factors),
        "primitive_order": report.primitive_order,
        "sha2": list(report.sha2.factors),
        "tau": fraction_to_json(report.tau),
        "n_K": report.n_k,
        "exact": report.exact,
    }
    validate_against("report.schema.json", payload)
    return payload


def structure_report_to_json(report: StructureReport):
    payload = report.as_dict()
    validate_against("verify.schema.json", payload)
    return payload


def dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"

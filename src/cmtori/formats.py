"""Stable JSON formats for data and reports.

The datum schema mirrors NormTorusDatum one-to-one: {"group": ...,
"pairs": [{"H": [...], "Ntilde": [...]}], "iota": k, "decomposition_groups":
[[...]], "include_all_cyclic": bool, "declared_complete": bool}.  Rationals
are always {"num", "den"} integer pairs; emitted JSON uses sorted keys so
identical inputs give byte-identical output.

Payloads are checked against the bundled schemas (``cmtori/schemas/``),
on input and on output, by ``_violations``: a walker for the nine
keywords those schemas use and for nothing more.  They are ``type`` (a
name or a list of names), ``properties``, ``required``,
``additionalProperties`` (false only), ``items`` (one schema),
``minItems``, ``minimum``, ``enum`` (strings only) and ``oneOf``.  It
follows JSON Schema draft 2020-12: 1.0 is an integer, true is neither an
integer nor a number, and ``minimum`` passes anything that is not a
number (NaN included).

A rejection names the violation ``jsonschema.exceptions.best_match``
picks (jsonschema 4.26.0), with jsonschema's message word for word.  It
ranks violations by the key of ``jsonschema.exceptions.by_relevance``:
(-len(path), path, keyword is not oneOf, instance misses the type of
the schema holding the keyword).  It takes the first violation with the
largest key, in the order jsonschema finds them.  While that is a failed
``oneOf``, it descends to the violation with the smallest key among the
branches' violations, unless the two smallest keys tie.  Tests compare
the walker with jsonschema on generated payloads; jsonschema is needed
by the tests alone.  The walker recurses with the schema, never deeper,
and formats only the message it reports.
"""

from __future__ import annotations

import json
import numbers
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .cohomology import StructureReport
from .datum import NormTorusDatum, TamagawaReport, TorusPair
from .errors import DatumError
from .groups import FiniteGroup, Subgroup, construct_group

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}


def _is_type(x, types) -> bool:
    """Whether ``x`` has the schema type, or one of the list of types."""
    return any(_TYPES[t](x) for t in ([types] if isinstance(types, str) else types))


class _Violation(NamedTuple):
    path: tuple                 # from the instance the walk started at
    keyword: str
    matches_type: bool          # x has the "type" of the schema holding the keyword
    template: str               # the message, formatted only if it is reported
    args: tuple
    context: tuple = ()         # the violations of every branch of a failed oneOf

    def message(self) -> str:
        return self.template.format(*self.args)


def _violations(schema, x, path, out):
    """Append to ``out`` the violations of ``x`` under ``schema``, in the
    order jsonschema's ``iter_errors`` yields them."""
    def fail(keyword, template, *args, context=()):
        typed = "type" in schema and _is_type(x, schema["type"])
        out.append(_Violation(path, keyword, typed, template, args, context))

    for key, value in schema.items():
        if key == "type":
            if not _is_type(x, value):
                names = [value] if isinstance(value, str) else value
                fail(key, "{!r} is not of type {}", x, ", ".join(map(repr, names)))
        elif key == "properties":
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x:
                        _violations(sub, x[name], path + (name,), out)
        elif key == "required":
            if isinstance(x, dict):
                for name in value:
                    if name not in x:
                        fail(key, "{!r} is a required property", name)
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted((k for k in x if k not in known), key=str) if isinstance(x, dict) else ()
            if extras:
                fail(key, "Additional properties are not allowed ({} {} unexpected)",
                     ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        elif key == "items":
            if not isinstance(x, list):
                continue
            floor = value.get("minimum")
            if (value.get("type") == "integer" and value.keys() <= {"type", "minimum"}
                    and set(map(type, x)) <= {int}
                    and (floor is None or min(x, default=floor) >= floor)):
                continue            # an array of ints that all pass: the fast accept path
            for i, item in enumerate(x):
                _violations(value, item, path + (i,), out)
        elif key == "minItems":
            if isinstance(x, list) and len(x) < value:
                fail(key, "{!r} should be non-empty" if value == 1 else "{!r} is too short", x)
        elif key == "minimum":
            if _TYPES["number"](x) and x < value:
                fail(key, "{!r} is less than the minimum of {!r}", x, value)
        elif key == "enum":
            if not (isinstance(x, str) and x in value):
                fail(key, "{!r} is not one of {!r}", x, value)
        elif key == "oneOf":
            context, valid = [], []
            for branch in value:
                found = []
                _violations(branch, x, (), found)
                if not found:
                    valid.append(branch)
                elif not valid:
                    context += found
            if not valid:
                fail(key, "{!r} is not valid under any of the given schemas", x,
                     context=tuple(context))
            elif len(valid) > 1:
                fail(key, "{!r} is valid under each of {}", x,
                     ", ".join(map(repr, valid[1:] + valid[:1])))


def _relevance(v: _Violation):
    """The key of ``jsonschema.exceptions.relevance``, less its constant term."""
    return -len(v.path), v.path, v.keyword != "oneOf", not v.matches_type


def _best_match(found) -> _Violation:
    """The violation ``jsonschema.exceptions.best_match`` reports."""
    best = max(found, key=_relevance)
    while best.context:
        least = sorted(best.context, key=_relevance)[:2]
        if len(least) == 2 and _relevance(least[0]) == _relevance(least[1]):
            return best
        best = least[0]
    return best


@lru_cache(maxsize=None)
def _schema(name: str):
    """A bundled schema; tests check each against its metaschema."""
    return json.loads(resources.files("cmtori.schemas").joinpath(name).read_text())


def validate_against(name: str, payload):
    found = []
    _violations(_schema(name), payload, (), found)
    if found:
        raise DatumError(f"payload violates schema {name}: {_best_match(found).message()}")


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

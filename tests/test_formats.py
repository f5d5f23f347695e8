"""The schema walker of ``cmtori.formats`` against jsonschema, its reference.

jsonschema is needed here and nowhere in the program: the walker must
accept and reject what jsonschema does, with the message
``jsonschema.exceptions.best_match`` picks."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cmtori import formats  # noqa: E402
from cmtori.errors import DatumError  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = sorted(p.name for p in (ROOT / "src" / "cmtori" / "schemas").glob("*.json"))
# the keywords the walker implements (see the cmtori.formats docstring)
WALKER_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
                   "minItems", "minimum", "enum", "oneOf"}


def reference_message(schema, payload):
    """jsonschema's best-match message, or None when it accepts the payload."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    return None if error is None else error.message


def walker_message(schema, payload):
    found = []
    formats._violations(schema, payload, (), found)
    return formats._best_match(found).message() if found else None


def subschemas(schema):
    yield schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from subschemas(sub)
        elif key == "items":
            yield from subschemas(value)
        elif key == "oneOf":
            for sub in value:
                yield from subschemas(sub)


def test_schemas_pass_their_metaschema():
    for name in SCHEMAS:
        schema = formats._schema(name)
        cls = jsonschema.validators.validator_for(schema)
        assert cls is jsonschema.Draft202012Validator, name
        cls.check_schema(schema)


def test_schemas_use_only_walker_keywords():
    """Fails when a schema uses a keyword the walker does not implement,
    or one of its keywords in a form it does not implement."""
    validation = set(jsonschema.Draft202012Validator.VALIDATORS)
    for name in SCHEMAS:
        for sub in subschemas(formats._schema(name)):
            used = set(sub) & validation
            assert used <= WALKER_KEYWORDS, (name, used - WALKER_KEYWORDS)
            assert set(sub) - used <= {"$schema", "title"}, (name, set(sub) - used)
            assert sub.get("additionalProperties", False) is False, name
            assert all(isinstance(v, str) for v in sub.get("enum", [])), name
            assert isinstance(sub.get("items", {}), dict), name
            types = sub.get("type", [])
            assert all(t in formats._TYPES for t in ([types] if isinstance(types, str) else types))


ODD_NUMBERS = [1.0, 0.0, -0.0, 2.0, 0.5, -1.5, math.nan, math.inf, -math.inf,
               json.loads("1e400"), 10 ** 40, -(10 ** 40), True, False]
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from(ODD_NUMBERS),
                 st.floats(), st.text(max_size=2),
                 st.lists(st.integers(-1, 2), max_size=2),
                 st.dictionaries(st.sampled_from(["a", "n", "H", "table"]), st.integers(0, 2),
                                 max_size=2))
EXTRA_KEYS = ["zz", "a", "order", "H", "factors", "table"]


def near(schema, slip=True):
    """Payloads that follow ``schema`` (``slip`` false) or mostly follow it,
    with a slip possible at every level: a wrong type, an odd number, a
    missing or an extra key."""
    return st.one_of(follow(schema, slip), JUNK) if slip else follow(schema, slip)


def _slipped(draw):
    payload, drop, extra, value = draw
    payload = dict(payload)
    keys = sorted(payload)
    if 0 <= drop < len(keys):
        del payload[keys[drop]]
    if extra is not None:
        payload[extra] = value
    return payload


def follow(schema, slip):
    if "oneOf" in schema:
        return st.one_of([follow(dict(branch, type=schema["type"]), slip)
                          if "type" in schema and "type" not in branch else near(branch, slip)
                          for branch in schema["oneOf"]])
    if "enum" in schema:
        valid = st.sampled_from(schema["enum"])
        return st.one_of(valid, st.text(max_size=3)) if slip else valid
    types = schema.get("type")
    if types == "object":
        props = schema.get("properties", {})
        required = [k for k in schema.get("required", []) if k in props]
        payloads = st.fixed_dictionaries(
            {k: near(props[k], slip) for k in required},
            optional={k: near(v, slip) for k, v in props.items() if k not in required})
        if not slip:
            return payloads
        return st.tuples(payloads, st.integers(-3, 3), st.one_of(st.none(), st.sampled_from(
            EXTRA_KEYS)), JUNK).map(_slipped)
    if types == "array":
        items = near(schema["items"], slip) if "items" in schema else JUNK
        return st.lists(items, min_size=0 if slip else schema.get("minItems", 0), max_size=3)
    if isinstance(types, list):
        return st.one_of([follow(dict(schema, type=t), slip) for t in types])
    if types == "integer":
        low = schema.get("minimum", 0)
        if slip:
            return st.one_of(st.integers(low - 2, low + 4), st.sampled_from(ODD_NUMBERS))
        return st.one_of(st.integers(low, low + 4), st.just(float(low)))
    if types == "string":
        return st.text(max_size=3)
    if types == "boolean":
        return st.booleans()
    if types == "null":
        return st.none()
    return JUNK


def _places(payload, path=()):
    """(path, value) of every value in a payload, the payload itself first."""
    yield path, payload
    if isinstance(payload, (dict, list)):
        for key, value in (payload.items() if isinstance(payload, dict) else enumerate(payload)):
            yield from _places(value, path + (key,))


def _replaced(payload, path, new):
    if not path:
        return new
    copy = dict(payload) if isinstance(payload, dict) else list(payload)
    copy[path[0]] = _replaced(payload[path[0]], path[1:], new)
    return copy


@st.composite
def one_slip(draw, schema):
    """A payload that follows ``schema`` but for one slip: a value replaced
    by junk, or a key dropped from or added to an object."""
    payload = draw(near(schema, slip=False))
    places = list(_places(payload))
    path, value = places[draw(st.integers(0, len(places) - 1))]
    how = draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "drop" and isinstance(value, dict) and value:
        new = dict(value)
        del new[draw(st.sampled_from(sorted(new)))]
    elif how == "add" and isinstance(value, dict):
        new = dict(value)
        new[draw(st.sampled_from(EXTRA_KEYS))] = draw(JUNK)
    else:
        new = draw(JUNK)
    return _replaced(payload, path, new)


@pytest.mark.parametrize("name", SCHEMAS)
def test_walker_matches_jsonschema(name):
    schema = formats._schema(name)
    seen = set()

    @hypothesis.settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.one_of(near(schema, slip=False), one_slip(schema), near(schema)))
    def check(payload):
        expected = reference_message(schema, payload)
        seen.add(expected is None)
        try:
            formats.validate_against(name, payload)
            got = None
        except DatumError as exc:
            prefix = f"payload violates schema {name}: "
            assert str(exc).startswith(prefix)
            got = str(exc)[len(prefix):]
        assert got == expected, payload

    check()
    assert seen == {False, True}


@pytest.mark.parametrize("schema, payloads", [
    # two or three branches accept: "valid under each of", later ones first
    ({"oneOf": [{"type": "integer"}, {"type": "number"}, {"minimum": 0}]},
     [3, 2.5, -1, -1.5, "a", None]),
    # minItems other than 1, a list of types, an enum of several strings
    ({"type": "object", "properties": {
        "a": {"type": "array", "minItems": 2, "items": {"type": ["integer", "null"]}},
        "b": {"enum": ["x", "y"]}}, "required": ["a"]},
     [{"a": [1]}, {"a": [1, None, "s"]}, {"a": [], "b": "z"}, {"b": "x"}, {"a": [1, 2]}]),
    # ties among the branches of a oneOf keep the oneOf message
    ({"oneOf": [{"type": "string"}, {"type": "boolean"}]}, [1, "s", [1]]),
])
def test_walker_matches_jsonschema_beyond_the_bundled_schemas(schema, payloads):
    for payload in payloads:
        assert walker_message(schema, payload) == reference_message(schema, payload), payload


@pytest.mark.parametrize("generators", [
    [[-1]], [[[0], -1]], [[2, -1.0]], [[[[0, 1]], 5]], [[0, 1], [True]], [[]], [[[]]],
    [[[0, 1.5]]], [[[0, 1], [-1]]], [[1, 0], [[0, 1]], "x"], [-1], [5], ["abc"], [{"a": 1}],
    [None], [[[0, 1], 2]], [[0, [1, 2]]]], ids=json.dumps)
def test_walker_matches_jsonschema_on_permutation_generators(generators):
    """The two branches of each generator's oneOf fail at the same depth in
    different ways, so the relevance key decides between them."""
    schema = formats._schema("datum.schema.json")
    for group in ({"permutation_generators": generators, "degree": 3},
                  {"permutation_generators": generators}):
        payload = {"group": group, "pairs": []}
        assert walker_message(schema, payload) == reference_message(schema, payload), payload


def test_explicit_table_at_the_cap_loads_fast():
    """The (Z/2)^9 CM datum given as an explicit 512 x 512 table (3.0-3.4 s
    under jsonschema, which walked every entry)."""
    table = [[a ^ b for b in range(512)] for a in range(512)]
    payload = {"group": {"order": 512, "table": table},
               "pairs": [{"H": [0], "Ntilde": [0, 1]}], "iota": 1}
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        datum = formats.datum_from_json(payload)
        best = min(best, time.perf_counter() - start)
    assert datum.group.order == 512 and datum.group.table[3][5] == 6
    assert best <= 0.3


def test_cli_import_leaves_jsonschema_out():
    code = "import sys, cmtori.cli; print(sorted(m for m in sys.modules if 'jsonschema' in m))"
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout.strip() == "[]"

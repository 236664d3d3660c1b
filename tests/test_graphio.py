"""Graph JSON format: round-trips, schema enforcement, error offsets."""

from __future__ import annotations

import functools
import json
from dataclasses import replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from naive_oracle import naive_faces
from oneplane import graphio
from oneplane.embedding import Disconnected, MalformedRotation, NotPlane
from oneplane.generators import (
    GenerationFailed,
    GeneratorParams,
    catalog,
    catalog_names,
    random_oneplane,
)
from oneplane.oneplanar import AssociatedPlaneGraph, build_drawing
from test_embedding import turned_wheel


def test_round_trip_is_identity_on_catalog():
    for name in ("k4", "k5-one-crossing", "k6-three-crossings"):
        g = catalog(name)
        text = graphio.dumps(g)
        again = graphio.loads(text)
        assert graphio.dumps(again) == text
        assert again.embedding.rotation == g.embedding.rotation
        assert again.false_vertices == g.false_vertices


@given(st.integers(0, 10_000), st.integers(4, 40), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
@settings(max_examples=40, deadline=None)
def test_round_trip_is_identity_on_generated_drawings(seed, size, density):
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    text = graphio.dumps(g)
    again = graphio.loads(text)
    assert graphio.dumps(again) == text
    assert again.embedding.rotation == g.embedding.rotation
    assert again.false_vertices == g.false_vertices


def test_round_trip_preserves_rotation_anchor():
    # the stored starting neighbor is part of the document
    text = graphio.dumps(catalog("k4"))
    reparsed = graphio.loads(text)
    assert graphio.dumps(graphio.loads(graphio.dumps(reparsed))) == text


def test_serialization_is_byte_stable():
    a = graphio.dumps(random_oneplane(GeneratorParams(5, 14, 0.5)))
    b = graphio.dumps(random_oneplane(GeneratorParams(5, 14, 0.5)))
    assert a == b


def test_save_and_load(tmp_path):
    g = catalog("cube-plus-diagonals")
    path = tmp_path / "g.json"
    graphio.save(g, path)
    again = graphio.load(path)
    assert graphio.dumps(again) == graphio.dumps(g)


def json_dumps(g) -> str:
    """The drawing's document through the standard library's encoder."""
    rot = g.embedding.rotation
    doc = {
        "vertices": [{"id": v, "false": v in g.false_vertices} for v in g.embedding.vertices],
        "rotation": {str(v): list(rot[v]) for v in g.embedding.vertices},
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", catalog_names())
def test_dumps_equals_json_dumps_on_catalog(name):
    g = catalog(name)
    assert graphio.dumps(g) == json_dumps(g)


@given(st.integers(0, 10_000), st.integers(4, 60), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
@settings(max_examples=60, deadline=None)
def test_dumps_equals_json_dumps_on_generated_drawings(seed, size, density):
    try:
        g = random_oneplane(GeneratorParams(seed, size, density))
    except GenerationFailed:
        reject()
    assert graphio.dumps(g) == json_dumps(g)


def test_dumps_equals_json_dumps_on_a_wheel():
    g = build_drawing(turned_wheel(300, seed=300))
    assert graphio.dumps(g) == json_dumps(g)


def _relabelled_k4(label, neighbor=None):
    """K4 relabelled. `build_embedding` rejects bool ids and neighbors,
    so a relabelling equal to K4's own (ints to bools) is given K4's
    faces directly."""
    emb = catalog("k4").embedding
    neighbor = neighbor or label
    rotation = {label(v): tuple(neighbor(u) for u in r) for v, r in emb.rotation.items()}
    if rotation == emb.rotation:
        return AssociatedPlaneGraph(replace(emb, rotation=rotation), frozenset())
    return build_drawing(rotation)


@pytest.mark.parametrize(
    "g",
    [
        _relabelled_k4(lambda v: v + 10),
        _relabelled_k4(lambda v: v - 1),
        _relabelled_k4(lambda v: bool(v) if v < 2 else v, neighbor=int),
        _relabelled_k4(int, neighbor=lambda v: bool(v) if v < 2 else v),
    ],
    ids=["shifted", "negative", "bool-ids", "bool-neighbor"],
)
def test_dumps_refuses_what_load_would_reject(g, tmp_path):
    with pytest.raises(graphio.GraphFormatError):
        graphio.loads(json_dumps(g))
    with pytest.raises(ValueError, match="can be written"):
        graphio.dumps(g)
    path = tmp_path / "g.json"
    with pytest.raises(ValueError, match="can be written"):
        graphio.save(g, path)
    assert not path.exists()


def test_invalid_json_reports_byte_offset():
    text = '{"vertices": [}'
    with pytest.raises(graphio.GraphFormatError) as err:
        graphio.loads(text)
    assert err.value.byte_offset == 14


def test_byte_offset_counts_bytes_not_characters():
    text = '{"é": [}'  # the bad "}" sits after a two-byte character
    with pytest.raises(graphio.GraphFormatError) as err:
        graphio.loads(text)
    assert err.value.byte_offset == len(text[: text.index("}")].encode("utf-8"))


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"vertices": []}',
        '{"vertices": [{"id": 0, "false": false}]}',
        '{"vertices": [{"id": 1, "false": false}], "rotation": {"1": []}}',  # not dense
        '{"vertices": [{"id": 0}], "rotation": {"0": []}}',  # missing mark
        '{"vertices": [{"id": 0, "false": false}, {"id": 0, "false": false}], "rotation": {"0": []}}',
        '{"vertices": [{"id": 0, "false": false}], "rotation": {"x": []}}',
        '{"vertices": [{"id": 0, "false": false}], "rotation": {}}',
        # booleans are not vertex ids or neighbors, though Python counts them as ints
        '{"vertices": [{"id": 0, "false": false}, {"id": true, "false": false}],'
        ' "rotation": {"0": [1], "1": [0]}}',
        '{"vertices": [{"id": 0, "false": false}, {"id": 1, "false": false}],'
        ' "rotation": {"0": [true], "1": [0]}}',
    ],
)
def test_schema_violations_rejected(doc):
    with pytest.raises(graphio.GraphFormatError):
        graphio.loads(doc)


def _cycle_doc(keys: list[str]) -> str:
    """Document text for the cycle 0-1-...-10, storing the rotation of
    vertex i under keys[i]; written by hand so keys may repeat."""
    n = 11
    vertices = ", ".join(f'{{"id": {i}, "false": false}}' for i in range(n))
    rotation = ", ".join(
        f'"{key}": [{(i - 1) % n}, {(i + 1) % n}]' for i, key in enumerate(keys)
    )
    return f'{{"vertices": [{vertices}], "rotation": {{{rotation}}}}}'


CANONICAL_KEYS = [str(i) for i in range(11)]


def test_cycle_doc_with_canonical_keys_loads():
    assert graphio.loads(_cycle_doc(CANONICAL_KEYS)).embedding.vertex_count() == 11


@pytest.mark.parametrize(
    "index, key",
    [(1, " 1"), (1, "01"), (1, "+1"), (1, "1 "), (10, "1_0")],
)
def test_non_canonical_rotation_key_rejected(index, key):
    # int() would map each of these keys to the vertex it stands in for
    keys = list(CANONICAL_KEYS)
    keys[index] = key
    with pytest.raises(graphio.GraphFormatError, match="rotation key"):
        graphio.loads(_cycle_doc(keys))


@pytest.mark.parametrize("extra", ["1", " 1"])
def test_repeated_rotation_key_rejected(extra):
    with pytest.raises(graphio.GraphFormatError):
        graphio.loads(_cycle_doc(CANONICAL_KEYS + [extra]))


def test_duplicate_key_in_vertex_entry_rejected():
    text = _cycle_doc(CANONICAL_KEYS).replace('"id": 0,', '"id": 0, "id": 1,', 1)
    with pytest.raises(graphio.GraphFormatError, match="duplicate key 'id'"):
        graphio.loads(text)


@pytest.mark.parametrize(
    "text, key",
    [
        # the rotation object's second key, "1", comes again last
        (_cycle_doc(CANONICAL_KEYS + ["1"]), "1"),
        # a vertex entry's second key, "false", comes again
        (_cycle_doc(CANONICAL_KEYS).replace('"false": false}', '"false": false, "false": true}', 1),
         "false"),
    ],
)
def test_the_repeated_key_is_named_not_the_first(text, key):
    with pytest.raises(graphio.GraphFormatError) as err:
        graphio.loads(text)
    assert str(err.value) == f"duplicate key {key!r}"
    assert err.value.byte_offset == 0


def _doc(vertices: str, rotation: str) -> str:
    return f'{{"vertices": {vertices}, "rotation": {rotation}}}'


PAIR = '[{"id": 0, "false": false}, {"id": 1, "false": false}]'


@pytest.mark.parametrize(
    "text, message",
    [
        # vertex entries in list order, each tested whole before the next
        (
            _doc('[{"id": 0, "false": false}, {"id": 0, "false": false}, "x"]', '{"0": []}'),
            "duplicate vertex id 0",
        ),
        (
            _doc('[{"id": 0, "false": 1}, {"id": -1, "false": false}]', '{"0": []}'),
            "vertex 0 needs a boolean 'false' mark",
        ),
        (_doc('[{"id": 0, "false": false}, {"id": 2, "false": false}]', "5"),
         "vertex ids must be dense from 0"),
        # distinct ids whose largest is one less than their count
        (_doc('[{"id": -1, "false": false}, {"id": 1, "false": false}]', '{"0": [1], "1": [0]}'),
         "vertex entry {'id': -1, 'false': False} needs a non-negative integer 'id'"),
        # rotation entries in document order, the missing ones last
        (_doc('[{"id": 0, "false": false}]', '{"0": 5, "x": []}'),
         "rotation of vertex 0 must be a list of integers"),
        (_doc('[{"id": 0, "false": false}]', '{"0": 5}'),
         "rotation of vertex 0 must be a list of integers"),
        (_doc('[{"id": 0, "false": false}]', '{"x": 5, "0": []}'),
         "rotation key 'x' is not a declared vertex id"),
        (_doc(PAIR, '{"1": [0, true]}'), "rotation of vertex 1 must be a list of integers"),
        # the whole document is read before the rotation is tested
        (_doc(PAIR, '{"0": [1]}'), "vertices without a rotation entry: [1]"),
    ],
)
def test_first_schema_violation_wins(text, message):
    with pytest.raises(graphio.GraphFormatError) as err:
        graphio.loads(text)
    assert str(err.value) == message
    assert err.value.byte_offset == 0


def scan_load(text: str) -> tuple[list[tuple[int, tuple[int, ...]]], frozenset[int]]:
    """The document read entry by entry and the rotation dart by dart,
    raising graphio's exception and message for the first fault in
    document and table order: the reference for `graphio.loads`.
    Returns the rotation items, in document order, and the false ids."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        offset = len(text[: err.pos].encode("utf-8"))
        raise graphio.GraphFormatError(f"invalid JSON at byte {offset}: {err.msg}", offset) from None
    if not isinstance(doc, dict):
        raise graphio.GraphFormatError("top-level value must be an object")
    for key in ("vertices", "rotation"):
        if key not in doc:
            raise graphio.GraphFormatError(f"missing required field {key!r}")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise graphio.GraphFormatError("'vertices' must be a non-empty list")
    ids, false = [], set()
    for entry in vertices:
        if not isinstance(entry, dict) or type(entry.get("id")) is not int or entry["id"] < 0:
            raise graphio.GraphFormatError(f"vertex entry {entry!r} needs a non-negative integer 'id'")
        if type(entry.get("false")) is not bool:
            raise graphio.GraphFormatError(f"vertex {entry['id']} needs a boolean 'false' mark")
        if entry["id"] in ids:
            raise graphio.GraphFormatError(f"duplicate vertex id {entry['id']}")
        ids.append(entry["id"])
        if entry["false"]:
            false.add(entry["id"])
    if sorted(ids) != list(range(len(ids))):
        raise graphio.GraphFormatError("vertex ids must be dense from 0")
    if not isinstance(doc["rotation"], dict):
        raise graphio.GraphFormatError("'rotation' must be an object keyed by vertex id")
    table = {}
    for key, nbrs in doc["rotation"].items():
        if key not in [str(v) for v in ids]:
            raise graphio.GraphFormatError(f"rotation key {key!r} is not a declared vertex id")
        if type(nbrs) is not list or any(type(u) is not int for u in nbrs):
            raise graphio.GraphFormatError(f"rotation of vertex {key} must be a list of integers")
        table[int(key)] = tuple(nbrs)
    missing = sorted(set(ids) - set(table))
    if missing:
        raise graphio.GraphFormatError(f"vertices without a rotation entry: {missing}")

    for v, nbrs in table.items():
        for i, u in enumerate(nbrs):
            if u == v:
                raise MalformedRotation(f"loop at vertex {v}")
            if u not in table:
                raise MalformedRotation(f"vertex {v} lists unknown neighbor {u}")
            if u in nbrs[:i]:
                raise MalformedRotation(f"vertex {v} lists neighbor {u} twice")
        for u in nbrs:
            if v not in table[u]:
                raise MalformedRotation(f"edge {v}-{u} is not symmetric")
    if not any(table.values()):
        raise MalformedRotation("rotation system has no edges")
    start = next(iter(table))
    reached, stack = {start}, [start]
    while stack:
        new = set(table[stack.pop()]) - reached
        reached |= new
        stack.extend(new)
    if len(reached) != len(table):
        raise Disconnected(f"{len(table) - len(reached)} vertices unreachable from {start}")
    V, E, F = len(table), sum(map(len, table.values())) // 2, len(naive_faces(table))
    if V - E + F != 2:
        raise NotPlane(f"V - E + F = {V - E + F}, expected 2 (V={V}, E={E}, F={F})")
    return list(table.items()), frozenset(false)


def outcome(load, text):
    """What a loader makes of `text`: its result, or the exception's
    type, message and byte offset."""
    try:
        return load(text)
    except ValueError as err:
        return type(err), str(err), getattr(err, "byte_offset", None)


def _loaded(text):
    g = graphio.loads(text)
    return list(g.embedding.rotation.items()), g.false_vertices


@functools.cache
def _sample_doc(i: int) -> str:
    names = catalog_names()
    if i < len(names):
        return graphio.dumps(catalog(names[i]))
    size, density = [(6, 0.25), (8, 0.5), (11, 0.75), (14, 1.0)][i % 4]
    return graphio.dumps(random_oneplane(GeneratorParams(i, size, density)))


def _pick(data, seq):
    return data.draw(st.integers(0, len(seq) - 1)) if seq else None


def _entry(doc, data):
    vertices = doc.get("vertices")
    if not isinstance(vertices, list):
        return None
    entries = [e for e in vertices if isinstance(e, dict)]
    i = _pick(data, entries)
    return None if i is None else entries[i]


def _rotation_list(doc, data):
    rot = doc.get("rotation")
    if not isinstance(rot, dict):
        return None, None
    keys = [k for k, r in rot.items() if isinstance(r, list)]
    i = _pick(data, keys)
    return (None, None) if i is None else (keys[i], rot[keys[i]])


def fault_entry_type(doc, data):
    vertices = doc.get("vertices")
    if isinstance(vertices, list) and vertices:
        vertices[_pick(data, vertices)] = data.draw(st.sampled_from([None, 0, "0", [], 1.5]))


def fault_id(doc, data):
    entry = _entry(doc, data)
    if entry is not None:
        others = [e.get("id") for e in doc["vertices"] if isinstance(e, dict)]
        kind = data.draw(st.sampled_from(["type", "negative", "repeated", "too large"]))
        entry["id"] = data.draw(
            st.sampled_from(
                {
                    "type": ["0", 1.0, True, False, None],
                    "negative": [-1, -7],
                    "repeated": others,
                    "too large": [len(doc["vertices"]), 99],
                }[kind]
            )
        )


def fault_mark(doc, data):
    entry = _entry(doc, data)
    if entry is not None:
        entry["false"] = data.draw(st.sampled_from([0, 1, None, "false", [], not entry.get("false")]))


def fault_drop_field(doc, data):
    entry = _entry(doc, data)
    if entry is not None:
        entry.pop(data.draw(st.sampled_from(["id", "false"])), None)


def fault_drop_entry(doc, data):
    vertices = doc.get("vertices")
    if isinstance(vertices, list) and vertices:
        del vertices[_pick(data, vertices)]


def fault_reverse_entries(doc, data):
    if isinstance(doc.get("vertices"), list):
        doc["vertices"].reverse()


def fault_rename_key(doc, data):
    rot = doc.get("rotation")
    if isinstance(rot, dict) and rot:
        keys = list(rot)
        old = keys[_pick(data, keys)]
        new = data.draw(st.sampled_from([f" {old}", f"0{old}", f"+{old}", f"{old} ", "x", "-1", "99"]))
        if new not in rot:
            doc["rotation"] = {new if k == old else k: r for k, r in rot.items()}


def fault_drop_key(doc, data):
    rot = doc.get("rotation")
    if isinstance(rot, dict) and rot:
        del rot[list(rot)[_pick(data, list(rot))]]


def fault_reverse_keys(doc, data):
    rot = doc.get("rotation")
    if isinstance(rot, dict):
        doc["rotation"] = dict(reversed(rot.items()))


def fault_value_type(doc, data):
    key, _ = _rotation_list(doc, data)
    if key is not None:
        doc["rotation"][key] = data.draw(st.sampled_from([5, None, "1", {}, True, 1.5]))


def fault_neighbor_type(doc, data):
    _, nbrs = _rotation_list(doc, data)
    if nbrs:
        nbrs[_pick(data, nbrs)] = data.draw(st.sampled_from([True, False, 1.0, "1", None, [1]]))


def fault_loop(doc, data):
    key, nbrs = _rotation_list(doc, data)
    if key is not None and key.isdigit():
        nbrs.insert(data.draw(st.integers(0, len(nbrs))), int(key))


def fault_repeat_neighbor(doc, data):
    _, nbrs = _rotation_list(doc, data)
    if nbrs:
        nbrs.insert(data.draw(st.integers(0, len(nbrs))), nbrs[_pick(data, nbrs)])


def fault_unknown_neighbor(doc, data):
    _, nbrs = _rotation_list(doc, data)
    if nbrs is not None:
        nbrs.insert(data.draw(st.integers(0, len(nbrs))), data.draw(st.sampled_from([-1, 99])))


def fault_drop_dart(doc, data):
    _, nbrs = _rotation_list(doc, data)
    if nbrs:
        del nbrs[_pick(data, nbrs)]


def _drop_edge(doc, key, nbrs, i):
    back = doc["rotation"].get(str(nbrs.pop(i)))
    if isinstance(back, list) and key.isdigit() and int(key) in back:
        back.remove(int(key))


def fault_drop_edge(doc, data):
    key, nbrs = _rotation_list(doc, data)
    if nbrs:
        _drop_edge(doc, key, nbrs, _pick(data, nbrs))


def fault_isolate_vertex(doc, data):
    key, nbrs = _rotation_list(doc, data)
    while nbrs:
        _drop_edge(doc, key, nbrs, 0)


def fault_swap_neighbors(doc, data):
    _, nbrs = _rotation_list(doc, data)
    if nbrs and len(nbrs) > 2:
        i, j = _pick(data, nbrs), _pick(data, nbrs)
        nbrs[i], nbrs[j] = nbrs[j], nbrs[i]


def fault_top_level(doc, data):
    key = data.draw(st.sampled_from(["vertices", "rotation"]))
    value = data.draw(st.sampled_from([None, [], {}, 3]))
    if data.draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = value


FAULTS = [
    fault_entry_type,
    fault_id,
    fault_mark,
    fault_drop_field,
    fault_drop_entry,
    fault_reverse_entries,
    fault_rename_key,
    fault_drop_key,
    fault_reverse_keys,
    fault_value_type,
    fault_neighbor_type,
    fault_loop,
    fault_repeat_neighbor,
    fault_unknown_neighbor,
    fault_drop_dart,
    fault_drop_edge,
    fault_isolate_vertex,
    fault_swap_neighbors,
    fault_top_level,
]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_loads_agrees_with_per_item_scans(data):
    """One or two faults in a drawing's document: `loads` accepts exactly
    when the per-item scans do, and otherwise raises the same error."""
    doc = json.loads(_sample_doc(data.draw(st.integers(0, len(catalog_names()) + 7))))
    for fault in data.draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2)):
        fault(doc, data)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 9)) == 0:
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    assert outcome(_loaded, text) == outcome(scan_load, text)


def _first_repeat(pairs):
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise graphio.GraphFormatError(f"duplicate key {key!r}")
    return dict(pairs)


def checked_scan_load(text):
    """`scan_load`, after a parse that raises graphio's error for the
    first key of the first closed object that repeats one: the reference
    for `graphio.loads` on documents that may repeat keys."""
    try:
        json.loads(text, object_pairs_hook=_first_repeat)
    except json.JSONDecodeError:
        pass  # `scan_load` names the syntax error
    return scan_load(text)


CYCLE = _cycle_doc(CANONICAL_KEYS)


def _cut_after_first_entry(text):
    return text[: text.index("}") + 2]


@pytest.mark.parametrize(
    "text, message",
    [
        # ":" in a key is no repeat
        (CYCLE.replace("{", '{"a:b": 1, ', 1), None),
        # a repeat inside an object the schema does not read
        (CYCLE.replace("{", '{"x": {"a": 1, "a": 2}, ', 1), "duplicate key 'a'"),
        # a repeat before a syntax error is reported as the repeat
        (_cut_after_first_entry(CYCLE.replace('"id": 0,', '"id": 0, "id": 1,', 1)),
         "duplicate key 'id'"),
        (_cut_after_first_entry(CYCLE), "invalid JSON at byte 40: Expecting value"),
        # a vertex entry short of a pair does not hide a repeated rotation key
        (_cycle_doc(CANONICAL_KEYS + ["0"]).replace(', "false": false}', "}", 1),
         "duplicate key '0'"),
    ],
)
def test_repeated_keys_and_syntax_errors_reported(text, message):
    if message is None:
        assert graphio.loads(text).embedding.vertex_count() == 11
    else:
        with pytest.raises(graphio.GraphFormatError) as err:
            graphio.loads(text)
        assert str(err.value) == message


# (key, value) of a spliced pair
SPLICED = st.tuples(
    st.sampled_from(["vertices", "rotation", "id", "false", "0", "1", "a:b", "x"]),
    st.sampled_from(["0", "false", "[]", "{}", '{"a": 1, "a": 2}', '{"b:c": {"d": 1}}', "[1, 2]"]),
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_loads_agrees_with_checked_scans_on_spliced_pairs(data):
    """At most one schema fault in a drawing's document, then one or two
    pairs spliced into any of its objects (a repeated key at each level,
    ":" in a key, a nested extra object), the text then cut short now and
    then: `loads` accepts exactly when `checked_scan_load` does, and
    otherwise raises the same error."""
    doc = json.loads(_sample_doc(data.draw(st.integers(0, len(catalog_names()) + 7))))
    for fault in data.draw(st.lists(st.sampled_from(FAULTS), max_size=1)):
        fault(doc, data)
    text = json.dumps(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        opens = [i for i, c in enumerate(text) if c == "{"]
        at = opens[_pick(data, opens)] + 1
        key, value = data.draw(SPLICED)
        pair = f'"{key}": {value}'
        end = at + len(pair)
        text = text[:at] + pair + ("" if text[at:].lstrip().startswith("}") else ", ") + text[at:]
    if data.draw(st.integers(0, 4)) == 0:
        text = text[: data.draw(st.integers(end, len(text) - 1))]  # a syntax error after the splice
    assert outcome(_loaded, text) == outcome(checked_scan_load, text)

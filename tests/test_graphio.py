"""Graph JSON format: round-trips, schema enforcement, error offsets."""

from __future__ import annotations

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oneplane import graphio
from oneplane.generators import GenerationFailed, GeneratorParams, catalog, random_oneplane


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

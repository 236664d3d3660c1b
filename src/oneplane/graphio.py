"""On-disk format: the graph JSON document.

A drawing is stored as a single JSON object:

    {
      "vertices": [{"id": 0, "false": false}, ...],
      "rotation": {"0": [1, 2, 3], ...}
    }

Vertex ids must be dense from 0. Ids and rotation neighbors must be JSON
integers; `true` and `false` are rejected there. A rotation key must be
the id written in its canonical decimal form ("1", not " 1", "01" or
"+1"), and no object may repeat a key. Rotation lists keep
their stored starting neighbor, so parse -> serialize -> parse is the
identity and serialization of a given drawing is byte-stable.

The document is parsed once, with a hook that rejects a repeated key in
any object. The vertex list and then the rotation object are read entry
by entry, and the first bad entry is the one named.

`dumps` writes those two lists, the vertex entries and the rotation
rows, through one fixed template per entry. Its text is that of
`json.dumps(doc, indent=2)` plus a newline, byte for byte; tests and CI
compare the two. It refuses, with a ValueError, a drawing whose vertex
ids are not the integers 0..n-1 (bools do not count) or whose
neighbors are not integers: `load` would reject the file.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain
from pathlib import Path

from .oneplanar import AssociatedPlaneGraph, build_drawing


class GraphFormatError(ValueError):
    """Input does not parse as the graph JSON document.

    `byte_offset` locates the first offending byte; structural problems
    that have no single position report offset 0.
    """

    def __init__(self, message: str, byte_offset: int = 0):
        super().__init__(message)
        self.byte_offset = byte_offset


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        raise GraphFormatError(f"duplicate key {repeated[0]!r}")
    return obj


def _parse(text: str):
    """The JSON document, parsed with a hook that rejects a repeated key
    in any object; every parse error becomes a GraphFormatError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except GraphFormatError:
        raise
    except json.JSONDecodeError as err:
        offset = len(text[: err.pos].encode("utf-8"))
        raise GraphFormatError(f"invalid JSON at byte {offset}: {err.msg}", offset) from None
    except (RecursionError, ValueError) as err:  # nesting too deep, integer too long
        raise GraphFormatError(f"unreadable JSON: {err}") from None


def loads(text: str) -> AssociatedPlaneGraph:
    """Parse the graph JSON document and build the embedded drawing."""
    doc = _parse(text)
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level value must be an object")
    for key in ("vertices", "rotation"):
        if key not in doc:
            raise GraphFormatError(f"missing required field {key!r}")

    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise GraphFormatError("'vertices' must be a non-empty list")
    false_vertices = _false_vertices(vertices)

    rotation_doc = doc["rotation"]
    if not isinstance(rotation_doc, dict):
        raise GraphFormatError("'rotation' must be an object keyed by vertex id")
    rotation = _rotation(rotation_doc, len(vertices))
    # the build needs only the rotation lists: the document, its vertex
    # entries and its rotation object are released before it runs
    del doc, vertices, rotation_doc
    return build_drawing(rotation, false_vertices)


def _false_vertices(vertices: list) -> frozenset[int]:
    """The ids marked false, entry by entry, raising at the first bad
    entry. Every entry must hold a non-negative integer id and a boolean
    mark, and the ids must be dense from 0."""
    false_vertices: set[int] = set()
    ids: set[int] = set()
    for entry in vertices:
        v = entry.get("id") if isinstance(entry, dict) else None
        if type(v) is not int or v < 0:
            raise GraphFormatError(f"vertex entry {entry!r} needs a non-negative integer 'id'")
        mark = entry.get("false")
        if not isinstance(mark, bool):
            raise GraphFormatError(f"vertex {v} needs a boolean 'false' mark")
        if v in ids:
            raise GraphFormatError(f"duplicate vertex id {v}")
        ids.add(v)
        if mark:
            false_vertices.add(v)
    # distinct non-negative ids are dense from 0 when the largest is one
    # less than their count
    if max(ids) != len(ids) - 1:
        raise GraphFormatError("vertex ids must be dense from 0")
    return frozenset(false_vertices)


def _rotation(rotation_doc: dict, n: int) -> dict[int, list[int]]:
    """The rotation table of vertices 0..n-1, in document order, entry
    by entry, raising at the first bad entry."""
    rotation: dict[int, list[int]] = {}
    id_of_key = {str(v): v for v in range(n)}
    for key, nbrs in rotation_doc.items():
        if key not in id_of_key:
            raise GraphFormatError(f"rotation key {key!r} is not a declared vertex id")
        v = id_of_key[key]
        if not isinstance(nbrs, list) or not set(map(type, nbrs)) <= {int}:
            raise GraphFormatError(f"rotation of vertex {v} must be a list of integers")
        rotation[v] = nbrs
    if len(rotation) < n:
        missing = sorted(set(range(n)) - rotation.keys())
        raise GraphFormatError(f"vertices without a rotation entry: {missing}")
    return rotation


# One vertex entry and one rotation row of `json.dumps(doc, indent=2)`.
# A rotation row is never empty: a drawing is connected and has an edge.
_VERTEX = '    {\n      "id": %d,\n      "false": %s\n    }'
_ROW = '    "%d": [\n      %s\n    ]'
_ROW_SEP = ",\n      "


def dumps(g: AssociatedPlaneGraph) -> str:
    """Serialize a drawing to its canonical JSON text.

    The text is `json.dumps(doc, indent=2) + "\n"` of the document

        {"vertices": [{"id": v, "false": v in g.false_vertices}, ...],
         "rotation": {str(v): list(g.embedding.rotation[v]), ...}}

    over the sorted vertices, with each vertex entry and each rotation
    row formatted by a fixed template. Raises ValueError unless the
    vertex ids are exactly the ints 0..n-1 and every neighbor is an int,
    so that `str(v)` is the key and every written file loads.
    """
    emb = g.embedding
    vertices, rot, false = emb.vertices, emb.rotation, g.false_vertices
    if set(map(type, vertices)) != {int} or vertices != tuple(range(len(vertices))):
        raise ValueError("only a drawing with vertex ids 0..n-1 can be written")
    if set(map(type, chain.from_iterable(rot.values()))) != {int}:
        raise ValueError("only a drawing with integer neighbors can be written")
    entries = ",\n".join([_VERTEX % (v, "true" if v in false else "false") for v in vertices])
    rows = ",\n".join([_ROW % (v, _ROW_SEP.join(map(str, rot[v]))) for v in vertices])
    return '{\n  "vertices": [\n%s\n  ],\n  "rotation": {\n%s\n  }\n}\n' % (entries, rows)


def load(path: str | Path) -> AssociatedPlaneGraph:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise GraphFormatError(f"invalid UTF-8 at byte {err.start}", err.start) from None
    return loads(text)


def save(g: AssociatedPlaneGraph, path: str | Path) -> None:
    text = dumps(g)  # raises before the file is opened
    Path(path).write_text(text, encoding="utf-8")

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

The vertex list and the rotation object are each tested as a whole (the
set of their value types, the id range, the key set). Only when such a
test fails does the entry-by-entry scan run, to name the first bad
entry with the message and offset it would have given alone.

Repeated keys are found the same way, by a whole-document count: a
plain parse is kept when the text's ":" count equals the pairs of the
top-level object, the vertex entries and the rotation object. Only on a
mismatch or a parse error does the parse run again with a hook that
tests every object, and its error is the one reported.

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
from itertools import chain, compress
from operator import itemgetter
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


def _hook_parse(text: str):
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


def _pair_count(doc: dict) -> int:
    """The pairs of the top-level object, of the vertex entries and of
    the rotation object; vertex entries count only when all are objects."""
    count = len(doc)
    vertices = doc.get("vertices")
    if type(vertices) is list and set(map(type, vertices)) <= {dict}:
        count += sum(map(len, vertices))
    rotation = doc.get("rotation")
    if type(rotation) is dict:
        count += len(rotation)
    return count


def _parse(text: str):
    """`_hook_parse(text)`, from a plain parse where the text allows.

    Every pair in the text holds a ":", and a repeated key drops a pair,
    so the colons are at least the pairs in the text, which are at least
    the pairs kept, which are at least the pairs `_pair_count` counts.
    When the colons equal that count, no key repeats and the plain parse
    is the hook's document. Otherwise, and on any parse error, the hook
    parse runs, so every error and byte offset is the hook's.
    """
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError):
        pass  # `_hook_parse` names the error
    else:
        if type(doc) is dict and _pair_count(doc) == text.count(":"):
            return doc
    return _hook_parse(text)


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
    """The ids marked false. Every entry must hold an integer id and a
    boolean mark, and the ids must be dense from 0."""
    if set(map(type, vertices)) == {dict}:
        try:
            ids = list(map(itemgetter("id"), vertices))
            marks = list(map(itemgetter("false"), vertices))
        except KeyError:
            pass
        else:
            if (
                set(map(type, ids)) == {int}
                and set(map(type, marks)) == {bool}
                and min(ids) >= 0
                and max(ids) == len(ids) - 1
                and len(set(ids)) == len(ids)
            ):
                return frozenset(compress(ids, marks))
    return _scan_vertices(vertices)


def _scan_vertices(vertices: list) -> frozenset[int]:
    """`_false_vertices` entry by entry, raising at the first bad entry."""
    false_vertices: set[int] = set()
    ids: set[int] = set()
    for entry in vertices:
        if not isinstance(entry, dict) or type(entry.get("id")) is not int or entry["id"] < 0:
            raise GraphFormatError(f"vertex entry {entry!r} needs a non-negative integer 'id'")
        if not isinstance(entry.get("false"), bool):
            raise GraphFormatError(f"vertex {entry['id']} needs a boolean 'false' mark")
        if entry["id"] in ids:
            raise GraphFormatError(f"duplicate vertex id {entry['id']}")
        ids.add(entry["id"])
        if entry["false"]:
            false_vertices.add(entry["id"])
    if ids != set(range(len(ids))):
        raise GraphFormatError("vertex ids must be dense from 0")
    return frozenset(false_vertices)


def _rotation(rotation_doc: dict, n: int) -> dict[int, list[int]]:
    """The rotation table of vertices 0..n-1, in document order."""
    nbrs = rotation_doc.values()
    # the value types first: `chain` raises on an integer value
    if (
        len(rotation_doc) == n
        and rotation_doc.keys() <= set(map(str, range(n)))
        and set(map(type, nbrs)) <= {list}
        and set(map(type, chain.from_iterable(nbrs))) <= {int}
    ):
        return dict(zip(map(int, rotation_doc), nbrs))
    return _scan_rotation(rotation_doc, n)


def _scan_rotation(rotation_doc: dict, n: int) -> dict[int, list[int]]:
    """`_rotation` entry by entry, raising at the first bad entry."""
    rotation: dict[int, list[int]] = {}
    id_of_key = {str(v): v for v in range(n)}
    for key, nbrs in rotation_doc.items():
        if key not in id_of_key:
            raise GraphFormatError(f"rotation key {key!r} is not a declared vertex id")
        v = id_of_key[key]
        if not isinstance(nbrs, list) or not all(type(u) is int for u in nbrs):
            raise GraphFormatError(f"rotation of vertex {v} must be a list of integers")
        rotation[v] = nbrs
    missing = set(range(n)) - set(rotation)
    if missing:
        raise GraphFormatError(f"vertices without a rotation entry: {sorted(missing)}")
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

"""`tools/equivalent_mutants.txt` names only mutants that exist.

`tools/mutants.py` ignores a listed key that no mutant carries, so a key
left behind by an edit of the code would go unnoticed. This parses the
checked modules only; no mutant is run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("oneplane_mutants_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_listed_equivalent_mutant_is_generated():
    tool = _load_tool()
    generated = {m.key for module in tool.MODULES for m in tool._mutants_of(module)}
    listed = tool._equivalent_keys()
    assert listed
    assert sorted(listed - generated) == []

"""In-memory spans around the public functions of each `oneplane` layer.

The recorder wraps functions from outside the package: every namespace
in `oneplane.*` that holds the function object (including aliases such
as `cli.run_audit`) gets the wrapper, so calls between layers are seen
as the program makes them. `RotationSystem.successor` is deliberately
not wrapped: at 2E calls per `build_embedding` the wrapper would
distort the very span it belongs to.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# Span name -> (module, attribute path). A dotted attribute path names a
# method on a class.
TARGETS = {
    "graphio.loads": ("graphio", "loads"),
    "graphio.dumps": ("graphio", "dumps"),
    "generators.random_oneplane": ("generators", "random_oneplane"),
    "embedding.build_embedding": ("embedding", "build_embedding"),
    "oneplanar.validate": ("oneplanar", "validate"),
    "oneplanar.recover_original": ("oneplanar", "recover_original"),
    "oneplanar.drawing_diagnostics": ("oneplanar", "drawing_diagnostics"),
    "oneplanar.OriginalGraphView.has_edge": ("oneplanar", "OriginalGraphView.has_edge"),
    "lightedge.check_light_edge_guarantee": ("lightedge", "check_light_edge_guarantee"),
    "lightedge.find_light_edges": ("lightedge", "find_light_edges"),
    "discharging.initial_charges": ("discharging", "initial_charges"),
    "discharging.find_special_faces": ("discharging", "find_special_faces"),
    "discharging.apply_discharging": ("discharging", "apply_discharging"),
    "discharging.ledger_lines": ("discharging", "ledger_lines"),
    "audit.audit": ("audit", "audit"),
}
# Spans whose result length is kept, for exact counts.
SIZED = {"discharging.find_special_faces"}

NAME, START, END, PARENT, CHECK, SIZE = range(6)


class Recorder:
    """Spans of one traced pass: [name, start, end, parent, check, size].

    `check` is the identifier shared by all spans of one check (or of
    set-up, as "setup"); `parent` is the index of the enclosing span, or
    -1 at the top.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.check: str = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.check, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if sized:
                span[SIZE] = len(result)
            return result

        return traced

    def summary(self, setup: bool) -> dict[str, dict[str, float]]:
        """Per span name, over the set-up spans or over the check spans:
        calls, total seconds and self seconds, where self time is the
        span's time minus that of the spans nested in it."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if (span[CHECK] == "setup") != setup:
                continue
            entry = out.setdefault(span[NAME], {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += span[END] - span[START]
            entry["self"] += span[END] - span[START] - child[idx]
        return out


@contextmanager
def patched(recorder: Recorder):
    """Install wrappers for every target in every loaded `oneplane` module;
    restore the originals on exit."""
    modules = [m for n, m in sys.modules.items() if n == "oneplane" or n.startswith("oneplane.")]
    undo = []
    try:
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[f"oneplane.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = recorder.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, original))
                        setattr(m, key, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

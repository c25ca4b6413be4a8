"""In-memory spans around calls into ptring's layers.

A span records a name, its start and end (perf_counter seconds), its parent
span, and the secular evaluations made while it was the innermost open span.
Spans are kept in memory in the order they opened and written out as JSON
lines when the run ends. The self time of a span is its duration minus the
time its child spans and its own secular evaluations cover.
"""

import contextlib
import functools
import json
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    # secular evaluations made while this was the innermost open span
    evals: int = 0
    eval_s: float = 0.0
    # self.evals when the first child span opened (None: no child yet)
    evals_before_child: int | None = None
    errors: Counter = field(default_factory=Counter)
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "evals": self.evals,
            "eval_s": self.eval_s,
            "evals_before_child": self.evals_before_child,
            "errors": dict(self.errors),
            "notes": self.notes,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.evals_before_child is None:
            parent.evals_before_child = parent.evals
        s = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            start=perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """fn inside a span; note(span, result) may record facts about it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(s, out)
                return out

        return traced

    def counted(self, fn):
        """fn as a secular evaluation charged to the innermost open span."""

        @functools.wraps(fn)
        def evaluate(*args):
            s = self._stack[-1]
            t0 = perf_counter()
            try:
                return fn(*args)
            except Exception as e:
                s.errors[type(e).__name__] += 1
                raise
            finally:
                s.eval_s += perf_counter() - t0
                s.evals += 1

        return evaluate

    @contextlib.contextmanager
    def patched(self, module, wrappers: dict):
        """Temporarily replace module attributes with the given wrappers.

        Names the module does not have are skipped, so a refactor that
        removes a function leaves its span empty instead of breaking the run.
        """
        saved = {n: getattr(module, n) for n in wrappers if hasattr(module, n)}
        try:
            for name in saved:
                setattr(module, name, wrappers[name](saved[name]))
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """root and every span opened under it (spans are in opening order)."""
    inside = {root.id}
    out = [root]
    for s in spans[root.id + 1:]:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out

"""The benchmark's span recorder, runtime wrappers and self-time fold.

The program's own tracer stays off.  Instead the benchmark wraps the
public entry points of each layer from outside (``Recorder.wrap``), so
a traced run times every layer without changing program code.  Spans
stay in memory and are written out when the run ends.

Times are ``time.perf_counter()`` seconds, which on Linux reads the
system-wide monotonic clock, so spans recorded in the load generator
and in the server process share one time base.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = 0
    sid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "sid": self.sid, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        return cls(doc["name"], doc["start"], doc["end"], doc["parent"],
                   doc["sid"], doc.get("attrs", {}))


class Recorder:
    """Thread-aware span recorder plus the wrappers that feed it.

    Each thread keeps its own stack, so a wrapped call's parent is the
    innermost wrapped call still open on the same thread.  Links across
    threads and processes go through attributes (wire request id,
    service ticket id) and are resolved when folding.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    parent=stack[-1].sid if stack else 0,
                    sid=next(self._ids), attrs=attrs or {})
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, parent: int = 0,
               **attrs) -> Span:
        """Add a span measured by other means (e.g. an async job)."""
        span = Span(name, start, end, parent, next(self._ids), attrs)
        self.spans.append(span)
        return span

    def wrap(self, owner: object, attr: str, name: str, before=None,
             after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``before(*args, **kwargs)`` returns attributes known at call
        time; ``after(result, span, *args, **kwargs)`` may add more
        once the call returns.
        """
        original = vars(owner)[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, before(*args, **kwargs)
                                 if before else None)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(result, span, *args, **kwargs)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`unwrap_all`."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- folding ------------------------------------------------------------------

@dataclass
class Node:
    """One span in a folded tree (possibly a clipped copy)."""

    name: str
    start: float
    end: float
    children: list["Node"] = field(default_factory=list)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(node: Node) -> float:
    """The node's duration minus the part of it its children cover.

    Children are clipped to the node, and overlapping children are
    merged, so a self time is never negative.
    """
    covered = union_length([(max(c.start, node.start), min(c.end, node.end))
                            for c in node.children])
    return max(0.0, (node.end - node.start) - covered)


def clip(node: Node, lo: float, hi: float) -> Node | None:
    """Copy of ``node``'s subtree restricted to ``[lo, hi]``."""
    start, end = max(node.start, lo), min(node.end, hi)
    if end <= start:
        return None
    kids = [k for k in (clip(c, start, end) for c in node.children) if k]
    return Node(node.name, start, end, kids)


def fold(root: Node, layer_of) -> dict[str, float]:
    """Sum of self times per layer over the tree under ``root``.

    Along a strictly blocking path (children nested in their parent and
    not overlapping each other) the layer sums add up to the root's
    duration exactly; overlap between siblings or a child overhanging
    its parent makes them add up to more.
    """
    out: dict[str, float] = {}
    todo = [root]
    while todo:
        node = todo.pop()
        layer = layer_of(node.name)
        out[layer] = out.get(layer, 0.0) + self_time(node)
        todo.extend(node.children)
    return out


def build_tree(spans: list[Span]) -> dict[int, Node]:
    """Nodes keyed by span id, linked by same-thread parent edges."""
    nodes = {s.sid: Node(s.name, s.start, s.end) for s in spans}
    for s in spans:
        if s.parent in nodes:
            nodes[s.parent].children.append(nodes[s.sid])
    return nodes

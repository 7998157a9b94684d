"""In-memory wall-clock spans recorded around calls into the layers.

A span is ``(id, name, start_ns, end_ns, parent, requests)``.  Spans are
appended to a list while the traced window runs and written out when
the benchmark ends; nothing is recorded inside the program itself —
every span is opened here, around a call into a layer's public
function.

Parent links follow the call stack of one thread (a thread-local
"current span").  A served batch is shared by every request in it, so
the ``serve.batch`` span has no parent and instead lists the request ids
it served (the id rides in ``QueryRequest.tenant``); each request tree
is the request span, its own child spans, and the batch subtree.

Self time is a span's duration minus the part of its interval that its
children cover.  When children nest inside their parent and do not
overlap, the self times of a request tree add up to the request span
exactly; :func:`tiling_errors` measures how far each tree is from that.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

now_ns = time.perf_counter_ns

# Span names (the per-layer vocabulary of the benchmark).
REQUEST = "request"
QUEUE_WAIT = "serve.queue_wait"
BATCH = "serve.batch"
ENGINE = "parallel.query_batch"
REF_QUERY = "reference.query"
READ_PAGE = "storage.read_page"
DIRECTORY = "index.child_mindists"
SCORE = "index.offer_payload"

Span = Tuple[int, str, int, int, Optional[int], Tuple[str, ...]]


class SpanLog:
    """Append-only span store shared by the load generator's threads."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: List[Span] = []

    def new_id(self) -> int:
        """Reserve a span id before the span ends (children need it)."""
        return next(self._ids)

    def add(
        self,
        name: str,
        start: int,
        end: int,
        parent: Optional[int] = None,
        requests: Sequence[str] = (),
        span_id: Optional[int] = None,
    ) -> int:
        """Record a finished span; returns its id."""
        sid = self.new_id() if span_id is None else span_id
        self.spans.append((sid, name, start, end, parent, tuple(requests)))
        return sid

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        *args: Any,
        request_ids: Sequence[str] = (),
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` inside a span that is the thread's current parent."""
        local = self._local
        parent = getattr(local, "parent", None)
        sid = next(self._ids)
        local.parent = sid
        start = now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now_ns()
            local.parent = parent
            self.spans.append(
                (sid, name, start, end, parent, tuple(request_ids))
            )

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def by_name(self, name: str) -> List[Span]:
        """Every recorded span called ``name``."""
        return [span for span in self.spans if span[1] == name]

    def write_jsonl(self, path: Any) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, requests in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent,
                    "requests": list(requests),
                }) + "\n")


def _covered(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus child coverage.

    A ``serve.batch`` span counts as a child of each request it lists.
    """
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    request_span = {
        span[5][0]: span[0] for span in spans
        if span[1] == REQUEST and span[5]
    }
    for sid, name, start, end, parent, requests in spans:
        if parent is not None:
            children[parent].append((start, end))
        elif name == BATCH:
            for rid in requests:
                if rid in request_span:
                    children[request_span[rid]].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, ()))
        for sid, _name, start, end, _parent, _requests in spans
    }


def request_trees(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    """Every span in each request's tree, keyed by request id.

    The tree of a request is its ``request`` span, the spans parented
    to it, and the whole subtree of the batch that served it.
    """
    kids: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        kids[span[4]].append(span)

    def subtree(span: Span) -> List[Span]:
        out, stack = [], [span]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(kids.get(node[0], ()))
        return out

    batch_of: Dict[str, Span] = {}
    for span in spans:
        if span[1] == BATCH:
            for rid in span[5]:
                batch_of[rid] = span
    trees: Dict[str, List[Span]] = {}
    for span in spans:
        if span[1] != REQUEST or not span[5]:
            continue
        rid = span[5][0]
        tree = subtree(span)
        if rid in batch_of:
            tree.extend(subtree(batch_of[rid]))
        trees[rid] = tree
    return trees


def tiling_errors(spans: Sequence[Span]) -> Dict[str, float]:
    """Per request: ``|sum of self times - request span| / request span``."""
    own = self_times(spans)
    errors: Dict[str, float] = {}
    for rid, tree in request_trees(spans).items():
        root = tree[0]
        duration = root[3] - root[2]
        total = sum(own[span[0]] for span in tree)
        errors[rid] = abs(total - duration) / duration if duration else 0.0
    return errors


def layer_breakdown(spans: Sequence[Span]) -> Dict[str, float]:
    """Mean self time per request (ms) of each span name in the trees.

    The shared batch subtree is charged in full to every request it
    served — each of them waited for all of it — so the entries add up
    to the mean request span.
    """
    own = self_times(spans)
    trees = request_trees(spans)
    totals: Dict[str, int] = defaultdict(int)
    for tree in trees.values():
        for span in tree:
            totals[span[1]] += own[span[0]]
    count = max(1, len(trees))
    return {name: ns / count / 1e6 for name, ns in sorted(totals.items())}

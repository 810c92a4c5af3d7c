"""Layer tracing from outside the program: wrap public entry points, time them.

A :class:`Tracer` replaces each listed entry point (a method on a class,
or a function in a module) with a wrapper that times the call and keeps
a span in memory.  Nothing inside ``src/`` changes; :meth:`Tracer.close`
puts every original back.

A layer's *self time* is the time inside its wrapped entry points minus
the time spent inside wrapped entry points called from them (a
single-threaded call stack, so children nest exactly).  *Inclusive
time* is kept per entry point, for figures such as the oracle sweep
whose children belong to other layers.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, Optional[str]]


class Tracer:
    """Entry-point wrappers plus the span buffer and per-layer totals."""

    # Spans beyond this many are counted, not kept (memory stays bounded).
    SPAN_CAP = 250_000

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[list] = []
        self._next_id = 0
        self._originals: List[Tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        *,
        request_id: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as part of ``layer``.

        ``request_id(args)`` names the request a call serves, when one
        is known; ``after(result)`` sees each return value (used to read
        simulated figures a call returns, such as recovery time).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{layer}:{attr}"
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        self.self_s.setdefault(layer, 0.0)
        self.inclusive_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                tracer.self_s[layer] += own
                tracer.inclusive_s[name] += elapsed
                tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if len(spans) < tracer.SPAN_CAP:
                    rid = request_id(args) if request_id is not None else None
                    spans.append((span_id, name, start, end, parent, rid))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped entry point (latest wrap first)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def layer_self_s(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def entry_calls(self, layer: str, attr: str) -> int:
        return self.calls.get(f"{layer}:{attr}", 0)

    def entry_inclusive_s(self, layer: str, attr: str) -> float:
        return self.inclusive_s.get(f"{layer}:{attr}", 0.0)

    def write_spans(self, path) -> None:
        """Write the kept spans once, as JSON lines (times in µs from start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, rid in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_us": round((start - self.t0) * 1e6, 3),
                            "end_us": round((end - self.t0) * 1e6, 3),
                            "parent": parent,
                            "request": rid,
                        }
                    )
                    + "\n"
                )

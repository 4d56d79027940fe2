"""In-memory span tracer for the benchmark's traced runs.

A traced round replaces each wrap target, a function or method at the place
where its caller looks it up, with a wrapper that records a span: name,
start, end, parent span and operation id. Spans stay in memory and are
written out when the run ends. Autodiff ops are far too many for one span
each, so they are timed into per-op counters instead; their time is still
charged to the enclosing span, so self time (busy time minus the time that
child spans and ops cover) stays exact.

A wrap target that does not exist is recorded as missing, so a renamed
call site shows as ``missing`` in the report rather than as zero work.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter

# span fields: name, start, end, parent index (-1 for none), operation id, self seconds
NAME, START, END, PARENT, OP, SELF = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.op: int | str = 0
        self._ops = 0
        self._roots = 0  # open spans that started an operation
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.op, 0.0])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> None:
        end = _clock()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[END] = end
        duration = end - span[START]
        span[SELF] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][1] += seconds

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1][0]][NAME] if self._stack else None

    # -- installation ------------------------------------------------------

    def _resolve(self, target: str):
        """``module[:Class]`` to the object that owns the wrapped attribute."""
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        return getattr(owner, class_name, None) if class_name else owner

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, target: str, attr: str, name: str, after=None, new_op: bool = False, op_key=None) -> None:
        """Record a ``name`` span around every call of ``target.attr``.

        ``after(tracer, args, result)`` runs outside the span and may add
        counts. ``new_op`` starts a new numbered operation at each call that
        is not already inside one; ``op_key(args)`` names the operation
        instead, such as a document id that several stages share.
        """
        owner = self._resolve(target)
        fn = owner.__dict__.get(attr) if owner is not None else None
        if not callable(fn):
            self.missing.add(name)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_op and self._roots == 0:
                self._ops += 1
                self.op = self._ops
            elif op_key is not None:
                self.op = op_key(args)
            self._roots += new_op
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
                self._roots -= new_op
            if after is not None:
                after(self, args, result)
            return result

        self._replace(owner, attr, wrapper)

    def wrap_op(self, module: str, op: str, var_type) -> None:
        """Time an autodiff op's forward call and its returned node's adjoint."""
        owner = self._resolve(module)
        fn = owner.__dict__.get(op) if owner is not None else None
        if not callable(fn):
            self.missing.add(f"autodiff.op.{op}")
            return
        counts = self.counts
        calls_key = f"autodiff.op.{op}.calls"
        fwd_key = f"autodiff.op.{op}.fwd_s"
        bwd_key = f"autodiff.op.{op}.bwd_s"

        def timed_backward(backward_fn):
            def run(grad):
                start = _clock()
                grads = backward_fn(grad)
                seconds = _clock() - start
                counts[bwd_key] += seconds
                self._charge(seconds)
                return grads
            return run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            out = fn(*args, **kwargs)
            seconds = _clock() - start
            counts[calls_key] += 1
            counts[fwd_key] += seconds
            self._charge(seconds)
            inside = self.innermost()
            if inside is not None:
                counts[f"nodes_in.{inside}"] += 1
            # an op may return its input unchanged (dropout at rate 0)
            if isinstance(out, var_type) and out.backward_fn is not None and not any(out is a for a in args):
                out.backward_fn = timed_backward(out.backward_fn)
            return out

        self._replace(owner, op, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def self_time(self, name: str) -> float:
        return sum(s[SELF] for s in self.spans if s[NAME] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        found = 0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0:
                if self.spans[parent][NAME] == ancestor:
                    found += 1
                    break
                parent = self.spans[parent][PARENT]
        return found

    def step_ms(self, outer: str, step: str) -> list[float]:
        """Gaps between successive ``step`` span ends inside each ``outer`` span."""
        gaps = []
        last: dict[int, float] = {}
        for index, span in enumerate(self.spans):
            if span[NAME] == outer:
                last[index] = span[START]
            elif span[NAME] == step:
                parent = span[PARENT]
                while parent >= 0 and self.spans[parent][NAME] != outer:
                    parent = self.spans[parent][PARENT]
                if parent >= 0:
                    gaps.append(1e3 * (span[END] - last[parent]))
                    last[parent] = span[END]
        return gaps

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op", "self_s"],
                "spans": self.spans,
                "counts": dict(sorted(self.counts.items())),
                "missing": sorted(self.missing),
            }, fh)

"""Span tracer that times taserial's layers from outside the package.

The traced run replaces module attributes of taserial with timing wrappers
and puts the originals back afterwards, so no source file of the package
changes.  A wrapper only sees calls that go through the attribute it
replaced: `engine.run` catches the benchmark's own runs, while the checker's
solo re-runs go through `checker.run`, the name the checker imported.

Each call becomes a span: name, start, end and the span open when it began.
Spans are kept per batch (one batch per fuzz seed, tagged with that seed) and
folded into per-name totals when the batch ends; a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path) of every function the traced run wraps.
HOOKS: Tuple[Tuple[str, str], ...] = (
    ("taserial.engine", "run"),
    ("taserial.engine", "wrapper_step"),
    ("taserial.engine", "state_digest"),
    ("taserial.engine", "make_rng"),
    ("taserial.engine", "trace_to_lines"),
    ("taserial.engine", "trace_from_lines"),
    ("taserial.engine", "parse_program"),
    ("taserial.wrapper", "rw_rule"),
    ("taserial.wrapper", "terminated"),
    # wrapper._proper imports yields at call time, so the module attribute
    # is what it gets.  yields recurses through the same attribute; only the
    # outermost call becomes a span.
    ("taserial.asm", "yields"),
    ("taserial.asm", "State.with_updates"),
    ("taserial.controller", "lock_handler_step"),
    ("taserial.controller", "commit_step"),
    ("taserial.controller", "deadlock_handler_step"),
    ("taserial.controller", "recovery_step"),
    ("taserial.controller", "deadlocked"),
    ("taserial.controller", "apply_effect"),
    ("taserial.controller", "LockTable.locked_by"),
    ("taserial.checker", "check_serializable"),
    ("taserial.checker", "run"),
    ("taserial.checker", "cleanse"),
    ("taserial.checker", "equivalent"),
    ("taserial.fuzz", "random_config"),
)


def span_name(module: str, path: str) -> str:
    """`taserial.asm`, `State.with_updates` -> `asm.State.with_updates`."""
    return f"{module.rsplit('.', 1)[-1]}.{path}"


def resolve(module: str, path: str):
    """The (owner, attribute) a hook replaces, or None when it is gone.

    A later change may delete a hooked function; the traced run then reports
    the hook as missing instead of failing.
    """
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner) or not callable(vars(owner)[attr]):
        return None
    return owner, attr


class Tracer:
    """Install with `with Tracer() as t:`; `begin(seed)` and `fold()`
    bracket each batch.  Totals are per span name: calls, inclusive seconds
    and self seconds."""

    def __init__(self, hooks=HOOKS,
                 observers: Optional[Dict[str, Callable]] = None):
        self.hooks = tuple(hooks)
        self.names: List[str] = [span_name(m, p) for m, p in self.hooks]
        self.observers = dict(observers or {})
        self.missing: List[str] = []
        self.calls = {n: 0 for n in self.names}
        self.total = {n: 0.0 for n in self.names}
        self.self_time = {n: 0.0 for n in self.names}
        self.batch_id = None
        # The open batch, one entry per span.  Arrays are cleared in place
        # because the installed wrappers hold references to them.
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack = [-1]
        self._installed: List[tuple] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        self.missing = []
        for code, (module, path) in enumerate(self.hooks):
            target = resolve(module, path)
            if target is None:
                self.missing.append(self.names[code])
                continue
            owner, attr = target
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(code, original,
                                            self.observers.get(self.names[code])))
            self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, code: int, fn, observer):
        names, starts, ends, parents = (self._name, self._start, self._end,
                                        self._parent)
        stack = self._stack
        depth = 0

        def hooked(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            depth += 1
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                depth -= 1
            if observer is not None:
                observer(result)
            return result

        return hooked

    # -- batches -----------------------------------------------------------

    def begin(self, batch_id) -> None:
        self.batch_id = batch_id

    def fold(self) -> int:
        """Add the open batch to the totals, clear it and return its span
        count."""
        n = len(self._name)
        child = [0.0] * n
        for k in range(n):
            p = self._parent[k]
            if p >= 0:
                child[p] += self._end[k] - self._start[k]
        for k in range(n):
            name = self.names[self._name[k]]
            dur = self._end[k] - self._start[k]
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[k]
        for arr in (self._name, self._start, self._end, self._parent):
            del arr[:]
        self.batch_id = None
        return n

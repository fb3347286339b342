"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end
(perf_counter_ns) and the span that was open when it began.  Spans live in
flat arrays while the run goes on and are written out once, when it ends.

Functions are wrapped from outside the program: `Recorder.wrap` rebinds the
function's name in every loaded module that holds the same object (the
defining module, and every module that imported it by name), and
`Recorder.unwrap` puts each original back.
"""

import functools
import json
import sys
import time
from array import array
from types import ModuleType

import numpy as np


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._rebound: list[tuple[ModuleType, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _traced(self, name: str, fn, observe):
        """Return fn wrapped so that every call records one span.

        observe(args, kwargs, result) may return a dict stored as the span's
        attributes (for example the shot count of a draw, or a solver's
        iteration count).
        """
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if observe is not None:
                attrs = observe(args, kwargs, result)
                if attrs:
                    self.attrs[idx] = attrs
            return result

        return wrapper

    def wrap(self, module: ModuleType, attr: str, name: str, observe=None) -> None:
        """Trace module.attr as `name`, rebinding it wherever a loaded module holds it."""
        original = getattr(module, attr)
        wrapper = self._traced(name, original, observe)
        package = module.__name__.split(".")[0]
        for mod in list(sys.modules.values()):
            if not isinstance(mod, ModuleType):
                continue
            if mod.__name__ != package and not mod.__name__.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebound.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def unwrap(self) -> None:
        """Restore every attribute rebound by wrap, newest first."""
        while self._rebound:
            mod, key, original = self._rebound.pop()
            setattr(mod, key, original)

    def self_times_ns(self) -> np.ndarray:
        return self_times_ns(
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def save(self, path) -> None:
        """Write every span, its name table and attributes to one .npz file."""
        idx = sorted(self.attrs)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            attr_span=np.array(idx, dtype=np.int64),
            attr_json=np.array([json.dumps(self.attrs[i]) for i in idx], dtype=str),
        )


def self_times_ns(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Child intervals are clipped to the parent's interval and merged before
    subtraction, so overlapping or overrunning children are counted once.
    """
    out = (end - start).astype(np.int64)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = int(start[p]), int(end[p])
        intervals = sorted((max(int(start[k]), lo), min(int(end[k]), hi)) for k in kids)
        covered, cur_s, cur_e = 0, None, None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out

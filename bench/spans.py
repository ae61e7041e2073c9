"""Spans and call counts for the kakeya layers, recorded from outside the package.

A `Tracer` replaces each traced function with a wrapper that records one
span (name, start, end, parent) per call.  Modules bind imported names
when they are imported (`kakeya.verify.meet` is its own reference to
`kakeya.projgeom.meet`), so a wrapper is installed at every attribute of
every loaded `kakeya` module that holds the original object, and on the
class for methods.  `uninstall` puts every original back.

Spans live in flat `array` columns so that a run with millions of calls
stays within a few tens of MiB.  A layer's self time is its span's
duration minus the time covered by its child spans.

A `Counter` is the cheaper sibling used for the scalar layer: it only
counts calls, in a separate pass, so that its cost does not inflate the
self times of the spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array


def _kakeya_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "kakeya" or name.startswith("kakeya."))
    ]


def _resolve(module_name: str, qualname: str):
    """(owner, attribute) of a module function or of a method on a class."""
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patcher:
    """Replaces objects at every binding site and restores them in reverse order."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch(self, module_name: str, qualname: str, make_wrapper) -> int:
        """Wrap one function everywhere it is bound; returns the number of sites."""
        owner, attr = _resolve(module_name, qualname)
        if isinstance(owner, type):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                self._set(owner, attr, make_wrapper(raw))
            return 1
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        sites = 0
        for mod in _kakeya_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    sites += 1
        return sites

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Tracer(_Patcher):
    """Records one span per call of each wrapped function."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # extra per-name statistics filled by post hooks
        self.stats: dict[str, float] = {}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        """A span-recording wrapper around fn; post(args, result) runs after the span closes."""
        nid = self.name_index(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def trace(self, module_name: str, qualname: str, post=None) -> int:
        """Wrap module_name.qualname under the span name '<module>.<qualname>'."""
        name = f"{module_name.split('.', 1)[1]}.{qualname}"
        return self.patch(module_name, qualname, lambda fn: self.wrap(name, fn, post))

    def __len__(self) -> int:
        return len(self.name_id)

    def add_stat(self, key: str, value: float):
        self.stats[key] = self.stats.get(key, 0) + value

    def max_stat(self, key: str, value: float):
        self.stats[key] = max(self.stats.get(key, value), value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name calls, inclusive time and self time over all spans."""
        return summarize(self.names, self.name_id, self.parent, self.start, self.end)

    def inclusive(self, name: str, lo: int, hi: int) -> float:
        """Summed duration of the spans of one name within lo..hi-1."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        ids, starts, ends = self.name_id, self.start, self.end
        return math.fsum(ends[i] - starts[i] for i in range(lo, hi) if ids[i] == nid)

    def write(self, path: str):
        """Write every span: a JSON header line, then the four columns as raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)


def self_times(parents, starts, ends):
    """Duration of each span minus the time covered by its direct children.

    Calls are single-threaded and nested, so the children of a span do not
    overlap and the covered time is the sum of their durations.
    """
    dur = array("d", (e - s for s, e in zip(starts, ends)))
    covered = array("d", bytes(8 * len(dur)))
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += dur[i]
    return array("d", (d - c for d, c in zip(dur, covered))), dur


def summarize(names, ids, parents, starts, ends) -> dict[str, dict[str, float]]:
    own, dur = self_times(parents, starts, ends)
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    for nid, s, d in zip(ids, own, dur):
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["self_s"] += s
        entry["total_s"] += d
    return out


class Counter(_Patcher):
    """Counts calls of wrapped functions; no timing."""

    def __init__(self):
        super().__init__()
        self.cells: dict[str, list[int]] = {}

    def count(self, module_name: str, qualname: str, key: str) -> int:
        cell = self.cells.setdefault(key, [0])

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)

            return wrapper

        return self.patch(module_name, qualname, make)

    def value(self, key: str) -> int:
        return self.cells[key][0]

"""In-memory span tracer that wraps wingcp's public functions from outside.

Every wrapped callable records one span (name, start, end, parent) per
call. Spans live in flat Python lists until the run ends; the self time
of a span is its duration minus the time its direct child spans cover.
A name is wrapped where the caller looks it up (``wingcp.data.build_stencil``,
not ``wingcp.stencil.build_stencil``), so nothing under ``src/`` changes.
"""

import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.child = []
        self._stack = []
        self.counters = {}
        self._undo = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        t = time.perf_counter()
        self._stack.pop()
        self.end[idx] = t
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a traced version; ``after(args, result)``."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end, self time."""
        start = np.array(self.start)
        end = np.array(self.end)
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": start,
            "end": end,
            "self": end - start - np.array(self.child),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def aggregate(tracer, arrays, lo, hi):
    """Per-name call count, total and self seconds for spans [lo, hi)."""
    names = arrays["name"][lo:hi]
    dur = arrays["end"][lo:hi] - arrays["start"][lo:hi]
    selft = arrays["self"][lo:hi]
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = names == nid
        out[name] = (int(mask.sum()), float(dur[mask].sum()), float(selft[mask].sum()))
    return out


def child_calls(tracer, arrays, lo, hi, child, parent):
    """Number of ``child`` spans in [lo, hi) whose direct parent is a ``parent`` span."""
    names = arrays["name"]
    if child not in tracer.names or parent not in tracer.names:
        return 0
    sel = np.flatnonzero(names[lo:hi] == tracer.names.index(child)) + lo
    par = arrays["parent"][sel]
    par = par[par >= 0]
    return int(np.sum(names[par] == tracer.names.index(parent)))


def under(tracer, arrays, lo, hi, name, ancestor):
    """Total seconds of ``name`` spans in [lo, hi) with an ``ancestor`` span above them."""
    if name not in tracer.names or ancestor not in tracer.names:
        return 0.0
    names, parents = arrays["name"], arrays["parent"]
    aid = tracer.names.index(ancestor)
    total = 0.0
    for i in np.flatnonzero(names[lo:hi] == tracer.names.index(name)) + lo:
        p = parents[i]
        while p >= 0 and names[p] != aid:
            p = parents[p]
        if p >= 0:
            total += arrays["end"][i] - arrays["start"][i]
    return float(total)

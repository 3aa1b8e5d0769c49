"""Counters, self times and coarse spans, installed around library calls.

The library is not edited: `install` replaces public functions and
methods by timing wrappers, under every module name that binds them
(`from .primes import check_prime` copies the binding), and `restore`
puts the originals back.  Each wrapper keeps a call count, total time
and self time (total minus the time of nested wrapped calls).  Wrappers
marked as spans also append (id, parent, name, start, end, attrs)
records; the hot leaves only count.
"""

import sys
import time

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_time", "seen", "repeats")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.seen = None
        self.repeats = 0

    def to_json(self):
        out = {"calls": self.calls, "total_s": self.total,
               "self_s": self.self_time}
        if self.seen is not None:
            out["distinct_args"] = len(self.seen)
            out["repeats"] = self.repeats
        return out


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counters = {}
        self.spans = []
        self.child = 0.0
        self._open = [None]
        self._undo = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, key=None, span=False, before=None):
        """A timing wrapper for fn.  key(args) names the argument whose
        repeats are counted; before(args) runs untimed, ahead of the
        call, and returns span attributes."""
        st = self.stat(name)
        if key is not None:
            st.seen = set()
        tracer = self

        def wrapper(*args, **kwargs):
            st.calls += 1
            if key is not None:
                k = key(args)
                if k in st.seen:
                    st.repeats += 1
                else:
                    st.seen.add(k)
            attrs = before(args) if before is not None else None
            saved = tracer.child
            tracer.child = 0.0
            if span:
                sid = len(tracer.spans)
                record = [sid, tracer._open[-1], name, 0.0, 0.0, attrs]
                tracer.spans.append(record)
                tracer._open.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.total += dt
                st.self_time += dt - tracer.child
                tracer.child = saved + dt
                if span:
                    tracer._open.pop()
                    record[3] = t0
                    record[4] = t0 + dt

        return wrapper

    def span(self, name, attrs=None):
        """Context manager for a coarse span opened by the benchmark
        itself (one per op).  It takes part in self-time accounting."""
        return _Span(self, name, attrs)

    # -- patching ------------------------------------------------------------

    def patch_function(self, original, wrapper):
        """Rebind `original` to `wrapper` in every bockstein module."""
        hit = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "bockstein"
                                      or modname.startswith("bockstein.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    hit += 1
        if not hit:
            raise LookupError(f"no module binds {original!r}")

    def patch_method(self, cls, attr, name, **opts):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, **opts))
        else:
            new = self.wrap(name, raw, **opts)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def hook(self, module, attr, name, **opts):
        """Wrap module.attr (a function) wherever it is bound."""
        original = getattr(module, attr)
        self.patch_function(original, self.wrap(name, original, **opts))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def self_sum(self, prefix):
        return sum(st.self_time for n, st in self.stats.items()
                   if n.startswith(prefix))

    def calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_of(self, name):
        st = self.stats.get(name)
        return st.self_time if st else 0.0

    def repeat_share(self, name):
        st = self.stats.get(name)
        return st.repeats / st.calls if st and st.calls else 0.0

    def spans_json(self):
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], "attrs": s[5]} for s in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "attrs", "record", "saved", "t0")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tr = self.tracer
        sid = len(tr.spans)
        self.record = [sid, tr._open[-1], self.name, 0.0, 0.0, self.attrs]
        tr.spans.append(self.record)
        tr._open.append(sid)
        self.saved = tr.child
        tr.child = 0.0
        self.t0 = clock()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        dt = clock() - self.t0
        st = tr.stat(self.name)
        st.calls += 1
        st.total += dt
        st.self_time += dt - tr.child
        tr.child = self.saved + dt
        tr._open.pop()
        self.record[3] = self.t0
        self.record[4] = self.t0 + dt
        return False

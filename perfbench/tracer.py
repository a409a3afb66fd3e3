"""Layer tracing from outside the program: wrappers, spans, self time.

:class:`Tracer` patches the layers of ``repro`` in place for the length
of one traced run and restores them afterwards.  Nothing under ``src/``
changes.  Three kinds of wrapper record spans:

* every method of every class a layer module defines (the simulation
  kernel only on ``Simulator.run``, ``spawn``, ``timeout``, ``event``,
  ``all_of`` and ``any_of``), and every public module-level function;
* generator functions get a generator wrapper, so each resumption of
  the generator is one span of its layer (the work of a simulated
  process happens while it is resumed, not when it is created);
* ``Simulator.spawn`` wraps every process body it is given, with the
  layer of the module that defines the body.

A span is ``(name, layer, start, end, span id, parent id, trace id)``.
The trace id is the ``RequestContext.trace_id`` of the simulated process
being resumed, when it has one, else the parent's.  A layer's self time
is the time it sat on top of the span stack; time outside every span is
charged to ``bench`` (this harness).  The tracer's own bookkeeping
between its two clock reads per span boundary is charged to no layer.
Counts, self times and the inclusive time per wrapped name cover every
span; only the first ``MAX_SPANS`` spans are kept for the Chrome
trace-event export.

The tracer only observes: it adds no simulated event and changes no
value, so a traced run must produce the same fingerprint as an untraced
one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
from collections import Counter, defaultdict
from enum import Enum
from time import perf_counter

__all__ = ["CODER", "LAYERS", "Tracer", "layer_of"]

#: the ``src/repro`` packages a layer is made of, in report order
LAYERS = (
    "simulation", "services", "netsim", "catalog", "rls", "gridftp",
    "gdmp", "storage", "workload", "chunks", "observatory", "telemetry",
    "security", "faults",
)

#: the only kernel entry points wrapped; the rest of the kernel (event
#: callbacks, process resumption) is what ``simulation.self_s`` measures
_KERNEL_ENTRIES = ("run", "spawn", "timeout", "event", "all_of", "any_of")

_KEEP_DUNDERS = ("__init__", "__call__")

@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The layer a source file belongs to: its ``repro`` package when
    that is a measured layer, ``other`` for the rest of ``repro``, and
    ``bench`` for code outside ``repro``."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    path = os.path.abspath(filename)
    if not path.startswith(root):
        return "bench"
    package = path[len(root):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


#: the erasure coder's inner loop: every GF(256) encode, decode and
#: repair goes through it, and the bytes of the shards it is given are
#: counted in ``nbytes``
CODER = "chunks:ReedSolomon._combine"


#: spans kept for the Chrome trace export (~10 MB of JSON)
MAX_SPANS = 50_000


class Tracer:
    """Span recorder and layer patcher for one traced run."""

    def __init__(self):
        self.active = False
        self.sim = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.nbytes: Counter = Counter()
        self.processes = 0
        self.n_spans = 0
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []
        self._mark = 0.0
        self._patches: list[tuple] = []
        self._skip_codes: set = set()

    # -- span accounting --------------------------------------------------
    def start(self, sim) -> None:
        """Begin recording (at top level: no span may be open)."""
        self.sim = sim
        self._mark = perf_counter()
        self.active = True

    def stop(self) -> None:
        """Stop recording (at top level)."""
        self.self_s["bench"] += perf_counter() - self._mark
        self.active = False

    def _enter(self, layer: str, name: str, step: bool) -> None:
        now = perf_counter()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.self_s[top[0]] += now - self._mark
            parent, trace = top[1], top[4]
        else:
            self.self_s["bench"] += now - self._mark
            parent, trace = 0, None
        self.n_spans += 1
        span_id = self.n_spans
        if step or trace is None:
            context = self.sim.current_context
            if context is not None:
                trace = context.trace_id
            elif trace is None:
                trace = span_id
        stack.append((layer, span_id, now, name, trace, parent))
        self._mark = perf_counter()     # the bookkeeping above is nobody's

    def _exit(self) -> None:
        now = perf_counter()
        layer, span_id, started, name, trace, parent = self._stack.pop()
        self.self_s[layer] += now - self._mark
        self.calls[name] += 1
        self.inclusive[name] += now - started
        if span_id <= MAX_SPANS:
            self.spans.append((name, layer, started, now, span_id, parent,
                               trace))
        self._mark = perf_counter()

    def drive(self, gen, layer: str, name: str):
        """Delegate to ``gen`` exactly as ``yield from`` would, timing
        each resumption as one span."""
        value = None
        error = None
        while True:
            traced = self.active
            if traced:
                self._enter(layer, name, True)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target, error = gen.throw(error), None
            except StopIteration as stop:
                if traced:
                    self._exit()
                return stop.value
            except BaseException:
                if traced:
                    self._exit()
                raise
            if traced:
                self._exit()
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                error, value = exc, None

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return (yield from tracer.drive(fn(*args, **kwargs),
                                                layer, name))
            self._skip_codes.add(gen_wrapper.__code__)
            return gen_wrapper
        coder = name == CODER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if coder:
                shards = args[2]
                if isinstance(shards, dict):
                    shards = shards.values()
                tracer.nbytes[name] += sum(len(v) for v in shards)
            tracer._enter(layer, name, False)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    def _wrap_spawn(self, spawn):
        tracer = self
        skip = self._skip_codes
        skip.add(Tracer.drive.__code__)

        @functools.wraps(spawn)
        def traced_spawn(sim, generator, name=""):
            if tracer.active:
                tracer.processes += 1
            code = getattr(generator, "gi_code", None)
            if code is not None and code not in skip:
                layer = layer_of(code.co_filename)
                body = tracer.drive(
                    generator, layer, f"{layer}:{generator.__qualname__}"
                )
                body.__name__ = generator.__name__
                body.__qualname__ = generator.__qualname__
                generator = body
            return spawn(sim, generator, name)
        return traced_spawn

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_class(self, cls, layer: str, only=None) -> None:
        for attr, raw in list(cls.__dict__.items()):
            if only is not None and attr not in only:
                continue
            if attr.startswith("__") and attr not in _KEEP_DUNDERS:
                continue
            kind = type(raw)
            fn = raw.__func__ if kind in (staticmethod, classmethod) else raw
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if cls.__name__ == "Simulator" and attr == "spawn":
                wrapped = self._wrap(self._wrap_spawn(fn), layer, name)
            else:
                wrapped = self._wrap(fn, layer, name)
            if kind in (staticmethod, classmethod):
                wrapped = kind(wrapped)
            self._patch(cls, attr, wrapped)

    def install(self) -> None:
        """Patch every layer; :meth:`uninstall` undoes it."""
        functions = {}
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            modules = [package] + [
                importlib.import_module(info.name)
                for info in pkgutil.walk_packages(package.__path__,
                                                  f"repro.{layer}.")
            ]
            for module in modules:
                kernel = module.__name__ == "repro.simulation.kernel"
                for attr, obj in list(vars(module).items()):
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if isinstance(obj, type):
                        if kernel and obj.__name__ != "Simulator":
                            continue
                        if issubclass(obj, (BaseException, Enum)):
                            continue
                        self._patch_class(
                            obj, layer, _KERNEL_ENTRIES if kernel else None)
                    elif (inspect.isfunction(obj) and not attr.startswith("_")
                          and not kernel):
                        functions[obj] = self._wrap(
                            obj, layer, f"{layer}:{obj.__name__}")
        # module-level functions are also bound by name in importers
        for module in list(sys.modules.values()):
            for attr, obj in list(getattr(module, "__dict__", {}).items()):
                if inspect.isfunction(obj) and obj in functions:
                    self._patch(module, attr, functions[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export ------------------------------------------------------------
    def chrome_trace(self, path: str, label: str) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto)."""
        base = min((span[2] for span in self.spans), default=0.0)
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
            "args": {"span": span_id, "parent": parent, "trace": str(trace)},
        } for name, layer, start, end, span_id, parent, trace in self.spans]
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                 "args": {"name": label}}]
        with open(path, "w") as fh:
            json.dump({"traceEvents": meta + events,
                       "otherData": {"spans_total": self.n_spans,
                                     "spans_kept": len(self.spans)}}, fh)

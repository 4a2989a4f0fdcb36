"""Per-layer accounting for the traced run.

Three sources, each used in its own fresh process so that one does not
distort another:

* :class:`EventCounter` reads the scheduler's public event counters
  around every ``Engine.run`` call (cheap; used in the untraced run).
* :func:`self_times` and :func:`call_counts` read a :mod:`cProfile`
  profile of the batch.  Self time of code outside ``repro`` — C
  builtins, numpy, the standard library — is charged to the ``repro``
  function that called it, so ``sum`` called from the fluid links
  counts as fluid-link time.
* :class:`EngineObservers` reads the program's own obs counters from
  observers installed for the batch.
"""

from __future__ import annotations

import importlib
import pstats
import sys
import weakref
from collections import defaultdict

#: The layers, named by module under ``repro``.  A module belongs to the
#: longest layer name that prefixes it.
LAYERS = ("sim.engine", "sim.events", "sim.resources", "sim.fluid",
          "sim.domains", "api", "core", "gpu", "perf", "cpu", "storage",
          "fleet", "apps", "obs")
#: Bucket for self time no named layer owns: other ``repro`` modules,
#: the benchmark itself, and anything no ``repro`` function called.
OUTSIDE = "unattributed"

#: Caller chains longer than this are charged to OUTSIDE.
_MAX_DEPTH = 64


def module_of(filename: str):
    """``repro.sim.fluid`` -> ``"sim.fluid"``; None outside ``repro``."""
    path = filename.replace("\\", "/")
    idx = path.rfind("/repro/")
    if idx < 0 or not path.endswith(".py"):
        return None
    parts = path[idx + len("/repro/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module: str) -> str:
    matches = [layer for layer in LAYERS
               if module == layer or module.startswith(layer + ".")]
    return max(matches, key=len, default=OUTSIDE)


def self_times(stats: pstats.Stats) -> tuple[dict, dict]:
    """Self seconds per layer, and per ``repro`` module outside a layer.

    Returns ``(layers, outside_modules)``; ``layers`` has every name in
    :data:`LAYERS` plus :data:`OUTSIDE`.
    """
    table = stats.stats
    owner_cache: dict = {}

    def owner(func):
        """(bucket, module) for a ``repro`` function, else None."""
        if func not in owner_cache:
            module = module_of(func[0])
            owner_cache[func] = None if module is None \
                else (layer_of(module), module)
        return owner_cache[func]

    shares_cache: dict = {}
    in_progress: set = set()

    def passthrough(func, depth: int) -> dict:
        """Where time spent inside non-``repro`` ``func`` belongs.

        A weighted mix of its callers' owners, weighted by the
        cumulative time each caller spent in it.
        """
        if func in shares_cache:
            return shares_cache[func]
        callers = table[func][4] if func in table else {}
        total = sum(edge[3] for edge in callers.values())
        if not callers or total <= 0 or depth >= _MAX_DEPTH \
                or func in in_progress:
            return {(OUTSIDE, None): 1.0}
        in_progress.add(func)
        mix: dict = defaultdict(float)
        for caller, edge in callers.items():
            for key, frac in resolve(caller, depth + 1).items():
                mix[key] += frac * edge[3] / total
        in_progress.discard(func)
        shares_cache[func] = dict(mix)
        return shares_cache[func]

    def resolve(func, depth: int) -> dict:
        own = owner(func)
        return {own: 1.0} if own is not None else passthrough(func, depth)

    buckets: dict = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        if tt <= 0:
            continue
        own = owner(func)
        if own is not None:
            buckets[own] += tt
            continue
        # Non-repro code: split its self time over its callers by the
        # self time each call edge accounts for.
        total = sum(edge[2] for edge in callers.values())
        if total <= 0:
            buckets[(OUTSIDE, None)] += tt
            continue
        for caller, edge in callers.items():
            for key, frac in resolve(caller, 1).items():
                buckets[key] += tt * frac * edge[2] / total

    layers = {name: 0.0 for name in LAYERS + (OUTSIDE,)}
    outside_modules: dict = defaultdict(float)
    for (layer, module), seconds in buckets.items():
        layers[layer] += seconds
        if layer == OUTSIDE:
            outside_modules[module or "(not repro)"] += seconds
    return layers, dict(outside_modules)


def code_key(dotted: str):
    """The cProfile key of the function at ``module:qualname``.

    None when the program no longer has that function.
    """
    module_name, _, qualname = dotted.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
    except (ImportError, AttributeError):
        print(f"perfbench: {dotted} not found; its count reads 0",
              file=sys.stderr)
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_counts(stats: pstats.Stats, dotted: str,
                callers_of: tuple[str, ...] = ()) -> int:
    """Calls of a function; with ``callers_of``, only calls from those."""
    key = code_key(dotted)
    if key is None or key not in stats.stats:
        return 0
    _cc, nc, _tt, _ct, callers = stats.stats[key]
    if not callers_of:
        return nc
    total = 0
    for caller in callers_of:
        ckey = code_key(caller)
        if ckey in callers:
            total += callers[ckey][0]
    return total


class EventCounter:
    """Sums scheduler events over every engine the batch runs.

    Wraps ``Engine.run`` and reads the public ``events_executed`` /
    ``events_scheduled`` counters after each call, charging only the
    growth since that engine was last seen.
    """

    def __init__(self) -> None:
        self.executed = 0
        self.scheduled = 0
        self._seen = weakref.WeakKeyDictionary()
        self._engine_cls = None
        self._orig_run = None

    def install(self) -> None:
        from repro.sim.engine import Engine

        counter = self
        orig = Engine.run

        def run(engine, *args, **kwargs):
            try:
                return orig(engine, *args, **kwargs)
            finally:
                counter._harvest(engine)

        self._engine_cls, self._orig_run = Engine, orig
        Engine.run = run

    def uninstall(self) -> None:
        self._engine_cls.run = self._orig_run

    def _harvest(self, engine) -> None:
        executed0, scheduled0 = self._seen.get(engine, (0, 0))
        executed, scheduled = engine.events_executed, engine.events_scheduled
        self.executed += executed - executed0
        self.scheduled += scheduled - scheduled0
        self._seen[engine] = (executed, scheduled)


class EngineObservers:
    """Gives every engine the batch creates its own obs observer.

    An observer reads one engine's virtual clock, so each engine gets
    its own: installed when the engine is built (set-up code counts
    too) and re-installed around each of its ``run`` calls.
    """

    def __init__(self) -> None:
        self.observers = []
        self._by_engine = weakref.WeakKeyDictionary()
        self._saved = None

    def install(self) -> None:
        from repro import obs
        from repro.sim.engine import Engine

        hub = self
        orig_init, orig_run = Engine.__init__, Engine.run

        def init(engine, *args, **kwargs):
            orig_init(engine, *args, **kwargs)
            observer = obs.Observer(engine)
            hub.observers.append(observer)
            hub._by_engine[engine] = observer
            obs.install(observer)

        def run(engine, *args, **kwargs):
            previous = obs.active()
            observer = hub._by_engine.get(engine)
            if observer is not None:
                obs.install(observer)
            try:
                return orig_run(engine, *args, **kwargs)
            finally:
                if previous is not None:
                    obs.install(previous)

        self._saved = (Engine, orig_init, orig_run)
        Engine.__init__, Engine.run = init, run

    def uninstall(self) -> None:
        from repro import obs

        engine_cls, orig_init, orig_run = self._saved
        engine_cls.__init__, engine_cls.run = orig_init, orig_run
        obs.uninstall()

    def counter_totals(self) -> dict:
        """Counter totals by name, summed over labels and engines."""
        from repro.obs import Counter

        totals: dict = defaultdict(float)
        for observer in self.observers:
            for inst in observer.metrics:
                if isinstance(inst, Counter):
                    totals[inst.name] += inst.value
        return dict(totals)

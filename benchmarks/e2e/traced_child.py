"""Run one ``repro`` command with per-layer self times (the traced run's child).

Usage::

    python benchmarks/e2e/traced_child.py --stats FILE -- <repro argv...>

The child times ``import repro.cli``, wraps the public functions named in
``TARGETS`` and then calls ``repro.cli.main(argv)``, so stdout, stderr and
the exit code are those of ``python -m repro <argv>``.  Every reference to
a wrapped function in a loaded ``repro.*`` module or class is rebound, so
``from x import f`` bindings are timed too, and modules imported later are
patched as they load.  A wrapped call nested in another has its time
subtracted from the outer one's self time.  On exit the child writes to
FILE the import time, calls/self/total seconds per target and the work
counters the program's own spans folded into the ``spans`` metrics
registry.  No tracing is added to the program's sources.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

# (metric prefix, module, attribute path) of every wrapped function.
TARGETS = (
    ("cli.main", "repro.cli", "main"),
    ("obs.RunRecorder.open", "repro.obs.runs", "RunRecorder.open"),
    ("obs.RunRecorder.finalize", "repro.obs.runs", "RunRecorder.finalize"),
    ("cache.protocol_fingerprint", "repro.cache.fingerprint", "protocol_fingerprint"),
    ("cache.CacheStore.get_payload", "repro.cache.store", "CacheStore.get_payload"),
    ("cache.CacheStore.put_payload", "repro.cache.store", "CacheStore.put_payload"),
    ("reachability.karp_miller", "repro.reachability.coverability", "karp_miller"),
    (
        "reachability.configuration_symmetries",
        "repro.reachability.frontier",
        "configuration_symmetries",
    ),
    ("diophantine.solve_equalities", "repro.diophantine.pottier", "solve_equalities"),
    ("analysis.verify_input", "repro.analysis.verification", "verify_input"),
    ("analysis.stable_slice", "repro.analysis.stable", "stable_slice"),
    ("analysis.saturation_sequence", "repro.analysis.saturation", "saturation_sequence"),
    ("bounds.section4_certificate", "repro.bounds.pipeline", "section4_certificate"),
    ("bounds.section5_certificate", "repro.bounds.pipeline", "section5_certificate"),
    ("bounds.busy_beaver_search", "repro.bounds.enumeration", "busy_beaver_search"),
    ("simulation.CountScheduler.run", "repro.simulation.scheduler", "CountScheduler.run"),
    (
        "simulation.VectorEnsembleScheduler.run",
        "repro.simulation.vectorized",
        "VectorEnsembleScheduler.run",
    ),
    (
        "simulation.VectorEnsembleScheduler.leap",
        "repro.simulation.vectorized",
        "VectorEnsembleScheduler.leap",
    ),
    ("scenarios.run_checks", "repro.scenarios.checks", "run_checks"),
)

# Both simulation engines count into the one ``simulate.run.interactions``
# span counter, so the count engine's share is the counter's growth
# during CountScheduler.run.
COUNTER_DELTAS = {"simulation.CountScheduler.run": "simulate.run.interactions"}


class LayerTimer:
    """Calls, self and total seconds per wrapped function.

    A call's self time is its duration minus the durations of the wrapped
    calls it made.  Total time counts only the outermost of re-entrant
    calls of one function, so recursion does not inflate it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, Dict[str, float]] = {}
        self._stack: List[List[Any]] = []  # [name, start, child seconds]
        self._depth: Dict[str, int] = {}  # open calls per name

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counter: Optional[Callable[[], int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed under ``name``; ``counter`` is read before and after."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = counter() if counter is not None else 0
            self._depth[name] = self._depth.get(name, 0) + 1
            self._stack.append([name, self.clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(counter() - before if counter is not None else None)

        return wrapper

    def _exit(self, counted: Optional[int]) -> None:
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        entry = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += elapsed - child
        self._depth[name] -= 1
        if not self._depth[name]:
            entry["total_s"] += elapsed
        if counted is not None:
            entry["counter"] = entry.get("counter", 0) + counted
        if self._stack:
            self._stack[-1][2] += elapsed


class Patcher:
    """Installs the TARGETS wrappers and rebinds every reference to them."""

    def __init__(self, timer: LayerTimer, counter_of: Callable[[str], Callable[[], int]]):
        self.timer = timer
        self.counter_of = counter_of
        self.wrapped: Dict[str, Callable[..., Any]] = {}  # name -> wrapper
        self._replacements: Dict[int, Callable[..., Any]] = {}  # id(original) -> wrapper

    def install(self) -> None:
        """Wrap every target whose module is loaded, then rebind references."""
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            if name in self.wrapped or module is None:
                continue
            *owners, attr = path.split(".")
            owner: Any = module
            for part in owners:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            original = raw.__func__ if descriptor is not None else raw
            counter_key = COUNTER_DELTAS.get(name)
            counter = self.counter_of(counter_key) if counter_key else None
            wrapper = self.timer.wrap(name, original, counter)
            setattr(owner, attr, descriptor(wrapper) if descriptor is not None else wrapper)
            self.wrapped[name] = wrapper
            self._replacements[id(original)] = wrapper
        self._rebind()

    def _rebind(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                self._rebind_attr(module, attr, value)
                if isinstance(value, type) and value.__module__ == module_name:
                    for class_attr, member in list(vars(value).items()):
                        self._rebind_attr(value, class_attr, member)

    def _rebind_attr(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(value, (classmethod, staticmethod)):
            wrapper = self._replacements.get(id(value.__func__))
            if wrapper is not None:
                setattr(owner, attr, type(value)(wrapper))
            return
        wrapper = self._replacements.get(id(value))
        if wrapper is not None:
            setattr(owner, attr, wrapper)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Re-runs the patcher right after each ``repro.*`` module executes.

    A module imported lazily inside ``main`` is patched before any other
    module can bind its functions, and timing stays inside ``main``.
    """

    def __init__(self, patcher: Patcher):
        self.patcher = patcher

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or not hasattr(spec.loader, "exec_module"):
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            self.patcher.install()

        spec.loader.exec_module = exec_module
        return spec


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 3 or args[0] != "--stats" or args[2] != "--":
        print("usage: traced_child.py --stats FILE -- <repro argv...>", file=sys.stderr)
        return 2
    stats_path, command = args[1], args[3:]

    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start

    from repro.obs.metrics import get_metrics
    from repro.obs.tracer import Tracer, set_tracer

    def counter_of(key: str) -> Callable[[], int]:
        return lambda: get_metrics("spans").counters.get(key, 0)

    timer = LayerTimer()
    patcher = Patcher(timer, counter_of)
    patcher.install()
    sys.meta_path.insert(0, _PatchOnImport(patcher))
    # A live tracer folds every span's counters into the ``spans``
    # registry, also for commands that record no run of their own.
    set_tracer(Tracer())
    try:
        return repro.cli.main(command)
    finally:
        sys.stdout.flush()
        stats = {
            "import_s": import_s,
            "functions": timer.stats,
            "counters": dict(get_metrics("spans").counters),
        }
        with open(stats_path, "w") as handle:
            json.dump(stats, handle)


if __name__ == "__main__":
    sys.exit(main())

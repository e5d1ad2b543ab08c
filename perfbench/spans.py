"""Span recording for the benchmark, installed from outside the simulator.

Two levels, both active only inside :func:`instrumented`:

* **coarse** (every run): class-level wrappers time machine and workload
  construction, trace compilation, first-touch placement, DRAM-cache prewarm
  and each ``Simulator.run``.  That is all the untraced run needs for
  ``setup_s`` and the simulate phase, a handful of calls per simulation.
* **layers** (traced run only): when a ``Simulator.run`` hands over to its
  engine, the engine's run and the public entry points of the system it
  drives are wrapped, instance by instance, so every call into a layer
  becomes a span.

Spans are aggregated in memory into a call tree keyed by span name under its
parent, so memory stays bounded however many calls a pass makes.  A span's
self time is its duration minus the time its child spans cover, minus the
wrapper's own cost: :func:`wrapper_cost` times a wrapped no-op once per
process, and each span's self time loses that cost for its own calls (the
part inside its clock readings) and for its child calls (the part outside
them, which lands in the caller).  Layer
wrappers go in when the engine starts, after first-touch placement and
prewarm, so the cache inserts a prewarm performs count as set-up, not as
``caches`` work, and cost no wrapper overhead.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Tree node layout (a list, for speed on the hot path).
CALLS, TOTAL, SELF, HITS, CHILDREN = range(5)


def _node() -> list:
    return [0, 0.0, 0.0, 0, {}]


def _is_not_none(result) -> bool:
    return result is not None


def _probe_hit(result) -> bool:
    return result.hit


class Tracer:
    """In-memory span tree for one pass of a workload.

    ``layers`` selects whether ``Simulator.run`` instruments the layers of
    the system it drives; coarse spans are recorded either way.
    """

    def __init__(self, *, layers: bool) -> None:
        self.layers = layers
        self.root = _node()
        self._stack: List[list] = [[self.root, 0.0]]

    def wrap(self, fn: Callable, name: str, *, hit: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``hit`` classifies a call's result as a useful outcome (cache hit),
        counted beside the calls.
        """
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = stack[-1][0][CHILDREN]
            node = children.get(name)
            if node is None:
                node = children[name] = _node()
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node[CALLS] += 1
                node[TOTAL] += elapsed
                node[SELF] += elapsed - frame[1]
                stack[-1][1] += elapsed
            if hit is not None and hit(result):
                node[HITS] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Reading the tree
    # ------------------------------------------------------------------

    def _walk(self) -> List[tuple]:
        """(name, path, node, self_s, total_s) for every span, parents first.

        Times are corrected for the wrapper's cost; a span's corrected total
        is its corrected self time plus its children's corrected totals.
        """
        inner, outer = wrapper_cost()
        out: List[tuple] = []

        def visit(node: list, path: str) -> float:
            below = 0.0
            for name, child in node[CHILDREN].items():
                child_path = f"{path};{name}" if path else name
                index = len(out)
                out.append(())
                children_total = visit(child, child_path)
                child_calls = sum(grandchild[CALLS] for grandchild in child[CHILDREN].values())
                self_s = max(0.0, child[SELF] - child[CALLS] * inner - child_calls * outer)
                out[index] = (name, child_path, child, self_s, self_s + children_total)
                below += self_s + children_total
            return below

        visit(self.root, "")
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Calls, total, self time and hits per span name, over the whole tree."""
        out: Dict[str, Dict[str, float]] = {}
        for name, _path, node, self_s, total_s in self._walk():
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "hits": 0})
            entry["calls"] += node[CALLS]
            entry["total_s"] += total_s
            entry["self_s"] += self_s
            entry["hits"] += node[HITS]
        return out

    def folded(self) -> List[dict]:
        """Every call path (``a;b;c``) with its calls, total and self time."""
        return [
            {"path": path, "calls": node[CALLS], "total_s": total_s,
             "self_s": self_s, "hits": node[HITS]}
            for _name, path, node, self_s, total_s in self._walk()
        ]


def _no_op(_arg) -> None:
    return None


#: Wrapped no-op calls per timing in :func:`wrapper_cost`, and timings taken.
CALIBRATION_CALLS = 100_000
CALIBRATION_REPEATS = 5


@functools.cache
def wrapper_cost() -> Tuple[float, float]:
    """Seconds one wrapped call adds: (inside the span's clock, outside it).

    The inside part is what a wrapped no-op's span records beyond the no-op
    itself; the outside part is the rest of the wrapped call's extra cost,
    which its caller's span sees as self time.  Each is the least of
    several timings, so a noisy moment does not inflate it.
    """
    clock = time.perf_counter
    calls = CALIBRATION_CALLS
    inner = outer = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        tracer = Tracer(layers=True)
        traced = tracer.wrap(_no_op, "calibrate")
        start = clock()
        for _ in range(calls):
            _no_op(None)
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            traced(None)
        wrapped = clock() - start
        recorded = tracer.root[CHILDREN]["calibrate"][TOTAL]
        inner = min(inner, max(0.0, recorded - bare) / calls)
        outer = min(outer, max(0.0, wrapped - recorded) / calls)
    return inner, outer


def instrument_system(tracer: Tracer, system, engine) -> None:
    """Wrap the public entry points of every layer below the engine loop.

    Wrappers are instance attributes, so they shadow the class methods for
    this system only and vanish with it.  Two call sites need care: each
    protocol caches ``interconnect.send`` as ``_net_send`` at construction,
    and ``functional_timing`` swaps ``send``, ``_net_send``, ``read_fast``
    and ``write_fast`` in place and restores whatever it found, which here
    is the wrapper.
    """
    wrap = tracer.wrap

    def patch(obj, attr: str, name: str, hit: Optional[Callable] = None) -> None:
        setattr(obj, attr, wrap(getattr(obj, attr), name, hit=hit))

    if hasattr(engine, "run_phase_functional"):
        patch(engine, "run_phase_functional", "engines.functional")
    if hasattr(engine, "_measure_window"):
        # Seen from the parent: the time a forked window child takes.
        patch(engine, "_measure_window", "engines.window")
    for core in system.cores:
        patch(core, "execute_fast", "cpu.execute_fast")
    for sock in system.sockets:
        patch(sock, "access_l1_missed", "system.access_l1_missed")
        patch(sock, "access_functional", "system.access_functional")
        patch(sock.llc, "lookup", "caches.sram_lookup", _is_not_none)
        for cache in (sock.llc, *sock.l1s):
            patch(cache, "insert", "caches.sram_insert")
        if sock.dram_cache is not None:
            patch(sock.dram_cache, "probe", "caches.dram_probe", _probe_hit)
            patch(sock.dram_cache, "insert", "caches.dram_insert")
        patch(sock.memory, "read_fast", "memory.read")
        patch(sock.memory, "write_fast", "memory.write")
    protocol = system.protocol
    for attr in ("read_miss", "write_miss", "llc_eviction"):
        patch(protocol, attr, f"coherence.{attr}")
    for attr in ("read_miss_functional", "write_miss_functional",
                 "llc_eviction_functional"):
        patch(protocol, attr, "coherence.functional")
    send = wrap(system.interconnect.send, "interconnect.send")
    system.interconnect.send = send
    protocol._net_send = send


@contextmanager
def instrumented(tracer: Tracer):
    """Install the coarse class-level wrappers for the duration of a pass."""
    from repro.engines.base import EngineContext
    from repro.system.numa_system import NumaSystem
    from repro.system.simulator import Simulator
    from repro.workloads import scenario

    original_run = Simulator.run

    def run(simulator, **kwargs):
        if tracer.layers:
            engine = simulator.engine_impl
            engine_run = tracer.wrap(engine.run, "engines.run")

            def instrumented_engine_run(context, **options):
                instrument_system(tracer, simulator.system, engine)
                return engine_run(context, **options)

            engine.run = instrumented_engine_run
        return original_run(simulator, **kwargs)

    wrap = tracer.wrap
    patches = [
        (NumaSystem, "__init__", wrap(NumaSystem.__init__, "setup.construct")),
        (scenario, "build_workload", wrap(scenario.build_workload, "setup.construct")),
        (EngineContext, "compile_streams",
         wrap(EngineContext.compile_streams, "workloads.compile")),
        (EngineContext, "prepare_first_touch",
         wrap(EngineContext.prepare_first_touch, "setup.first_touch")),
        (EngineContext, "prewarm_dram_caches",
         wrap(EngineContext.prewarm_dram_caches, "setup.prewarm")),
        (Simulator, "run", wrap(run, "system.simulator_run")),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

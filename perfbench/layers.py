"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public entry points of each layer of the
reproduction in place (module attributes and class attributes), so the
program itself is unchanged and an untraced run executes none of this code.
Every wrapped call records one span: its layer, start, end, parent span and
thread. A span's self time is its duration minus the time of the wrapped
calls inside it, so the self times of all spans add up to the duration of
the outermost ones. Spans stay in memory until :meth:`Tracer.dump`.

Only the calling process is traced: pool workers inherit the wrappers when
they fork, but their spans never reach the parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers whose self time is reported, in report order.
LAYERS = (
    "workloads",
    "core",
    "formats",
    "kernels.spmv",
    "kernels.spmm",
    "kernels.spadd",
    "sim.replay",
    "sim.report",
    "eval.cache_load",
    "eval.cache_store",
    "store.ingest",
)

# (span id, parent id or -1, layer, thread id, start, end, self seconds, units)
Span = Tuple[int, int, str, int, float, float, float, int]


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(
        self,
        layer: str,
        func: Callable,
        units: Optional[Callable[[tuple, dict], int]] = None,
    ) -> Callable:
        """``func`` recording one ``layer`` span per call."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent_id = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # id, seconds covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                count = units(args, kwargs) if units is not None else 0
                spans.append(
                    (span_id, parent_id, layer, threading.get_ident(), start, end,
                     duration - frame[1], count)
                )

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON document (called once, at the end)."""
        fields = ("id", "parent", "layer", "thread", "start", "end", "self_s", "units")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro`` module.

    Modules that did ``from x import f`` hold their own reference, so the
    function is replaced at each importer, not only where it is defined.
    """
    found = False
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                found = True
    if not found:
        raise RuntimeError(f"{original!r} is bound in no loaded repro module")


def _replay_accesses(args: tuple, kwargs: dict) -> int:
    # MemoryHierarchy.replay(self, structures, struct_ids, addresses, kinds)
    addresses = args[3] if len(args) > 3 else kwargs["addresses"]
    return int(addresses.size)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with ``tracer`` spans."""
    # Import every module that binds a wrapped name before patching, so no
    # importer keeps an unwrapped reference.
    import repro.eval.experiments  # noqa: F401
    import repro.eval.figures  # noqa: F401
    from repro.core.smash_matrix import SMASHMatrix
    from repro.eval.runner import ReportCache
    from repro.graphs import generators
    from repro.kernels import registry, schemes
    from repro.sim.instrumentation import KernelInstrumentation
    from repro.sim.memory import MemoryHierarchy
    from repro.store.index import StoreIndexer
    from repro.workloads import locality, suite

    registry.KERNEL_REGISTRY.names()  # runs the loader: kernel modules import

    for generator in (
        suite.generate_matrix,
        locality.matrix_with_locality,
        generators.generate_graph,
    ):
        _patch_everywhere(generator, tracer.wrap("workloads", generator))
    _patch_everywhere(
        schemes.prepare_operand, tracer.wrap("formats", schemes.prepare_operand)
    )

    get_kernel = registry.get_kernel
    wrapped_kernels: Dict[Tuple[str, str], Callable] = {}

    @functools.wraps(get_kernel)
    def traced_get_kernel(kernel: str, scheme: str) -> Callable:
        wrapped = wrapped_kernels.get((kernel, scheme))
        if wrapped is None:
            wrapped = tracer.wrap(f"kernels.{kernel}", get_kernel(kernel, scheme))
            wrapped_kernels[(kernel, scheme)] = wrapped
        return wrapped

    _patch_everywhere(get_kernel, traced_get_kernel)

    SMASHMatrix.from_coo = classmethod(  # type: ignore[method-assign]
        tracer.wrap("core", SMASHMatrix.__dict__["from_coo"].__func__)
    )
    MemoryHierarchy.replay = tracer.wrap(  # type: ignore[method-assign]
        "sim.replay", MemoryHierarchy.replay, units=_replay_accesses
    )
    KernelInstrumentation.report = tracer.wrap(  # type: ignore[method-assign]
        "sim.report", KernelInstrumentation.report
    )
    ReportCache.load = tracer.wrap("eval.cache_load", ReportCache.load)  # type: ignore[method-assign]
    ReportCache.store = tracer.wrap("eval.cache_store", ReportCache.store)  # type: ignore[method-assign]
    StoreIndexer.__call__ = tracer.wrap(  # type: ignore[method-assign]
        "store.ingest", StoreIndexer.__call__
    )


def summarize(spans: List[Span]) -> Dict[str, object]:
    """Per-layer self seconds, outermost-call counts and replayed accesses."""
    layer_of = {span[0]: span[2] for span in spans}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    units = dict.fromkeys(LAYERS, 0)
    roots_s = 0.0
    for _, parent, layer, _, start, end, own, count in spans:
        self_s[layer] += own
        units[layer] += count
        if layer_of.get(parent) != layer:
            calls[layer] += 1
        if parent == -1:
            roots_s += end - start
    return {
        "self_s": self_s,
        "calls": calls,
        "units": units,
        "self_total_s": sum(self_s.values()),
        "roots_s": roots_s,
        "spans": len(spans),
    }

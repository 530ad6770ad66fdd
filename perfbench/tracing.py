"""Span tracer for the traced benchmark run.

Spans are recorded at layer boundaries from the benchmark's side: the
tracer replaces a public function or method of the program with a thin
wrapper that stamps ``time.perf_counter()`` on entry and exit. Class
attributes are wrapped before any instance exists; names a module
imported by value (``from x import f``) are patched on the importing
module. :meth:`Tracer.disable` puts every original back and
:meth:`Tracer.enable` the wrappers again, so a traced and an untraced
copy of the same work can run interleaved.

Each span stores (name, start, end, parent) in flat arrays, so a run with
a million spans costs tens of MB, not hundreds. The wrapper also keeps a
running *self time* per span name: a span's duration minus the durations
of the wrapped spans directly inside it. Self times of all spans add up
to the summed duration of the root spans, which is what lets the
per-layer ledger add up to the end-to-end wall time.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        #: Instances of tracked classes, in construction order.
        self.instances: dict[type, list[object]] = {}

    # ------------------------------------------------------------ install

    def _id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        elif self.layers[nid] != layer:
            raise ValueError(f"span {name!r} bound to two layers")
        return nid

    def _timed(self, fn, nid: int):
        perf = time.perf_counter
        stack, child_s = self._stack, self._child_s
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child_s.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                kids = child_s.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                self_s[nid] += dur - kids
                calls[nid] += 1
                if child_s:
                    child_s[-1] += dur

        return span

    def wrap(self, owner: object, attr: str, name: str, layer: str) -> None:
        """Record a span ``name`` (of ``layer``) around ``owner.attr``.

        ``owner`` is a class (the attribute must be defined on it, not
        inherited, so restoring is exact) or a module. The wrapper is in
        place from now until :meth:`disable`.
        """
        raw = vars(owner)[attr]
        nid = self._id(name, layer)
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._timed(raw.__func__, nid))
        else:
            new = self._timed(raw, nid)
        self._patches.append((owner, attr, raw, new))
        setattr(owner, attr, new)

    def track(self, cls: type) -> None:
        """Keep every instance of ``cls`` constructed while enabled."""
        raw = vars(cls)["__init__"]
        seen = self.instances.setdefault(cls, [])

        @functools.wraps(raw)
        def init(obj, *args, **kwargs):
            raw(obj, *args, **kwargs)
            seen.append(obj)

        self._patches.append((cls, "__init__", raw, init))
        setattr(cls, "__init__", init)

    def enable(self) -> None:
        """Put every wrapper (back) in place."""
        for owner, attr, _raw, new in self._patches:
            setattr(owner, attr, new)

    def disable(self) -> None:
        """Put every original back: the program runs untraced."""
        for owner, attr, raw, _new in reversed(self._patches):
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict[str, tuple[float, int]]:
        """Self seconds and calls per span name, so far."""
        return {
            name: (self.self_s[i], self.calls[i])
            for i, name in enumerate(self.names)
        }

    def since(self, snap: dict[str, tuple[float, int]]) -> dict[str, tuple[float, int]]:
        """Self seconds and calls per span name accrued after ``snap``."""
        out = {}
        for name, (s, n) in self.snapshot().items():
            s0, n0 = snap.get(name, (0.0, 0))
            out[name] = (s - s0, n - n0)
        return out

    def layer_of(self, name: str) -> str:
        return self.layers[self._ids[name]]

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans (``.npz``) and ``meta`` (``.json``) next to it."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            layers=np.array(self.layers),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        meta = dict(meta, spans=len(self.start))
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (the spans of the ledger).

    Span names carry their layer as prefix; several functions may feed
    one span name (e.g. the three ``observe_*`` methods).
    """
    import repro.core.framework as framework_mod
    import repro.exec.backend as backend_mod
    from repro.cluster.dispatcher import Cluster, Dispatcher
    from repro.cluster.node import Node
    from repro.cluster.routing import RoutingPolicy
    from repro.core.coding_manager import VideoCodingManager
    from repro.core.data_access import DataAccessManager
    from repro.core.framework import FevesFramework
    from repro.core.load_balancing import LoadBalancer, LPSolveCache
    from repro.core.perf_model import PerformanceCharacterization
    from repro.exec.backend import ProcessBackend
    from repro.exec.pool import KernelPool
    from repro.exec.shm import SharedFrameStore
    from repro.hw.des import Simulator
    from repro.service.admission import AdmissionController
    from repro.service.scheduler import CoScheduler
    from repro.service.service import EncodingService
    from repro.service.session import EncodingSession

    w = tracer.wrap
    # codec: host-side kernels (ME/INT/SME run in workers and are read
    # from the worker-stamped FrameReport.timeline instead).
    w(framework_mod, "intra_encode_frame", "codec.intra", "codec")
    w(framework_mod, "deblock_frame", "codec.intra", "codec")
    w(backend_mod, "execute_rstar", "codec.rstar", "codec")
    # exec
    w(ProcessBackend, "run_frame", "exec.run_frame", "exec")
    w(SharedFrameStore, "__init__", "exec.start", "exec")
    w(KernelPool, "__init__", "exec.start", "exec")
    # core
    w(FevesFramework, "encode_frame_at", "core.control", "core")
    w(FevesFramework, "encode_next_inter", "core.control", "core")
    w(LoadBalancer, "solve", "core.lb_solve", "core")
    w(LPSolveCache, "solve", "core.highs", "core")
    w(DataAccessManager, "plan", "core.plan", "core")
    w(VideoCodingManager, "run_frame", "core.manager", "core")
    for meth in ("observe_compute", "observe_rstar", "observe_transfer"):
        w(PerformanceCharacterization, meth, "core.observe", "core")
    tracer.track(LPSolveCache)
    # hw
    w(Simulator, "run", "hw.des", "hw")
    # service
    w(EncodingSession, "step", "service.step", "service")
    for meth in ("offer", "drain", "has_room"):
        w(AdmissionController, meth, "service.admission", "service")
    w(CoScheduler, "partition", "service.cosched", "service")
    # cluster
    w(Cluster, "run", "cluster.tick", "cluster")
    w(Node, "next_action_s", "cluster.poll", "cluster")
    w(EncodingService, "live_devices", "cluster.poll", "cluster")
    w(EncodingSession, "next_capture_s", "cluster.poll", "cluster")
    w(Node, "step", "cluster.node_step", "cluster")
    w(RoutingPolicy, "choose", "cluster.route", "cluster")
    for meth in ("submit", "drain", "requeue"):
        w(Dispatcher, meth, "cluster.dispatch", "cluster")


def interleave(tracer: Tracer, steps: int, untraced, traced) -> dict:
    """Time ``steps`` calls of ``untraced(i)`` and ``traced(i)`` alternately.

    Both copies of the work see the same host conditions, which keeps
    ``trace_overhead`` out of the run-to-run noise. The tracer is enabled
    only around the traced calls; ``delta`` holds their self times.
    """
    perf = time.perf_counter
    times_u: list[float] = []
    times_t: list[float] = []
    snap = tracer.snapshot()
    hits0, misses0 = lp_cache_counts(tracer)
    for i in range(steps):
        t0 = perf()
        untraced(i)
        times_u.append(perf() - t0)
        tracer.enable()
        t0 = perf()
        traced(i)
        times_t.append(perf() - t0)
        tracer.disable()
    hits1, misses1 = lp_cache_counts(tracer)
    return {
        "untraced_s": sum(times_u),
        "traced_s": sum(times_t),
        "delta": tracer.since(snap),
        "lp_hits": hits1 - hits0,
        "lp_misses": misses1 - misses0,
    }


def lp_cache_counts(tracer: Tracer) -> tuple[int, int]:
    """(hits, misses) summed over every LP solve cache built while traced."""
    from repro.core.load_balancing import LPSolveCache

    caches = tracer.instances.get(LPSolveCache, [])
    return sum(c.hits for c in caches), sum(c.misses for c in caches)


#: Layers of the ledger, named after the program's subpackages.
LEDGER_LAYERS = ("codec", "exec", "core", "hw", "service", "cluster")

#: Span names reported as ``<name>_ms``: self time per unit of work.
SELF_TIME_SPANS = (
    "core.highs", "core.lb_solve", "core.plan", "core.manager",
    "core.observe", "core.control", "hw.des", "cluster.tick",
    "cluster.poll", "cluster.route", "cluster.dispatch", "cluster.node_step",
    "service.step", "service.admission", "service.cosched",
)


def span_ms(delta: dict[str, tuple[float, int]], name: str, units: float) -> float:
    """Self milliseconds of span ``name`` per unit of work."""
    return delta.get(name, (0.0, 0))[0] * 1e3 / units


def layer_rows(
    tracer: Tracer, passes: dict, units: float, moved_to_codec: float = 0.0
) -> dict[str, float]:
    """The per-layer ledger of a traced pass, per unit of work.

    ``passes`` is what :func:`interleave` returns. ``<layer>.self_ms``
    sums the self times of the layer's spans; ``unattributed_ms`` is the
    rest of the traced wall time, so the rows add up to it.
    ``moved_to_codec`` is host time inside an exec span during which
    worker processes ran codec kernels: it counts as codec, not exec.
    ``trace_overhead`` compares the traced with the untraced pass.
    """
    delta = passes["delta"]
    wall_s = passes["traced_s"]
    by_layer = dict.fromkeys(LEDGER_LAYERS, 0.0)
    for name, (self_s, _calls) in delta.items():
        by_layer[tracer.layer_of(name)] += self_s
    by_layer["exec"] -= moved_to_codec
    by_layer["codec"] += moved_to_codec
    rows = {f"{layer}.self_ms": s * 1e3 / units for layer, s in by_layer.items()}
    rows["unattributed_ms"] = (wall_s - sum(by_layer.values())) * 1e3 / units
    rows["trace_overhead"] = wall_s / passes["untraced_s"] - 1.0
    for name in SELF_TIME_SPANS:
        rows[f"{name}_ms"] = span_ms(delta, name, units)
    hits, misses = passes["lp_hits"], passes["lp_misses"]
    rows["core.highs_calls"] = misses / units
    rows["core.lp_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    rows["cluster.poll_calls"] = delta.get("cluster.poll", (0.0, 0))[1] / units
    return rows

"""Workload ``fleet_hetero``: a heterogeneous model-mode fleet.

``Cluster.run`` over 32 nodes cycling SysHK/SysNF/SysNFF with ``slack``
routing serves 256 ``broadcast``-mix streams of 20 inter frames each,
arriving as a Poisson process at 40 streams/s of simulated time (an open
loop), while node ``n3`` drops out at t = 2 s. Cluster polling and the
session step dominate; LP solves are mostly hits of the per-platform
shared cache, the opposite use of ``core`` from ``sched_jitter``.

One arrival draw is a noisy sample of the fleet's behaviour, so a run
serves ``DRAWS`` draws derived from the workload seed (a fresh cluster
each) and cycles through them again while time is left. Simulated
results are pooled over the first pass of draws; repeats must match it
exactly.
"""

from __future__ import annotations

import time
from statistics import median

from common import Result, Stopwatch, digest
from tracing import Tracer, install_layer_spans, layer_rows, lp_cache_counts

NODES = 32
PLATFORMS = ("SysHK", "SysNF", "SysNFF")
STREAMS = 256
FRAMES = 20
RATE = 40.0
DRAWS = 3


def _workload(seed: int, draw: int):
    from repro.service import build_workload

    return build_workload(
        STREAMS, n_frames=FRAMES, mix="broadcast", arrival_rate=RATE,
        seed=seed * DRAWS + draw,
    )


def _cluster():
    from repro.cluster import (
        Cluster,
        ClusterConfig,
        NodeFaultEvent,
        NodeFaultSchedule,
        NodeSpec,
    )

    return Cluster(ClusterConfig(
        nodes=tuple(
            NodeSpec(f"n{i}", platform=PLATFORMS[i % len(PLATFORMS)])
            for i in range(NODES)
        ),
        policy="slack",
        node_faults=NodeFaultSchedule([NodeFaultEvent("n3", at_s=2.0, kind="down")]),
    ))


def _check(res: Result, cluster, metrics, workload) -> dict:
    """Stream conservation; returns the draw's simulated outcome."""
    from repro.cluster.dispatcher import S_REJECTED

    res.attempted += len(workload)
    streams = list(cluster.dispatcher.streams.values())
    if len(streams) != len(workload):
        res.fail(f"{len(workload)} streams submitted, {len(streams)} tracked",
                 abs(len(workload) - len(streams)))
    for st in streams:
        if st.done:
            if st.frames_done != st.spec.n_frames:
                res.fail(f"{st.stream_id}: {st.frames_done} of "
                         f"{st.spec.n_frames} frames")
        elif st.state != S_REJECTED:
            res.fail(f"{st.stream_id}: ended {st.state!r}, not done or rejected")
    frames = sum(st.frames_done for st in streams)
    if metrics.frames_encoded != frames:
        res.fail(f"frames_encoded {metrics.frames_encoded} != {frames} "
                 "summed over streams")
    latencies = [
        r.latency_s
        for node in cluster.nodes
        for s in node.service.sessions
        for r in s.records
    ]
    return {
        "frames": metrics.frames_encoded,
        "rejected": sum(1 for st in streams if st.state == S_REJECTED),
        "deadline_miss_rate": metrics.deadline_miss_rate,
        "p95_ms": metrics.p95_ms,
        "latency_digest": digest(latencies),
    }


def _des_ops(cluster) -> int:
    return sum(
        len(rep.timeline.records)
        for node in cluster.nodes
        for s in node.service.sessions
        for rep in s.framework.reports
    )


def _serve(seed: int, draw: int):
    workload = _workload(seed, draw)
    with Stopwatch() as setup:
        cluster = _cluster()
    t0 = time.perf_counter()
    metrics = cluster.run(workload)
    wall = time.perf_counter() - t0
    return cluster, metrics, workload, wall, setup.s


def run(seed: int, seconds: float, trace: bool, res: Result, import_s: float, rss) -> dict:
    if not trace:
        setups: list[float] = []
        walls: list[float] = []
        frames: list[int] = []
        outcomes: list[dict] = []
        t_begin = time.perf_counter()
        k = 0
        while k < DRAWS or time.perf_counter() - t_begin < seconds:
            cluster, metrics, workload, wall, built_s = _serve(seed, k % DRAWS)
            setups.append(built_s)
            walls.append(wall)
            frames.append(metrics.frames_encoded)
            outcome = _check(res, cluster, metrics, workload)
            if k < DRAWS:
                outcomes.append(outcome)
            elif outcome != outcomes[k % DRAWS]:
                res.fail(f"draw {k % DRAWS} repeated with another outcome")
            k += 1
        miss = sum(o["deadline_miss_rate"] for o in outcomes) / DRAWS
        p95 = sum(o["p95_ms"] for o in outcomes) / DRAWS
        fps = sum(frames) / sum(walls)
        setup_s = import_s + median(setups)
        res.metric("frames_per_host_s", fps, "frames/s")
        # A fleet run yields no per-frame host samples: the typical frame
        # costs the pooled mean, the tail is the slowest run's mean.
        res.metric("frame_ms_p50", 1e3 / fps, "ms")
        res.metric("frame_ms_tail", max(
            w * 1e3 / f for w, f in zip(walls, frames, strict=True)
        ), "ms")
        res.metric("setup_s", setup_s, "s")
        res.report.update({
            "sim_frames_per_host_s": [fps, "frames/s"],
            "deadline_miss_rate": [miss, "fraction"],
            "sim_latency_ms_p95": [p95, "ms"],
            "setup_s": [setup_s, "s"],
            "run_walls_s": walls, "draws": outcomes,
            "sim_latency_digest": digest(o["latency_digest"] for o in outcomes),
        })
        return {}

    # One Cluster.run cannot be interleaved: serve draw 0 untraced, then
    # traced.
    cluster, metrics, workload, wall_u, _s = _serve(seed, 0)
    outcome_u = _check(res, cluster, metrics, workload)
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        cluster, metrics, workload, wall, _s = _serve(seed, 0)
    finally:
        tracer.disable()
    caches = lp_cache_counts(tracer)
    passes = {"untraced_s": wall_u, "traced_s": wall, "delta": tracer.since({}),
              "lp_hits": caches[0], "lp_misses": caches[1]}
    outcome = _check(res, cluster, metrics, workload)
    if outcome != outcome_u:
        res.fail("the traced run served the draw with another outcome")
    n = metrics.frames_encoded
    m = {
        "hw.des_ops": _des_ops(cluster) / n,
        "cluster.deadline_miss_rate": outcome["deadline_miss_rate"],
        "cluster.sim_latency_ms_p95": outcome["p95_ms"],
    }
    m.update(layer_rows(tracer, passes, n))
    res.report.update({
        "untraced_s": wall_u, "traced_s": wall,
        "sim_frames": n, "draw": 0, "sim_latency_digest": outcome["latency_digest"],
    })
    return {"per_layer": m, "tracer": tracer}

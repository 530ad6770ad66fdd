"""Workload ``sched_jitter``: the scheduler re-solving its LP every frame.

Model mode (simulated time), 1080p on SysNFF (GPU_F, GPU_F2, CPU_N),
64x64 search area, 4 reference frames. Every simulated op carries 5%
seeded Gaussian jitter, GPU_F2 hangs for 20 frames and GPU_F runs 1.5x
slower for 100 frames. One stream in a closed loop, one
``FevesFramework.encode_next_inter`` call per frame.

The jitter moves every measured K past ``lb_cache_rtol``, so the load
balancer misses its decision cache and HiGHS runs every frame: ``core``
is nearly the whole run, and no codec, exec or cluster code runs.

A run is a number of identical episodes (a fresh framework on the same
seed, ``EPISODE`` timed frames each, at least ``MIN_EPISODES`` and at
least ``--seconds``), so the simulated results of every episode must
agree exactly.
"""

from __future__ import annotations

import time
from statistics import median

from common import Result, Stopwatch, digest, percentile, tail_mean
from tracing import Tracer, install_layer_spans, interleave, layer_rows

JITTER_SIGMA = 0.05
#: Discarded frames of every setup: the equidistant initialization frame
#: and the first LP frame.
WARMUP = 2
#: Timed frames per episode; a run times at least ``MIN_EPISODES``, so
#: that the slowest 1% hold 10 frames.
EPISODE = 500
MIN_EPISODES = 2
SETUPS = 5


def _setup(seed: int):
    from repro import (
        CodecConfig,
        FaultEvent,
        FaultSchedule,
        FevesFramework,
        FrameworkConfig,
        get_platform,
    )
    from repro.hw.noise import GaussianJitter, NoiseModel

    faults = FaultSchedule([
        FaultEvent(frame=100, device="GPU_F2", kind="hang", duration=20),
        FaultEvent(frame=400, device="GPU_F", kind="degrade", factor=1.5,
                   duration=100),
    ])
    fw = FevesFramework(
        get_platform("SysNFF"),
        CodecConfig(search_range=32, num_ref_frames=4),
        FrameworkConfig(
            noise=NoiseModel(jitter=GaussianJitter(sigma=JITTER_SIGMA, seed=seed)),
            faults=faults,
        ),
    )
    for _ in range(WARMUP):
        fw.encode_next_inter()
    return fw


def _episode(fw) -> tuple[list[float], float]:
    perf = time.perf_counter
    times: list[float] = []
    t_begin = perf()
    for _ in range(EPISODE):
        t0 = perf()
        fw.encode_next_inter()
        times.append(perf() - t0)
    return times, perf() - t_begin


def _check(res: Result, fw) -> str:
    """Validate every frame's simulated schedule; return the frame digest."""
    from repro.hw.des import validate_schedule

    for rep in fw.reports:
        res.attempted += 1
        try:
            validate_schedule(rep.timeline.records)
        except AssertionError as exc:
            res.fail(f"frame {rep.frame_index}: {exc}")
    return digest(fw.frame_times_ms())


def run(seed: int, seconds: float, trace: bool, res: Result, import_s: float, rss) -> dict:
    if not trace:
        setups: list[float] = []
        times: list[float] = []
        walls: list[float] = []
        digests: list[str] = []
        sim_fps = 0.0
        t_begin = time.perf_counter()
        while len(walls) < MIN_EPISODES or time.perf_counter() - t_begin < seconds:
            for _ in range(SETUPS if not walls else 1):
                with Stopwatch() as sw:
                    fw = _setup(seed)
                setups.append(sw.s)
            t, wall = _episode(fw)
            times += t
            walls.append(wall)
            digests.append(_check(res, fw))
            sim_fps = fw.steady_state_fps()
        if len(set(digests)) != 1:
            res.fail("episodes on one seed simulated different frame times")
        # Per-frame times are bimodal (the number of HiGHS solves varies
        # by frame), so a plain median jumps between the modes: take the
        # median over episodes of the host time per frame instead.
        p50_ms = median(wall / EPISODE for wall in walls) * 1e3
        p99_ms = percentile(times, 99) * 1e3
        # The gated tail is the mean beyond the p99, which weighs every
        # frame of the tail instead of one.
        tail_ms = tail_mean(times, 99) * 1e3
        setup_s = import_s + median(setups)
        res.metric("frames_per_host_s", len(times) / sum(walls), "frames/s")
        res.metric("frame_ms_p50", p50_ms, "ms")
        res.metric("frame_ms_tail", tail_ms, "ms")
        res.metric("setup_s", setup_s, "s")
        res.report.update({
            "loop_ms_p50": [p50_ms, "ms"],
            "loop_ms_p99": [p99_ms, "ms"],
            "loop_ms_tail": [tail_ms, "ms"],
            "sim_fps": [sim_fps, "fps"],
            "setup_s": [setup_s, "s"],
            "timed_frames": len(times), "episodes": len(walls),
            "sim_frame_digest": digests[0],
        })
        return {}

    fw_u = _setup(seed)
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        fw = _setup(seed)
    finally:
        tracer.disable()
    passes = interleave(
        tracer, EPISODE,
        lambda _i: fw_u.encode_next_inter(),
        lambda _i: fw.encode_next_inter(),
    )
    dig_u = _check(res, fw_u)
    dig = _check(res, fw)
    if dig != dig_u:
        res.fail("the traced episode simulated different frame times")
    timed = fw.reports[WARMUP:]
    m = {
        "hw.des_ops": sum(len(r.timeline.records) for r in timed) / len(timed),
        "hw.sim_fps": fw.steady_state_fps(),
    }
    m.update(layer_rows(tracer, passes, EPISODE))
    res.report.update({
        "untraced_s": passes["untraced_s"], "traced_s": passes["traced_s"],
        "sim_frame_digest": dig,
    })
    return {"per_layer": m, "tracer": tracer}

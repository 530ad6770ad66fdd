"""Workload ``encode_gop8``: real encode on the process backend.

One stream in a closed loop: a 256x144 synthetic clip (seeded from the
workload seed) is encoded one ``FevesFramework.encode_frame_at`` call per
frame on SysHK with 2 worker processes, 32x32 search area, 1 reference
frame and an I frame every 8 frames. This is the only workload that runs
the ``codec`` kernels and the ``exec`` pool: P frames are mostly parallel
ME/INT/SME, I frames are serial host intra.

The stream cycles through a one-GOP clip. Every I frame resets the
reference window, so frame ``i`` must equal frame ``i % 8`` of the
serial ``ReferenceEncoder`` run on the clip, which is computed once per
invocation outside the timed region and doubles as the serial baseline.
"""

from __future__ import annotations

import time
from statistics import median

from common import (
    Result,
    SetupError,
    Stopwatch,
    digest,
    host_cores,
    percentile,
    tail_mean,
)
from tracing import Tracer, install_layer_spans, interleave, layer_rows, span_ms

WIDTH, HEIGHT = 256, 144
GOP = 8
CLIP = GOP
WORKERS = 2
#: Discarded frames of every setup: the I frame and the equidistant first
#: P frame, which starts the worker pool.
WARMUP = 2
#: Timed frames of an end-to-end run: at least this many (so that the
#: slowest 10% hold 12 frames), and a whole number of GOPs so every run
#: has the same I/P mix.
MIN_TIMED = 120
SETUPS = 3
#: GOPs per pass of the traced run (one untraced, one traced pass).
TRACE_GOPS = 4


def _config():
    from repro import CodecConfig

    return CodecConfig(width=WIDTH, height=HEIGHT, search_range=16, num_ref_frames=1)


def _setup(cfg, clip):
    """Construct the framework and run the warm-up frames."""
    from repro import FevesFramework, FrameworkConfig, get_platform

    fw = FevesFramework(
        get_platform("SysHK"),
        cfg,
        FrameworkConfig(
            compute="real", backend="process", exec_workers=WORKERS, gop_size=GOP
        ),
    )
    try:
        outs = [_frame(fw, clip, i) for i in range(WARMUP)]
    except BaseException:
        fw.close()
        raise
    return fw, outs


def _frame(fw, clip, i: int):
    return i, fw.encode_frame_at(clip[i % CLIP], i)


def _encode(fw, clip, seconds: float | None, frames: int | None):
    """Timed closed loop from frame ``WARMUP`` on.

    Runs exactly ``frames`` frames, or else until ``seconds`` have passed
    and at least ``MIN_TIMED`` frames (a multiple of ``GOP``) are done.
    """
    perf = time.perf_counter
    times: list[float] = []
    outs = []
    i = WARMUP
    t_begin = perf()
    while True:
        t0 = perf()
        out = fw.encode_frame_at(clip[i % CLIP], i)
        t1 = perf()
        times.append(t1 - t0)
        outs.append((i, out))
        i += 1
        n = len(times)
        if frames is not None:
            if n == frames:
                break
        elif n >= MIN_TIMED and n % GOP == 0 and t1 - t_begin >= seconds:
            break
    return times, outs, perf() - t_begin


def _check(res: Result, outs, expected) -> None:
    import numpy as np

    for i, out in outs:
        res.attempted += 1
        enc, exp = out.encoded, expected[i % CLIP]
        if enc is None or enc.bits != exp.bits or not all(
            np.array_equal(getattr(enc.recon, p), getattr(exp.recon, p))
            for p in "yuv"
        ):
            res.fail(f"frame {i}: differs from the serial ReferenceEncoder")


def _chunk_stats(outs):
    """Worker-stamped ME/INT/SME chunks of the P frames, from the timelines."""
    s = {"p": 0, "me": 0.0, "int": 0.0, "sme": 0.0, "tasks": 0,
         "busy1": 0.0, "busy2": 0.0, "phase1": 0.0, "phase2": 0.0, "covered": 0.0}
    for _i, out in outs:
        if out.encoded.is_intra:
            continue
        rep = out.report
        s["p"] += 1
        spans = []
        for r in rep.timeline.records:
            kind = r.label.split("[", 1)[0]
            if kind in ("ME", "INT", "SME"):
                s[kind.lower()] += r.duration
                s["busy1" if kind != "SME" else "busy2"] += r.duration
                spans.append((r.start, r.end))
        s["tasks"] += len(spans)
        s["phase1"] += rep.tau1
        s["phase2"] += rep.tau2 - rep.tau1
        # Wall time the host spent with at least one chunk running.
        end = 0.0
        for a, b in sorted(spans):
            a = max(a, end)
            if b > a:
                s["covered"] += b - a
                end = b
    return s


def run(seed: int, seconds: float, trace: bool, res: Result, import_s: float, rss) -> dict:
    from repro.codec.encoder import ReferenceEncoder
    from repro.video.generator import SyntheticSequence

    cores = host_cores()
    if cores < WORKERS:
        raise SetupError(
            f"encode_gop8 needs {WORKERS} cores for its {WORKERS} workers, "
            f"this process may use {cores}; a parallel encode timed on fewer "
            "cores measures contention, not the program"
        )
    cfg = _config()
    clip = SyntheticSequence(width=WIDTH, height=HEIGHT, seed=seed).frames(CLIP)
    with Stopwatch() as serial:
        ref = ReferenceEncoder(cfg, gop_size=GOP)
        expected = [ref.encode_frame(f) for f in clip]
    serial_fps = CLIP / serial.s
    facts = {"host_cores": cores, "workers": WORKERS}

    if not trace:
        setups = []
        fw = None
        try:
            for _ in range(SETUPS):
                if fw is not None:
                    rss.sample_children()
                    fw.close()
                with Stopwatch() as sw:
                    fw, warm = _setup(cfg, clip)
                setups.append(sw.s)
                _check(res, warm, expected)
            times, outs, wall = _encode(fw, clip, seconds, None)
            rss.sample_children()
        finally:
            if fw is not None:
                fw.close()
        _check(res, outs, expected)
        fps = len(times) / wall
        p50_ms = median(times) * 1e3
        p90_ms = percentile(times, 90) * 1e3
        # The p90 is a single I frame's time, and I-frame times swing with
        # the host's speed: the gated tail is the mean beyond the p90.
        tail_ms = tail_mean(times, 90) * 1e3
        setup_s = import_s + median(setups)
        res.metric("frames_per_host_s", fps, "frames/s")
        res.metric("frame_ms_p50", p50_ms, "ms")
        res.metric("frame_ms_tail", tail_ms, "ms")
        res.metric("setup_s", setup_s, "s")
        res.report.update({
            "encode_fps": [fps, "frames/s"],
            "frame_ms_p50": [p50_ms, "ms"],
            "frame_ms_p90": [p90_ms, "ms"],
            "frame_ms_tail": [tail_ms, "ms"],
            "setup_s": [setup_s, "s"],
            "timed_frames": len(times),
            "i_frames": sum(1 for _i, o in outs if o.encoded.is_intra),
            "serial_fps": [serial_fps, "frames/s"],
            "bits_digest": digest(o.encoded.bits for _i, o in outs[:MIN_TIMED]),
        })
        return facts

    # Traced run: whole GOPs of one framework, alternately untraced and
    # traced, so both passes see the same frames, load split and host.
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        fw, warm = _setup(cfg, clip)
    finally:
        tracer.disable()
    outs_u: list = []
    outs: list = []

    def gop(into: list, k: int) -> None:
        for i in range(WARMUP + k * GOP, WARMUP + (k + 1) * GOP):
            into.append(_frame(fw, clip, i))

    with fw:
        start = tracer.since({})
        passes = interleave(
            tracer, TRACE_GOPS,
            lambda k: gop(outs_u, 2 * k),
            lambda k: gop(outs, 2 * k + 1),
        )
        acc = fw.accuracy_report().summary()
        rss.sample_children()
    for batch in (warm, outs_u, outs):
        _check(res, batch, expected)

    c = _chunk_stats(outs)
    n_p = c["p"]
    n_i = len(outs) - n_p
    delta = passes["delta"]
    wall = passes["traced_s"]
    run_frame_s = delta["exec.run_frame"][0]
    covered = c["covered"]
    host_s = run_frame_s - covered
    intra_s = delta["codec.intra"][0]
    rstar_s = delta["codec.rstar"][0]
    # Host-serial time: everything but the wall covered by worker chunks.
    serial_s = wall - covered
    n = min(WORKERS, cores)
    par_fps = len(outs_u) / passes["untraced_s"]
    # Amdahl's serial fraction: host-serial time per frame over the
    # serial encoder's time per frame.
    f_serial = min(1.0, serial_s / len(outs) * serial_fps)
    m = {
        "codec.me_ms": c["me"] * 1e3 / n_p,
        "codec.int_ms": c["int"] * 1e3 / n_p,
        "codec.sme_ms": c["sme"] * 1e3 / n_p,
        "codec.rstar_ms": rstar_s * 1e3 / n_p,
        "codec.intra_ms": intra_s * 1e3 / n_i,
        "exec.tasks_per_frame": c["tasks"] / n_p,
        "exec.phase1_idle_frac": 1.0 - c["busy1"] / (WORKERS * c["phase1"]),
        "exec.phase2_idle_frac": 1.0 - c["busy2"] / (WORKERS * c["phase2"]),
        "exec.host_ms": host_s * 1e3 / n_p,
        "exec.start_ms": span_ms(start, "exec.start", 1),
        "exec.serial_fps": serial_fps,
        "exec.speedup": par_fps / serial_fps,
        "exec.serial_frac": serial_s / wall,
        "exec.amdahl_bound": 1.0 / (f_serial + (1.0 - f_serial) / n),
        "exec.host_cores": cores,
        "exec.workers": WORKERS,
        "core.makespan_err_mean": acc.get("makespan_error_mean", 0.0),
        "core.makespan_err_max": acc.get("makespan_error_max", 0.0),
    }
    m.update(layer_rows(tracer, passes, n_p, moved_to_codec=covered))
    res.report.update({
        "untraced_s": passes["untraced_s"], "traced_s": wall,
        "p_frames": n_p, "i_frames": n_i, "frames_per_pass": len(outs),
        "intra_share": intra_s / wall, "rstar_share": rstar_s / wall,
        "exec_host_share": host_s / wall,
    })
    return dict(facts, per_layer=m, tracer=tracer)

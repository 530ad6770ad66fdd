"""Paper §IV scheduling-overhead claim, gated on the one scheduling path.

"The scheduling overheads (introduced by the proposed framework) take, on
average, less than 2 ms per inter-frame encoding" — here measured as the
real wall-clock time of the Load Balancing solve + Data Access planning
per frame (everything between Algorithm 1's line 8 and the start of frame
execution). Three modes per platform:

- ``exact``   — rtol=0: only exact reuse (solve cache, converged
  decisions), so the simulated timelines equal a full LP solve every
  frame; its HiGHS solve count over ``perf_smoke.N_FRAMES`` frames is a
  deterministic cost measure and must not exceed the committed
  ``BENCH_OVERHEAD.json`` snapshot;
- ``steady``  — the defaults (rtol decision cache on top): the number the
  paper's claim is checked against;
- ``jittered``— 5% execution-time noise defeats the rtol cache, bounding
  overhead when decisions can't be reused.

The committed root-level ``BENCH_OVERHEAD.json`` snapshot is produced by
``benchmarks/perf_smoke.py``, which CI gates on the same solve counts.
"""

import json
from pathlib import Path

import pytest

import perf_smoke
from repro.codec.config import CodecConfig
from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import GaussianJitter, NoiseModel
from repro.hw.presets import get_platform
from repro.report import format_table

CFG = CodecConfig(width=1920, height=1088, search_range=16, num_ref_frames=1)

SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_OVERHEAD.json"


def run_model(platform: str, n: int = 50, fw_cfg: FrameworkConfig | None = None):
    fw = FevesFramework(get_platform(platform), CFG, fw_cfg or FrameworkConfig())
    fw.run_model(n)
    return fw


def overhead_ms(platform: str, n: int = 50, fw_cfg: FrameworkConfig | None = None):
    return run_model(platform, n, fw_cfg).scheduling_overhead_ms


@pytest.fixture(scope="module")
def overheads():
    out = {}
    for platform in perf_smoke.PLATFORMS:
        exact = run_model(
            platform, perf_smoke.N_FRAMES, FrameworkConfig(lb_cache_rtol=0.0)
        )
        out[platform] = {
            "exact": exact.scheduling_overhead_ms,
            "solves": exact.balancer.lp_cache.misses,
            "steady": overhead_ms(platform),
            "jittered": overhead_ms(
                platform,
                fw_cfg=FrameworkConfig(
                    noise=NoiseModel(jitter=GaussianJitter(sigma=0.05))
                ),
            ),
        }
    return out


def test_overhead_table(overheads, emit, benchmark):
    benchmark.pedantic(overhead_ms, args=("SysHK", 20), rounds=2, iterations=1)
    rows = [
        [
            p,
            v["solves"],
            f"{v['exact']:.3f}",
            f"{v['steady']:.3f}",
            f"{v['jittered']:.3f}",
        ]
        for p, v in overheads.items()
    ]
    emit(
        "overhead",
        format_table(
            ["platform", "HiGHS solves", "exact ms", "steady ms",
             "5% jitter ms"],
            rows,
            title="Scheduling overhead per inter frame (paper claim: < 2 ms)",
        ),
    )


def test_steady_state_under_2ms(overheads, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for p, v in overheads.items():
        assert v["steady"] < 2.0, f"{p}: {v['steady']:.2f} ms"


def test_highs_solves_within_snapshot(overheads, benchmark):
    """The deterministic HiGHS solve count of the exact run must not
    rise above the committed snapshot on any platform."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    snap = json.loads(SNAPSHOT.read_text())["platforms"]
    for p, v in overheads.items():
        assert v["solves"] <= snap[p]["highs_solves"], (
            f"{p}: {v['solves']} HiGHS solves > snapshot "
            f"{snap[p]['highs_solves']}"
        )


def test_overhead_much_smaller_than_frame_time(overheads, benchmark):
    """Paper: 'significantly less than the time required to individually
    execute any inter-loop module'."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fw = run_model("SysHK", 10)
    frame_ms = fw.frame_times_ms()[-1]
    assert overheads["SysHK"]["steady"] < 0.2 * frame_ms

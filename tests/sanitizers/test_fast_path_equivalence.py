"""Golden pins for the scheduling path: bit-identical to the cold path.

The warm-start LP, the characterization caches and the index-based DES
are pure performance work. Before the switches that could turn them off
were deleted, every scenario below was run through the cold
configuration (all three disabled) and through the exact fast
configuration, and the two full run digests — timeline records (same
floats), taus, distributions, fault log — were identical. The sha256 of
that digest is frozen here, so the one remaining path is still held to
the cold path's output. ``lb_cache_rtol=0.0`` disables the one
deliberate approximation (tolerance-based decision reuse).

The scenarios cover SysNF, SysNFF and SysHK; no fault, dropout,
hang-then-readmit (with and without a cleared characterization), degrade
and copy_fail; three codec configurations; 5–9 frames each.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import FevesFramework
from repro.hw.noise import FaultEvent, FaultSchedule
from repro.hw.presets import get_platform

from test_property import CODECS

FOUR_CIF, FOUR_CIF_SA64_2REF, CIF = CODECS

#: name -> (platform, codec, fault events, inter frames)
SCENARIOS = {
    "nf-clean": ("SysNF", FOUR_CIF, (), 6),
    "nff-clean": ("SysNFF", FOUR_CIF, (), 8),
    "hk-cif-clean": ("SysHK", CIF, (), 5),
    "hk-hang-readmit": ("SysHK", FOUR_CIF, (
        FaultEvent(frame=3, device="GPU_K", kind="hang", duration=2),
    ), 9),
    "hk-dropout": ("SysHK", FOUR_CIF, (
        FaultEvent(frame=3, device="GPU_K", kind="dropout"),
    ), 7),
    "nff-dropout": ("SysNFF", FOUR_CIF, (
        FaultEvent(frame=4, device="GPU_F2", kind="dropout"),
    ), 8),
    "nff-cif-hang-recharacterize": ("SysNFF", CIF, (
        FaultEvent(frame=3, device="GPU_F", kind="hang", duration=1,
                   clear_characterization=True),
    ), 7),
    "nf-wide-degrade": ("SysNF", FOUR_CIF_SA64_2REF, (
        FaultEvent(frame=3, device="GPU_F", kind="degrade", factor=3.0),
    ), 6),
    "nff-copy-fail": ("SysNFF", FOUR_CIF, (
        FaultEvent(frame=2, device="GPU_F2", kind="copy_fail", factor=4.0),
    ), 6),
    "hk-cif-degrade-copy-fail": ("SysHK", CIF, (
        FaultEvent(frame=2, device="CPU_H", kind="degrade", factor=2.5),
        FaultEvent(frame=4, device="GPU_K", kind="copy_fail", factor=6.0),
    ), 8),
}

#: sha256 of ``repr(run_digest(...))`` per scenario, taken on the cold
#: path (and matched by the exact fast path) before the switch removal.
#: ``repr`` of floats round-trips exactly, so any bit change moves it.
GOLDEN = {
    "hk-cif-clean":
        "e880ee5ff8f8d62faffd5077165d7506ca2f81635579cd960b2d1d0909f6ea82",
    "hk-cif-degrade-copy-fail":
        "2c747c37f72afe6aaa26e403b23efd0a54e65fc73751d896209eea3d2484b0d5",
    "hk-dropout":
        "e62af128dd1707fb96e5de32cafb123a7e9166cd19757a8ec0836acb80f9ec33",
    "hk-hang-readmit":
        "10d93b0772ac96d2461ef743344d02bc34e1ad93296ffc4a613ac16554e06b5d",
    "nf-clean":
        "00c1c62dde6ae949034aea1ea0570595479a4608db14707474374071348289fb",
    "nf-wide-degrade":
        "deaf359f167d1c2c0d3969dcf4e0896895bff21de8bd64c195b1f3deed73c092",
    "nff-cif-hang-recharacterize":
        "b52d39e8468064e4169424ad77f3cb48c527704022f056a8015bbdc515b98bd1",
    "nff-clean":
        "db55988915407ac6a1d880409c9fac54ce75213d9d7d68082bb3f6fe3513499d",
    "nff-copy-fail":
        "761f161793fef611c42831164bd94c219f9b55fe16094718cce159f6a23740e2",
    "nff-dropout":
        "d6575a0d599a623e65fe90b7f40838791c3595299aa2dfa54455164da79273e4",
}


def run_digest(platform_name, codec, faults, frames):
    """Full bit-level digest of an exact (``lb_cache_rtol=0``) run."""
    fw = FevesFramework(
        get_platform(platform_name), codec,
        FrameworkConfig(faults=faults, lb_cache_rtol=0.0),
    )
    for _ in range(frames):
        fw.encode_next_inter()
    return {
        "records": [
            [(r.label, r.resource, r.category, r.start, r.end)
             for r in rep.timeline.records]
            for rep in fw.reports
        ],
        "taus": [
            (rep.timeline.tau1, rep.timeline.tau2, rep.timeline.tau_tot)
            for rep in fw.reports
        ],
        "distributions": [
            (rep.decision.m.rows, rep.decision.l.rows, rep.decision.s.rows)
            for rep in fw.reports
        ],
        "fault_log": list(fw.fault_log),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_cold_path_golden(name):
    platform_name, codec, events, frames = SCENARIOS[name]
    blob = run_digest(
        platform_name, codec, FaultSchedule(events=events), frames
    )
    assert hashlib.sha256(repr(blob).encode()).hexdigest() == GOLDEN[name], (
        f"scenario {name!r} diverged from the frozen cold-path digest"
    )

"""Fleet event loop: golden pins, a work-count gate, next-event heap rules.

The golden digests below were frozen from the per-tick polling loop the
next-event heap replaced. Each fleet pins three things exactly:

- ``ClusterMetrics.to_dict()`` (``ticks`` and ``peak_concurrent``
  included), hashed over its JSON with every float at full precision;
- every encoded frame's latency, node by node and session by session;
- the ``(t, node.index)`` sequence of node steps, ``t`` being the time
  the stepped node was due (its ``next_action_s()`` on entry).

Any change to event order, routing inputs or float rounding moves at
least one of them.

One pin was re-taken on purpose. The polling loop stepped the node it
had picked at the top of a tick even when the autoscaler drained that
node earlier in the same tick; the retired node's clock then jumped to
the next arrival. The heap loop skips such a step, which in
``autoscale-p99`` removes one entry from the step list and changes the
drained node's device utilization. Its ticks, peak concurrency and
every frame latency are unchanged.

Its metrics digest was also re-taken when the autoscaler's p99 got its
units right: the same 30 ms SLO makes the same decisions, and only the
scale-out reason text (``realtime p99 41.9 ms > SLO 30.0 ms``) moved.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import (
    AutoscaleConfig,
    Cluster,
    ClusterConfig,
    NodeFaultEvent,
    NodeFaultSchedule,
    NodeSpec,
)
from repro.cluster.node import UP, Node
from repro.service import StreamSpec, build_workload

CYCLE = ("SysHK", "SysNF", "SysNFF")


def mixed_nodes(n: int) -> tuple[NodeSpec, ...]:
    return tuple(
        NodeSpec(f"n{i}", platform=CYCLE[i % len(CYCLE)]) for i in range(n)
    )


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def serve(cfg: ClusterConfig, workload, monkeypatch):
    """Run a fleet, recording ``(t, node.index, node.state)`` per step."""
    steps: list[tuple[float, int, str]] = []
    raw = Node.step

    def step(self, next_arrival_s=None):
        steps.append((self.next_action_s(), self.index, self.state))
        return raw(self, next_arrival_s)

    monkeypatch.setattr(Node, "step", step)
    cluster = Cluster(cfg)
    metrics = cluster.run(list(workload))
    monkeypatch.setattr(Node, "step", raw)
    return cluster, metrics, steps


# ---------------------------------------------------------------- fleets


def slack_dropout():
    cfg = ClusterConfig(
        nodes=mixed_nodes(12),
        policy="slack",
        node_faults=NodeFaultSchedule(
            [NodeFaultEvent("n3", at_s=1.0, kind="down")]
        ),
    )
    wl = build_workload(
        48, n_frames=6, mix="broadcast", arrival_rate=30.0, seed=11
    )
    return cfg, wl


def autoscale_p99():
    # A burst saturates one slow node (queue-depth and p99 scale-out),
    # then a light realtime tail after it lets the scaled nodes idle
    # (scale-in) and the p99 window breach again (scale-out mid-run).
    cfg = ClusterConfig(
        nodes=(NodeSpec("n0", platform="SysNF", max_queue=2),),
        policy="least-loaded",
        autoscale=AutoscaleConfig(
            enabled=True, max_nodes=4, template=("SysHK", "SysNFF"),
            queue_high=3, sustain_ticks=2, p99_slo_ms=30.0,
            p99_window=16, idle_ticks=10, cooldown_ticks=3,
        ),
    )
    wl = build_workload(12, n_frames=6, mix="broadcast", seed=3)
    wl += [
        StreamSpec(
            f"tail{k}", n_frames=10, fps_target=5.0,
            arrival_s=14.0 + 0.5 * k, deadline_class="realtime",
        )
        for k in range(8)
    ]
    return cfg, wl


def routed(policy: str):
    def build():
        cfg = ClusterConfig(nodes=mixed_nodes(6), policy=policy)
        wl = build_workload(
            24, n_frames=5, mix="broadcast", arrival_rate=20.0, seed=5
        )
        return cfg, wl

    return build


FLEETS = {
    "slack-dropout": slack_dropout,
    "autoscale-p99": autoscale_p99,
    "least-loaded": routed("least-loaded"),
    "affinity": routed("affinity"),
}

#: name -> (ticks, peak_concurrent, metrics, latencies, steps digests).
GOLDEN = {
    "affinity": (212, 8, "0d9f9bc61cf87baf", "f63f9f53fdbdea02", "3755bc082e2d8ec7"),
    "autoscale-p99": (219, 7, "f40103512df636d8", "f997ab46c6e75278", "0b5f0e0de08ceb7a"),
    "least-loaded": (220, 7, "4251970e98e941a8", "b5701aae39c6b9d9", "c079014658e52856"),
    "slack-dropout": (531, 13, "c8966cb76bdd622e", "983bd8c8438242ba", "fddbac5e87b3ed2d"),
}


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_golden_fleet(name, monkeypatch):
    cluster, metrics, steps = serve(*FLEETS[name](), monkeypatch)
    latencies = [
        [r.latency_s for r in s.records]
        for node in cluster.nodes
        for s in node.service.sessions
    ]
    got = (
        metrics.ticks,
        metrics.peak_concurrent,
        digest(metrics.to_dict()),
        digest(latencies),
        digest([(t, i) for t, i, _ in steps]),
    )
    assert got == GOLDEN[name]


def test_autoscale_fleet_adds_and_drains(monkeypatch):
    _, metrics, _ = serve(*autoscale_p99(), monkeypatch)
    actions = {e["action"] for e in metrics.autoscale_events}
    assert actions == {"add", "drain"}


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_steps_follow_simulated_time(name, monkeypatch):
    _, _, steps = serve(*FLEETS[name](), monkeypatch)
    keys = [(t, i) for t, i, _ in steps]
    times = [t for t, _ in keys]
    assert times == sorted(times)
    assert all(state == UP for _, _, state in steps)


# ------------------------------------------------------------ work gate


def test_node_polls_per_tick_stay_bounded(monkeypatch):
    """Only nodes an event touched are re-evaluated, not the fleet.

    Polling every live node each tick costs ~31 evaluations per tick on
    this 32-node fleet; re-keying touched nodes costs at most one per
    step plus one per placement.
    """
    calls = [0]
    raw = Node.next_action_s

    def counted(self):
        calls[0] += 1
        return raw(self)

    monkeypatch.setattr(Node, "next_action_s", counted)
    cluster = Cluster(ClusterConfig(nodes=mixed_nodes(32), policy="slack"))
    metrics = cluster.run(build_workload(
        96, n_frames=4, mix="broadcast", arrival_rate=40.0, seed=2
    ))
    assert metrics.streams == {"done": 96}
    assert calls[0] / metrics.ticks <= 2.0


# ------------------------------------------------------- heap semantics


def test_equal_times_step_lower_index_first(monkeypatch):
    # Affinity sends the realtime stream to the fast node n1 before the
    # background one reaches the slow node n0, so n1 is keyed first —
    # both are due at t = 0 and n0 must still step first.
    cfg = ClusterConfig(
        nodes=(NodeSpec("n0", platform="SysNF"), NodeSpec("n1")),
        policy="affinity",
    )
    wl = [
        StreamSpec("a", n_frames=2, deadline_class="realtime"),
        StreamSpec("b", n_frames=2, deadline_class="background"),
    ]
    cluster, _, steps = serve(cfg, wl, monkeypatch)
    seg_nodes = {
        st.stream_id: st.segments[0].node_id
        for st in cluster.dispatcher.streams.values()
    }
    assert seg_nodes == {"a": "n1", "b": "n0"}
    assert [(t, i) for t, i, _ in steps[:2]] == [(0.0, 0), (0.0, 1)]


def test_retired_node_is_never_stepped_again(monkeypatch):
    # n1 has a frame due at every period when the dropout lands: its
    # heap entries at and after the fault are stale and must be skipped.
    cfg = ClusterConfig(
        nodes=(NodeSpec("n0"), NodeSpec("n1")),
        policy="least-loaded",
        node_faults=NodeFaultSchedule(
            [NodeFaultEvent("n1", at_s=0.2, kind="down")]
        ),
    )
    wl = [StreamSpec(f"s{k}", n_frames=10, fps_target=25.0) for k in range(4)]
    cluster, metrics, steps = serve(cfg, wl, monkeypatch)
    n1_steps = [t for t, i, _ in steps if i == 1]
    assert n1_steps and max(n1_steps) < 0.2
    assert all(state == UP for _, _, state in steps)
    assert metrics.reroutes > 0
    assert metrics.streams == {"done": 4}


def test_autoscaled_node_is_keyed_from_its_start_time(monkeypatch):
    # Nodes join mid-run on the fleet clock: none may be due before it
    # joined, and each one that got work steps in time order with the rest.
    cluster, _, steps = serve(*autoscale_p99(), monkeypatch)
    late = [n for n in cluster.nodes if n.joined_s > 0.0]
    assert len(late) >= 3
    stepped = 0
    for node in late:
        own = [t for t, i, _ in steps if i == node.index]
        assert all(t >= node.joined_s for t in own), node.node_id
        stepped += bool(own)
    assert stepped >= 3

"""Reactive fleet autoscaling on queue depth and per-class p99 breaches.

The autoscaler observes the cluster at every dispatch tick (simulated
time only — no wall clock) and reacts:

**Scale out** when pressure is *sustained*: the global dispatch queue
has been at or above ``queue_high`` for ``sustain_ticks`` consecutive
ticks, or the rolling realtime-class p99 frame latency has exceeded
``p99_slo_ms`` for that long. A new node is provisioned from the cyclic
``template`` platform list and joins on the fleet clock.

**Scale in** when the fleet has been *sustainedly idle*: the global
queue empty and aggregate normalized load below ``idle_low`` for
``idle_ticks`` consecutive ticks. Only nodes the autoscaler itself added
are drained (LIFO — most recently provisioned first), so an operator's
baseline fleet is never shrunk; draining re-routes any sessions through
the usual node-drain fault path.

Both directions honor a ``cooldown_ticks`` refractory period so one
burst cannot thrash the fleet, and the fleet size stays inside
``[min_nodes, max_nodes]``. All decisions read deterministic cluster
state, so autoscaled runs stay bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.service.metrics import latency_percentiles_ms


@dataclass(frozen=True)
class AutoscaleConfig:
    """Autoscaler tunables (see module docstring for semantics)."""

    enabled: bool = False
    min_nodes: int = 1
    max_nodes: int = 8
    template: tuple[str, ...] = ("SysHK",)
    queue_high: int = 4
    sustain_ticks: int = 3
    p99_slo_ms: float | None = None
    p99_window: int = 64
    idle_low: float = 0.25
    idle_ticks: int = 50
    cooldown_ticks: int = 10

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes ({self.max_nodes}) must be >= min_nodes "
                f"({self.min_nodes})"
            )
        if not self.template:
            raise ValueError("template must name at least one platform")
        if self.queue_high < 1:
            raise ValueError(f"queue_high must be >= 1, got {self.queue_high}")
        if self.sustain_ticks < 1:
            raise ValueError(
                f"sustain_ticks must be >= 1, got {self.sustain_ticks}"
            )


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, for the metrics/audit log."""

    at_s: float
    action: str          # "add" | "drain"
    node_id: str
    platform: str
    reason: str


#: Autoscaler verdicts returned by :meth:`Autoscaler.tick`.
SCALE_UP, SCALE_DOWN, HOLD = "up", "down", "hold"


class Autoscaler:
    """Sustained-pressure reactive scaler (decisions only, no mutation).

    The cluster driver owns node creation/draining; the scaler just
    answers "what should happen now" from the observed queue depth,
    load, and recent realtime frame latencies it is fed.
    """

    def __init__(self, cfg: AutoscaleConfig) -> None:
        self.cfg = cfg
        self._pressure_ticks = 0
        self._idle_ticks = 0
        self._cooldown = 0
        self._template_i = 0
        self._recent_rt_s: deque[float] = deque(maxlen=cfg.p99_window)
        self.events: list[ScaleEvent] = []

    # ------------------------------------------------------------------

    def observe_frame(self, deadline_class: str, latency_s: float) -> None:
        """Feed one completed frame into the rolling p99 window."""
        if deadline_class == "realtime":
            self._recent_rt_s.append(latency_s)

    def realtime_p99_ms(self) -> float | None:
        if not self._recent_rt_s:
            return None
        return latency_percentiles_ms(list(self._recent_rt_s))["p99"]

    def next_platform(self) -> str:
        """Cyclic pick from the provisioning template."""
        name = self.cfg.template[self._template_i % len(self.cfg.template)]
        self._template_i += 1
        return name

    # ------------------------------------------------------------------

    def tick(
        self, queue_depth: int, n_nodes: int, n_scaled: int, load: float
    ) -> tuple[str, str]:
        """One decision step; returns ``(verdict, reason)``.

        ``n_scaled`` is how many currently-live nodes the autoscaler
        added (the only ones it may drain); ``load`` is the aggregate
        committed fraction over aggregate headroom of live nodes.
        """
        cfg = self.cfg
        if not cfg.enabled:
            return HOLD, "disabled"
        if self._cooldown > 0:
            self._cooldown -= 1

        p99 = self.realtime_p99_ms()
        breach = (
            cfg.p99_slo_ms is not None
            and p99 is not None
            and p99 > cfg.p99_slo_ms
        )
        pressured = queue_depth >= cfg.queue_high or breach
        if pressured:
            self._pressure_ticks += 1
            self._idle_ticks = 0
        else:
            self._pressure_ticks = 0

        idle = queue_depth == 0 and load < cfg.idle_low
        if idle:
            self._idle_ticks += 1
        else:
            self._idle_ticks = 0

        if (
            self._pressure_ticks >= cfg.sustain_ticks
            and n_nodes < cfg.max_nodes
            and self._cooldown == 0
        ):
            self._pressure_ticks = 0
            self._cooldown = cfg.cooldown_ticks
            reason = (
                f"realtime p99 {p99:.1f} ms > SLO {cfg.p99_slo_ms:.1f} ms"
                if breach and p99 is not None and cfg.p99_slo_ms is not None
                else f"queue depth >= {cfg.queue_high} for "
                f"{cfg.sustain_ticks} ticks"
            )
            return SCALE_UP, reason

        if (
            self._idle_ticks >= cfg.idle_ticks
            and n_scaled > 0
            and n_nodes > cfg.min_nodes
            and self._cooldown == 0
        ):
            self._idle_ticks = 0
            self._cooldown = cfg.cooldown_ticks
            return SCALE_DOWN, (
                f"queue empty and load < {cfg.idle_low:g} for "
                f"{cfg.idle_ticks} ticks"
            )
        return HOLD, "steady"

    def record(self, event: ScaleEvent) -> None:
        self.events.append(event)


__all__ = [
    "AutoscaleConfig",
    "Autoscaler",
    "HOLD",
    "SCALE_DOWN",
    "SCALE_UP",
    "ScaleEvent",
]

"""Multi-node uplink congestion model.

The paper's introduction motivates Easz with channel congestion: "transmitting
the huge volume of data generated by IoT devices can cause significant channel
congestion, particularly in scenarios with limited bandwidth".  This module
models a fleet of camera nodes sharing one wireless uplink and quantifies that
congestion — offered load, utilisation, queueing delay and the largest fleet
the channel can sustain — for any codec, so the claim can be evaluated as an
experiment rather than an assertion.

The shared channel is modelled as a single server fed by Poisson frame
arrivals with deterministic per-frame service time (an M/D/1 queue), which is
the standard first-order model for a saturating access link.  When the
receiving side is a *pool* of ``c`` parallel servers (the process shards of
:class:`repro.serve.sharding.ShardedCompressionServer`), the matching model
is M/D/c: :func:`erlang_c` gives the M/M/c waiting probability and
:func:`md_c_wait_s` applies the Cosmetatos correction to approximate the
deterministic-service wait, collapsing exactly to the familiar
``ρ·S / (2·(1-ρ))`` at ``c = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CameraNode", "FleetReport", "FleetSimulation", "erlang_c", "md_c_wait_s",
           "poisson_arrival_times", "diurnal_arrival_times", "bursty_arrival_times"]


# --------------------------------------------------------------------------- #
# arrival traces
# --------------------------------------------------------------------------- #
def _check_trace_args(rate_rps, duration_s):
    if not rate_rps > 0:
        raise ValueError("rate_rps must be positive")
    if not duration_s > 0:
        raise ValueError("duration_s must be positive")


def poisson_arrival_times(rate_rps, duration_s, rng=None):
    """Arrival times (sorted seconds in ``[0, duration_s)``) of a Poisson process.

    The memoryless baseline every queueing prediction in this module assumes;
    :func:`diurnal_arrival_times` and :func:`bursty_arrival_times` modulate it
    into the shapes real multi-tenant fleets actually offer.
    """
    _check_trace_args(rate_rps, duration_s)
    rng = rng if rng is not None else np.random.default_rng(0)
    times = []
    t = 0.0
    # draw in blocks: one exponential at a time is 100x slower for long traces
    while t < duration_s:
        block = max(int(rate_rps * (duration_s - t) * 1.2) + 16, 16)
        gaps = rng.exponential(1.0 / rate_rps, size=block)
        arrivals = t + np.cumsum(gaps)
        times.append(arrivals)
        t = float(arrivals[-1])
    merged = np.concatenate(times)
    return merged[merged < duration_s]


def _thinned_arrivals(duration_s, rng, peak_rate_rps, rate_at):
    """Inhomogeneous Poisson arrivals by thinning a ``peak_rate_rps`` stream.

    ``rate_at(times)`` returns the instantaneous rate; candidates from the
    homogeneous peak-rate stream survive with probability ``rate/peak``
    (Lewis–Shedler), which is exact for any bounded rate function.
    """
    candidates = poisson_arrival_times(peak_rate_rps, duration_s, rng)
    if candidates.size == 0:
        return candidates
    keep = rng.random(candidates.size) * peak_rate_rps < rate_at(candidates)
    return candidates[keep]


def diurnal_arrival_times(rate_rps, duration_s, rng=None, period_s=None,
                          depth=0.8, phase=0.0):
    """Sinusoidally modulated arrivals (a day/night cycle, time-compressed).

    The instantaneous rate is ``rate_rps * (1 + depth * sin(2π t/period + φ))``
    — mean-preserving over whole periods — so peak traffic offers
    ``(1 + depth)`` times the average and the troughs let queues drain.
    ``period_s`` defaults to the trace duration (one full cycle).
    """
    _check_trace_args(rate_rps, duration_s)
    if not 0.0 <= depth <= 1.0:
        raise ValueError("depth must be in [0, 1]")
    rng = rng if rng is not None else np.random.default_rng(0)
    period = float(period_s) if period_s is not None else float(duration_s)
    if not period > 0:
        raise ValueError("period_s must be positive")
    peak = rate_rps * (1.0 + depth)

    def rate_at(times):
        return rate_rps * (1.0 + depth * np.sin(2.0 * np.pi * times / period + phase))

    return _thinned_arrivals(duration_s, rng, peak, rate_at)


def bursty_arrival_times(rate_rps, duration_s, rng=None, burst_factor=8.0,
                         duty=0.15, period_s=1.0):
    """On/off modulated arrivals: short bursts at ``burst_factor`` times the mean.

    Each ``period_s`` window spends fraction ``duty`` in a burst at
    ``burst_factor * rate_rps``; the off-rate is chosen so the long-run mean
    stays ``rate_rps`` (clamped at zero when the bursts alone exceed it —
    traffic then arrives *only* in bursts).  This is the camera-fleet shape
    that defeats smoothing assumptions: queues that look healthy at the mean
    rate saturate inside every burst.
    """
    _check_trace_args(rate_rps, duration_s)
    if not burst_factor >= 1.0:
        raise ValueError("burst_factor must be >= 1")
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must be in (0, 1)")
    if not period_s > 0:
        raise ValueError("period_s must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    on_rate = burst_factor * rate_rps
    off_rate = max(rate_rps * (1.0 - duty * burst_factor) / (1.0 - duty), 0.0)

    def rate_at(times):
        in_burst = np.mod(times, period_s) < duty * period_s
        return np.where(in_burst, on_rate, off_rate)

    return _thinned_arrivals(duration_s, rng, on_rate, rate_at)


def erlang_c(servers, offered_load):
    """Erlang-C probability that an arrival must wait in an M/M/c queue.

    ``offered_load`` is ``a = λ·S`` (in erlangs); the queue is stable only for
    ``a < c``, and 1.0 is returned at or beyond saturation (every arrival
    waits, delays diverge).
    """
    c = int(servers)
    if c < 1:
        raise ValueError("servers must be at least 1")
    a = float(offered_load)
    if a < 0:
        raise ValueError("offered_load must be non-negative")
    if a == 0:
        return 0.0
    if a >= c:
        return 1.0
    # iterative a**k/k! to stay finite for large c
    term = 1.0
    below = 1.0  # k = 0
    for k in range(1, c):
        term *= a / k
        below += term
    tail = term * (a / c) / (1.0 - a / c)
    return tail / (below + tail)


def md_c_wait_s(arrival_rate, service_s, servers=1):
    """Mean queueing wait (seconds) of an M/D/c queue, Cosmetatos approximation.

    ``Wq(M/D/c) ≈ ½ · Wq(M/M/c) · [1 + (1-ρ)(c-1)·(√(4+5c)-2) / (16·ρ·c)]``
    with ``ρ = λ·S/c``; the approximation is exact at ``c = 1`` (the classic
    ``ρ·S / (2(1-ρ))`` M/D/1 wait) and accurate to a few percent elsewhere,
    which is tighter than the measurement noise of any live replay.  Returns
    ``inf`` at or beyond saturation and ``0`` for zero load.
    """
    c = int(servers)
    if c < 1:
        raise ValueError("servers must be at least 1")
    lam = float(arrival_rate)
    s = float(service_s)
    if lam < 0 or s < 0:
        raise ValueError("arrival_rate and service_s must be non-negative")
    if lam == 0 or s == 0:
        return 0.0
    a = lam * s
    rho = a / c
    if rho >= 1.0:
        return float("inf")
    wq_mmc = erlang_c(c, a) * s / (c * (1.0 - rho))
    correction = 1.0
    if c > 1:
        correction += (1.0 - rho) * (c - 1) * (math.sqrt(4.0 + 5.0 * c) - 2.0) / (16.0 * rho * c)
    return 0.5 * wq_mmc * correction


@dataclass
class CameraNode:
    """One camera node in the fleet."""

    name: str
    images_per_hour: float
    image_shape: tuple = (512, 768, 3)
    bytes_per_image: float = 0.0

    @property
    def offered_bytes_per_s(self):
        """Average payload rate the node offers to the shared channel."""
        return self.bytes_per_image * self.images_per_hour / 3600.0


@dataclass
class FleetReport:
    """Aggregate congestion figures for one fleet / codec combination."""

    codec_name: str
    num_nodes: int
    offered_load_bytes_per_s: float
    channel_capacity_bytes_per_s: float
    utilisation: float
    mean_queueing_delay_ms: float
    mean_total_latency_ms: float
    frames_per_hour: float
    saturated: bool
    per_node: list = field(default_factory=list)

    def headline(self):
        """One-line summary used by the fleet example."""
        state = "SATURATED" if self.saturated else f"{self.utilisation * 100:.0f}% utilised"
        return (f"{self.codec_name}: {self.num_nodes} nodes, "
                f"{self.frames_per_hour:.0f} frames/h, {state}, "
                f"queueing {self.mean_queueing_delay_ms:.0f} ms")


class FleetSimulation:
    """A fleet of camera nodes sharing one wireless uplink.

    Parameters
    ----------
    channel:
        A :class:`repro.edge.WirelessChannel`; its goodput is the shared
        capacity and its fixed per-transfer overhead is charged per frame.
    nodes:
        The :class:`CameraNode` members of the fleet.  Each node's
        ``bytes_per_image`` must be set (use :meth:`calibrate_node_sizes`).
    """

    def __init__(self, channel, nodes=None):
        self.channel = channel
        self.nodes = list(nodes or [])

    # ------------------------------------------------------------------ #
    def calibrate_node_sizes(self, codec, sample_images):
        """Measure per-node compressed frame size by running ``codec`` on samples.

        ``sample_images`` maps node names to a representative image (or is a
        single image shared by all nodes).
        """
        if not self.nodes:
            raise ValueError("fleet has no nodes to calibrate")
        for node in self.nodes:
            if isinstance(sample_images, dict):
                image = sample_images[node.name]
            else:
                image = sample_images
            compressed = codec.compress(image)
            node.bytes_per_image = float(compressed.num_bytes)
            node.image_shape = tuple(np.asarray(image).shape)
        return self.nodes

    # ------------------------------------------------------------------ #
    def evaluate(self, codec_name="codec", servers=1):
        """Congestion report for the current per-node frame sizes.

        Uses an M/D/c queueing approximation (:func:`md_c_wait_s`): at the
        default ``servers=1`` this is the classic M/D/1 mean wait
        ``ρ·S / (2·(1-ρ))``; with ``servers=c`` the utilisation and wait match
        a pool of ``c`` parallel channels/shards.  A per-server utilisation at
        or above 1 is reported as saturated (delays grow without bound).
        """
        if not self.nodes:
            raise ValueError("fleet has no nodes")
        if servers < 1:
            raise ValueError("servers must be at least 1")
        for node in self.nodes:
            if node.bytes_per_image <= 0:
                raise ValueError(f"node {node.name!r} has no calibrated frame size")
        capacity = self.channel.throughput_bytes_per_s()
        offered = sum(node.offered_bytes_per_s for node in self.nodes)
        frames_per_hour = sum(node.images_per_hour for node in self.nodes)
        frames_per_s = frames_per_hour / 3600.0
        mean_bytes = offered / frames_per_s if frames_per_s > 0 else 0.0
        service_s = (mean_bytes / capacity) + self.channel.per_transfer_overhead_ms * 1e-3
        utilisation = frames_per_s * service_s / servers
        saturated = utilisation >= 1.0
        if saturated or frames_per_s == 0:
            queueing_ms = float("inf") if saturated else 0.0
        else:
            queueing_ms = 1e3 * md_c_wait_s(frames_per_s, service_s, servers)
        transmit_ms = self.channel.transmit_latency_ms(mean_bytes)
        per_node = [{
            "name": node.name,
            "bytes_per_image": node.bytes_per_image,
            "offered_bytes_per_s": node.offered_bytes_per_s,
        } for node in self.nodes]
        return FleetReport(
            codec_name=codec_name,
            num_nodes=len(self.nodes),
            offered_load_bytes_per_s=offered,
            channel_capacity_bytes_per_s=capacity,
            utilisation=float(utilisation),
            mean_queueing_delay_ms=float(queueing_ms),
            mean_total_latency_ms=float("inf") if saturated else float(queueing_ms + transmit_ms),
            frames_per_hour=frames_per_hour,
            saturated=saturated,
            per_node=per_node,
        )

    def max_sustainable_nodes(self, bytes_per_image, images_per_hour, utilisation_cap=0.7):
        """Largest fleet of identical nodes the channel sustains below a utilisation cap."""
        if bytes_per_image <= 0 or images_per_hour <= 0:
            raise ValueError("bytes_per_image and images_per_hour must be positive")
        capacity = self.channel.throughput_bytes_per_s()
        frames_per_s = images_per_hour / 3600.0
        service_s = bytes_per_image / capacity + self.channel.per_transfer_overhead_ms * 1e-3
        per_node_utilisation = frames_per_s * service_s
        if per_node_utilisation <= 0:
            return 0
        # true division plus an epsilon before flooring: float floor-division
        # undercounts exact multiples (0.7 // 0.1 == 6.0 in IEEE-754 because
        # 0.1 rounds slightly above one tenth), dropping a sustainable node
        return int(utilisation_cap / per_node_utilisation + 1e-9)

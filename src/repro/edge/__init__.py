"""``repro.edge`` — analytical edge/server testbed simulation.

Replaces the paper's physical Jetson TX2 + RTX 2080Ti + Wi-Fi testbed with
calibrated device, latency, power, memory and channel models
(:mod:`repro.edge.device` gives the substitution rationale and the
calibration targets).
"""

from .device import (
    DeviceProfile,
    JETSON_TX2,
    RASPBERRY_PI4,
    SERVER_2080TI,
    SERVER_A100,
)
from .energy import BatteryModel, EnergyBreakdown, EnergyModel
from .faults import (
    FaultInjector,
    RobustnessResult,
    check_decoder_robustness,
    drop_packets,
    flip_bits,
    truncate_payload,
)
from .fleet import CameraNode, FleetReport, FleetSimulation, erlang_c, md_c_wait_s
from .latency import LatencyModel
from .memory import MemoryModel
from .network import WIFI_TCP, WirelessChannel
from .power import PowerEstimate, PowerModel
from .testbed import EdgeServerTestbed, StageTiming, TestbedReport

__all__ = [
    "DeviceProfile",
    "JETSON_TX2",
    "RASPBERRY_PI4",
    "SERVER_2080TI",
    "SERVER_A100",
    "LatencyModel",
    "PowerModel",
    "PowerEstimate",
    "MemoryModel",
    "EnergyModel",
    "EnergyBreakdown",
    "BatteryModel",
    "FaultInjector",
    "RobustnessResult",
    "check_decoder_robustness",
    "flip_bits",
    "truncate_payload",
    "drop_packets",
    "CameraNode",
    "FleetReport",
    "FleetSimulation",
    "erlang_c",
    "md_c_wait_s",
    "WirelessChannel",
    "WIFI_TCP",
    "EdgeServerTestbed",
    "StageTiming",
    "TestbedReport",
]

"""Multi-tenant scenario harness: realistic traffic + chaos against a live pool.

The one load harness of the serving layer.  A single healthy-pool Poisson
tenant validates the M/D/c queueing model (``serve-bench`` without
``--scenario``); many tenants plus chaos give the load shape under which the
serving stack's robustness claims (watchdog auto-restart, dead-shard
re-routing, graceful decode failures) are
*continuously exercised* instead of asserted:

* **Tenants** (:class:`TenantSpec`) — each with its own arrival shape
  (Poisson / diurnal / bursty, from :mod:`repro.edge.fleet`), QoS class and
  deadline budget;
* **Deadline-aware admission** — before submitting, the runner predicts the
  response time a new arrival would see (M/D/c wait from
  :func:`repro.edge.fleet.md_c_wait_s` at the measured service time plus the
  service time itself) and, when it exceeds the tenant's budget, degrades the
  request to a cheaper codec quality, sheds it, or knowingly accepts the SLO
  risk (``TenantSpec.on_breach``);
* **Chaos** (:class:`ChaosSpec` / :class:`ChaosDriver`) — while the trace
  replays, shards are SIGKILLed and SIGSTOPped, and payloads are corrupted
  through :class:`repro.edge.faults.FaultInjector`;
* **Per-tenant verdicts** (:class:`TenantReport` / :class:`ScenarioReport`)
  — p50/p99 latency, SLO-miss rate and the queueing-model prediction side by
  side, plus the pool-level invariants every chaos run must keep: zero lost
  futures, zero duplicated resolutions, zero non-graceful decoder failures.

The report is machine-readable (:meth:`ScenarioReport.to_json`); the nightly
chaos workflow (``.github/workflows/chaos.yml``) runs the built-in scenario
matrix through ``repro serve-bench --scenario`` and fails on any invariant
violation.

Quick start::

    from repro.serve import ShardedCompressionServer
    from repro.serve.scenarios import builtin_scenarios, run_scenario

    scenario = builtin_scenarios()["kill-shards"]
    with ShardedCompressionServer(model=model, config=config, num_shards=2,
                                  **dict(scenario.server_hints)) as server:
        report = run_scenario(scenario, server, config=config, model=model)
    assert report.ok(), report.headline()
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import signal
import threading
import time
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from ..codecs.jpeg import JpegCodec
from ..core import EaszConfig, EaszEncoder, EaszReconstructor, proposed_mask
from ..edge.faults import FaultInjector
from ..edge.fleet import (bursty_arrival_times, diurnal_arrival_times,
                          md_c_wait_s, poisson_arrival_times)
from .queueing import (DeadlineExceededError, QueueClosedError,
                       ServerOverloadedError, deadline_after_ms)
from .resilience import (ClosedLoopClient, ResilientClient, RetryBudget,
                         RetryPolicy)
from .sharding import ShardFailedError
from .telemetry import summarise_latency_ms

__all__ = [
    "TenantSpec",
    "ChaosSpec",
    "ResilienceSpec",
    "ScenarioSpec",
    "TenantReport",
    "ScenarioReport",
    "ScenarioRunner",
    "ChaosDriver",
    "Workload",
    "build_workload",
    "run_scenario",
    "poisson_scenario",
    "builtin_scenarios",
    "scenario_image",
]

ARRIVAL_SHAPES = ("poisson", "diurnal", "bursty")
BREACH_POLICIES = ("degrade", "shed", "accept")

#: Exceptions meaning the *infrastructure* failed or refused the request —
#: checked before the graceful classes because :class:`ShardFailedError`
#: subclasses ``RuntimeError`` and must never be read as a decoder verdict.
INFRA_ERRORS = (ShardFailedError, ServerOverloadedError, QueueClosedError,
                TimeoutError)

#: A damaged payload must surface as one of these (the contract
#: :func:`repro.edge.faults.check_decoder_robustness` enforces per codec);
#: anything else from a decode is counted as a decoder crash.
GRACEFUL_ERRORS = (ValueError, KeyError, IndexError, EOFError)


# --------------------------------------------------------------------------- #
# specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic shape and service-level objective.

    ``on_breach`` decides what admission does when the predicted response
    time exceeds ``deadline_ms``: ``"degrade"`` resubmits the frame encoded
    at ``degraded_quality`` (a cheaper decode — the paper's quality knob used
    as a load-shedding dial), ``"shed"`` drops it client-side, ``"accept"``
    submits anyway and eats the SLO miss.

    ``propagate_deadline=True`` additionally stamps each submission with an
    absolute server-side deadline of ``deadline_ms`` — the server then sheds
    anything that expires in its queues (counted under ``deadline_shed``)
    instead of finishing work the client stopped caring about.

    ``closed_loop=True`` switches the tenant from open-loop trace replay to
    ``clients`` think-time clients (:class:`~repro.serve.resilience.
    ClosedLoopClient`): each keeps one request outstanding, waits
    ``think_time_ms`` between accepted requests and backs off exponentially
    on rejection — the client behaviour that lets a metastable overload
    actually drain.  ``rate_rps`` and ``arrival`` are ignored for
    closed-loop tenants (the loop, not a trace, sets the rate).
    """

    name: str
    rate_rps: float = 20.0
    arrival: str = "poisson"
    qos: str = "standard"
    deadline_ms: float = 250.0
    on_breach: str = "degrade"
    quality: int = 75
    degraded_quality: int = 35
    image_size: int = 96
    kind: str = "reconstruct"
    num_images: int = 3
    seed: int = 0
    propagate_deadline: bool = False
    closed_loop: bool = False
    clients: int = 2
    think_time_ms: float = 50.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.rate_rps > 0:
            raise ValueError("rate_rps must be positive")
        if self.arrival not in ARRIVAL_SHAPES:
            raise ValueError(f"arrival must be one of {ARRIVAL_SHAPES}")
        if not self.deadline_ms > 0:
            raise ValueError("deadline_ms must be positive")
        if self.on_breach not in BREACH_POLICIES:
            raise ValueError(f"on_breach must be one of {BREACH_POLICIES}")
        if self.kind not in ("reconstruct", "decode"):
            raise ValueError("kind must be 'reconstruct' or 'decode'")
        if self.num_images < 1:
            raise ValueError("num_images must be at least 1")
        if self.clients < 1:
            raise ValueError("clients must be at least 1")
        if self.think_time_ms < 0:
            raise ValueError("think_time_ms must be non-negative")

    def arrival_times(self, duration_s, rng):
        """This tenant's arrival trace (seconds from scenario start)."""
        if self.arrival == "diurnal":
            return diurnal_arrival_times(self.rate_rps, duration_s, rng,
                                         period_s=duration_s, depth=0.8)
        if self.arrival == "bursty":
            return bursty_arrival_times(self.rate_rps, duration_s, rng,
                                        burst_factor=6.0, duty=0.2, period_s=1.0)
        return poisson_arrival_times(self.rate_rps, duration_s, rng)


@dataclass(frozen=True)
class ChaosSpec:
    """Faults injected while a scenario replays.

    Times are seconds from scenario start.  ``corrupt_fraction`` damages that
    share of submitted payloads through a :class:`FaultInjector`
    (``corrupt_bit_flips`` flips and/or truncation to ``corrupt_truncate_to``)
    — those requests must fail *gracefully*, never crash a worker.
    """

    kill_shard_at_s: tuple = ()
    freeze_shard_at_s: tuple = ()
    freeze_duration_s: float = 1.0
    corrupt_fraction: float = 0.0
    corrupt_bit_flips: int = 64
    corrupt_truncate_to: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise ValueError("corrupt_fraction must be in [0, 1]")
        if not self.freeze_duration_s > 0:
            raise ValueError("freeze_duration_s must be positive")
        # build once to validate the injector parameters up front
        if self.corrupt_fraction > 0:
            self.injector()

    @property
    def any_faults(self):
        return bool(self.kill_shard_at_s or self.freeze_shard_at_s
                    or self.corrupt_fraction > 0)

    def injector(self):
        """A fresh payload injector for one scenario run (stateful per run)."""
        return FaultInjector(bit_flips=self.corrupt_bit_flips,
                             truncate_to=self.corrupt_truncate_to,
                             seed=self.seed)


@dataclass(frozen=True)
class ResilienceSpec:
    """Client-side retry configuration for a scenario's tenants.

    When present, every tenant submits through its own
    :class:`~repro.serve.resilience.ResilientClient` built from these
    parameters, so transient infra errors (shard crashes, admission
    rejections) retry under a token-bucket budget instead of surfacing to
    the accounting as failures.  ``budget_ratio=None`` disables the budget —
    every retryable error retries up to ``max_attempts``, which is the
    configuration the ``retry-storm`` scenario demonstrates melting down.
    """

    max_attempts: int = 3
    base_backoff_ms: float = 10.0
    max_backoff_ms: float = 200.0
    budget_ratio: float = 0.1
    budget_burst: float = 10.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff_ms < 0:
            raise ValueError("base_backoff_ms must be non-negative")
        if self.max_backoff_ms < self.base_backoff_ms:
            raise ValueError("max_backoff_ms must be >= base_backoff_ms")
        if self.budget_ratio is not None and self.budget_ratio < 0:
            raise ValueError("budget_ratio must be non-negative or None")
        if not self.budget_burst >= 1:
            raise ValueError("budget_burst must be at least 1")

    def policy(self):
        """A fresh :class:`RetryPolicy` (own budget bucket) for one client."""
        budget = (RetryBudget(ratio=self.budget_ratio, burst=self.budget_burst)
                  if self.budget_ratio is not None else None)
        return RetryPolicy(max_attempts=self.max_attempts,
                           base_backoff_s=self.base_backoff_ms * 1e-3,
                           max_backoff_s=self.max_backoff_ms * 1e-3,
                           budget=budget)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named multi-tenant trace plus the chaos applied while it replays.

    ``server_hints`` are ``(key, value)`` server keyword arguments the CLI
    applies when building the server for this scenario (e.g. a shallow
    ``queue_depth`` for the retry storm); the harness itself never reads
    them, so a caller with its own server can ignore them.
    """

    name: str
    tenants: tuple
    duration_s: float = 8.0
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    seed: int = 0
    description: str = ""
    server_hints: tuple = ()
    resilience: ResilienceSpec = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        if not self.duration_s > 0:
            raise ValueError("duration_s must be positive")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if self.resilience is not None and not isinstance(self.resilience,
                                                          ResilienceSpec):
            raise ValueError("resilience must be a ResilienceSpec or None")
        unknown = sorted({key for key, _ in self.server_hints} - {"queue_depth"})
        if unknown:
            raise ValueError(f"server_hints take only queue_depth, got {unknown}")

    # ------------------------------------------------------------------ #
    # JSON round-trip (``serve-bench --scenario-file``)
    # ------------------------------------------------------------------ #
    def to_dict(self):
        """Plain-dict form of the spec (nested specs become dicts)."""
        return asdict(self)

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON).

        Every validation error — an unknown field, a missing required field,
        a value a spec's ``__post_init__`` rejects — surfaces as a
        ``ValueError`` naming the offending field and the spec it belongs
        to, so ``serve-bench --scenario-file`` fails with a usable message
        instead of a traceback.
        """
        if not isinstance(data, dict):
            raise ValueError("a scenario spec must be a JSON object")
        data = dict(data)
        tenants = data.pop("tenants", None)
        if not isinstance(tenants, (list, tuple)) or not tenants:
            raise ValueError(
                "field 'tenants' must be a non-empty list of tenant objects")
        data["tenants"] = tuple(
            _spec_from_dict(TenantSpec, entry, f"tenants[{index}]")
            for index, entry in enumerate(tenants))
        chaos = data.pop("chaos", None)
        if chaos is not None:
            for key in ("kill_shard_at_s", "freeze_shard_at_s"):
                if key in chaos:
                    chaos = dict(chaos)
                    chaos[key] = tuple(chaos[key])
            data["chaos"] = _spec_from_dict(ChaosSpec, chaos, "chaos")
        resilience = data.pop("resilience", None)
        if resilience is not None:
            data["resilience"] = _spec_from_dict(ResilienceSpec, resilience,
                                                 "resilience")
        hints = data.pop("server_hints", None)
        if hints is not None:
            try:
                data["server_hints"] = tuple((str(key), value)
                                             for key, value in hints)
            except (TypeError, ValueError) as error:
                raise ValueError(
                    "field 'server_hints' must be a list of [key, value] "
                    f"pairs: {error}") from error
        return _spec_from_dict(cls, data, "scenario")

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"scenario file is not valid JSON: {error}") from error
        return cls.from_dict(data)


def _spec_from_dict(spec_cls, data, context):
    """Construct a spec dataclass, converting constructor failures into
    ``ValueError``\\ s that name the bad field and where it lives."""
    if not isinstance(data, dict):
        raise ValueError(f"{context} must be a JSON object")
    valid = {spec_field.name for spec_field in
             spec_cls.__dataclass_fields__.values()}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ValueError(
            f"{context}: unknown field(s) {unknown}; valid fields are "
            f"{sorted(valid)}")
    try:
        return spec_cls(**data)
    except TypeError as error:  # missing required field, wrong shape
        raise ValueError(f"{context}: {error}") from error
    except ValueError as error:
        raise ValueError(f"{context}: {error}") from error


# --------------------------------------------------------------------------- #
# workload construction
# --------------------------------------------------------------------------- #
def scenario_image(size, seed_value=0):
    """A smooth synthetic RGB frame (photographic-ish statistics for JPEG)."""
    rng = np.random.default_rng(seed_value)
    base = rng.random((size, size, 3))
    for axis in (0, 1):
        base = 0.25 * np.roll(base, 1, axis) + 0.5 * base + 0.25 * np.roll(base, -1, axis)
    return np.clip(base, 0.0, 1.0)


@dataclass
class Workload:
    """Pre-encoded packages for every tenant of one scenario."""

    scenario: ScenarioSpec
    config: EaszConfig
    model: object
    primary: dict          # tenant name -> list of EaszCompressed
    degraded: dict         # tenant name -> list of EaszCompressed

    @classmethod
    def of_packages(cls, scenario, packages):
        """Every tenant cycles through ``packages`` (already encoded; the
        degraded pool is the same list)."""
        pools = {tenant.name: list(packages) for tenant in scenario.tenants}
        return cls(scenario=scenario, config=None, model=None, primary=pools,
                   degraded=pools)

    def package_for(self, tenant, index, degraded=False):
        pool = self.degraded if degraded else self.primary
        packages = pool[tenant.name]
        return packages[index % len(packages)]


def build_workload(scenario, config=None, model=None):
    """Encode each tenant's frames at its primary and degraded qualities.

    Encoding happens once, up front: replay then measures the *serving* path
    only, and the degraded variants are ready the instant admission needs to
    downshift (a real edge fleet would re-encode at the camera; here the
    pre-encoded pool stands in for that).
    """
    config = config or EaszConfig()
    model = model if model is not None else EaszReconstructor(config)
    mask = proposed_mask(config.grid_size, config.erase_per_row,
                         config.intra_row_min_distance, seed=scenario.seed)
    primary, degraded = {}, {}
    for tenant in scenario.tenants:
        images = [scenario_image(tenant.image_size,
                                 seed_value=1000 * tenant.seed + index)
                  for index in range(tenant.num_images)]
        qualities = {tenant.quality, tenant.degraded_quality}
        encoded = {}
        for quality in qualities:
            encoder = EaszEncoder(config, base_codec=JpegCodec(quality=quality),
                                  seed=tenant.seed)
            encoded[quality] = encoder.encode_batch(images, mask=mask)
        primary[tenant.name] = encoded[tenant.quality]
        degraded[tenant.name] = encoded[tenant.degraded_quality]
    return Workload(scenario=scenario, config=config, model=model,
                    primary=primary, degraded=degraded)


def corrupt_package(package, injector):
    """A shallow copy of ``package`` whose codec payload went through ``injector``.

    Only the copies are touched — the workload's pre-encoded packages are
    shared across the whole replay and must stay pristine.
    """
    damaged_codec = copy.copy(package.codec_payload)
    damaged_codec.payload = injector.apply(package.codec_payload.payload)
    damaged = copy.copy(package)
    damaged.codec_payload = damaged_codec
    return damaged


# --------------------------------------------------------------------------- #
# chaos driver
# --------------------------------------------------------------------------- #
class ChaosDriver:
    """Replays a :class:`ChaosSpec`'s process faults on a schedule.

    Runs as a daemon thread beside the trace replay.  Shard faults need the
    sharded server's introspection surface (``live_shard_indices`` /
    ``shard_process``); against a threaded server those events are skipped
    and logged, so payload-corruption-only scenarios still run anywhere.
    """

    def __init__(self, server, chaos, rng):
        self.server = server
        self.chaos = chaos
        self.rng = rng
        self.events = []  # appended only by the driver thread, read after join
        self._thread = None
        self._stop = threading.Event()
        schedule = []
        for at_s in chaos.kill_shard_at_s:
            schedule.append((float(at_s), "kill"))
        for at_s in chaos.freeze_shard_at_s:
            schedule.append((float(at_s), "freeze"))
        self._schedule = sorted(schedule)

    # ------------------------------------------------------------------ #
    def start(self, started_at):
        if not self._schedule:
            return self
        self._thread = threading.Thread(
            target=self._run, args=(started_at,), name="chaos-driver", daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _log(self, at_s, kind, detail):
        self.events.append({"at_s": round(float(at_s), 3), "kind": kind,
                            "detail": detail})

    # ------------------------------------------------------------------ #
    def _pick_victim(self):
        indices = getattr(self.server, "live_shard_indices", None)
        if indices is None:
            return None
        alive = indices()
        if not alive:
            return None
        return int(self.rng.choice(alive))

    def _run(self, started_at):
        for at_s, kind in self._schedule:
            while not self._stop.is_set():
                remaining = at_s - (time.monotonic() - started_at)
                if remaining <= 0:
                    break
                time.sleep(min(remaining, 0.05))
            if self._stop.is_set():
                return
            elapsed = time.monotonic() - started_at
            if kind == "kill":
                self._kill(elapsed)
            elif kind == "freeze":
                self._freeze(elapsed)

    def _kill(self, elapsed):
        victim = self._pick_victim()
        if victim is None:
            self._log(elapsed, "kill", "skipped: no shard introspection / none alive")
            return
        process = self.server.shard_process(victim)
        if process is None or not process.is_alive():
            self._log(elapsed, "kill", f"skipped: shard {victim} already down")
            return
        process.kill()
        self._log(elapsed, "kill", f"SIGKILL shard {victim} (pid {process.pid})")

    def _freeze(self, elapsed):
        victim = self._pick_victim()
        if victim is None:
            self._log(elapsed, "freeze", "skipped: no shard introspection / none alive")
            return
        process = self.server.shard_process(victim)
        if process is None or process.pid is None or not process.is_alive():
            self._log(elapsed, "freeze", f"skipped: shard {victim} already down")
            return
        pid = process.pid
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            self._log(elapsed, "freeze", f"skipped: shard {victim} died first")
            return
        self._log(elapsed, "freeze",
                  f"SIGSTOP shard {victim} (pid {pid}) for "
                  f"{self.chaos.freeze_duration_s:.1f}s")
        self._stop.wait(self.chaos.freeze_duration_s)
        try:
            os.kill(pid, signal.SIGCONT)
            detail = f"SIGCONT shard {victim} (pid {pid})"
        except ProcessLookupError:
            # the watchdog's hang detector killed it mid-freeze — exactly the
            # recovery path this fault exists to exercise
            detail = f"shard {victim} (pid {pid}) was reaped while frozen"
        self._log(elapsed + self.chaos.freeze_duration_s, "thaw", detail)


# --------------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------------- #
@dataclass
class TenantReport:
    """One tenant's verdict: observed latency + SLO vs the model's prediction."""

    name: str
    qos: str
    arrival: str
    deadline_ms: float
    offered: int
    submitted: int
    completed: int
    degraded: int
    shed: int
    admission_rejected: int
    infra_failures: int
    graceful_rejections: int
    decoder_crashes: int
    deadline_misses: int
    slo_miss_rate: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    predicted_wait_ms_mean: float
    deadline_shed: int = 0
    retries: int = 0
    budget_denied: int = 0


@dataclass
class ScenarioReport:
    """Machine-readable outcome of one scenario replay (the CI artifact)."""

    scenario: str
    description: str
    duration_s: float
    servers: int
    offered: int
    submitted: int
    completed: int
    futures_lost: int
    futures_duplicated: int
    decoder_crashes: int
    utilisation: float
    service_time_per_image_ms: float
    saturated: bool
    tenants: list = field(default_factory=list)
    chaos_events: list = field(default_factory=list)
    watchdog_restarts: int = 0
    retries: int = 0
    deadline_shed: int = 0

    def ok(self):
        """The chaos invariants: every future resolved exactly once, and a
        damaged payload never took a worker down."""
        return (self.futures_lost == 0 and self.futures_duplicated == 0
                and self.decoder_crashes == 0)

    def headline(self):
        verdict = "OK" if self.ok() else (
            f"VIOLATION lost={self.futures_lost} dup={self.futures_duplicated} "
            f"crashes={self.decoder_crashes}")
        worst = max(self.tenants, key=lambda t: t.slo_miss_rate, default=None)
        tail = (f", worst tenant {worst.name} misses "
                f"{worst.slo_miss_rate * 100:.1f}% (p99 {worst.latency_p99_ms:.0f} ms "
                f"vs {worst.deadline_ms:.0f} ms budget)" if worst else "")
        return (f"{self.scenario}: {verdict} — {self.completed}/{self.offered} served "
                f"on {self.servers} server(s), {len(self.chaos_events)} chaos "
                f"event(s){tail}")

    def to_dict(self):
        return asdict(self)

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
class _TenantState:
    """Mutable per-tenant accounting (all fields guarded by the runner's lock)."""

    __slots__ = ("offered", "submitted", "completed", "degraded", "shed",
                 "admission_rejected", "infra_failures", "graceful_rejections",
                 "decoder_crashes", "deadline_misses", "deadline_shed",
                 "latencies_s", "predicted_waits_ms")

    def __init__(self):
        self.offered = 0
        self.submitted = 0
        self.completed = 0
        self.degraded = 0
        self.shed = 0
        self.admission_rejected = 0
        self.infra_failures = 0
        self.graceful_rejections = 0
        self.decoder_crashes = 0
        self.deadline_misses = 0
        self.deadline_shed = 0
        self.latencies_s = []
        self.predicted_waits_ms = []


class ScenarioRunner:
    """Replays one scenario against a live server and renders the report.

    The runner is the *client side* of the story: it paces submissions along
    the merged tenant timeline, decides accept/degrade/shed per request from
    the live M/D/c estimate, damages the configured fraction of payloads, and
    accounts every future's resolution exactly once.  Server-side faults run
    concurrently in the :class:`ChaosDriver`.
    """

    #: How often the stats sampler refreshes the service-time estimate that
    #: admission predicts from; a few-hundred-ms-stale estimate is fine there
    #: (service times drift slowly).  The saturation verdict does not use it:
    #: it reads the whole run (:func:`_service_ms_between`).
    SAMPLE_INTERVAL_S = 0.3

    #: Sliding window for the arrival-rate estimate fed to the M/D/c model.
    RATE_WINDOW_S = 2.0

    def __init__(self, server, scenario, workload, drain_timeout_s=60.0):
        if workload.scenario is not scenario and workload.scenario.name != scenario.name:
            raise ValueError("workload was built for a different scenario")
        self.server = server
        self.scenario = scenario
        self.workload = workload
        self.drain_timeout_s = float(drain_timeout_s)
        self.servers = max(int(getattr(server, "parallelism", 1) or 1), 1)
        self._lock = threading.Lock()
        self._tenants = {t.name: _TenantState() for t in scenario.tenants}  # guarded-by: _lock
        self._resolutions = {}  # guarded-by: _lock — submission id -> callback count
        self._recent_arrivals = deque()  # guarded-by: _lock — monotonic stamps
        self._service_time_ms = float("nan")  # guarded-by: _lock
        self._cache_hits = 0  # guarded-by: _lock — responses from the result cache
        self._sampler = None
        self._sampler_stop = threading.Event()
        self._last_totals = None  # sampler-thread private
        self._run_totals = None  # (service s, completed) when the clock started
        self._submission_ids = itertools.count()  # thread-safe allocator (CPython)
        self._driver_events = []  # final after ChaosDriver.stop()
        # one ResilientClient per tenant: retries stay attributed to the
        # tenant that caused them, and each tenant gets its own retry budget
        # (a batch tenant's retries can't starve a premium tenant's)
        self._clients = {}
        spec = scenario.resilience
        if spec is not None:
            for tenant in scenario.tenants:
                self._clients[tenant.name] = ResilientClient(
                    server, retry_policy=spec.policy(),
                    seed=zlib.crc32(tenant.name.encode()))

    # ------------------------------------------------------------------ #
    # admission estimate
    # ------------------------------------------------------------------ #
    def _snapshot(self):
        try:
            return self.server.stats.snapshot()
        except Exception:  # noqa: BLE001 - a dying pool must not kill the run
            return {}

    def _sample_once(self):
        snapshot = self._snapshot()
        if not snapshot:
            return
        totals = _service_totals(snapshot)
        if self._last_totals is not None:
            delta_service = totals[0] - self._last_totals[0]
            delta_completed = totals[1] - self._last_totals[1]
            if delta_completed > 0 and delta_service >= 0:
                with self._lock:
                    self._service_time_ms = 1e3 * delta_service / delta_completed
        elif totals[1] > 0:
            with self._lock:
                self._service_time_ms = 1e3 * totals[0] / totals[1]
        self._last_totals = totals

    def _sampler_loop(self):
        while not self._sampler_stop.wait(self.SAMPLE_INTERVAL_S):
            self._sample_once()

    def _predict_response_ms_locked(self, now, package=None, kind="reconstruct"):
        """Predicted response time for an arrival admitted right now.

        Against a sharded server this asks the router where *this* package
        would land (:meth:`~repro.serve.sharding.ShardedCompressionServer.
        predicted_shard_depth`) and predicts from that shard's own in-flight
        depth — with consistent routing one hot key can stack a single
        shard's window while the pool average looks idle, and a pool-level
        estimate would admit straight into the hot shard's queue.  Servers
        without per-shard introspection (the threaded server) fall back to
        the pool-aggregate M/D/c wait at the recent admitted-arrival rate.
        NaN until the first service-time sample lands (admission then
        accepts — predicting from nothing would shed traffic a cold pool
        could actually serve).
        """
        service_ms = self._service_time_ms
        if not np.isfinite(service_ms) or service_ms <= 0:
            return float("nan")
        predictor = getattr(self.server, "predicted_shard_depth", None)
        if predictor is not None and package is not None:
            # lock order: runner._lock (held here) -> server._lock inside the
            # predictor; the server never calls back into the runner, so the
            # order is acyclic
            shard_index, depth = predictor(package, kind)
            if shard_index is not None:
                # the routed shard's one worker drains its window one
                # service time per request
                return (depth + 1) * service_ms
        cutoff = now - self.RATE_WINDOW_S
        while self._recent_arrivals and self._recent_arrivals[0] < cutoff:
            self._recent_arrivals.popleft()
        rate_rps = len(self._recent_arrivals) / self.RATE_WINDOW_S
        if rate_rps <= 0:
            return service_ms
        wait_s = md_c_wait_s(rate_rps, service_ms / 1e3, self.servers)
        return wait_s * 1e3 + service_ms

    # ------------------------------------------------------------------ #
    # submission plumbing
    # ------------------------------------------------------------------ #
    def _classify_locked(self, state, error):
        # deadline sheds first: DeadlineExceededError is a RuntimeError and
        # must never be mistaken for a decoder crash — a shed is the server
        # *correctly* dropping work the client stopped waiting for
        if isinstance(error, DeadlineExceededError):
            state.deadline_shed += 1
        elif isinstance(error, INFRA_ERRORS):
            state.infra_failures += 1
        elif isinstance(error, GRACEFUL_ERRORS):
            state.graceful_rejections += 1
        else:
            state.decoder_crashes += 1

    def _completion_callback(self, submission_id, tenant_name, deadline_ms):
        def _on_done(pending):
            try:
                response = pending.result(timeout=0)
            except Exception as error:  # noqa: BLE001 - classified, reported
                with self._lock:
                    self._resolutions[submission_id] += 1
                    self._classify_locked(self._tenants[tenant_name], error)
                return
            with self._lock:
                self._resolutions[submission_id] += 1
                if response.cached:
                    self._cache_hits += 1
                state = self._tenants[tenant_name]
                state.completed += 1
                state.latencies_s.append(response.latency_s)
                if response.latency_s * 1e3 > deadline_ms:
                    state.deadline_misses += 1
        return _on_done

    def _submit_one(self, tenant, package, submission_id):
        """Submit under exactly-once accounting; returns the future or None.

        Tenants of a resilient scenario submit through their own
        :class:`ResilientClient` (which never raises synchronously — even an
        immediate admission rejection settles through the future, after the
        retry policy has had its say); everyone else goes straight to
        ``server.submit``.
        """
        deadline_s = (deadline_after_ms(tenant.deadline_ms)
                      if tenant.propagate_deadline else None)
        submitter = self._clients.get(tenant.name) or self.server
        with self._lock:
            self._resolutions[submission_id] = 0
            self._tenants[tenant.name].submitted += 1
            self._recent_arrivals.append(time.monotonic())
        try:
            pending = submitter.submit(package, kind=tenant.kind,
                                       deadline_s=deadline_s)
        except (ServerOverloadedError, QueueClosedError):
            with self._lock:
                del self._resolutions[submission_id]
                state = self._tenants[tenant.name]
                state.submitted -= 1
                state.admission_rejected += 1
            return None
        except Exception:  # noqa: BLE001 - a mid-chaos submit error is an infra outcome, not a run abort
            with self._lock:
                del self._resolutions[submission_id]
                self._tenants[tenant.name].infra_failures += 1
            return None
        pending.add_done_callback(
            self._completion_callback(submission_id, tenant.name, tenant.deadline_ms))
        return pending

    # ------------------------------------------------------------------ #
    def _build_timeline(self, rng):
        """Merged (arrival_s, tenant, frame_index) schedule across open-loop
        tenants (closed-loop tenants pace themselves, so they have no trace)."""
        timeline = []
        for tenant in self.scenario.tenants:
            if tenant.closed_loop:
                continue
            # crc32, not hash(): str hashing is salted per process and would
            # make the trace non-reproducible across runs
            tenant_rng = np.random.default_rng(
                (self.scenario.seed, tenant.seed, zlib.crc32(tenant.name.encode())))
            times = tenant.arrival_times(self.scenario.duration_s, tenant_rng)
            for frame_index, at_s in enumerate(times):
                timeline.append((float(at_s), tenant, frame_index))
        timeline.sort(key=lambda item: item[0])
        return timeline

    def _closed_loop_clients(self, stop_event, pendings):
        """Build the think-time clients for every closed-loop tenant."""
        clients = []
        for tenant in self.scenario.tenants:
            if not tenant.closed_loop:
                continue
            for position in range(tenant.clients):
                clients.append(self._spawn_loop_client(tenant, position,
                                                       stop_event, pendings))
        return clients

    def _spawn_loop_client(self, tenant, position, stop_event, pendings):
        def do_request(client):
            with self._lock:
                self._tenants[tenant.name].offered += 1
            package = self.workload.package_for(tenant, client.requests)
            pending = self._submit_one(tenant, package,
                                       next(self._submission_ids))
            if pending is None:
                return False  # admission rejected synchronously: back off
            # CPython list.append is atomic; the drain loop reads only after
            # every client thread has been joined
            pendings.append(pending)
            try:
                pending.result(timeout=self.drain_timeout_s)
            except INFRA_ERRORS:
                return False  # overload / crash / timeout: back off
            except Exception:  # noqa: BLE001 - graceful verdict or deadline shed: the server is healthy, keep pace
                return True
            return True

        return ClosedLoopClient(do_request,
                                think_time_s=tenant.think_time_ms * 1e-3,
                                stop_event=stop_event,
                                name=f"closed-loop-{tenant.name}-{position}")

    def _warmup(self):
        """One request per tenant outside the clock: caches + a service sample."""
        pendings = []
        for tenant in self.scenario.tenants:
            package = self.workload.package_for(tenant, 0)
            pendings.append((self.server.submit(package, kind=tenant.kind), tenant))
        for pending, tenant in pendings:
            pending.result(timeout=self.drain_timeout_s)
        self._sample_once()

    def run(self, warmup=True):
        """Replay the scenario; blocks until drained, returns the report."""
        rng = np.random.default_rng(self.scenario.seed)
        corrupt_rng = np.random.default_rng(self.scenario.seed + 1)
        injector = self.scenario.chaos.injector()
        timeline = self._build_timeline(rng)
        with self._lock:
            for _, tenant, _ in timeline:
                self._tenants[tenant.name].offered += 1
        if warmup:
            self._warmup()
        self._run_totals = _service_totals(self._snapshot())
        self._sampler_stop.clear()
        self._sampler = threading.Thread(target=self._sampler_loop,
                                         name="scenario-sampler", daemon=True)
        self._sampler.start()
        driver = ChaosDriver(self.server, self.scenario.chaos, rng)
        started = time.monotonic()
        driver.start(started)
        pendings = []
        loop_stop = threading.Event()
        loop_clients = self._closed_loop_clients(loop_stop, pendings)
        for client in loop_clients:
            client.start()
        try:
            for at_s, tenant, frame_index in timeline:
                delay = at_s - (time.monotonic() - started)
                if delay > 0:
                    time.sleep(delay)
                now = time.monotonic()
                package = self.workload.package_for(tenant, frame_index)
                with self._lock:
                    predicted_ms = self._predict_response_ms_locked(
                        now, package=package, kind=tenant.kind)
                    state = self._tenants[tenant.name]
                    state.predicted_waits_ms.append(predicted_ms)
                degraded = False
                breach = np.isfinite(predicted_ms) and predicted_ms > tenant.deadline_ms
                if breach and tenant.on_breach == "shed":
                    with self._lock:
                        state.shed += 1
                    continue
                if breach and tenant.on_breach == "degrade":
                    degraded = True
                    package = self.workload.package_for(tenant, frame_index,
                                                        degraded=True)
                if (self.scenario.chaos.corrupt_fraction > 0
                        and corrupt_rng.random() < self.scenario.chaos.corrupt_fraction):
                    package = corrupt_package(package, injector)
                pending = self._submit_one(tenant, package,
                                           next(self._submission_ids))
                if pending is not None:
                    pendings.append(pending)
                    if degraded:
                        with self._lock:
                            state.degraded += 1
            if loop_clients:
                # closed-loop tenants keep going for the full scenario window
                # even after the open-loop trace (possibly empty) runs out
                remaining = self.scenario.duration_s - (time.monotonic() - started)
                if remaining > 0:
                    time.sleep(remaining)
        finally:
            loop_stop.set()
            for client in loop_clients:
                client.join(timeout=self.drain_timeout_s)
            driver.stop()
            self._driver_events = list(driver.events)
            self._sampler_stop.set()
            if self._sampler is not None:
                self._sampler.join(timeout=5.0)
        elapsed = time.monotonic() - started
        unresolved = 0
        deadline = time.monotonic() + self.drain_timeout_s
        for pending in pendings:
            remaining = max(deadline - time.monotonic(), 0.0)
            try:
                pending.result(timeout=remaining)
            except Exception:  # noqa: BLE001 - outcome already recorded by the callback
                pass
            if not pending.done():
                unresolved += 1
        # a future the drain saw unresolved may still resolve microseconds
        # later; give callbacks one scheduling beat before reading counters
        if unresolved:
            time.sleep(0.2)
        for client in self._clients.values():
            client.close()  # cancel any backoff timers still armed
        return self._render_report(elapsed)

    # ------------------------------------------------------------------ #
    def _render_report(self, elapsed):
        snapshot = self._snapshot()
        # the verdict reads the service time per image over the whole run:
        # the sampler's last 0.3-s window can spike to 10x the mean after a
        # kill/freeze or under CPU contention
        service_ms = _service_ms_between(self._run_totals, _service_totals(snapshot))
        client_stats = {name: client.stats()
                        for name, client in self._clients.items()}
        with self._lock:
            lost = sum(1 for count in self._resolutions.values() if count == 0)
            duplicated = sum(1 for count in self._resolutions.values() if count > 1)
            cache_hits = self._cache_hits
            tenants = []
            for tenant in self.scenario.tenants:
                state = self._tenants[tenant.name]
                resilience = client_stats.get(tenant.name, {})
                latency = summarise_latency_ms(state.latencies_s)
                finite_predictions = [p for p in state.predicted_waits_ms
                                      if np.isfinite(p)]
                missed = (state.deadline_misses + state.shed
                          + state.admission_rejected + state.infra_failures
                          + state.graceful_rejections + state.decoder_crashes
                          + state.deadline_shed)
                tenants.append(TenantReport(
                    name=tenant.name,
                    qos=tenant.qos,
                    arrival=tenant.arrival,
                    deadline_ms=tenant.deadline_ms,
                    offered=state.offered,
                    submitted=state.submitted,
                    completed=state.completed,
                    degraded=state.degraded,
                    shed=state.shed,
                    admission_rejected=state.admission_rejected,
                    infra_failures=state.infra_failures,
                    graceful_rejections=state.graceful_rejections,
                    decoder_crashes=state.decoder_crashes,
                    deadline_misses=state.deadline_misses,
                    slo_miss_rate=missed / max(state.offered, 1),
                    latency_p50_ms=latency["p50_ms"],
                    latency_p99_ms=latency["p99_ms"],
                    latency_mean_ms=latency["mean_ms"],
                    predicted_wait_ms_mean=(float(np.mean(finite_predictions))
                                            if finite_predictions else float("nan")),
                    deadline_shed=state.deadline_shed,
                    retries=int(resilience.get("retries", 0)),
                    budget_denied=int(resilience.get("budget_denied", 0)),
                ))
        offered = sum(report.offered for report in tenants)
        submitted = sum(report.submitted for report in tenants)
        completed = sum(report.completed for report in tenants)
        crashes = sum(report.decoder_crashes for report in tenants)
        utilisation = float("nan")
        if np.isfinite(service_ms) and elapsed > 0:
            # submission-based by design: work the pool had to *refuse* still
            # counts toward pressure, so a retry storm that floods admission
            # reads as >1 (saturated) even though completions stayed flat.
            # Result-cache hits never reach a worker, so they are no demand.
            utilisation = (((submitted - cache_hits) / elapsed)
                           * (service_ms / 1e3) / self.servers)
        # utilisation >= 1 only condemns *open-loop* traffic: an open-loop
        # tenant keeps offering at its configured rate regardless of service,
        # so >= 1 means the backlog (and every latency number) is unbounded.
        # Closed-loop tenants self-limit — each client waits for its response
        # before thinking again — so a fully-busy pool is their equilibrium
        # and the per-request latencies stay meaningful.
        open_loop = any(not tenant.closed_loop for tenant in self.scenario.tenants)
        saturated = (open_loop
                     and bool(np.isfinite(utilisation) and utilisation >= 1.0)) or (
            submitted == 0 and offered > 0)
        watchdog = snapshot.get("watchdog", {}) if isinstance(snapshot, dict) else {}
        restarts = watchdog.get("restarts_total", 0) if isinstance(watchdog, dict) else 0
        return ScenarioReport(
            scenario=self.scenario.name,
            description=self.scenario.description,
            duration_s=elapsed,
            servers=self.servers,
            offered=offered,
            submitted=submitted,
            completed=completed,
            futures_lost=lost,
            futures_duplicated=duplicated,
            decoder_crashes=crashes,
            utilisation=utilisation,
            service_time_per_image_ms=service_ms,
            saturated=saturated,
            tenants=tenants,
            chaos_events=list(self._driver_events),
            watchdog_restarts=int(restarts),
            retries=sum(report.retries for report in tenants),
            deadline_shed=sum(report.deadline_shed for report in tenants),
        )


def _service_totals(snapshot):
    """(busy seconds, completed requests) of a stats snapshot.

    Busy time is the wall time a backend had at least one request in service.
    """
    return snapshot.get("busy_seconds_total", 0.0), snapshot.get("completed", 0)


def _service_ms_between(first, last):
    """Mean service time per image (ms) from ``first`` to ``last`` totals.

    Falls back to the lifetime mean of ``last`` when nothing completed in
    between (a run fully absorbed by the result cache), and to NaN when
    nothing ever completed.
    """
    if first is not None and last[1] > first[1]:
        return 1e3 * (last[0] - first[0]) / (last[1] - first[1])
    return 1e3 * last[0] / last[1] if last[1] > 0 else float("nan")


def poisson_scenario(rate_rps, requests, num_images=4, seed=0):
    """One healthy Poisson tenant that accepts every request.

    ``requests`` is the expected arrival count: the trace lasts
    ``requests / rate_rps`` seconds.  This is the capacity check that
    ``serve-bench`` runs without ``--scenario``.
    """
    if requests < 1:
        raise ValueError("requests must be at least 1")
    if not rate_rps > 0:
        raise ValueError("rate_rps must be positive")
    tenant = TenantSpec(name="poisson", rate_rps=rate_rps, on_breach="accept",
                        num_images=num_images, seed=seed)
    return ScenarioSpec(
        name="poisson", tenants=(tenant,), duration_s=requests / rate_rps,
        seed=seed, description=f"one Poisson tenant, ~{requests} requests at "
                               f"{rate_rps:g} rps over {num_images} frame(s)")


def run_scenario(scenario, server, config=None, model=None, workload=None,
                 warmup=True, drain_timeout_s=60.0):
    """Build the workload (unless given) and replay ``scenario`` on ``server``."""
    if workload is None:
        workload = build_workload(scenario, config=config, model=model)
    runner = ScenarioRunner(server, scenario, workload,
                            drain_timeout_s=drain_timeout_s)
    return runner.run(warmup=warmup)


# --------------------------------------------------------------------------- #
# the built-in matrix
# --------------------------------------------------------------------------- #
def builtin_scenarios():
    """The named scenario matrix the chaos CI replays nightly.

    Durations are single-digit seconds: long enough for the arrival shapes
    and the watchdog recovery loop to matter, short enough that the whole
    matrix stays inside a CI job.  ``server_hints`` set each scenario's
    admission window (a deep one under process chaos, a shallow one for the
    retry storm).
    """
    premium = TenantSpec(name="premium-cam", rate_rps=12.0, qos="premium",
                         deadline_ms=150.0, on_breach="degrade", quality=75,
                         degraded_quality=35, image_size=96, seed=1)
    standard = TenantSpec(name="standard-cam", rate_rps=18.0, qos="standard",
                          deadline_ms=400.0, on_breach="accept", quality=60,
                          degraded_quality=30, image_size=96, seed=2)
    batch = TenantSpec(name="batch-archive", rate_rps=8.0, qos="batch",
                       deadline_ms=1500.0, on_breach="shed", quality=85,
                       degraded_quality=50, image_size=128, kind="decode", seed=3)
    chaos_hints = (("queue_depth", 128),)
    scenarios = [
        ScenarioSpec(
            name="steady-mix",
            description="Three QoS classes under plain Poisson load; the "
                        "no-chaos baseline every other scenario is read against.",
            tenants=(premium, standard, batch),
            duration_s=6.0,
        ),
        ScenarioSpec(
            name="diurnal-sweep",
            description="Day/night-shaped load: peaks offer 1.8x the mean, "
                        "troughs let the pool drain; admission should degrade "
                        "only near the peaks.",
            tenants=(
                TenantSpec(name="east-fleet", rate_rps=20.0, arrival="diurnal",
                           deadline_ms=250.0, on_breach="degrade", seed=11),
                TenantSpec(name="west-fleet", rate_rps=20.0, arrival="diurnal",
                           deadline_ms=250.0, on_breach="degrade", seed=12),
            ),
            duration_s=8.0,
        ),
        ScenarioSpec(
            name="burst-storm",
            description="A bursty tenant storms a steady one: 6x bursts at "
                        "20% duty must not blow the steady tenant's budget.",
            tenants=(
                TenantSpec(name="bursty-fleet", rate_rps=24.0, arrival="bursty",
                           deadline_ms=200.0, on_breach="degrade", seed=21),
                standard,
            ),
            duration_s=8.0,
        ),
        ScenarioSpec(
            name="kill-shards",
            description="SIGKILL a live shard twice mid-trace; the watchdog "
                        "re-routes its in-flight work and restarts it — "
                        "no future may be lost or doubled.",
            tenants=(premium, standard),
            duration_s=8.0,
            chaos=ChaosSpec(kill_shard_at_s=(2.0, 5.0), seed=31),
            server_hints=chaos_hints,
        ),
        ScenarioSpec(
            name="freeze-shard",
            description="SIGSTOP a shard for 1.5s with a 1s hang timeout: the "
                        "watchdog must detect the silent heartbeat, kill and "
                        "replace the frozen process.",
            tenants=(premium, standard),
            duration_s=8.0,
            chaos=ChaosSpec(freeze_shard_at_s=(2.5,), freeze_duration_s=1.5,
                            seed=41),
            server_hints=chaos_hints,
        ),
        ScenarioSpec(
            name="corrupt-payloads",
            description="15% of payloads arrive bit-flipped or truncated; "
                        "every one must fail gracefully (ValueError-class), "
                        "never crash a worker.",
            tenants=(premium, standard),
            duration_s=6.0,
            chaos=ChaosSpec(corrupt_fraction=0.15, corrupt_bit_flips=96,
                            corrupt_truncate_to=0.7, seed=51),
        ),
        ScenarioSpec(
            name="chaos-mix",
            description="Everything at once: bursty+diurnal tenants, a kill, "
                        "a freeze and corrupted payloads — the nightly smoke "
                        "of the full failure matrix.",
            tenants=(
                TenantSpec(name="bursty-fleet", rate_rps=18.0, arrival="bursty",
                           deadline_ms=250.0, on_breach="degrade", seed=71),
                TenantSpec(name="diurnal-fleet", rate_rps=14.0, arrival="diurnal",
                           deadline_ms=400.0, on_breach="accept", seed=72),
            ),
            duration_s=10.0,
            chaos=ChaosSpec(kill_shard_at_s=(3.0,), freeze_shard_at_s=(6.0,),
                            freeze_duration_s=1.5, corrupt_fraction=0.1,
                            corrupt_bit_flips=64, seed=73),
            server_hints=chaos_hints,
        ),
        ScenarioSpec(
            name="retry-storm",
            description="Closed-loop clients hammer a deliberately shallow "
                        "admission queue with retries enabled: the retry "
                        "budget must cap the amplification so rejected work "
                        "cannot snowball into a metastable storm.",
            tenants=(
                TenantSpec(name="storm-fleet", rate_rps=10.0, qos="standard",
                           deadline_ms=800.0, on_breach="accept",
                           closed_loop=True, clients=4, think_time_ms=5.0,
                           image_size=96, seed=81),
                TenantSpec(name="steady-fleet", rate_rps=6.0, qos="premium",
                           deadline_ms=800.0, on_breach="accept",
                           closed_loop=True, clients=2, think_time_ms=20.0,
                           image_size=96, seed=82),
            ),
            duration_s=6.0,
            resilience=ResilienceSpec(max_attempts=4, base_backoff_ms=10.0,
                                      max_backoff_ms=150.0, budget_ratio=0.1,
                                      budget_burst=10.0),
            # depth 2 against 6 closed-loop clients: admission *must* reject
            # under collision, or the storm never forms and there is nothing
            # for the retry budget to cap
            server_hints=(("queue_depth", 2),),
        ),
        ScenarioSpec(
            name="metastable-recovery",
            description="A shard dies mid-run while closed-loop retrying "
                        "clients keep offering load: budgeted retries, the "
                        "one re-route of the dead shard's requests and the "
                        "watchdog restart must ride it out with zero "
                        "client-visible infra failures.",
            tenants=(
                TenantSpec(name="loop-fleet", rate_rps=10.0, qos="standard",
                           deadline_ms=1200.0, on_breach="accept",
                           closed_loop=True, clients=4, think_time_ms=50.0,
                           image_size=96, seed=91),
                premium,
            ),
            duration_s=8.0,
            chaos=ChaosSpec(kill_shard_at_s=(3.0,), seed=92),
            resilience=ResilienceSpec(max_attempts=4, base_backoff_ms=20.0,
                                      max_backoff_ms=250.0, budget_ratio=0.2,
                                      budget_burst=10.0),
            server_hints=chaos_hints,
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}

"""``repro.serve`` — the compression service layer.

The paper's deployment story is a fleet of edge cameras streaming
erase-and-squeezed frames to one shared server.  ``repro.core`` makes a
single decode→reconstruct fast; this package serves *many concurrent* ones,
each through that same single-frame path, with warm caches, admission
control and failure isolation around it:

* :class:`FrontDoor` — the one ``submit()``/``stop()`` of both servers:
  lifecycle checks, the admission-time deadline shed, the result cache, a
  per-backend in-flight window whose overload is an immediate
  :class:`ServerOverloadedError` (never a wait), routing, exactly-once
  settlement and one :class:`ServerStats`;
* :class:`ThreadPoolBackend` — the in-process backend: an
  :class:`AdmissionQueue` FIFO and :class:`ServeWorker` threads, each
  popping one request at a time and serving it exactly as
  :meth:`~repro.core.EaszDecoder.decode` would, over the process-wide
  squeeze-plan cache and the backend's codec cache;
* :class:`ShardBackend` — one shard process running a one-worker
  thread-pool backend, reached over a pickle-light wire format, answering
  over its own socket;
* :class:`ResultCache` — optional cross-request cache keyed on payload
  digest, so the byte-identical frames of a static scene resolve without
  touching a backend;
* :class:`ServerStats` — throughput, p50/p99 latency over the front door's
  own samples, queue wait, service time, queue depth and cache hit rates
  (backend counters summed exactly by :func:`aggregate_snapshots`);
* :mod:`repro.serve.scenarios` — the one load harness.  A
  :class:`ScenarioSpec` trace (per-tenant Poisson/diurnal/bursty arrivals,
  QoS deadline budgets, deadline-aware admission that degrades to a cheaper
  codec quality or sheds when the M/D/c predicted wait exceeds a tenant's
  budget) is replayed, optionally while a
  :class:`~repro.serve.scenarios.ChaosDriver` SIGKILLs/SIGSTOPs shards and
  corrupts payloads through :mod:`repro.edge.faults`.  ``serve-bench``
  without ``--scenario`` replays one healthy Poisson tenant, the capacity
  check against the M/D/c prediction;
* :mod:`repro.serve.resilience` — the client side of the robustness story:
  :class:`RetryPolicy` (backoff + jitter, token-bucket :class:`RetryBudget`),
  :class:`ResilientClient` (retries, exactly-once) and
  :class:`ClosedLoopClient` think-time load loops; absolute deadlines
  (``submit(..., deadline_s=...)``, :func:`deadline_after_ms`) propagate
  through front door → shard → worker so expired work is shed with
  :class:`DeadlineExceededError` *before* any decode is paid for.

One front door, two backends — which server to use
--------------------------------------------------

Both servers are the same :class:`FrontDoor`; they differ only in what
sits behind it:

===========================  =========================  ==========================
concern                      ``CompressionServer``      ``ShardedCompressionServer``
                             (one thread-pool backend)  (N shard-process backends)
===========================  =========================  ==========================
parallelism                  threads (one GIL: compute  processes (scales with
                             tops out near one core)    cores for the elementwise
                                                        decode/reconstruct stages)
startup / memory             instant; one model copy    per-shard model + caches,
                                                        process spawn at start()
submit() overhead            ~µs (in-process queue)     container pack + queue hop
                                                        (~100s of µs per request)
routing                      always backend 0           key hash + mask affinity,
                                                        load spill
failure isolation            a worker exception fails   a crashed shard's requests
                             its request only, but a    are re-routed once; the
                             hard crash takes the       shard restarts in place
                             process down               (:meth:`~repro.serve.
                                                        sharding.ShardedCompressionServer.restart_shard`)
queueing model (scenarios)   M/D/1 (``parallelism=1``)  M/D/c with c = num_shards
use when                     interactive latency,       throughput-bound fleets on
                             single-core hosts, tests   multi-core hosts
===========================  =========================  ==========================

Retry vs degrade vs shed — which resilience lever to pull
---------------------------------------------------------

Three distinct mechanisms trade work for latency when a request is at risk;
they answer different failure modes and must not be confused:

===========================  ==============================================
lever                        what it is / when it applies
===========================  ==============================================
retry                        re-submit *after* a retryable failure
(:class:`RetryPolicy` via    (:class:`ShardFailedError`, overload,
:class:`ResilientClient`)    timeout).  Exponential backoff + full jitter;
                             gated by a :class:`RetryBudget` token bucket so
                             retry traffic is capped at a fraction of fresh
                             traffic — without the budget, retries amplify
                             overload into a metastable retry storm.
                             Never retries permanent errors (corrupt
                             payload, expired deadline, closed queue).
degrade                      admission-time *quality* trade: when the
(``on_breach="degrade"``)    predicted queue wait breaches the tenant's
                             deadline budget, re-encode at the tenant's
                             ``degraded_quality`` — less work per request,
                             same request count.
shed                         drop the request outright: client-side when
(``on_breach="shed"``, or    predicted wait breaches the budget, or
deadline propagation)        server-side at every pipeline stage once the
                             propagated absolute deadline has expired
                             (:class:`DeadlineExceededError`) — a reply
                             nobody will wait for is pure waste, so it is
                             shed *before* decode, not after.
===========================  ==============================================

Rules of thumb: retries repair *infra* failures, degrade preserves
throughput under *predicted* overload, and deadline shedding stops *dead*
work from consuming live capacity.  Underneath all three, the router only
sends work to shards that are alive and not draining, so a retry never
lands on a corpse.

A started :class:`ShardedCompressionServer` always supervises its shards:
every 0.25 s a parent-side watchdog re-routes (once) the in-flight requests
of a dead shard to live ones, so callers see neither lost nor duplicated
responses, then restarts the dead shard with exponential backoff (restart
counts in ``stats.snapshot()["watchdog"]``).  A shard that is alive but has
not stamped its heartbeat for 1 s is killed and restarted like a crashed
one.  Healthy shards stamp every loop iteration; on a saturated 2-vCPU pool
the largest healthy age measured stayed under 0.25 s.  A debugger or cgroup
freezer that stops a shard for longer than 1 s therefore gets it replaced.

Quick start::

    from repro.serve import CompressionServer

    with CompressionServer(model=model, config=config) as server:
        pending = server.submit(package)          # EaszCompressed in,
        response = pending.result(timeout=10.0)   # pixels out
    print(server.stats.snapshot()["latency_p50_ms"])

Scaling out is the same API::

    from repro.serve import ShardedCompressionServer

    with ShardedCompressionServer(model=model, config=config, num_shards=4,
                                  result_cache_size=256) as server:
        response = server.submit_bytes(container).result(timeout=10.0)
"""

from ..cpu import available_cpus
from .cache import ResultCache
from .queueing import (AdmissionQueue, DeadlineExceededError, QueueClosedError,
                       ServerOverloadedError, ShardFailedError, deadline_after_ms)
from .resilience import (ClosedLoopClient, ResilientClient, RetryBudget,
                         RetryPolicy)
from .scenarios import (ChaosDriver, ChaosSpec, ResilienceSpec, ScenarioReport,
                        ScenarioRunner, ScenarioSpec, TenantReport, TenantSpec,
                        build_workload, builtin_scenarios, run_scenario)
from .server import (CompressionServer, FrontDoor, PendingResult, ServeRequest,
                     ServeResponse)
from .sharding import ShardBackend, ShardedCompressionServer
from .telemetry import (LatencyWindow, ServerStats, aggregate_snapshots,
                        summarise_latency_ms)
from .worker import ServeWorker, ThreadPoolBackend

__all__ = [
    "AdmissionQueue",
    "ChaosDriver",
    "ChaosSpec",
    "ClosedLoopClient",
    "CompressionServer",
    "DeadlineExceededError",
    "FrontDoor",
    "LatencyWindow",
    "PendingResult",
    "QueueClosedError",
    "ResilienceSpec",
    "ResilientClient",
    "ResultCache",
    "RetryBudget",
    "RetryPolicy",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "ServeRequest",
    "ServeResponse",
    "ServeWorker",
    "ServerOverloadedError",
    "ServerStats",
    "ShardedCompressionServer",
    "ShardFailedError",
    "ShardBackend",
    "TenantReport",
    "TenantSpec",
    "ThreadPoolBackend",
    "aggregate_snapshots",
    "available_cpus",
    "build_workload",
    "builtin_scenarios",
    "deadline_after_ms",
    "run_scenario",
    "summarise_latency_ms",
]

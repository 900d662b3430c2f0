"""``repro.serve`` — the micro-batching compression service layer.

The paper's deployment story is a fleet of edge cameras streaming
erase-and-squeezed frames to one shared server.  ``repro.core`` makes a
single decode→reconstruct fast; this package makes *many concurrent* ones
fast by amortising fixed costs across requests:

* :class:`AdmissionQueue` — a bounded request queue: overload becomes an
  explicit :class:`ServerOverloadedError` (or bounded blocking), not
  unbounded latency;
* :class:`MicroBatcher` — coalesces the already-queued requests that share
  an erase mask and image geometry, up to ``max_batch_size``; it never
  waits for later arrivals;
* :class:`ServeWorker` — worker threads running batches through the fused
  batched APIs (``EaszDecoder.decode_batch`` / ``reconstruct_batch``) over
  the process-wide squeeze-plan cache and the server's codec cache;
* :class:`ResultCache` — optional cross-request cache keyed on payload
  digest, so the byte-identical frames of a static scene resolve without
  touching the queue;
* :class:`ServerStats` — throughput, p50/p99 latency, batch-size histogram,
  queue depth and cache hit rates (:func:`aggregate_snapshots` merges them
  across shards);
* :class:`ShardedCompressionServer` — the same submission API executed on N
  worker *processes* (see the decision matrix below);
* :mod:`repro.serve.scenarios` — the one load harness.  A
  :class:`ScenarioSpec` trace (per-tenant Poisson/diurnal/bursty arrivals,
  QoS deadline budgets, deadline-aware admission that degrades to a cheaper
  codec quality or sheds when the M/D/c predicted wait exceeds a tenant's
  budget) is replayed, optionally while a
  :class:`~repro.serve.scenarios.ChaosDriver` SIGKILLs/SIGSTOPs shards,
  corrupts payloads through :mod:`repro.edge.faults` and exhausts the shm
  ring.  ``serve-bench`` without ``--scenario`` replays one healthy Poisson
  tenant, the capacity check against the M/D/c prediction;
* :mod:`repro.serve.resilience` — the client side of the robustness story:
  :class:`RetryPolicy` (backoff + jitter, token-bucket :class:`RetryBudget`),
  per-shard :class:`CircuitBreaker` consulted by the sharded router,
  :class:`ResilientClient` (retries + optional p95 hedging, exactly-once)
  and :class:`ClosedLoopClient` think-time load loops; absolute deadlines
  (``submit(..., deadline_s=...)``, :func:`deadline_after_ms`) propagate
  through queue → batcher → worker → shard so expired work is shed with
  :class:`DeadlineExceededError` *before* any decode is paid for.

Threaded vs process-sharded — which server to use
-------------------------------------------------

===========================  =========================  ==========================
concern                      ``CompressionServer``      ``ShardedCompressionServer``
===========================  =========================  ==========================
parallelism                  threads (one GIL: compute  processes (scales with
                             tops out near one core)    cores for the elementwise
                                                        decode/reconstruct stages)
startup / memory             instant; one model copy    per-shard model + caches,
                                                        process spawn at start()
submit() overhead            ~µs (in-process queue)     container pack + queue hop
                                                        (~100s of µs per request)
batching reach               one pool sees every        per shard (consistent
                             request                    routing keeps keys hot;
                                                        spill uses the whole pool)
failure isolation            a worker exception fails   a crashed shard is
                             its batch only, but a      restartable in place
                             hard crash takes the       (:meth:`~repro.serve.
                             process down               sharding.ShardedCompressionServer.restart_shard`)
queueing model (scenarios)   M/D/1 (``parallelism=1``)  M/D/c with c = num_shards
use when                     interactive latency,       throughput-bound fleets on
                             single-core hosts, tests   multi-core hosts
===========================  =========================  ==========================

Sharded response path: shm ring vs queue
----------------------------------------

The sharded server moves finished pixels back to the parent one of two ways
(``ServeResponse.transport`` names which served each request, telemetry
counts both):

===========================  =========================  ==========================
concern                      queue path (``use_shm=     shm ring (``use_shm=True``,
                             False``)                   the default)
===========================  =========================  ==========================
per-response cost            ``tobytes`` + queue pickle one copy into the slot,
                             + pipe chunking + parent   one copy out (the lease
                             copy (4 copies of the      descriptor rides the
                             pixels)                    queue; pixels never do)
requirements                 none                       ``/dev/shm`` large enough
                                                        for ``shm_slots x
                                                        shm_slot_bytes`` (Docker
                                                        defaults /dev/shm to
                                                        64 MiB — size the ring
                                                        accordingly)
oversized / overflow         n/a                        responses larger than
                                                        ``shm_slot_bytes`` (or a
                                                        full ring) fall back to
                                                        the queue path per
                                                        response, automatically
crash safety                 queue messages die with    leases are reclaimed by
                             the shard                  owner; per-slot sequence
                                                        numbers make stale acks
                                                        inert
use when                     tiny responses (thumbnail  responses are the full
                             decode), /dev/shm-starved  reconstructed frames —
                             containers                 the common serving case
===========================  =========================  ==========================

Retry vs hedge vs degrade vs shed — which resilience lever to pull
------------------------------------------------------------------

Four distinct mechanisms trade work for latency when a request is at risk;
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
hedge                        speculative *duplicate* submitted while the
(``hedge_after_ms`` /        first attempt is still in flight and slower
``"p95"``)                   than expected.  Attacks tail latency, not
                             failures; costs duplicate work, so it draws
                             from the same retry budget.  First answer
                             wins; the loser is absorbed (exactly-once at
                             the caller).
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

Rules of thumb: retries repair *infra* failures, hedges repair *tail*
latency, degrade preserves throughput under *predicted* overload, and
deadline shedding stops *dead* work from consuming live capacity.  Per-shard
circuit breakers (:class:`CircuitBreaker`) sit underneath all four: a shard
that keeps failing is routed around (closed → open → half-open probe) so
retries and hedges are not wasted on a corpse.

With ``watchdog_interval_s`` set, a parent-side watchdog additionally
auto-restarts crashed shards (exponential backoff, restart counts in
``stats.snapshot()["watchdog"]``); in-flight requests of the dead shard are
re-routed to live shards by the collector's reaper, so callers see neither
lost nor duplicated responses.  Hang detection is on by default whenever
the watchdog runs: a shard that is alive but has not stamped its heartbeat
for ``watchdog_hang_timeout_s`` (``"auto"`` → 30 s; healthy shards stamp
every ≤ 50 ms, so this is conservative) is killed and restarted like a
crashed one.  Opt out with ``watchdog_hang_timeout_s=None`` if shard
processes may legitimately freeze (e.g. under SIGSTOP-based debuggers or
cgroup freezers) and you would rather wait them out.

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

from .batcher import MicroBatcher
from .cache import LRUCache, ResultCache
from .queueing import (AdmissionQueue, DeadlineExceededError, QueueClosedError,
                       ServerOverloadedError, deadline_after_ms)
from .resilience import (CircuitBreaker, ClosedLoopClient, ResilientClient,
                         RetryBudget, RetryPolicy)
from .scenarios import (ChaosDriver, ChaosSpec, ResilienceSpec, ScenarioReport,
                        ScenarioRunner, ScenarioSpec, TenantReport, TenantSpec,
                        build_workload, builtin_scenarios, run_scenario)
from .server import CompressionServer, PendingResult, ServeRequest, ServeResponse
from .sharding import (ShardedCompressionServer, ShardFailedError, ShardHandle,
                       available_cpus)
from .shm import ShmRing, shm_available
from .telemetry import (LatencyWindow, ServerStats, aggregate_snapshots,
                        summarise_latency_ms)
from .worker import ServeWorker

__all__ = [
    "AdmissionQueue",
    "ChaosDriver",
    "ChaosSpec",
    "CircuitBreaker",
    "ClosedLoopClient",
    "CompressionServer",
    "DeadlineExceededError",
    "LatencyWindow",
    "LRUCache",
    "MicroBatcher",
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
    "ShardHandle",
    "ShmRing",
    "TenantReport",
    "TenantSpec",
    "aggregate_snapshots",
    "available_cpus",
    "build_workload",
    "builtin_scenarios",
    "deadline_after_ms",
    "run_scenario",
    "shm_available",
    "summarise_latency_ms",
]

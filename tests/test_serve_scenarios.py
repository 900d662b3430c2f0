"""Tests for the multi-tenant chaos scenario harness (``repro.serve.scenarios``)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading

import numpy as np
import pytest

from repro.core import EaszConfig, EaszReconstructor
from repro.serve import (CompressionServer, PendingResult, ServeResponse,
                         ServerOverloadedError, ShardedCompressionServer)
from repro.serve.scenarios import (
    ChaosSpec,
    ResilienceSpec,
    ScenarioReport,
    ScenarioSpec,
    TenantSpec,
    build_workload,
    builtin_scenarios,
    corrupt_package,
    run_scenario,
    scenario_image,
)


@pytest.fixture(scope="module")
def scenario_config():
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="module")
def scenario_model(scenario_config):
    model = EaszReconstructor(scenario_config)
    model.eval()
    return model


@pytest.fixture(scope="module")
def tiny_scenario():
    return ScenarioSpec(
        name="test-mix",
        description="two tenants, 20% corrupted payloads, threaded pool",
        duration_s=1.5,
        tenants=(
            TenantSpec(name="premium", rate_rps=14.0, arrival="poisson",
                       qos="premium", deadline_ms=120.0, on_breach="degrade",
                       quality=70, degraded_quality=30, image_size=32,
                       num_images=2, seed=1),
            TenantSpec(name="bursty", rate_rps=10.0, arrival="bursty",
                       qos="batch", deadline_ms=800.0, on_breach="shed",
                       image_size=32, num_images=2, seed=2),
        ),
        chaos=ChaosSpec(corrupt_fraction=0.2, corrupt_bit_flips=48,
                        corrupt_truncate_to=0.7, seed=3),
        seed=7,
    )


@pytest.fixture(scope="module")
def tiny_workload(tiny_scenario, scenario_config, scenario_model):
    return build_workload(tiny_scenario, config=scenario_config,
                          model=scenario_model)


@pytest.fixture(scope="module")
def chaos_report(tiny_scenario, tiny_workload, scenario_config, scenario_model):
    """One real threaded replay, shared by every assertion below."""
    with CompressionServer(model=scenario_model, config=scenario_config,
                           num_workers=2, queue_depth=64) as server:
        report = run_scenario(tiny_scenario, server, workload=tiny_workload)
    return report


# --------------------------------------------------------------------------- #
# spec validation
# --------------------------------------------------------------------------- #
class TestSpecValidation:
    def test_tenant_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="arrival"):
            TenantSpec(name="t", arrival="weekly")
        with pytest.raises(ValueError, match="on_breach"):
            TenantSpec(name="t", on_breach="panic")
        with pytest.raises(ValueError, match="rate_rps"):
            TenantSpec(name="t", rate_rps=0.0)
        with pytest.raises(ValueError, match="deadline_ms"):
            TenantSpec(name="t", deadline_ms=-5.0)
        with pytest.raises(ValueError, match="kind"):
            TenantSpec(name="t", kind="transcode")
        with pytest.raises(ValueError, match="name"):
            TenantSpec(name="")

    def test_chaos_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="corrupt_fraction"):
            ChaosSpec(corrupt_fraction=1.5)
        with pytest.raises(ValueError, match="freeze_duration_s"):
            ChaosSpec(freeze_duration_s=0.0)
        # injector parameters are validated when the spec is built, not when
        # the scenario first damages a payload mid-run
        with pytest.raises(ValueError, match="bit_flips"):
            ChaosSpec(corrupt_fraction=0.5, corrupt_bit_flips=-1)
        with pytest.raises(ValueError, match="truncate_to"):
            ChaosSpec(corrupt_fraction=0.5, corrupt_truncate_to=2.0)

    def test_chaos_any_faults(self):
        assert not ChaosSpec().any_faults
        assert ChaosSpec(kill_shard_at_s=(1.0,)).any_faults
        assert ChaosSpec(corrupt_fraction=0.1).any_faults

    def test_scenario_rejects_duplicate_or_missing_tenants(self):
        tenant = TenantSpec(name="same")
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(name="s", tenants=(tenant, TenantSpec(name="same")))
        with pytest.raises(ValueError, match="tenant"):
            ScenarioSpec(name="s", tenants=())
        with pytest.raises(ValueError, match="duration_s"):
            ScenarioSpec(name="s", tenants=(tenant,), duration_s=0.0)


class TestArrivalTraces:
    @pytest.mark.parametrize("shape", ["poisson", "diurnal", "bursty"])
    def test_traces_are_sorted_and_in_range(self, shape):
        tenant = TenantSpec(name="t", rate_rps=40.0, arrival=shape)
        rng = np.random.default_rng(5)
        times = tenant.arrival_times(4.0, rng)
        assert times.size > 0
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0 and times[-1] < 4.0

    def test_traces_are_deterministic_per_seed(self):
        tenant = TenantSpec(name="t", rate_rps=30.0, arrival="diurnal")
        first = tenant.arrival_times(3.0, np.random.default_rng(9))
        second = tenant.arrival_times(3.0, np.random.default_rng(9))
        np.testing.assert_array_equal(first, second)


# --------------------------------------------------------------------------- #
# workload + corruption
# --------------------------------------------------------------------------- #
class TestWorkload:
    def test_build_encodes_primary_and_degraded_pools(self, tiny_scenario,
                                                      tiny_workload):
        for tenant in tiny_scenario.tenants:
            assert len(tiny_workload.primary[tenant.name]) == tenant.num_images
            assert len(tiny_workload.degraded[tenant.name]) == tenant.num_images
        premium = tiny_scenario.tenants[0]
        primary = tiny_workload.package_for(premium, 0)
        degraded = tiny_workload.package_for(premium, 0, degraded=True)
        # the degraded pool really is a different (cheaper) encoding
        assert primary.codec_payload.payload != degraded.codec_payload.payload

    def test_package_for_cycles_modulo(self, tiny_scenario, tiny_workload):
        tenant = tiny_scenario.tenants[0]
        assert tiny_workload.package_for(tenant, 0) is \
            tiny_workload.package_for(tenant, tenant.num_images)

    def test_corrupt_package_leaves_original_pristine(self, tiny_scenario,
                                                      tiny_workload):
        tenant = tiny_scenario.tenants[0]
        package = tiny_workload.package_for(tenant, 0)
        pristine = bytes(package.codec_payload.payload)
        injector = tiny_scenario.chaos.injector()
        damaged = corrupt_package(package, injector)
        assert damaged is not package
        assert damaged.codec_payload.payload != pristine
        assert package.codec_payload.payload == pristine

    def test_scenario_image_is_deterministic_unit_range(self):
        first = scenario_image(32, seed_value=4)
        second = scenario_image(32, seed_value=4)
        np.testing.assert_array_equal(first, second)
        assert first.shape == (32, 32, 3)
        assert float(first.min()) >= 0.0 and float(first.max()) <= 1.0


# --------------------------------------------------------------------------- #
# a real replay: the chaos invariants
# --------------------------------------------------------------------------- #
class TestScenarioRun:
    def test_every_future_resolved_exactly_once(self, chaos_report):
        assert chaos_report.futures_lost == 0
        assert chaos_report.futures_duplicated == 0

    def test_corruption_fails_gracefully_never_crashes(self, chaos_report):
        assert chaos_report.decoder_crashes == 0
        rejections = sum(t.graceful_rejections for t in chaos_report.tenants)
        # ~20% of ~36 offered requests were damaged; at least one must have
        # actually been rejected for the graceful-failure claim to be tested
        assert rejections > 0
        assert chaos_report.ok()

    def test_accounting_adds_up(self, chaos_report):
        assert chaos_report.offered > 0
        assert chaos_report.offered == sum(t.offered for t in chaos_report.tenants)
        assert chaos_report.submitted == sum(t.submitted for t in chaos_report.tenants)
        for tenant in chaos_report.tenants:
            outcomes = (tenant.completed + tenant.infra_failures
                        + tenant.graceful_rejections + tenant.decoder_crashes
                        + tenant.deadline_shed)
            assert outcomes == tenant.submitted
            assert tenant.offered == (tenant.submitted + tenant.shed
                                      + tenant.admission_rejected)
            assert 0.0 <= tenant.slo_miss_rate <= 1.0

    def test_latency_and_prediction_recorded(self, chaos_report):
        served = [t for t in chaos_report.tenants if t.completed > 0]
        assert served
        for tenant in served:
            assert tenant.latency_p50_ms > 0
            assert tenant.latency_p99_ms >= tenant.latency_p50_ms
        # the M/D/c prediction is recorded next to the observation (NaN only
        # if the sampler never saw a completion, which a served run excludes)
        assert any(np.isfinite(t.predicted_wait_ms_mean) for t in served)

    def test_report_json_round_trip(self, chaos_report):
        decoded = json.loads(chaos_report.to_json())
        assert decoded["scenario"] == "test-mix"
        assert decoded["futures_lost"] == 0
        assert {t["name"] for t in decoded["tenants"]} == {"premium", "bursty"}
        for key in ("offered", "submitted", "completed", "utilisation",
                    "saturated", "chaos_events", "watchdog_restarts",
                    "retries", "deadline_shed"):
            assert key in decoded
        for key in ("deadline_ms", "latency_p50_ms", "latency_p99_ms",
                    "slo_miss_rate", "predicted_wait_ms_mean", "retries",
                    "deadline_shed", "budget_denied"):
            assert key in decoded["tenants"][0]

    def test_headline_names_scenario_and_verdict(self, chaos_report):
        headline = chaos_report.headline()
        assert "test-mix" in headline
        assert "OK" in headline


class TestReportVerdict:
    def _report(self, **overrides):
        base = dict(scenario="s", description="", duration_s=1.0, servers=1,
                    offered=10, submitted=10, completed=10, futures_lost=0,
                    futures_duplicated=0, decoder_crashes=0, utilisation=0.5,
                    service_time_per_image_ms=10.0, saturated=False)
        base.update(overrides)
        return ScenarioReport(**base)

    def test_ok_requires_all_three_invariants(self):
        assert self._report().ok()
        assert not self._report(futures_lost=1).ok()
        assert not self._report(futures_duplicated=1).ok()
        assert not self._report(decoder_crashes=1).ok()
        assert "VIOLATION" in self._report(futures_lost=1).headline()


# --------------------------------------------------------------------------- #
# ScenarioSpec JSON round-trip (serve-bench --scenario-file)
# --------------------------------------------------------------------------- #
class TestScenarioSpecJson:
    def test_every_builtin_round_trips(self):
        for name, scenario in builtin_scenarios().items():
            assert ScenarioSpec.from_json(scenario.to_json()) == scenario, name

    def test_round_trip_preserves_nested_specs(self, tiny_scenario):
        back = ScenarioSpec.from_json(tiny_scenario.to_json())
        assert back == tiny_scenario
        assert isinstance(back.tenants[0], TenantSpec)
        assert isinstance(back.chaos, ChaosSpec)

    def test_unknown_field_names_the_culprit(self):
        with pytest.raises(ValueError, match=r"tenants\[0\].*rate_rpz"):
            ScenarioSpec.from_dict({
                "name": "s", "tenants": [{"name": "t", "rate_rpz": 3.0}]})
        with pytest.raises(ValueError, match=r"resilience.*budget_rato"):
            ScenarioSpec.from_dict({
                "name": "s", "tenants": [{"name": "t"}],
                "resilience": {"budget_rato": 0.1}})
        with pytest.raises(ValueError, match=r"chaos.*kill_shards_at"):
            ScenarioSpec.from_dict({
                "name": "s", "tenants": [{"name": "t"}],
                "chaos": {"kill_shards_at": [1.0]}})

    def test_invalid_value_keeps_dataclass_message(self):
        with pytest.raises(ValueError, match="rate_rps"):
            ScenarioSpec.from_dict({
                "name": "s", "tenants": [{"name": "t", "rate_rps": 0.0}]})
        with pytest.raises(ValueError, match="server_hints.*watchdog_interval_s"):
            ScenarioSpec.from_dict({
                "name": "s", "tenants": [{"name": "t"}],
                "server_hints": [["watchdog_interval_s", 0.2]]})

    def test_malformed_json_is_a_value_error(self):
        with pytest.raises(ValueError, match="JSON"):
            ScenarioSpec.from_json("{not json")
        with pytest.raises(ValueError, match="object"):
            ScenarioSpec.from_json("[1, 2]")


# --------------------------------------------------------------------------- #
# resilience acceptance: the claims this PR exists to prove
# --------------------------------------------------------------------------- #
class TestResilienceAcceptance:
    def test_kill_shard_with_retries_hides_all_infra_failures(
            self, scenario_config, scenario_model):
        """SIGKILL mid-run + RetryPolicy: clients must see zero infra errors."""
        spec = ScenarioSpec(
            name="kill-retry", description="",
            tenants=(
                TenantSpec(name="open", rate_rps=12.0, deadline_ms=900.0,
                           on_breach="accept", image_size=32, num_images=2,
                           seed=5),
                TenantSpec(name="loop", rate_rps=8.0, deadline_ms=900.0,
                           on_breach="accept", closed_loop=True, clients=2,
                           think_time_ms=40.0, image_size=32, num_images=2,
                           seed=6),
            ),
            duration_s=3.5,
            chaos=ChaosSpec(kill_shard_at_s=(1.2,), seed=9),
            resilience=ResilienceSpec(max_attempts=4, base_backoff_ms=20.0,
                                      max_backoff_ms=250.0, budget_ratio=0.5),
        )
        workload = build_workload(spec, config=scenario_config,
                                  model=scenario_model)
        with ShardedCompressionServer(
                model=scenario_model, config=scenario_config, num_shards=2,
                queue_depth=128) as server:
            report = run_scenario(spec, server, workload=workload,
                                  warmup=False)
        assert report.futures_lost == 0
        assert report.futures_duplicated == 0
        assert report.watchdog_restarts >= 1  # the kill actually happened
        for tenant in report.tenants:
            assert tenant.infra_failures == 0, tenant.name
            assert tenant.completed > 0, tenant.name
        assert report.ok()

    def test_retry_budget_caps_the_storm(self, scenario_config,
                                         scenario_model):
        """Closed-loop clients vs an admission that refuses every other frame:
        without the budget each refused frame retries to the attempt cap;
        with it retry traffic is capped at ``ratio * fresh + burst`` and the
        run stays healthy.

        The overload is deterministic: which submissions are refused does
        not depend on how fast the host serves, so the retry counts follow
        from the policy alone.  A small real queue would tie the storm's size
        to host speed: under a CPU hog it shrinks to ~2.1x the budget,
        against the 2x assertion."""
        storm = ScenarioSpec(
            name="storm", description="",
            tenants=(TenantSpec(name="loop", rate_rps=10.0, deadline_ms=800.0,
                                on_breach="accept", closed_loop=True,
                                clients=6, think_time_ms=1.0, image_size=32,
                                num_images=2, seed=5),),
            duration_s=2.0,
            resilience=ResilienceSpec(max_attempts=4, base_backoff_ms=5.0,
                                      max_backoff_ms=40.0, budget_ratio=None),
        )
        workload = build_workload(storm, config=scenario_config,
                                  model=scenario_model)
        refused = workload.primary["loop"][1]
        reports = {}
        for ratio in (None, 0.1):
            spec = dataclasses.replace(
                storm, resilience=dataclasses.replace(storm.resilience,
                                                      budget_ratio=ratio))
            with CompressionServer(model=scenario_model,
                                   config=scenario_config, num_workers=1,
                                   queue_depth=64) as server:
                reports[ratio] = run_scenario(
                    spec, _RefusingAdmission(server, refused),
                    workload=workload, warmup=False)
        off = reports[None].tenants[0]
        on = reports[0.1].tenants[0]
        # the storm is real: every refused frame retried to the attempt cap
        assert off.retries > 0
        assert off.budget_denied == 0
        assert off.retries == 3 * off.infra_failures
        assert off.retries > 2 * max(on.retries, 1)
        # the budget bound is the token-bucket identity: withdrawals can
        # never exceed the initial burst (10) plus ratio * deposits
        assert on.retries <= 0.1 * on.submitted + 10 + 1
        assert on.budget_denied > 0
        # capped retries are a health property, not a failure mode
        assert reports[0.1].ok() and not reports[0.1].saturated
        assert reports[None].ok()
        for report in reports.values():
            assert report.futures_lost == 0
            assert report.futures_duplicated == 0


class _LateSlowdownServer:
    """Serves every request at once; the last 40% cost 12x the first 60%.

    Its stats report 5 ms of service per image for the first ``slow_from``
    submissions and 60 ms after, so the final 0.3-s sample reads a spike
    while the mean over the whole run stays far below saturation.
    """

    parallelism = 1

    def __init__(self, slow_from):
        self.stats = self
        self._slow_from = slow_from
        self._lock = threading.Lock()
        self._completed = 0
        self._service_s = 0.0
        self._ids = itertools.count()

    def submit(self, package, kind="reconstruct", deadline_s=None):
        with self._lock:
            self._service_s += 0.005 if self._completed < self._slow_from else 0.060
            self._completed += 1
        pending = PendingResult(next(self._ids))
        pending._resolve(ServeResponse(request_id=pending.request_id, image=None,
                                       kind=kind))
        return pending

    def snapshot(self):
        with self._lock:  # one worker: busy time equals service time
            return {"completed": self._completed,
                    "service_seconds_total": self._service_s,
                    "busy_seconds_total": self._service_s}


class TestSaturationVerdict:
    def test_verdict_reads_the_whole_run_not_the_last_sample(self, poisson_run):
        # ~60 arrivals at 20 rps: the run mean is ~27 ms/image (utilisation
        # ~0.5); the last sampler window reads 60 ms/image (utilisation 1.2)
        server = _LateSlowdownServer(slow_from=36)
        report, tenant = poisson_run(server, [object()], rate_rps=20.0,
                                     requests=60, seed=12, warmup=False)
        assert tenant.completed == tenant.offered > 36
        assert report.service_time_per_image_ms < 40.0
        assert report.utilisation < 1.0
        assert not report.saturated
        assert report.ok()


class _RefusingAdmission:
    """A server whose admission refuses one given package on every attempt."""

    def __init__(self, server, refused):
        self._server = server
        self._refused = refused

    def __getattr__(self, name):
        return getattr(self._server, name)

    def submit(self, package, kind="reconstruct", deadline_s=None):
        if package is self._refused:
            raise ServerOverloadedError("admission refuses this frame")
        return self._server.submit(package, kind=kind, deadline_s=deadline_s)


# --------------------------------------------------------------------------- #
# the built-in matrix the nightly chaos CI replays
# --------------------------------------------------------------------------- #
class TestBuiltinScenarios:
    def test_matrix_is_well_formed(self):
        scenarios = builtin_scenarios()
        assert len(scenarios) >= 6
        for key, scenario in scenarios.items():
            assert key == scenario.name
            assert scenario.description
            assert scenario.tenants

    def test_matrix_covers_every_fault_kind(self):
        scenarios = builtin_scenarios().values()
        assert any(s.chaos.kill_shard_at_s for s in scenarios)
        assert any(s.chaos.freeze_shard_at_s for s in scenarios)
        assert any(s.chaos.corrupt_fraction > 0 for s in scenarios)
        assert any(not s.chaos.any_faults for s in scenarios)  # healthy baselines

    def test_matrix_covers_every_arrival_shape_and_policy(self):
        tenants = [t for s in builtin_scenarios().values() for t in s.tenants]
        assert {t.arrival for t in tenants} == {"poisson", "diurnal", "bursty"}
        assert {t.on_breach for t in tenants} >= {"degrade", "shed", "accept"}

    def test_matrix_covers_resilience_and_closed_loop(self):
        scenarios = builtin_scenarios()
        for name in ("retry-storm", "metastable-recovery"):
            assert name in scenarios
        assert scenarios["retry-storm"].resilience is not None
        assert scenarios["retry-storm"].resilience.budget_ratio is not None
        assert any(t.closed_loop for t in scenarios["retry-storm"].tenants)
        assert scenarios["metastable-recovery"].chaos.kill_shard_at_s
        assert scenarios["metastable-recovery"].resilience is not None

    def test_ci_workflow_matrix_matches_builtins(self):
        # chaos.yml hand-lists the matrix; a new scenario must be added there
        from pathlib import Path
        workflow = Path(__file__).resolve().parent.parent / ".github" / \
            "workflows" / "chaos.yml"
        if not workflow.exists():
            pytest.skip("workflow file not present in this checkout")
        text = workflow.read_text()
        for name in builtin_scenarios():
            assert f"- {name}" in text, f"scenario {name} missing from chaos.yml"

    def test_ci_summary_script_renders_a_report(self, chaos_report, tmp_path):
        # chaos.yml's summary step reads report fields by key, so a field
        # deleted from ScenarioReport must fail the script, not print as 0
        import subprocess
        import sys
        import textwrap
        from pathlib import Path
        workflow = Path(__file__).resolve().parent.parent / ".github" / \
            "workflows" / "chaos.yml"
        if not workflow.exists():
            pytest.skip("workflow file not present in this checkout")
        lines = workflow.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if "<<'EOF'" in line)
        end = next(i for i in range(start + 1, len(lines))
                   if lines[i].strip() == "EOF")
        script = textwrap.dedent("\n".join(lines[start + 1:end]))
        report = tmp_path / "report.json"
        report.write_text(chaos_report.to_json())
        result = subprocess.run([sys.executable, "-", str(report)], input=script,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "### test-mix" in result.stdout
        assert "| premium |" in result.stdout

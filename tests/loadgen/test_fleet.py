"""End-to-end fleet harness tests on a small fleet.

The full-size soaks live behind the ``soak`` marker (``make soak`` /
``-m soak``); the tests here keep a mini-fleet in the tier-1 run so the
harness itself — invariants, stats, the recorded reference outcome,
permission cache invalidation — is exercised on every push.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.android.permissions import Permission
from repro.loadgen import FleetScenario
from repro.loadgen.harness import FleetHarness, run_scenario


MINI = FleetScenario(seed=42, drones=1, tenants_per_drone=3)

REFERENCE = json.loads(
    (Path(__file__).parent / "fixtures" / "legacy_reference.json")
    .read_text())


@pytest.fixture(scope="module")
def mini_result():
    return run_scenario(MINI)


class TestMiniFleet:
    def test_all_tenants_complete(self, mini_result):
        result = mini_result
        assert sorted(result.completed) == sorted(result.tenants)
        assert not result.interrupted

    def test_invariants_checked_and_clean(self, mini_result):
        result = mini_result
        assert result.invariant_checks > 0
        assert result.violations == []
        result.assert_clean()

    def test_stats_populated(self, mini_result):
        result = mini_result
        for stats in result.tenants.values():
            assert stats.completed
            assert stats.waypoints_completed >= 1
            assert stats.heartbeats > 0
            assert stats.positions > 0
            assert stats.time_used_s > 0
            assert stats.energy_used_j > 0

    def test_result_round_trips_to_json(self, mini_result):
        result = mini_result
        data = result.to_dict()
        assert data["scenario"]["seed"] == MINI.seed
        assert set(data["tenants"]) == set(result.tenants)
        assert isinstance(result.to_json(), str)

    def test_optimizations_do_not_change_behavior(self, mini_result):
        """The binder index, permission cache and fanout batching are
        pure speedups: the observable outcome of the fleet must equal
        the one recorded with all of them off."""
        expected = REFERENCE["mini_fleet"]
        result = mini_result
        assert sorted(result.completed) == expected["completed"]
        assert result.waypoints_serviced == expected["waypoints_serviced"]
        assert result.duration_s == expected["duration_s"]
        assert sorted(result.tenants) == sorted(expected["tenants"])
        for tenant, want in expected["tenants"].items():
            stats = result.tenants[tenant]
            assert {field: getattr(stats, field) for field in want} == want


class TestChaosFleet:
    def test_chaos_fleet_completes_with_faults(self):
        result = run_scenario(FleetScenario(
            seed=42, drones=1, tenants_per_drone=2, chaos_level=1))
        assert sorted(result.completed) == sorted(result.tenants)
        assert result.violations == []
        assert result.faults_injected > 0

    def test_same_seed_same_outcome(self):
        scenario = FleetScenario(seed=7, drones=1, tenants_per_drone=2,
                                 chaos_level=1)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("chaos,seed", [(1, 42), (1, 7), (2, 42),
                                            (2, 7)])
    def test_chaos_outcome_matches_recorded_digest(self, chaos, seed):
        """Service and binder fault windows run through the one dispatch
        and transaction path; the chaos fleet's full result must still
        hash to the value recorded before the reference paths went."""
        result = run_scenario(FleetScenario(
            seed=seed, drones=2, tenants_per_drone=2, chaos_level=chaos))
        assert sorted(result.completed) == sorted(result.tenants)
        assert len(result.tenants) == 4
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert digest[:16] == REFERENCE["chaos_result_sha256_prefix"][
            f"chaos{chaos}-seed{seed}"]


class TestPermissionCacheInvalidation:
    def test_revoke_drops_cached_grants(self):
        harness = FleetHarness(MINI)
        node = harness.slots[0].node
        cache = node.device_env.permission_cache
        harness.run()
        # The soak's device-service traffic must have gone through the
        # cache, and revoking a tenant package's grants must drop that
        # uid's entries (wired via ActivityManager.on_permissions_changed).
        assert cache.hits > 0
        tenant = harness.slots[0].tenants[0]
        vdrone = node.vdc.get(tenant)
        package, app = next(iter(vdrone.env.apps.items()))
        cached_for_uid = [key for key in cache._entries
                          if key[0] == tenant and key[1] == app.uid]
        assert cached_for_uid, "soak should have cached this app's grants"
        before = cache.invalidations
        vdrone.env.activity_manager.revoke_all(package)
        assert cache.invalidations > before
        assert not [key for key in cache._entries
                    if key[0] == tenant and key[1] == app.uid]
        # A fresh check must now see the revocation, not a stale grant.
        granted = cache.lookup(tenant, app.uid, Permission.BODY_SENSORS)
        assert granted is None

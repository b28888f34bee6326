"""Consistent-hash router: stability under shard add/remove.

The elastic-resharding properties the control plane leans on: routing
is a pure function of (key, membership, vnodes) — no process state, no
``hash()`` randomization — removing a shard moves *only* the keys that
shard owned, and adding it back restores the exact previous mapping.
Lookups are memoized per ring epoch, so the memo must never outlive a
membership change.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.controlplane import (
    ConsistentHashRouter,
    ControlPlaneConfigError,
    UnknownShardError,
)

SHARDS = ["shard-0", "shard-1", "shard-2", "shard-3"]
KEYS = [f"user{i:04d}" for i in range(500)]


def make_router(shards=None, vnodes=64):
    return ConsistentHashRouter(shards or list(SHARDS), vnodes=vnodes)


class TestRouting:
    def test_route_is_deterministic_across_instances(self):
        a, b = make_router(), make_router()
        assert a.table(KEYS) == b.table(KEYS)

    def test_insertion_order_does_not_matter(self):
        forward = make_router(list(SHARDS))
        backward = make_router(list(reversed(SHARDS)))
        assert forward.table(KEYS) == backward.table(KEYS)

    def test_every_shard_owns_keys(self):
        load = make_router().load(KEYS)
        assert sorted(load) == sorted(SHARDS)
        assert all(count > 0 for count in load.values())
        assert sum(load.values()) == len(KEYS)

    def test_vnodes_keep_partitions_balanced(self):
        load = make_router().load(KEYS)
        assert max(load.values()) < 3 * min(load.values())


class TestMembershipChanges:
    def test_remove_moves_only_owned_keys(self):
        router = make_router()
        before = router.table(KEYS)
        router.remove_shard("shard-2")
        after = router.table(KEYS)
        for key in KEYS:
            if before[key] != "shard-2":
                assert after[key] == before[key], key
            else:
                assert after[key] != "shard-2", key

    def test_re_adding_restores_exact_prior_mapping(self):
        router = make_router()
        before = router.table(KEYS)
        router.remove_shard("shard-1")
        router.add_shard("shard-1")
        assert router.table(KEYS) == before

    def test_add_moves_only_keys_the_new_shard_claims(self):
        router = make_router(["shard-0", "shard-1"])
        before = router.table(KEYS)
        router.add_shard("shard-9")
        after = router.table(KEYS)
        for key in KEYS:
            assert after[key] in (before[key], "shard-9"), key
        assert any(after[key] == "shard-9" for key in KEYS)

    def test_remove_unknown_shard_is_typed(self):
        with pytest.raises(UnknownShardError):
            make_router().remove_shard("shard-99")

    def test_duplicate_add_is_typed(self):
        with pytest.raises(ControlPlaneConfigError):
            make_router().add_shard("shard-0")

    def test_cannot_remove_last_shard(self):
        router = make_router(["only"])
        with pytest.raises(ControlPlaneConfigError):
            router.remove_shard("only")

    def test_empty_ring_is_typed(self):
        with pytest.raises(ControlPlaneConfigError):
            ConsistentHashRouter([])


POOL = [f"shard-{i}" for i in range(6)]


class TestMemo:
    @given(changes=st.lists(
        st.tuples(st.booleans(), st.sampled_from(POOL)), max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_memoized_routes_match_a_fresh_router(self, changes):
        router = make_router()
        router.table(KEYS)  # fill the memo before every change
        for add, shard_id in changes:
            members = router.shard_ids()
            if add and shard_id not in members:
                router.add_shard(shard_id)
            elif not add and shard_id in members and len(members) > 1:
                router.remove_shard(shard_id)
            router.table(KEYS)
        fresh = ConsistentHashRouter(router.shard_ids(), vnodes=64)
        assert router.table(KEYS) == fresh.table(KEYS)

    def test_epoch_moves_on_every_membership_change(self):
        router = make_router()
        epochs = [router.epoch]
        for change in (lambda: router.remove_shard("shard-2"),
                       lambda: router.add_shard("shard-2"),
                       lambda: router.add_shard("shard-7"),
                       lambda: router.remove_shard("shard-0")):
            change()
            epochs.append(router.epoch)
        assert epochs == sorted(set(epochs))

    def test_routing_does_not_move_the_epoch(self):
        router = make_router()
        epoch = router.epoch
        router.table(KEYS)
        router.table(KEYS)
        assert router.epoch == epoch

"""Checked-in schedule fixtures replay clean: each one is the shrunk
schedule that once broke the tree, re-executed bit-for-bit against the
fixed code.  A regression reopens as a digest mismatch or an oracle
failure here, with the exact interleaving already attached.
"""

from pathlib import Path

import pytest

from repro.sched import (
    build_oracles,
    load_artifact,
    make_scenario,
    replay_artifact,
    run_oracles,
)

FIXTURES = sorted(
    (Path(__file__).parent / "fixtures").glob("*.json"),
    key=lambda p: p.name)


def test_fixture_directory_is_populated():
    assert FIXTURES, "tests/sched/fixtures must hold at least one artifact"


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_replays_clean(path):
    artifact = load_artifact(path)
    scenario = make_scenario(artifact["scenario"])
    outcome = replay_artifact(artifact, scenario)  # raises on digest drift
    failures = run_oracles(build_oracles(scenario.oracles), outcome)
    assert failures == artifact["failures"], (
        f"{path.name}: the schedule that once failed with "
        f"{sorted(artifact['failures_when_found'])} regressed")


def test_sender_order_fixture_documents_the_original_failure():
    artifact = load_artifact(
        Path(__file__).parent / "fixtures"
        / "binder-burst-sender-order.json")
    assert "sender-order" in artifact["failures_when_found"]
    assert artifact["failures"] == {}, "fixture must encode the fixed state"
    assert artifact["schedule"], "fixture must carry a non-empty schedule"

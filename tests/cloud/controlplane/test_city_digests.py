"""City runs reproduce the journals recorded from the full-scan monitor.

``fixtures/city_digests.json`` was recorded at commit ed279bf, before
ring routing was memoized, the invariant monitor made incremental and
the roll-ups made O(1).  Each case holds the journal digest, the sweep
count, the completed orders and the violation count; every one must
come out exactly the same, because those changes alter no decision.

The cases are perfbench's city (the default scenario with 300
migration placement retries) at five seeds and two sizes, plus the
SMALL city of ``test_city.py``.  Re-record, only for a change meant to
alter decisions, with::

    PYTHONPATH=src python -m tests.cloud.controlplane.test_city_digests
"""

import json
from pathlib import Path

import pytest

from repro.loadgen import CityScenario, run_city
from tests.cloud.controlplane.test_city import SMALL

FIXTURE = Path(__file__).parent / "fixtures" / "city_digests.json"

SEEDS = (1, 7, 42, 12345, 99)
ORDERS = (60, 160)
#: perfbench's CITY_MIGRATION_RETRIES: no order fails in these cities.
MIGRATION_RETRIES = 300


def cases():
    """case name -> scenario, in fixture order."""
    out = {"small": CityScenario(**SMALL)}
    for seed in SEEDS:
        for orders in ORDERS:
            out[f"seed{seed}-orders{orders}"] = CityScenario(
                seed=seed, orders=orders,
                migration_retry_limit=MIGRATION_RETRIES)
    return out


def outcome(scenario):
    result = run_city(scenario)
    return {
        "digest": result.digest,
        "invariant_checks": result.invariant_checks,
        "orders_completed": result.orders_completed,
        "violations": len(result.violations),
    }


def recorded():
    return json.loads(FIXTURE.read_text())["cases"]


@pytest.mark.parametrize("name", list(cases()))
def test_city_matches_recorded_outcome(name):
    assert outcome(cases()[name]) == recorded()[name]


def test_fixture_covers_every_case():
    assert sorted(recorded()) == sorted(cases())


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"cases": {name: outcome(s) for name, s in cases().items()}},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")

"""Energy-node gates: the Table-1 class comparison and outage survival.

Two :mod:`repro.energy` campaign presets, pinned:

* the **node-class comparison** is byte-identical between a serial run
  and a supervised parallel run at the same master seed (the
  repro.engine determinism contract, end to end through the bistatic
  backscatter path and the battery state machine), and its per-class
  physics land where Table 1 says they must — the tag costs dollars
  and sips microwatts, the harvesting node realises a genuine
  sub-unity duty cycle;
* the **outage-survival drill** rides a total harvesting blackout with
  **zero** silence-failover false positives — a dormant fleet must
  never condemn its AP — while the resilience ladder logs the
  dormant-hold/dormant-wake pairs that prove recovery actually
  happened rather than the outage never biting.

Both rendered tables are archived to ``benchmarks/output/`` as CI
artifacts.
"""

from __future__ import annotations

import json

from repro.energy import compare, outage
from repro.engine import ProcessPool, SupervisionPolicy

from conftest import record


def test_compare_campaign_serial_parallel_identical():
    """The determinism gate: same seed, same bytes, any executor."""
    config = compare.default_config(replicates=2, num_bits=200)
    serial = compare.run_compare(config, master_seed=7)
    parallel = compare.run_compare(config, master_seed=7,
                                   executor=ProcessPool(
                                       jobs=3, policy=SupervisionPolicy()),
                                   num_shards=3)
    assert json.dumps(serial.rows()) == json.dumps(parallel.rows())
    record("energy_compare", compare.render(serial))
    record("energy_compare_rows", json.dumps(serial.rows(), indent=2))


def test_compare_physics_extend_table1_down_market():
    """The new columns mean something: cost/power tiers and duty."""
    result = compare.run_compare(
        compare.default_config(replicates=2, num_bits=200),
        master_seed=7)
    rows = {r["node_class"]: r for r in result.rows()}
    active, tag, harvester = (rows["mmx-active"],
                              rows["mmx-backscatter"],
                              rows["mmx-harvesting"])
    # Cost tiers: the tag is dollars against the prototype's ~$110.
    assert tag["cost_usd"] < 10.0 < active["cost_usd"]
    # Power tiers: microwatts (passive) vs watts (active front end).
    assert tag["active_power_w"] < 1e-4
    assert active["active_power_w"] > 1.0
    # Every class decodes cleanly at its operating point.
    assert active["measured_ber"] == 0.0
    assert tag["measured_ber"] == 0.0
    # Duty models: always-on = 1, illuminated = the booked airtime,
    # duty-cycled = whatever the harvest actually affords (sub-unity,
    # but the fleet is not dark).
    assert active["duty_cycle"] == 1.0
    assert tag["duty_cycle"] == result.config.illumination_duty
    assert 0.01 < harvester["duty_cycle"] < 0.9
    assert harvester["delivery_ratio"] > 0.3


def test_outage_survival_artifact():
    """The dormant ≠ dead gate, end to end through cluster failover."""
    config = outage.default_config(nodes=4, replicates=2)
    result = outage.run_outage(config, master_seed=7)
    summary = result.summary()
    # The headline number this preset exists to pin: a sleeping fleet
    # never looks like a dead AP.
    assert summary["silence_failovers"] == 0
    assert summary["orphaned_nodes"] == 0
    # The outage actually bit (nodes went dormant) and the ladder
    # recovered them (wakes observed, recovery time measured).
    assert summary["dormant_holds"] >= 1
    assert summary["dormant_wakes"] >= 1
    assert summary["dormant_fraction"] > 0.0
    assert summary["mean_recovery_s"] > 0.0
    record("energy_outage", outage.render(result))
    record("energy_outage_summary", json.dumps(summary, indent=2))


def test_outage_campaign_serial_parallel_identical():
    config = outage.default_config(nodes=3, replicates=2)
    serial = outage.run_outage(config, master_seed=3)
    parallel = outage.run_outage(config, master_seed=3,
                                 executor=ProcessPool(
                                     jobs=2, policy=SupervisionPolicy()),
                                 num_shards=2)
    assert json.dumps(serial.summary()) == json.dumps(parallel.summary())

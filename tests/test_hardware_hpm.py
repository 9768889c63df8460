"""Tests for the HPM counters and the perf_events view (§IV-B)."""

import pytest

from repro.hardware.hpm import (
    FIXED_EVENTS,
    HPMUnit,
    PROGRAMMABLE_EVENTS,
    PerfEventsInterface,
)


class TestHPMUnit:
    def test_fixed_counters_always_count(self):
        unit = HPMUnit(core_id=0)
        unit.add_cycles(100)
        unit.add_instructions(50)
        assert unit.cycle == 100
        assert unit.instret == 50

    def test_programmable_disabled_at_boot(self):
        # §IV-B: "the remaining programmable counters ... are disabled at
        # boot time".
        unit = HPMUnit(core_id=0)
        assert not unit.programmable_enabled
        unit.add_event("fp_ops", 1000)
        assert unit.read_event("fp_ops") == 0

    def test_uboot_patch_enables_counting(self):
        unit = HPMUnit(core_id=0)
        unit.enable_programmable()
        unit.add_event("fp_ops", 1000)
        assert unit.read_event("fp_ops") == 1000

    def test_unknown_event_rejected(self):
        unit = HPMUnit(core_id=0)
        with pytest.raises(KeyError):
            unit.add_event("no_such_event", 1)
        with pytest.raises(KeyError):
            unit.read_event("no_such_event")

    def test_negative_counts_rejected(self):
        unit = HPMUnit(core_id=0)
        with pytest.raises(ValueError):
            unit.add_cycles(-1)
        with pytest.raises(ValueError):
            unit.add_instructions(-1)


class TestPerfEventsInterface:
    def _iface(self, enabled=False):
        units = [HPMUnit(core_id=i) for i in range(4)]
        for unit in units:
            if enabled:
                unit.enable_programmable()
        return PerfEventsInterface(units), units

    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError):
            PerfEventsInterface([])

    def test_core_ids_sorted(self):
        iface, _units = self._iface()
        assert iface.core_ids == [0, 1, 2, 3]

    def test_only_fixed_events_with_stock_uboot(self):
        iface, _units = self._iface(enabled=False)
        assert iface.available_events(0) == ["cycles", "instructions"]

    def test_full_event_set_with_patched_uboot(self):
        iface, _units = self._iface(enabled=True)
        events = iface.available_events(0)
        assert "fp_ops" in events and "l2_miss" in events

    def test_reads_are_per_core(self):
        iface, units = self._iface()
        units[2].add_instructions(7)
        assert iface.read(2, "instructions") == 7
        assert iface.read(0, "instructions") == 0

    @pytest.mark.parametrize("enabled", [False, True])
    def test_read_group_matches_reads_in_available_events_order(self, enabled):
        iface, units = self._iface(enabled=enabled)
        units[1].add_cycles(5)
        units[1].add_instructions(3)
        units[1].add_event("l2_miss", 2)
        events = iface.available_events(1)
        assert events == list(FIXED_EVENTS) + (list(PROGRAMMABLE_EVENTS)
                                               if enabled else [])
        assert iface.read_group(1) == tuple(iface.read(1, e) for e in events)
        assert iface.read_group(1)[:2] == (5, 3)

    def test_listings_are_copies(self):
        iface, _units = self._iface(enabled=True)
        iface.core_ids.append(99)
        iface.available_events(0).append("bogus")
        assert iface.core_ids == [0, 1, 2, 3]
        assert "bogus" not in iface.available_events(0)

"""Unit tests for the core model, machine, and energy integration."""

import itertools

import pytest

from repro.sim.cpu import Core
from repro.sim.machine import Machine
from repro.sim.power import DEFAULT_DVFS_TABLE, DvfsTable, PowerModel


@pytest.fixture
def core():
    return Core(0, DEFAULT_DVFS_TABLE, PowerModel(), level=2)


class TestCore:
    def test_seconds_for_cycles(self, core):
        # level 2 of the default table is 2.0 GHz
        assert core.frequency_ghz == pytest.approx(2.0)
        assert core.seconds_for_cycles(2e9) == pytest.approx(1.0)

    def test_busy_energy_integration(self, core):
        pm = core.power_model
        op = core.operating_point
        core.begin_work(0.0)
        core.end_work(2.0)
        assert core.energy.joules == pytest.approx(2.0 * pm.busy_power(op))

    def test_idle_energy_integration(self, core):
        pm = core.power_model
        op = core.operating_point
        core.finalize(3.0)
        assert core.energy.joules == pytest.approx(3.0 * pm.idle_power(op))

    def test_mixed_busy_idle(self, core):
        pm = core.power_model
        op = core.operating_point
        core.begin_work(1.0)  # idle [0,1)
        core.end_work(2.0)  # busy [1,2)
        core.finalize(4.0)  # idle [2,4)
        expect = 3.0 * pm.idle_power(op) + 1.0 * pm.busy_power(op)
        assert core.energy.joules == pytest.approx(expect)

    def test_double_begin_rejected(self, core):
        core.begin_work(0.0)
        with pytest.raises(RuntimeError):
            core.begin_work(1.0)

    def test_end_without_begin_rejected(self, core):
        with pytest.raises(RuntimeError):
            core.end_work(1.0)

    def test_set_level_changes_frequency_and_counts(self, core):
        core.set_level(1.0, 4)
        assert core.level == 4
        assert core.frequency_ghz == pytest.approx(3.0)
        # setting the same level again changes nothing
        core.set_level(2.0, 4)
        assert core.level == 4
        assert core.frequency_ghz == pytest.approx(3.0)

    def test_level_change_charges_old_level_first(self):
        pm = PowerModel()
        core = Core(0, DEFAULT_DVFS_TABLE, pm, level=0)
        op0 = DEFAULT_DVFS_TABLE[0]
        op4 = DEFAULT_DVFS_TABLE[4]
        core.begin_work(0.0)
        core.set_level(1.0, 4)  # [0,1) at level 0 busy
        core.end_work(2.0)  # [1,2) at level 4 busy
        expect = pm.busy_power(op0) + pm.busy_power(op4)
        assert core.energy.joules == pytest.approx(expect)

    def test_time_cannot_go_backwards(self, core):
        core.finalize(2.0)
        with pytest.raises(ValueError):
            core.finalize(1.0)

    def test_out_of_range_level_rejected(self, core):
        with pytest.raises(ValueError):
            core.set_level(0.0, 99)

    @pytest.mark.parametrize(
        "dvfs, pm",
        [
            (DEFAULT_DVFS_TABLE, PowerModel()),
            (
                DvfsTable.linear(3, f_min_ghz=0.8, f_max_ghz=2.6,
                                 v_min=0.65, v_max=1.1),
                PowerModel(ceff_nf=1.7, leak_w_per_v=0.35,
                           idle_fraction=0.23),
            ),
        ],
    )
    def test_energy_is_the_model_summed_per_interval(self, dvfs, pm):
        """Exact, not approximate: the core charges every interval at the
        power model's watts for its state and level, adding the intervals
        in order, and reports the table's frequency at every level."""
        top = dvfs.max_level
        core = Core(0, dvfs, pm, level=0)
        steps = [
            (0.3, "begin", None), (0.7, "level", top), (1.1, "end", None),
            (1.1, "level", top // 2), (1.9, "begin", None),
            (2.5, "level", 0), (3.2, "level", top), (4.05, "end", None),
            (4.6, "level", 1), (5.0, "finalize", None),
        ]
        expect, last, level, busy = 0.0, 0.0, 0, False
        for now, action, new_level in steps:
            if now > last:
                watts = pm.busy_power if busy else pm.idle_power
                expect += watts(dvfs[level]) * (now - last)
                last = now
            if action == "begin":
                core.begin_work(now)
                busy = True
            elif action == "end":
                core.end_work(now)
                busy = False
            elif action == "level":
                core.set_level(now, new_level)
                level = new_level
            else:
                core.finalize(now)
            assert core.energy.joules == expect, (now, action)
        for lvl in range(len(dvfs)):
            core.set_level(5.0, lvl)
            assert core.frequency_hz == dvfs[lvl].frequency_hz


class TestMachine:
    def test_construction_defaults(self):
        m = Machine(16)
        assert m.n_cores == 16
        assert len(m.idle_cores()) == 16
        assert m.noc.n_nodes >= 16

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_chip_power_changes_with_busy_cores(self):
        m = Machine(4)
        p_idle = m.chip_power()
        m.cores[0].begin_work(0.0)
        assert m.chip_power() > p_idle

    def test_power_if_levels_hypothetical(self):
        m = Machine(2)
        lo = m.power_if_levels([0, 0], [True, True])
        hi = m.power_if_levels([m.dvfs.max_level] * 2, [True, True])
        assert hi > lo

    @pytest.mark.parametrize("n_levels", [None, 2, 5, 9])
    def test_power_if_levels_is_the_operating_point_sum(self, n_levels):
        """Every level and busy assignment of a 3-core machine prices to
        each core's busy or idle power at its operating point, added in
        core order, bit for bit."""
        dvfs = (
            DEFAULT_DVFS_TABLE
            if n_levels is None
            else DvfsTable.linear(n_levels, 0.8, 3.4, 0.65, 1.25)
        )
        pm = PowerModel(ceff_nf=1.3, leak_w_per_v=0.7, idle_fraction=0.15)
        m = Machine(3, dvfs=dvfs, power_model=pm)
        for levels in itertools.product(range(len(dvfs)), repeat=3):
            for busy in itertools.product((False, True), repeat=3):
                want = 0.0
                for level, b in zip(levels, busy):
                    op = dvfs[level]
                    want += pm.busy_power(op) if b else pm.idle_power(op)
                got = m.power_if_levels(list(levels), list(busy))
                assert got.hex() == want.hex(), (levels, busy)

    def test_power_if_levels_validates_shape(self):
        m = Machine(2)
        with pytest.raises(ValueError):
            m.power_if_levels([0], [True, True])

    def test_total_energy_after_finalize(self):
        m = Machine(2)
        m.cores[0].begin_work(0.0)
        m.sim.schedule(1.0, lambda: m.cores[0].end_work(m.sim.now))
        m.sim.run()
        m.finalize()
        assert m.total_energy_j() > 0

    def test_edp_positive_after_run(self):
        m = Machine(1)
        m.cores[0].begin_work(0.0)
        m.sim.schedule(0.5, lambda: m.cores[0].end_work(m.sim.now))
        m.sim.run()
        assert m.edp() > 0

    def test_custom_dvfs_table(self):
        t = DvfsTable.linear(2, 1.0, 2.0)
        m = Machine(2, dvfs=t, initial_level=1)
        assert m.cores[0].frequency_ghz == pytest.approx(2.0)

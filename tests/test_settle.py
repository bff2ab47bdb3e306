"""Tests for the order-based settle (time derivation) engine."""

import pytest

from repro import Schedule, settle
from repro.errors import CycleError
from repro.util.intervals import hotpath_mode, set_hotpath_mode


def _settled_times(schedule):
    return (
        {t: (sl.start, sl.finish) for t, sl in schedule.slots.items()},
        {e: [(h.start, h.finish) for h in r.hops]
         for e, r in schedule.routes.items()},
    )


class TestSettleBasics:
    def test_serial_chain_on_one_proc(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        for t in ["a", "b", "c", "d"]:
            s.place_task(t, 0, start=0.0, position=len(s.proc_order[0]))
        for e in homogeneous_system.graph.edges():
            s.mark_local(e)
        settle(s)
        # serial: a(10) b(20) c(30) d(10) back to back
        assert s.slots["a"].start == 0
        assert s.slots["b"].start == 10
        assert s.slots["c"].start == 30
        assert s.slots["d"].start == 60
        assert s.schedule_length() == 70

    def test_precedence_without_proc_contention(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        s.place_task("a", 0, start=0.0)
        s.place_task("b", 1, start=0.0)
        s.place_task("c", 2, start=0.0)
        s.place_task("d", 0, start=0.0)
        s.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        s.set_route(("a", "c"), [0, 2], hop_starts=[0.0])
        s.set_route(("b", "d"), [1, 0], hop_starts=[0.0])
        s.set_route(("c", "d"), [2, 0], hop_starts=[0.0])
        settle(s)
        # a: [0,10); msg a->b (5): [10,15); b: [15,35); msg b->d (25): [35,60)
        assert s.slots["b"].start == 15
        # c: a->c costs 15 -> arrives 25; c runs [25,55); c->d costs 5 -> 60
        assert s.slots["c"].start == 25
        assert s.slots["d"].start == pytest.approx(60)

    def test_link_contention_serializes_hops(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        s.place_task("a", 0, start=0.0)
        s.place_task("b", 1, start=0.0)
        s.place_task("c", 1, start=0.0)
        s.place_task("d", 1, start=0.0)
        # both messages from a cross link (0,1); order: a->b then a->c
        s.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        s.set_route(("a", "c"), [0, 1], hop_starts=[1.0])
        s.mark_local(("b", "d"))
        s.mark_local(("c", "d"))
        settle(s)
        hop_ab = s.routes[("a", "b")].hops[0]
        hop_ac = s.routes[("a", "c")].hops[0]
        assert hop_ab.start == 10  # after a finishes
        assert hop_ab.finish == 15
        assert hop_ac.start == 15  # link busy until then
        assert hop_ac.finish == 30  # comm cost 15

    def test_settle_is_idempotent(self, small_random_system):
        from repro.core.bsa import BSAOptions, schedule_bsa

        s = schedule_bsa(small_random_system, BSAOptions(n_sweeps=1))
        before = {t: (sl.start, sl.finish) for t, sl in s.slots.items()}
        settle(s)
        after = {t: (sl.start, sl.finish) for t, sl in s.slots.items()}
        assert before == after

    def test_bubble_up_after_removal(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        for t in ["a", "b", "c", "d"]:
            s.place_task(t, 0, start=0.0, position=len(s.proc_order[0]))
        for e in homogeneous_system.graph.edges():
            s.mark_local(e)
        settle(s)
        assert s.slots["d"].start == 60
        # remove c (30 units): b->d precedence remains; d bubbles up
        s.remove_task("c")
        # removing c deactivates its edge constraints (partial schedule)
        settle(s)
        assert s.slots["d"].start == 30  # right after b

    def test_cycle_detection(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        # d placed *before* a on the same processor, but a -> ... -> d in DAG
        s.place_task("d", 0, start=0.0, position=0)
        s.place_task("a", 0, start=10.0, position=1)
        s.place_task("b", 1, start=0.0)
        s.place_task("c", 1, start=0.0)
        s.set_route(("a", "b"), [0, 1], hop_starts=[0.0])
        s.mark_local(("a", "c"))  # wrong but irrelevant here
        s.set_route(("b", "d"), [1, 0], hop_starts=[0.0])
        s.set_route(("c", "d"), [1, 0], hop_starts=[0.0])
        prev = hotpath_mode()
        try:
            for mode in ("legacy", "incremental"):
                set_hotpath_mode(mode)
                with pytest.raises(CycleError) as err:
                    settle(s.copy())
                assert "contradictory schedule orders" in str(err.value)
                assert "cycle" in str(err.value)
        finally:
            set_hotpath_mode(prev)

    def test_negative_start_settles_like_the_oracle(self, homogeneous_system):
        """A full settle freezes nothing: a hand-placed task or hop with a
        negative start is recomputed from 0 in the engine exactly as in
        the legacy oracle."""
        s = Schedule(homogeneous_system)
        s.place_task("a", 0, start=-50.0)
        s.place_task("b", 1, start=-20.0)
        s.place_task("c", 2, start=0.0)
        s.place_task("d", 0, start=0.0)
        s.set_route(("a", "b"), [0, 1], hop_starts=[-40.0])
        s.set_route(("a", "c"), [0, 2], hop_starts=[0.0])
        s.set_route(("b", "d"), [1, 0], hop_starts=[-5.0])
        s.set_route(("c", "d"), [2, 0], hop_starts=[0.0])
        prev = hotpath_mode()
        try:
            settled = {}
            for mode in ("legacy", "incremental"):
                set_hotpath_mode(mode)
                settled[mode] = _settled_times(settle(s.copy()))
        finally:
            set_hotpath_mode(prev)
        assert settled["incremental"] == settled["legacy"]
        assert settled["incremental"][0]["a"] == (0.0, 10.0)
        assert settled["incremental"][0]["d"][0] == pytest.approx(60)

    def test_partial_schedule_ok(self, homogeneous_system):
        s = Schedule(homogeneous_system)
        s.place_task("a", 0, start=0.0)
        settle(s)  # b, c, d unscheduled: constraints inactive
        assert s.slots["a"].start == 0.0

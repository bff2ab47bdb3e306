"""Unit tests for interval math (gap search is the substrate's hot core)."""

import pytest

from repro.util.intervals import (
    HOTPATH_MODES,
    Interval,
    Timeline,
    earliest_gap,
    fast_path_enabled,
    hotpath_mode,
    insert_interval,
    intervals_overlap,
    set_hotpath_mode,
    total_busy,
    verify_disjoint,
)


class TestInterval:
    def test_duration(self):
        assert Interval(2.0, 5.0).duration == 3.0

    def test_zero_duration_allowed(self):
        assert Interval(2.0, 2.0).duration == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)

    def test_overlap_detection(self):
        a = Interval(0.0, 10.0)
        assert a.overlaps(Interval(5.0, 15.0))
        assert not a.overlaps(Interval(10.0, 20.0))  # half-open: touching is fine
        assert not a.overlaps(Interval(20.0, 30.0))

    def test_payload_carried(self):
        assert Interval(0, 1, payload="task").payload == "task"


class TestIntervalsOverlap:
    def test_disjoint(self):
        assert not intervals_overlap(0, 1, 2, 3)

    def test_touching_not_overlap(self):
        assert not intervals_overlap(0, 5, 5, 9)

    def test_nested(self):
        assert intervals_overlap(0, 10, 3, 4)

    def test_identical(self):
        assert intervals_overlap(3, 7, 3, 7)


class TestEarliestGap:
    def test_empty_timeline(self):
        assert earliest_gap([], ready=3.0, duration=5.0) == 3.0

    def test_fits_before_first(self):
        busy = [Interval(10, 20)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 0.0

    def test_does_not_fit_before_first(self):
        busy = [Interval(3, 20)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 20.0

    def test_fits_between(self):
        busy = [Interval(0, 10), Interval(25, 30)]
        assert earliest_gap(busy, ready=0.0, duration=10.0) == 10.0

    def test_gap_too_small_skipped(self):
        busy = [Interval(0, 10), Interval(12, 30)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 30.0

    def test_ready_inside_busy(self):
        busy = [Interval(0, 10)]
        assert earliest_gap(busy, ready=5.0, duration=2.0) == 10.0

    def test_ready_inside_gap(self):
        busy = [Interval(0, 10), Interval(20, 30)]
        assert earliest_gap(busy, ready=12.0, duration=5.0) == 12.0

    def test_ready_inside_gap_but_too_late(self):
        busy = [Interval(0, 10), Interval(20, 30)]
        assert earliest_gap(busy, ready=17.0, duration=5.0) == 30.0

    def test_zero_duration_at_ready(self):
        busy = [Interval(0, 10)]
        assert earliest_gap(busy, ready=5.0, duration=0.0) == 5.0

    def test_negative_ready_clamped(self):
        assert earliest_gap([], ready=-5.0, duration=1.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            earliest_gap([], ready=0.0, duration=-1.0)

    def test_exact_fit(self):
        busy = [Interval(0, 10), Interval(15, 20)]
        assert earliest_gap(busy, ready=0.0, duration=5.0) == 10.0


class TestInsertInterval:
    def test_insert_sorted_position(self):
        busy = [Interval(0, 10), Interval(20, 30)]
        idx = insert_interval(busy, Interval(12, 18))
        assert idx == 1
        assert [iv.start for iv in busy] == [0, 12, 20]

    def test_insert_overlap_rejected(self):
        busy = [Interval(0, 10)]
        with pytest.raises(ValueError):
            insert_interval(busy, Interval(5, 8))

    def test_insert_at_front_and_back(self):
        busy = [Interval(10, 20)]
        insert_interval(busy, Interval(0, 5))
        insert_interval(busy, Interval(25, 30))
        assert [iv.start for iv in busy] == [0, 10, 25]


class TestTotals:
    def test_total_busy(self):
        assert total_busy([Interval(0, 5), Interval(10, 12)]) == 7.0

    def test_verify_disjoint_clean(self):
        assert verify_disjoint([Interval(0, 5), Interval(5, 9)]) is None

    def test_verify_disjoint_finds_overlap(self):
        bad = [Interval(0, 5), Interval(4, 9)]
        pair = verify_disjoint(bad)
        assert pair == (bad[0], bad[1])


def _random_busy(rng, n):
    """A start-sorted, legally non-overlapping timeline; occasionally a
    zero-duration reservation *inside* an earlier interval's span (legal:
    sub-EPS overlap) so finish times are non-monotonic — the worst case
    for the indexed bisect."""
    busy = []
    t = 0.0
    for _ in range(n):
        t += rng.random() * 3
        dur = 0.0 if rng.random() < 0.15 else rng.random() * 4
        busy.append(Interval(t, t + dur))
        t += dur
    if busy and len(busy) > 2:
        # zero-width straggler whose finish precedes the previous finish
        host = busy[len(busy) // 2]
        if host.duration > 1.0:
            z = Interval(host.finish, host.finish)
            busy.insert(len(busy) // 2 + 1, z)
    busy.sort(key=lambda iv: iv.start)
    return busy


class TestTimeline:
    """The indexed structure must agree with the legacy scan bit-for-bit."""

    def test_matches_legacy_randomized(self):
        import random
        rng = random.Random(42)
        for trial in range(200):
            busy = _random_busy(rng, rng.randrange(0, 12))
            tl = Timeline.from_items(busy)
            ready = rng.random() * 30 - 2
            duration = 0.0 if rng.random() < 0.1 else rng.random() * 5
            assert tl.earliest_gap(ready, duration) == earliest_gap(
                busy, ready, duration
            ), (trial, [(iv.start, iv.finish) for iv in busy], ready, duration)

    def test_merged_matches_legacy_sorted_merge(self):
        import random
        rng = random.Random(7)
        for trial in range(200):
            busy = _random_busy(rng, rng.randrange(0, 10))
            extras = _random_busy(rng, rng.randrange(0, 4))
            tl = Timeline.from_items(busy)
            merged = sorted(busy + extras, key=lambda iv: iv.start)
            ready = rng.random() * 25
            duration = rng.random() * 5
            got = tl.earliest_gap_merged(
                ready, duration,
                [iv.start for iv in extras], [iv.finish for iv in extras],
            )
            assert got == earliest_gap(merged, ready, duration), (
                trial, ready, duration
            )

    def test_eps_boundary_fit_agrees_with_overlap_check(self):
        """A gap that fits only up to float rounding at the EPS boundary
        (ready 1e-9, duration 1 before a reservation at 1.0) must be
        refused by every gap search: the returned slot may never overlap
        a reservation by more than EPS. Sixty tiny reservations precede
        the boundary gap, so the indexed searches scan a long tail."""
        busy = [Interval(k * 1e-11, k * 1e-11 + 5e-12) for k in range(59)]
        busy += [Interval(9e-10, 1e-9), Interval(1.0, 2.0)]
        for found in (
            earliest_gap(busy, 0.0, 1.0),
            Timeline.from_items(busy).earliest_gap(0.0, 1.0),
            Timeline.from_items(busy).earliest_gap_merged(0.0, 1.0, [], []),
        ):
            assert found == 2.0
            assert not any(Interval(found, found + 1.0).overlaps(b)
                           for b in busy)

    def test_last_finish_and_len(self):
        tl = Timeline.from_items([Interval(0, 5), Interval(7, 9)])
        assert len(tl) == 2
        assert tl.last_finish() == 9
        assert Timeline().last_finish() == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().earliest_gap(0.0, -1.0)


class TestHotpathMode:
    def test_mode_round_trip(self):
        assert hotpath_mode() in HOTPATH_MODES
        prev = set_hotpath_mode("legacy")
        try:
            assert not fast_path_enabled()
        finally:
            set_hotpath_mode(prev)
        assert hotpath_mode() == prev

    def test_bad_mode_rejected(self):
        # a rejected request must leave the current mode untouched
        before = hotpath_mode()
        for mode in ("turbo", "fast", "array"):
            with pytest.raises(ValueError):
                set_hotpath_mode(mode)
            assert hotpath_mode() == before

    def test_mode_predicates(self):
        assert HOTPATH_MODES == ("incremental", "legacy")
        prev = hotpath_mode()
        try:
            set_hotpath_mode("incremental")
            assert fast_path_enabled()
            set_hotpath_mode("legacy")
            assert not fast_path_enabled()
        finally:
            set_hotpath_mode(prev)

    def test_unknown_env_mode_fails_at_import(self):
        """An unknown ``REPRO_HOTPATH`` (the retired ``fast`` and
        ``array`` modes, a typo) must fail at import with a clean
        ConfigurationError naming the valid modes, instead of silently
        running the default engine. Each value is imported in a fresh
        child process, since the mode is read once at import."""
        import os
        import subprocess
        import sys
        import textwrap

        env = {**os.environ, "PYTHONPATH": "src"}
        env_code = textwrap.dedent("""
            import os

            try:
                import repro.util.intervals  # noqa: F401
            except Exception as exc:
                assert type(exc).__name__ == "ConfigurationError", exc
                assert os.environ["EXPECT"] in str(exc), exc
                print("IMPORT-REFUSED")
            else:
                raise SystemExit(
                    f"REPRO_HOTPATH={os.environ['REPRO_HOTPATH']} import "
                    "succeeded"
                )
        """)
        for value, expect in (("array", "valid modes"),
                              ("fast", "valid modes"),
                              ("incremnetal", "valid modes")):
            env["REPRO_HOTPATH"] = value
            env["EXPECT"] = expect
            done = subprocess.run(
                [sys.executable, "-c", env_code],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert done.returncode == 0, (value, done.stderr)
            assert "IMPORT-REFUSED" in done.stdout, value

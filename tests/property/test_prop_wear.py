"""Property-based tests for Start-Gap wear leveling."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.wear import StartGapWearLeveler, WearTracker


class TestStartGapProperties:
    @given(
        st.integers(2, 64),
        st.integers(1, 16),
        st.lists(st.integers(0, 1000), max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_mapping_always_injective(self, num_lines, interval, writes):
        """After any write sequence, the logical->physical map is a
        bijection into the slot space minus the gap."""
        leveler = StartGapWearLeveler(num_lines, gap_interval=interval)
        for w in writes:
            leveler.on_write(w % num_lines)
        mapping = [leveler.physical_of(i) for i in range(num_lines)]
        assert len(set(mapping)) == num_lines
        assert all(0 <= p <= num_lines for p in mapping)
        assert leveler.gap not in mapping

    @given(
        st.integers(2, 32),
        st.integers(1, 8),
        st.integers(0, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_gap_and_start_within_bounds(self, num_lines, interval, writes):
        leveler = StartGapWearLeveler(num_lines, gap_interval=interval)
        for _ in range(writes):
            leveler.on_write(0)
            assert 0 <= leveler.gap <= num_lines
            assert 0 <= leveler.start < num_lines

    @given(st.integers(4, 32), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_single_hot_line_eventually_rotates(self, num_lines, interval):
        """Writing one logical line long enough touches multiple physical
        slots (the leveling guarantee)."""
        leveler = StartGapWearLeveler(num_lines, gap_interval=interval)
        touched = set()
        # Two full start rotations' worth of writes.
        for _ in range(2 * interval * (num_lines + 1)):
            touched.add(leveler.on_write(0))
        assert len(touched) >= 2


class TestWearTrackerProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 100)), max_size=100
        )
    )
    @settings(max_examples=100)
    def test_totals_consistent(self, events):
        tracker = WearTracker(16)
        expected_total = 0
        for line, count in events:
            tracker.record(line, count)
            expected_total += count
        assert tracker.total_writes == expected_total
        assert tracker.max_writes <= expected_total
        if expected_total:
            assert 0.0 < tracker.endurance_ratio() <= 1.0

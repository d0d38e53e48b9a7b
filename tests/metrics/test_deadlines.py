"""Unit tests for deadline accounting."""

from repro.metrics.deadlines import DeadlineStats, MissReport


class TestDeadlineStats:
    def test_met_and_missed(self):
        s = DeadlineStats()
        s.record_release()
        s.record_completion(release=0, deadline=100, completion=90)
        s.record_release()
        s.record_completion(release=100, deadline=200, completion=250)
        assert s.met == 1 and s.missed == 1
        assert s.miss_ratio == 0.5

    def test_boundary_completion_meets(self):
        s = DeadlineStats()
        s.record_completion(0, 100, 100)
        assert s.met == 1 and s.missed == 0

    def test_response_times_recorded(self):
        s = DeadlineStats()
        s.record_completion(10, 100, 60)
        assert s.response_times == [50]

    def test_worst_tardiness(self):
        s = DeadlineStats()
        s.record_completion(0, 100, 150)
        s.record_completion(0, 100, 120)
        assert s.worst_tardiness == 50

    def test_abandoned_past_deadline_counts_missed(self):
        s = DeadlineStats()
        s.record_abandoned(deadline_passed=True)
        assert s.missed == 1

    def test_abandoned_before_deadline_undecided(self):
        s = DeadlineStats()
        s.record_abandoned(deadline_passed=False)
        assert s.decided == 0

    def test_empty_ratios(self):
        s = DeadlineStats()
        assert s.miss_ratio == 0.0


class _FakeTask:
    def __init__(self, name, stats):
        self.name = name
        self.stats = stats


class TestMissReport:
    def _stats(self, met, missed):
        s = DeadlineStats()
        s.met, s.missed = met, missed
        s.released = met + missed
        return s

    def test_aggregation(self):
        report = MissReport(
            {"a": self._stats(9, 1), "b": self._stats(10, 0)}
        )
        assert report.total_met == 19
        assert report.total_missed == 1
        assert report.overall_miss_ratio == 1 / 20

    def test_tasks_with_misses(self):
        report = MissReport({"a": self._stats(9, 1), "b": self._stats(10, 0)})
        assert report.tasks_with_misses == ["a"]

    def test_empty_report(self):
        report = MissReport({})
        assert report.overall_miss_ratio == 0.0

    def test_collect_from_tasks(self):
        from repro.metrics.deadlines import collect_miss_report

        tasks = [_FakeTask("x", self._stats(5, 0))]
        assert collect_miss_report(tasks).total_met == 5

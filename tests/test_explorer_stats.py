"""ExplorationStats: prune counters, progress callbacks, parallel split."""

import pytest

from repro.core import Emit
from repro.problems import kernel_program
from repro.verify.explorer import ExplorationStats, explore


def tiny_program(sched):
    def t(c):
        yield Emit(c)
    sched.spawn(t, "a")
    sched.spawn(t, "b")


class TestStatsCounters:
    def test_naive_exploration_counts_work(self):
        result = explore(tiny_program)
        s = result.stats
        assert s.runs == result.runs
        assert s.decisions == result.decisions
        assert s.max_frontier_depth == 4   # 2 tasks × (emit + return)
        assert s.sleep_prunes == 0
        assert s.fingerprint_hits == 0
        assert s.elapsed_seconds > 0
        assert s.decisions_per_sec > 0

    def test_reduced_bridge_reports_prunes(self):
        """Acceptance: sleep+fingerprint on the 2-car bridge prunes."""
        result = explore(kernel_program("bridge_2car"),
                         reduce="sleep+fingerprint")
        assert result.complete
        assert result.stats.sleep_prunes > 0
        assert result.stats.fingerprint_hits > 0
        assert result.stats.fingerprint_states > 0
        assert result.stats.fingerprint_hits >= result.pruned_runs

    def test_plus_spelling_equals_all(self):
        combined = explore(kernel_program("bridge_2car"),
                           reduce="sleep+fingerprint")
        all_ = explore(kernel_program("bridge_2car"), reduce="all")
        assert combined.runs == all_.runs
        assert combined.output_strings() == all_.output_strings()

    def test_reductions_preserve_terminals(self):
        naive = explore(kernel_program("bridge_2car"))
        reduced = explore(kernel_program("bridge_2car"),
                          reduce="sleep+fingerprint")
        assert reduced.output_strings() == naive.output_strings()
        assert reduced.decisions < naive.decisions

    def test_as_dict_is_json_shaped(self):
        import json
        result = explore(tiny_program, reduce=True)
        d = result.stats.as_dict()
        json.dumps(d)
        assert set(d) == {"runs", "decisions", "sleep_prunes",
                          "fingerprint_hits", "fingerprint_states",
                          "max_frontier_depth", "elapsed_seconds",
                          "decisions_per_sec", "workers"}


class TestProgress:
    def test_callback_sees_growing_counters(self):
        seen = []
        explore(kernel_program("bounded_buffer"), max_runs=50,
                progress=lambda s: seen.append((s.runs, s.decisions)),
                progress_every=10)
        assert len(seen) == 5
        assert seen == sorted(seen)
        assert all(runs % 10 == 0 for runs, _ in seen)

    def test_callback_on_reduced_exploration(self):
        seen = []
        explore(kernel_program("bridge_2car"), reduce=True,
                progress=lambda s: seen.append(s.runs), progress_every=5)
        assert seen, "reduced exploration must still report progress"

    @pytest.mark.parametrize("every", [0, -3])
    def test_progress_every_below_one_rejected_before_search(self, every):
        calls = []

        def program(sched):
            calls.append(sched)
            kernel_program("bridge_2car")(sched)

        with pytest.raises(ValueError, match="progress_every"):
            explore(program, progress=lambda s: None, progress_every=every)
        assert calls == []


class TestParallelAndMerge:
    def test_parallel_fills_worker_split(self):
        result = explore(kernel_program("bridge_2car"), reduce=True,
                         workers=2)
        # fork may be unavailable; only assert the split when it ran
        if result.stats.workers:
            assert sum(w["runs"] for w in result.stats.workers) \
                == result.runs
            assert all({"subtree", "runs", "decisions"} <= set(w)
                       for w in result.stats.workers)

    def test_fold_accumulates(self):
        a = ExplorationStats(runs=2, decisions=10, sleep_prunes=1,
                             max_frontier_depth=4)
        b = ExplorationStats(runs=3, decisions=7, fingerprint_hits=2,
                             max_frontier_depth=9)
        a.fold(b)
        assert a.runs == 5
        assert a.decisions == 17
        assert a.sleep_prunes == 1
        assert a.fingerprint_hits == 2
        assert a.max_frontier_depth == 9


class TestClockInjection:
    def test_fake_clock_makes_wall_stats_deterministic(self):
        from repro.obs import FakeClock

        clock = FakeClock(step=0.5)
        result = explore(kernel_program("pingpong"), max_runs=100,
                         reduce=True, clock=clock)
        # explore() brackets the search with exactly two clock reads
        assert clock.calls == 2
        assert result.stats.elapsed_seconds == 0.5
        assert result.stats.decisions_per_sec == result.decisions / 0.5

    def test_default_clock_still_measures_wall_time(self):
        result = explore(kernel_program("pingpong"), max_runs=100,
                         reduce=True)
        assert result.stats.elapsed_seconds > 0

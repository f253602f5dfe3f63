"""The NMSE rules and the pair summary of scripts/compare_trials.py, on
synthetic sides and runs; no test starts a process."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_trials.py"
_spec = importlib.util.spec_from_file_location("compare_trials", SCRIPT)
compare_trials = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trials)

HIGHER = {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.15}
LOWER = {"name": "trial_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15}


def side(trials, rows, batched=("tf_lasso",)):
    """A worker's output: per-trial NMSE ratios and (estimator, SNR,
    nmse_db, stderr_db) sweep rows, as the worker hexes them."""
    return {
        "estimators": ["cdce", "tf_lasso"],
        "batched": list(batched),
        "nmse": [{name: value.hex() for name, value in trial.items()} for trial in trials],
        "sweep_rows": [[est, snr, nmse.hex(), se.hex()] for est, snr, nmse, se in rows],
    }


TRIALS = [{"cdce": 0.1, "tf_lasso": 0.2}, {"cdce": 0.05, "tf_lasso": 0.3}]
ROWS = [("cdce", 0.0, -11.5, 0.25), ("tf_lasso", 0.0, -6.25, 0.5), ("tf_lasso", 10.0, -9.75, 0.125)]


def moved_rows(i, field, delta):
    rows = [list(r) for r in ROWS]
    rows[i][field] += delta
    return [tuple(r) for r in rows]


class TestDrift:
    def test_counts_moves_and_largest_delta(self):
        trials = [dict(t) for t in TRIALS]
        trials[1]["cdce"] *= 10 ** (0.01 / 10)
        trials[0]["tf_lasso"] *= 10 ** (-0.001 / 10)
        rows = [("cdce", 0.0, -11.5 + 0.02, 0.25), ("tf_lasso", 0.0, -6.25 + 1e-10, 0.5),
                ("tf_lasso", 10.0, -9.75, 0.125 + 0.5)]
        moved = compare_trials.drift(side(TRIALS, ROWS), side(trials, rows))
        assert moved["cdce"]["trials"] == 2
        assert moved["cdce"]["trials_moved"] == 1
        assert moved["cdce"]["trial_max_abs_delta_db"] == pytest.approx(0.01, rel=1e-9)
        assert (moved["cdce"]["sweep_rows"], moved["cdce"]["sweep_rows_moved"]) == (1, 1)
        assert moved["cdce"]["sweep_row_max_abs_delta_db"] == pytest.approx(0.02, rel=1e-12)
        assert (moved["cdce"]["stderr_moved"], moved["cdce"]["stderr_max_abs_delta_db"]) == (0, 0.0)
        assert moved["tf_lasso"]["trials_moved"] == 1
        assert moved["tf_lasso"]["trial_max_abs_delta_db"] == pytest.approx(0.001, rel=1e-9)
        assert (moved["tf_lasso"]["sweep_rows"], moved["tf_lasso"]["sweep_rows_moved"]) == (2, 1)
        assert moved["tf_lasso"]["sweep_row_max_abs_delta_db"] == pytest.approx(1e-10, rel=1e-4)
        assert (moved["tf_lasso"]["stderr_moved"], moved["tf_lasso"]["stderr_max_abs_delta_db"]) == (1, 0.5)

    def test_identical_sides_move_nothing(self):
        moved = compare_trials.drift(side(TRIALS, ROWS), side(TRIALS, ROWS))
        assert all(m["trials_moved"] == m["sweep_rows_moved"] == m["stderr_moved"] == 0 for m in moved.values())

    def test_different_trial_counts_exit(self):
        with pytest.raises(SystemExit):
            compare_trials.drift(side(TRIALS, ROWS), side(TRIALS[:1], ROWS))


class TestBatchedRowGap:
    def test_identical_rows_give_zero(self):
        assert compare_trials.batched_row_gap(side(TRIALS, ROWS), side(TRIALS, ROWS)) == 0.0

    @pytest.mark.parametrize("field", [2, 3])
    def test_batched_lasso_row_within_tolerance_is_accepted(self, field):
        gap = compare_trials.batched_row_gap(side(TRIALS, ROWS), side(TRIALS, moved_rows(2, field, 5e-10)))
        assert 0.0 < gap <= compare_trials.LASSO_ROW_TOL_DB

    @pytest.mark.parametrize("i, field, batched", [
        (0, 2, ("tf_lasso",)),  # cdce nmse_db
        (0, 3, ("tf_lasso",)),  # cdce stderr_db
        (1, 2, ()),  # tf_lasso off a lattice: its rows are not batched
        (2, 3, ()),
    ])
    def test_any_other_row_moved_by_one_ulp_exits(self, i, field, batched):
        rows = [list(r) for r in ROWS]
        rows[i][field] = math.nextafter(rows[i][field], math.inf)
        head = side(TRIALS, [tuple(r) for r in rows], batched)
        with pytest.raises(SystemExit):
            compare_trials.batched_row_gap(side(TRIALS, ROWS, batched), head)

    def test_batched_row_beyond_tolerance_exits(self):
        with pytest.raises(SystemExit):
            compare_trials.batched_row_gap(side(TRIALS, ROWS), side(TRIALS, moved_rows(1, 2, 2e-9)))


class TestPairSummary:
    def test_wins_count_ties_for_neither_side(self):
        pairs = [(10.0, 11.0), (10.0, 10.0), (10.0, 9.0), (10.0, 12.0)]
        higher = compare_trials.pair_summary(pairs, HIGHER)
        lower = compare_trials.pair_summary(pairs, LOWER)
        assert (higher["pairs"], higher["head_wins"], lower["head_wins"]) == (4, 2, 1)
        assert higher["base"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
        assert higher["head"]["median"] == 10.5
        assert higher["median_change"] == lower["median_change"] == pytest.approx(0.05)
        assert not higher["worse_beyond_bound"] and not lower["worse_beyond_bound"]

    @pytest.mark.parametrize("head, worse_if_higher, worse_if_lower", [
        (12.0, False, True),  # +20 %
        (11.5, False, False),  # +15 %, at the bound
        (8.0, True, False),  # -20 %
        (8.5, False, False),  # -15 %, at the bound
    ])
    def test_worse_beyond_bound_follows_better(self, head, worse_if_higher, worse_if_lower):
        pairs = [(10.0, head)] * 4
        assert compare_trials.pair_summary(pairs, HIGHER)["worse_beyond_bound"] is worse_if_higher
        assert compare_trials.pair_summary(pairs, LOWER)["worse_beyond_bound"] is worse_if_lower

    def test_unresolved_when_the_parent_spreads_beyond_the_bound(self):
        base = [8.0, 9.0, 10.0, 11.0, 12.0]  # quartiles 9 and 11 around 10: spread 0.2
        flat = compare_trials.pair_summary([(b, 10.0) for b in base], HIGHER)
        assert flat["unresolved"] and not flat["worse_beyond_bound"]
        wider_bound = compare_trials.pair_summary([(b, 10.0) for b in base], dict(HIGHER, bound=0.25))
        assert not wider_bound["unresolved"]

    def test_a_change_better_in_every_run_is_resolved(self):
        pairs = [(b, 13.0) for b in (8.0, 9.0, 10.0, 11.0, 12.0)]
        assert not compare_trials.pair_summary(pairs, HIGHER)["unresolved"]
        lower = compare_trials.pair_summary(pairs, LOWER)
        assert lower["unresolved"] and lower["worse_beyond_bound"]

    def test_unknown_direction_exits(self):
        with pytest.raises(SystemExit):
            compare_trials.pair_summary([(1.0, 1.0)] * 4, dict(HIGHER, better="sideways"))


def bench_line(correct=True, failed=0, metrics=("trials_per_s", "setup_s")):
    """The last line of a bench/run.py run."""
    return json.dumps({"correct": correct, "attempted": 500, "failed": failed,
                       "metrics": {m: {"value": 1.5, "unit": "s"} for m in metrics}})


class TestRunBench:
    METRICS = ["trials_per_s", "setup_s"]

    def run(self, monkeypatch, stdout, returncode=0):
        monkeypatch.setattr(compare_trials.subprocess, "run",
                            lambda cmd, **kw: subprocess.CompletedProcess(cmd, returncode, stdout, ""))
        return compare_trials.run_bench("tree", "pilot_lattice", 3, 16, self.METRICS)

    def test_correct_run_gives_its_metrics(self, monkeypatch):
        got = self.run(monkeypatch, "workload pilot_lattice\n" + bench_line() + "\n")
        assert got == {"correct": True, "attempted": 500, "failed": 0,
                       "metrics": {"trials_per_s": 1.5, "setup_s": 1.5}}

    @pytest.mark.parametrize("stdout, returncode", [
        (bench_line(correct=False), 0),
        (bench_line(failed=1), 0),
        (bench_line(metrics=("trials_per_s",)), 0),
        (bench_line(), 1),
        ("Traceback (most recent call last):", 1),
        ("", 0),
    ])
    def test_any_other_run_exits(self, monkeypatch, stdout, returncode):
        with pytest.raises(SystemExit):
            self.run(monkeypatch, stdout, returncode)

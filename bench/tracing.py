"""Spans around the calls into each cdce layer, recorded from outside the
package.

Each layer function is wrapped in the module namespace where its caller looks
it up, so `baselines.solve_lasso` (called by `tf_lasso`) and
`estimator.solve_lasso` (called by `cdce_estimate`) get separate spans. Spans
stay in memory and are written when the run ends. A span's self time is its
duration minus the durations of its direct children; calls run on one thread,
so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

# (module the caller looks the name up in, attribute, span name)
LAYERS = (
    ("config", "load_config", "config.load_config"),
    ("harness", "fit_covariance", "baselines.fit_covariance"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "sample_channel", "channel.sample_channel"),
    ("harness", "time_channel_matrix", "channel.time_channel_matrix"),
    ("harness", "assemble_frame", "pilots.assemble_frame"),
    ("harness", "tf_to_time", "grids.tf_to_time"),
    ("harness", "apply_channel", "channel.apply_channel"),
    ("harness", "time_to_tf", "grids.time_to_tf"),
    ("harness", "effective_tf_channel", "channel.effective_tf_channel"),
    ("harness", "cdce_estimate", "estimator.cdce_estimate"),
    ("harness", "fs_lmmse", "baselines.fs_lmmse"),
    ("harness", "st_ls", "baselines.st_ls"),
    ("harness", "st_lmmse", "baselines.st_lmmse"),
    ("harness", "tf_lasso", "baselines.tf_lasso"),
    ("estimator", "tf_to_dd", "grids.tf_to_dd"),
    ("estimator", "twisted_convolution", "estimator.twisted_convolution"),
    ("estimator", "threshold_select", "estimator.threshold_select"),
    ("estimator", "build_dictionary", "estimator.build_dictionary"),
    ("estimator", "solve_ls", "estimator.solve_ls"),
    ("estimator", "solve_lasso", "estimator.solve_lasso"),
    ("baselines", "solve_lasso", "baselines.tf_lasso.solve_lasso"),
)

# One FISTA iteration calls soft_threshold once; the call is counted on the
# enclosing span instead of getting a span of its own.
COUNTED = ("estimator", "soft_threshold")

TRIAL = "harness.run_trial"
SOLVE = "baselines.tf_lasso.solve_lasso"

# Layers called once in set-up, reported per call; the rest per traced trial.
SETUP_LAYERS = ("config.load_config", "baselines.fit_covariance")
PER_TRIAL_MS = tuple(name for _, _, name in LAYERS if name not in SETUP_LAYERS)

# Layers that also report self time per traced trial.
SELF_MS = ("harness.run_sweep", "harness.run_trial", "estimator.cdce_estimate", "baselines.tf_lasso")

# Layers that must record spans: in set-up, and in the sweep of every trial
# and of every configured estimator. A layer that is renamed, moved or called
# through another lookup records none, and would otherwise read as 0 ms.
SETUP_REQUIRED = ("config.load_config",)
TRIAL_REQUIRED = (
    "harness.run_trial", "channel.sample_channel", "channel.time_channel_matrix",
    "pilots.assemble_frame", "grids.tf_to_time", "channel.apply_channel", "grids.time_to_tf",
    "channel.effective_tf_channel",
)
ESTIMATOR_REQUIRED = {
    "cdce": ("estimator.cdce_estimate", "grids.tf_to_dd", "estimator.twisted_convolution",
             "estimator.threshold_select", "estimator.build_dictionary"),
    "fs_lmmse": ("baselines.fs_lmmse",),
    "st_ls": ("baselines.st_ls",),
    "st_lmmse": ("baselines.st_lmmse",),
    "tf_lasso": ("baselines.tf_lasso", SOLVE),
}

_NAME, _START, _END, _PARENT, _TRIAL, _PHASE, _COUNT = range(7)


class Tracer:
    """In-memory span recorder with counters for the detection layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.origin = time.perf_counter()
        self.truth: frozenset = frozenset()
        self.detect = {"calls": 0, "p_hat": 0, "hits": 0, "true_paths": 0, "false_alarms": 0}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        if name == TRIAL:
            trial = len(self.spans)
        else:
            trial = None if parent is None else self.spans[parent][_TRIAL]
        self.spans.append([name, time.perf_counter(), None, parent, trial, self.phase, 0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "channel.sample_channel":
                self.truth = frozenset((p.delay_int, p.doppler_int) for p in result.paths)
            elif name == "estimator.threshold_select" and self.phase == "sweep":
                self._score(frozenset(result.pairs))
            return result

        return traced

    def _counted(self, fn):
        def counted(*args, **kwargs):
            if self.stack:
                self.spans[self.stack[-1]][_COUNT] += 1
            return fn(*args, **kwargs)

        return counted

    def _score(self, detected: frozenset) -> None:
        d = self.detect
        d["calls"] += 1
        d["p_hat"] += len(detected)
        d["hits"] += len(detected & self.truth)
        d["true_paths"] += len(self.truth)
        d["false_alarms"] += len(detected - self.truth)

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Wrap every layer function for the duration, in `phase`. A layer
        function that is not where LAYERS or COUNTED says is an error."""
        targets = [(mod_name, attr, span_name) for mod_name, attr, span_name in LAYERS]
        targets.append((*COUNTED, None))
        wrapped = []
        for mod_name, attr, span_name in targets:
            mod = importlib.import_module(f"cdce.{mod_name}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise AttributeError(f"cdce.{mod_name}.{attr} is not a function; update bench/tracing.py")
            wrapped.append((mod, attr, fn, self._counted(fn) if span_name is None else self._wrap(span_name, fn)))
        saved = []
        for mod, attr, fn, wrapper in wrapped:
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrapper)
        self.phase = phase
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def missing_layers(self, estimators) -> list[str]:
        """A problem for every layer the configured estimators must call that
        recorded no span, and for FISTA solves that counted no iteration."""
        seen = {(s[_PHASE], s[_NAME]) for s in self.spans}
        need = [("setup", name) for name in SETUP_REQUIRED]
        if "fs_lmmse" in estimators:
            need.append(("setup", "baselines.fit_covariance"))
        need += [("sweep", name) for name in TRIAL_REQUIRED]
        for est in estimators:
            need += [("sweep", name) for name in ESTIMATOR_REQUIRED[est]]
        problems = [f"traced {phase}: layer {name} recorded no span" for phase, name in need
                    if (phase, name) not in seen]
        if "cdce" in estimators and not seen & {("sweep", "estimator.solve_ls"), ("sweep", "estimator.solve_lasso")}:
            problems.append("traced sweep: neither estimator.solve_ls nor estimator.solve_lasso recorded a span")
        solves = [s for s in self.spans if s[_PHASE] == "sweep" and s[_NAME] == SOLVE]
        if solves and not any(s[_COUNT] for s in solves):
            problems.append(f"traced sweep: no {COUNTED[0]}.{COUNTED[1]} call counted inside {SOLVE}")
        return problems

    def dump(self, path: str) -> None:
        rows = [
            {
                "id": i,
                "name": s[_NAME],
                "start_s": s[_START] - self.origin,
                "end_s": s[_END] - self.origin,
                "parent": s[_PARENT],
                "trial": s[_TRIAL],
                "phase": s[_PHASE],
                "count": s[_COUNT],
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")

    def layer_metrics(self, max_iter: int, cache_hits: int, cache_calls: int) -> dict[str, float]:
        """Per-layer figures over the spans recorded in the sweep phase."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for s in self.spans:
            if s[_PARENT] is not None:
                child[s[_PARENT]] = child.get(s[_PARENT], 0.0) + (s[_END] - s[_START])
        self_time: dict[str, float] = {}
        iters = []
        fits = []
        loads = []
        for i, s in enumerate(self.spans):
            dur = s[_END] - s[_START]
            if s[_NAME] == "baselines.fit_covariance":
                fits.append(dur)
            elif s[_NAME] == "config.load_config":
                loads.append(dur)
            if s[_PHASE] != "sweep":
                continue
            total[s[_NAME]] = total.get(s[_NAME], 0.0) + dur
            self_time[s[_NAME]] = self_time.get(s[_NAME], 0.0) + dur - child.get(i, 0.0)
            if s[_NAME] == SOLVE:
                iters.append(s[_COUNT])
        trials = sum(1 for s in self.spans if s[_NAME] == TRIAL and s[_PHASE] == "sweep")
        if trials == 0:
            raise ValueError("no traced trials to report")

        def per_trial_ms(seconds: float) -> float:
            return 1e3 * seconds / trials

        m: dict[str, float] = {}
        for name in PER_TRIAL_MS:
            m[f"{name}.ms"] = per_trial_ms(total.get(name, 0.0))
        for name in SELF_MS:
            m[f"{name}.self_ms"] = per_trial_ms(self_time.get(name, 0.0))
        m["baselines.fit_covariance.s"] = statistics.median(fits) if fits else 0.0
        m["config.load_config.ms"] = 1e3 * statistics.median(loads) if loads else 0.0
        m["baselines.tf_lasso.fista_iters_p50"] = float(statistics.median(iters)) if iters else 0.0
        m["baselines.tf_lasso.fista_iters_max"] = float(max(iters)) if iters else 0.0
        m["baselines.tf_lasso.fista_nonconverged"] = (
            sum(1 for n in iters if n >= max_iter) / len(iters) if iters else 0.0
        )
        n_ls = sum(1 for s in self.spans if s[_PHASE] == "sweep" and s[_NAME] == "estimator.solve_ls")
        n_lasso = sum(1 for s in self.spans if s[_PHASE] == "sweep" and s[_NAME] == "estimator.solve_lasso")
        m["estimator.ls_share"] = n_ls / (n_ls + n_lasso) if n_ls + n_lasso else 0.0
        d = self.detect
        m["estimator.p_hat_mean"] = d["p_hat"] / d["calls"] if d["calls"] else 0.0
        m["estimator.detect_hit_ratio"] = d["hits"] / d["true_paths"] if d["true_paths"] else 0.0
        m["estimator.false_alarms_per_trial"] = d["false_alarms"] / d["calls"] if d["calls"] else 0.0
        m["channel.unit_path_tf_channel.hit_ratio"] = cache_hits / cache_calls if cache_calls else 0.0
        m["trace.trials"] = trials
        return m

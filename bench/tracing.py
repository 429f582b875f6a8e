"""Spans around mbrlkit's layers, recorded from the benchmark's side.

`Patches` swaps a function or method of an mbrlkit module for a wrapper in
this process only and puts the original back on exit; the program's files
are never changed. `Tracer` keeps spans (name, start, end, parent) in
memory; per-layer metrics are computed from them when the run ends.

Span names follow the package's modules: `nets.forward` wraps
`DenseNet.forward`, `planning.eval` wraps the trajectory objective that CEM
calls, and so on (see `instrument`).
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

perf_counter = time.perf_counter


class Patches:
    """Temporary replacements of mbrlkit attributes, undone on exit."""

    def __init__(self):
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        return False

    def function(self, module, attr, make_wrapper):
        """Replace module.attr everywhere mbrlkit holds a reference to it:
        module globals of every loaded mbrlkit module (names bound by
        `from .x import f`) and registry dicts such as `TERMINATION_FNS`."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name != "mbrlkit" and not name.startswith("mbrlkit."):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            self._undo.append((value, dkey, dval))
                            value[dkey] = wrapper
        return original

    def method(self, cls, attr, make_wrapper):
        """Replace a plain method, classmethod or staticmethod of cls."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)
        return raw


class Tracer:
    """In-memory span store with counters; off until `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.traced_seconds = 0.0
        self._on_since = None

    def set_enabled(self, on: bool) -> None:
        now = perf_counter()
        if on and not self.enabled:
            self._on_since = now
        elif not on and self.enabled:
            self.traced_seconds += now - self._on_since
        self.enabled = on

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Span around fn; after(tracer, args, kwargs, result) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """One span per item a generator function produces."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name) if tracer.enabled else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        tracer._close(idx)
                yield item

        return traced

    # --- results ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds, self seconds (total minus the
        part covered by direct child spans), plus the seconds covered by
        root spans."""
        n = len(self.start)
        names = np.asarray(self.span_name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        root_s = float(dur[~has_parent].sum()) if n else 0.0
        return out, root_s

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names),
            span_name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64))


def _forward_counts(tracer, args, kwargs, result):
    net, x = args[0], args[1]
    rows = np.shape(x)[0]
    sizes = net.layer_sizes
    macs = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    tracer.count("nets.forward.rows", rows)
    tracer.count("nets.forward.flops", 2.0 * rows * macs)


def _step_batch_rows(tracer, args, kwargs, result):
    tracer.count("envs.step_batch.rows", np.shape(np.atleast_2d(args[1]))[0])


def _train_epochs(tracer, args, kwargs, report):
    tracer.count("models.epochs", len(report.train_losses))


def _file_bytes(key):
    """Records the size of the file just written (the latest one wins)."""
    def after(tracer, args, kwargs, result):
        tracer.counters[key] = float(os.path.getsize(args[1]))
    return after


def instrument(patches: Patches, tracer: Tracer) -> None:
    """Put spans around the public functions of each mbrlkit layer."""
    from mbrlkit import (algorithms, config, data, diagnostics, envs, models,
                         nets, planning)

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    patches.method(nets.DenseNet, "forward",
                   span("nets.forward", _forward_counts))
    patches.method(nets.DenseNet, "backward", span("nets.backward"))
    patches.method(nets.AdamState, "step", span("nets.adam_step"))

    patches.method(models.GaussianMLPEnsemble, "forward",
                   span("models.ensemble_forward"))
    patches.method(models.GaussianMLPEnsemble, "update", span("models.update"))
    patches.method(models.TransitionRewardWrapper, "sample",
                   span("models.sample"))
    patches.method(models.ModelEnv, "step", span("models.model_env_step"))
    patches.method(models.ModelTrainer, "train",
                   span("models.trainer_train", _train_epochs))
    patches.method(models.TrainerReport, "save", span("io.trainer_report"))
    patches.function(models, "save_model",
                     span("models.save_model",
                          _file_bytes("models.checkpoint_bytes")))
    patches.function(models, "load_model", span("models.load_model"))

    patches.method(data.ReplayBuffer, "add", span("data.buffer_add"))
    patches.method(data.ReplayBuffer, "save",
                   span("data.buffer_save", _file_bytes("data.buffer_bytes")))
    patches.method(data.ReplayBuffer, "load", span("data.buffer_load"))
    patches.method(data.BootstrapIterator, "__init__", span("data.bootstrap"))
    patches.method(data.BootstrapIterator, "__iter__",
                   lambda fn: tracer.wrap_generator("data.bootstrap", fn))
    patches.method(data.Normalizer, "normalize", span("data.normalize"))
    patches.method(data.Normalizer, "fit", span("data.normalize"))

    patches.method(planning.TrajectoryOptimizerAgent, "act",
                   span("planning.act"))

    def cem(fn):
        def cem_with_objective(objective, cfg, *args, **kwargs):
            calls = 0

            def counted(candidates):
                nonlocal calls
                calls += 1
                tracer.count("planning.objective.calls")
                rows = np.shape(candidates)[0]
                tracer.count("planning.eval.rows", rows)
                # CEM ranks the candidates of its iterations; the evaluation
                # after the last iteration only fills CEMResult.value, which
                # the MPC agent discards.
                if calls <= cfg.iterations:
                    tracer.count("planning.eval.useful_rows", rows)
                return objective(candidates)

            if not tracer.enabled:
                return fn(objective, cfg, *args, **kwargs)
            return fn(tracer.wrap("planning.eval", counted), cfg,
                      *args, **kwargs)
        return tracer.wrap("planning.cem", cem_with_objective)

    patches.function(planning, "cem_optimize", cem)

    for cls in envs.ENV_CLASSES.values():
        patches.method(cls, "step", span("envs.step"))
        patches.method(cls, "step_batch",
                       span("envs.step_batch", _step_batch_rows))
    for fn_name in ("cartpole_termination", "no_termination",
                    "cartpole_reward", "pendulum_reward"):
        patches.function(envs, fn_name, span("envs.reward_term"))

    patches.function(algorithms, "train_model_on_buffer",
                     span("algorithms.retrain"))
    patches.method(algorithms.LearningCurve, "save", span("io.results_csv"))
    patches.function(diagnostics, "true_env_cem_control",
                     span("diagnostics.true_env_control"))
    patches.function(config, "load_config", span("config.load"))


IO_SPANS = ("io.results_csv", "io.trainer_report", "models.save_model",
            "data.buffer_save")


def per_layer_metrics(tracer: Tracer, pets_loop_seconds: float | None):
    """The per-layer metric dict (name -> (value, unit)).

    pets_loop_seconds is the traced part of a pets_run window, whose time
    not covered by any span is the loop's own self time; None elsewhere.
    """
    spans, root_s = tracer.summary()
    c = tracer.counters

    def get(name, field):
        return spans.get(name, {}).get(field, 0.0)

    fwd_self = get("nets.forward", "self_s")
    flops = c.get("nets.forward.flops", 0.0)
    eval_rows = c.get("planning.eval.rows", 0.0)
    m = {
        "nets.forward.calls": (get("nets.forward", "calls"), "count"),
        "nets.forward.rows": (c.get("nets.forward.rows", 0.0), "count"),
        "nets.forward.self_s": (fwd_self, "s"),
        "nets.forward.flops": (flops, "flop"),
        "nets.forward.gflop_per_s": (
            flops / fwd_self / 1e9 if fwd_self > 0 else 0.0, "GFLOP/s"),
        "nets.backward.self_s": (get("nets.backward", "self_s"), "s"),
        "nets.adam_step.self_s": (get("nets.adam_step", "self_s"), "s"),
        "models.ensemble_forward.self_s": (
            get("models.ensemble_forward", "self_s"), "s"),
        "models.sample.self_s": (get("models.sample", "self_s"), "s"),
        "models.model_env_step.calls": (
            get("models.model_env_step", "calls"), "count"),
        "models.model_env_step.self_s": (
            get("models.model_env_step", "self_s"), "s"),
        "models.update.self_s": (get("models.update", "self_s"), "s"),
        "models.trainer_train.s": (get("models.trainer_train", "s"), "s"),
        "models.epochs": (c.get("models.epochs", 0.0), "count"),
        "models.save_model.s": (get("models.save_model", "s"), "s"),
        "models.load_model.s": (get("models.load_model", "s"), "s"),
        "models.checkpoint_bytes": (
            c.get("models.checkpoint_bytes", 0.0), "bytes"),
        "data.buffer_add.self_s": (get("data.buffer_add", "self_s"), "s"),
        "data.buffer_save.s": (get("data.buffer_save", "s"), "s"),
        "data.buffer_load.s": (get("data.buffer_load", "s"), "s"),
        "data.buffer_bytes": (c.get("data.buffer_bytes", 0.0), "bytes"),
        "data.bootstrap.self_s": (get("data.bootstrap", "self_s"), "s"),
        "data.normalize.self_s": (get("data.normalize", "self_s"), "s"),
        "planning.act.calls": (get("planning.act", "calls"), "count"),
        "planning.cem.self_s": (get("planning.cem", "self_s"), "s"),
        "planning.objective.calls": (
            c.get("planning.objective.calls", 0.0), "count"),
        "planning.eval.self_s": (get("planning.eval", "self_s"), "s"),
        "planning.eval.rows": (eval_rows, "count"),
        "planning.eval.useful_ratio": (
            c.get("planning.eval.useful_rows", 0.0) / eval_rows
            if eval_rows else 0.0, "1"),
        "envs.step.calls": (get("envs.step", "calls"), "count"),
        "envs.step.self_s": (get("envs.step", "self_s"), "s"),
        "envs.step_batch.rows": (c.get("envs.step_batch.rows", 0.0), "count"),
        "envs.step_batch.self_s": (get("envs.step_batch", "self_s"), "s"),
        "envs.reward_term.self_s": (get("envs.reward_term", "self_s"), "s"),
        "algorithms.retrain.calls": (
            get("algorithms.retrain", "calls"), "count"),
        "algorithms.retrain.s": (get("algorithms.retrain", "s"), "s"),
        "algorithms.io.s": (sum(get(n, "s") for n in IO_SPANS), "s"),
        "algorithms.loop.self_s": (
            max(pets_loop_seconds - root_s, 0.0)
            if pets_loop_seconds is not None else 0.0, "s"),
        "diagnostics.true_env_control.self_s": (
            get("diagnostics.true_env_control", "self_s"), "s"),
        "config.load.s": (get("config.load", "s"), "s"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.seconds": (tracer.traced_seconds, "s"),
    }
    return m

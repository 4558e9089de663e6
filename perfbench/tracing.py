"""Span tracing of bsrnnlite from the outside, by wrapping module functions.

Every target is a module attribute that the package's own callers look up
at call time (``model.py`` calls ``dense`` through its own global, the CLI
calls ``wavio.read_wav`` through the module, and so on). Installing the
tracer swaps those attributes for wrappers that record a span; removing it
puts the originals back, so untraced runs execute the unmodified program.

A target that no longer exists (a function renamed or removed by a later
refactor) is skipped and its span name is reported as absent; metrics that
depend on it are then marked absent rather than crashing the run.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

_clock = time.perf_counter


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Tracer:
    """In-memory span recorder plus counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []
        self.counters: dict = defaultdict(float)
        self.errors: list = []
        self.absent: dict = {}  # span name -> reason
        self.full_frames = 0  # frames entering the current layer stack
        self._originals: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = _clock()
        if not self.stack or self.stack[-1] != idx:
            self.errors.append(f"span {self.spans[idx][0]} closed out of order")
            if idx in self.stack:
                del self.stack[self.stack.index(idx):]
        else:
            self.stack.pop()
        self.spans[idx][2] = end

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    # -- installing wrappers ---------------------------------------------

    def install(self, bs) -> None:
        """Wrap every boundary of package ``bs`` that exists."""
        wanted, absent = targets(bs)
        self.absent.update(absent)
        for module, attr, span, hook in wanted:
            fn = getattr(module, attr, None)
            if not callable(fn):
                where = getattr(module, "__name__", "a missing bsrnnlite module")
                self.absent.setdefault(span, f"{where}.{attr} not found")
                continue
            setattr(module, attr, self._wrap(fn, span, hook))
            self._originals.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, span: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(span)
            try:
                if hook is not None and span not in tracer.absent:
                    try:
                        args, kwargs = hook(tracer, args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError) as exc:
                        tracer.absent[span] = f"{span} arguments changed: {exc!r}"
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- analysis --------------------------------------------------------

    def times(self):
        """Per span name: (inclusive seconds, self seconds, span count).

        Also checks the tree: every span closed, and no child's self time
        (nor the children's combined time) exceeds its parent span.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if end < start:
                self.errors.append(f"span {name} never closed")
            elif parent >= 0:
                child_time[parent] += end - start
        incl: dict = defaultdict(float)
        self_t: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        slack = 1e-7
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            own = dur - child_time[i]
            if own < -slack:
                self.errors.append(f"children of {name} cover {child_time[i]:.6f} s > span {dur:.6f} s")
            if parent >= 0:
                p = self.spans[parent]
                if own > p[2] - p[1] + slack:
                    self.errors.append(f"self time of {name} exceeds parent {p[0]}")
            incl[name] += dur
            self_t[name] += max(own, 0.0)
            calls[name] += 1
        if self.stack:
            self.errors.append(f"{len(self.stack)} spans still open at the end")
        return incl, self_t, calls

    def dump(self, path, extra: dict) -> None:
        """Write names, spans (µs from the first span) and counters as JSON."""
        names = sorted({s[0] for s in self.spans})
        ids = {nm: i for i, nm in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "span_fields": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [ids[s[0]], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1), s[3]]
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "absent": self.absent,
            "errors": self.errors,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- hooks: counters taken at the same boundaries as the spans --------------

def _hook_lstm(tracer, args, kwargs):
    seqs = args[0] if args else kwargs.get("seqs")
    b, t = seqs.shape[0], seqs.shape[1]
    tracer.count("rnn.lstm_calls")
    tracer.count("rnn.lstm_steps", t)
    tracer.count("rnn.lstm_positions", b * t)
    return args, kwargs


def _hook_resampled(tracer, args, kwargs):
    feats = args[0] if args else kwargs["features"]
    factor = args[2] if len(args) > 2 else kwargs["factor"]
    tracer.count("resample.core_frames", _ceil_div(feats.shape[-2], factor))
    tracer.count("resample.full_frames", tracer.full_frames)
    return args, kwargs


def _hook_pruned(tracer, args, kwargs):
    feats = args[0] if args else kwargs["features"]
    skip = args[2] if len(args) > 2 else kwargs["skip_count"]
    tracer.count("prune.active_bands", feats.shape[0] - skip)
    tracer.count("prune.all_bands", feats.shape[0])
    return args, kwargs


def _make_stack_hook(accepts_probe: bool):
    """Record the stack's full frame rate and open one span per sublayer.

    Sublayer boundaries come from ``forward_features``'s ``probe=``
    callback; a probe the caller passed is still called.
    """

    def hook(tracer, args, kwargs):
        feats = args[1] if len(args) > 1 else kwargs["features"]
        tracer.full_frames = feats.shape[1]
        if not accepts_probe:
            return args, kwargs
        user_probe = kwargs.get("probe")
        if len(args) > 3:
            user_probe, args = args[3], args[:3]
        open_spans = {}

        def probe(stage, layer, array):
            if stage in ("band_in", "time_in"):
                kind = "band_rnn" if stage == "band_in" else "time_rnn"
                open_spans[stage[:4]] = tracer.open(f"model.{kind}.l{layer}")
            elif stage in ("band_out", "time_out"):
                tracer.close(open_spans.pop(stage[:4]))
            if user_probe is not None:
                user_probe(stage, layer, array)

        kwargs = dict(kwargs, probe=probe)
        return args, kwargs

    return hook


def targets(bs):
    """``(module, attr, span, hook)`` for every traced boundary, plus absences.

    ``bs`` is the imported ``bsrnnlite`` package. A name is listed once
    per module that binds it, because each module's callers look it up in
    that module. The second value maps span names that cannot be recorded
    to the reason.
    """
    m, macs, cli, rnn, bands, configio, weights_io, wavio = (
        getattr(bs, name, None)
        for name in ("model", "macs", "cli", "rnn", "bands", "configio", "weights_io", "wavio"))
    ff = getattr(m, "forward_features", None)
    accepts_probe = ff is not None and "probe" in inspect.signature(ff).parameters
    out = [
        (cli, "main", "cli.main", None),
        (cli, "build", "model.build", None),
        (m, "build", "model.build", None),
        (configio, "load_config", "configio.load", None),
        (weights_io, "load_weights", "weights_io.load", None),
        (wavio, "read_wav", "wavio.read", None),
        (wavio, "write_wav", "wavio.write", None),
        (m, "enhance", "model.enhance", None),
        (m, "forward_features", "model.stack", _make_stack_hook(accepts_probe)),
        (m, "_band_core", "model.band_core", None),
        (m, "_time_core", "model.time_core", None),
        (m, "resampled_sublayer", "resample.sublayer", _hook_resampled),
        (m, "pps_wrap", "resample.pps", None),
        (m, "apply_pruned_time_rnn", "prune.time_rnn", _hook_pruned),
        (rnn, "lstm_forward_batch", "rnn.lstm", _hook_lstm),
        (m, "dense", "rnn.dense", None),
        (bands, "dense", "rnn.dense", None),
        (m, "layer_norm", "rnn.norm", None),
        (bands, "layer_norm", "rnn.norm", None),
        (macs, "analyze", "macs.analyze", None),
        (macs, "count_forward", "macs.count_forward", None),
        (macs, "reduction_table", "macs.table", None),
        (macs, "calibrate_feature_dims", "macs.calibrate", None),
    ]
    for mod in (m, macs):
        out += [
            (mod, "stft", "dsp.stft", None),
            (mod, "istft", "dsp.istft", None),
            (mod, "band_split", "bands.split", None),
            (mod, "estimate_mask", "bands.mask_head", None),
            (mod, "apply_mask", "bands.apply_mask", None),
        ]
    out.append((m, "observation_add", "dsp.oa", None))
    # count_forward runs the stack through macs' own binding
    out.append((macs, "forward_features", "model.stack", _make_stack_hook(accepts_probe)))
    absent = {}
    if not accepts_probe:
        why = "forward_features takes no probe= callback"
        absent = {"model.band_rnn": why, "model.time_rnn": why}
    return out, absent

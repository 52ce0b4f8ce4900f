"""Spans around the calls into each library layer, recorded from outside.

``Tracer.install`` replaces the layer entry points named in ``LAYER_CALLS``
(module attributes and class methods) with wrappers that record one span
per call: name, start, end, parent span, point id, whether the call
returned, and a per-name extra (series terms, emitted weights, target
evaluations).  Calls between layers resolve these names at call time, so
nested calls are traced too.  ``uninstall`` restores the originals.  Spans
stay in memory until the run ends; ``layer_metrics`` derives the per-layer
figures from them and ``dump`` writes them out.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from time import perf_counter_ns

import numpy as np

from dunkl_appell import appell, bounds, cli, dunkl, engine, functions, series

USEFUL_REL = 1e-16  # emitted weights below this share of the peak are waste


def _exp_terms(result):
    return (result.terms_used, 0)


def _weight_counts(result):
    ws = result.weights
    peak = max(ws, default=0.0)
    return (len(ws), sum(1 for w in ws if w >= USEFUL_REL * peak))


# (span name, owner, attribute, extra-from-result or None)
LAYER_CALLS = (
    ("dunkl.exp", dunkl, "dunkl_exp", _exp_terms),
    ("dunkl.exp", appell, "dunkl_exp", _exp_terms),
    ("dunkl.ratio", engine, "dunkl_exp_neg_ratio", None),
    ("series.eval", series.PowerSeries, "eval", None),
    ("series.transform", series.PowerSeries, "derivative", None),
    ("series.transform", series.PowerSeries, "dunkl_derivative", None),
    ("appell.weights", appell.AppellFamily, "weights", _weight_counts),
    ("engine.qfunc", engine, "q_functionals", None),
    ("engine.cm", engine, "central_moments", None),
    ("engine.cm", bounds, "central_moments", None),
    ("engine.cm", cli, "central_moments", None),
    ("engine.apply", engine, "apply", None),
    ("engine.apply", bounds, "apply", None),
    ("engine.apply", cli, "apply", None),
    ("bounds.modulus1", bounds, "modulus1", None),
    ("bounds.modulus2", bounds, "modulus2", None),
    ("bounds.verify", cli, "verify", None),
    ("cli.parse", cli, "parse_config", None),
    ("cli.emit", cli, "emit", None),
    ("cli.main", cli, "main", None),
)


FIELDS = ("name", "start_ns", "end_ns", "parent", "point", "ok", "extra", "extra2")
_BLANK = array("q", [0] * len(FIELDS))


class Tracer:
    """Records spans into one flat int64 buffer, ``len(FIELDS)`` per span.

    ``name`` indexes ``names``; ``parent`` is the index of the enclosing
    span or -1; ``point`` is the operation id, or -1 outside the timed
    loop; ``extra`` and ``extra2`` hold series terms for dunkl.exp, emitted
    and useful weights for appell.weights, and target evaluations for
    engine.apply.
    """

    def __init__(self):
        self.buf = array("q")
        self.names = []
        self.point = -1
        self.evals = 0  # target-function evaluations so far
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, extra_of):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        buf, stack, width = self.buf, self._stack, len(FIELDS)
        tracer = self

        def traced(*args, **kwargs):
            index = len(buf) // width
            buf.extend(_BLANK)
            parent = stack[-1] if stack else -1
            stack.append(index)
            evals0 = tracer.evals
            result, ok = None, False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                if name == "engine.apply":
                    extra = (tracer.evals - evals0, 0)
                else:
                    extra = extra_of(result) if ok and extra_of else (0, 0)
                buf[index * width:(index + 1) * width] = array(
                    "q", (name_id, start, end, parent, tracer.point, ok) + extra
                )

        return traced

    def _counting(self, fn):
        tracer = self

        def counted(t):
            tracer.evals += 1
            return fn(t)

        return counted

    def install(self):
        for name, owner, attr, extra_of in LAYER_CALLS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extra_of))
        registry = functions.BUILTIN_REGISTRY
        for key, entry in list(registry.items()):
            self._saved.append((registry, key, entry))
            registry[key] = dataclasses.replace(
                entry, evaluator=self._counting(entry.evaluator)
            )

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def table(self):
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, len(FIELDS))

    def dump(self, path):
        """Write the spans as gzipped CSV; the header names the span names."""
        np.savetxt(
            path, self.table(), fmt="%d", delimiter=",",
            header="names: " + " ".join(self.names) + "\n" + ",".join(FIELDS),
        )

    # ------------------------------------------------------------ analysis

    def layer_metrics(self, cli_command_of) -> dict:
        """Per-layer figures from the spans.

        Failure counts use every span, the output checks included; timings
        use the spans of the timed loop.  ``cli_command_of`` maps a point id
        to its CLI command label.
        """
        t = self.table()
        name, parent, point, ok = t[:, 0], t[:, 3], t[:, 4], t[:, 5].astype(bool)
        dur = t[:, 2] - t[:, 1]
        has_parent = parent >= 0
        timed = (point >= 0) & ok
        ids = {n: i for i, n in enumerate(self.names)}

        def is_(n):
            return name == ids.get(n, -1)

        def child_time(mask):
            """Per span: total duration of its direct children in ``mask``."""
            m = mask & has_parent
            return np.bincount(parent[m], weights=dur[m], minlength=len(t))

        def first_child_time(n):
            """Per span: duration of its first direct child named ``n``."""
            m = np.flatnonzero(is_(n) & has_parent)
            out = np.zeros(len(t))
            parents, first = np.unique(parent[m], return_index=True)
            out[parents] = dur[m[first]]
            return out

        out = {}

        def pct(key, values, scale):
            values = np.sort(np.asarray(values, dtype=float)) / scale
            out[key + ".p50"] = nearest_rank(values, 0.50)
            out[key + ".p99"] = nearest_rank(values, 0.99)

        def sel(n):
            return timed & is_(n)

        def mean(values):
            return float(np.mean(values)) if len(values) else 0.0

        pct("dunkl.ratio_us", dur[sel("dunkl.ratio")], 1e3)
        pct("dunkl.exp_us", dur[sel("dunkl.exp")], 1e3)
        out["dunkl.exp_terms"] = mean(t[sel("dunkl.exp"), 6])
        out["dunkl.failed"] = int(np.sum(~ok & np.isin(name, [ids.get(n, -1) for n in ("dunkl.exp", "dunkl.ratio")])))
        pct("series.eval_us", dur[sel("series.eval")], 1e3)
        pct("series.transform_us", dur[sel("series.transform")], 1e3)

        w = sel("appell.weights")
        pct("appell.weights_us", dur[w], 1e3)
        out["appell.emitted"] = mean(t[w, 6])
        emitted = int(np.sum(t[w, 6]))
        out["appell.useful_ratio"] = int(np.sum(t[w, 7])) / emitted if emitted else 0.0
        out["appell.failed"] = int(np.sum(~ok & is_("appell.weights")))

        pct("engine.qfunc_us", dur[sel("engine.qfunc")], 1e3)
        cm = sel("engine.cm")
        pct("engine.cm_us", dur[cm], 1e3)
        # One ratio and one Q-functional call are the work a moment needs;
        # whatever else the span holds is overhead or repeated work.
        cm_self = dur - first_child_time("dunkl.ratio") - first_child_time("engine.qfunc")
        pct("engine.cm_self_us", cm_self[cm], 1e3)
        ap = sel("engine.apply")
        pct("engine.apply_us", dur[ap], 1e3)
        pct("engine.apply_self_us", (dur - child_time(is_("appell.weights")))[ap], 1e3)
        out["functions.evals_per_point"] = mean(t[ap, 6])

        pct("bounds.modulus1_ms", dur[sel("bounds.modulus1")], 1e6)
        pct("bounds.modulus2_ms", dur[sel("bounds.modulus2")], 1e6)
        verify = sel("bounds.verify")
        points = []
        for i in np.flatnonzero(verify):
            # A grid point runs from its central_moments call to the next
            # one (the last to the end of verify).
            starts = t[is_("engine.cm") & (parent == i), 1]
            ends = np.append(starts[1:], t[i, 2])
            points.extend(ends - starts)
        pct("bounds.verify_point_ms", points, 1e6)
        pct("bounds.verify_self_ms", (dur - child_time(np.ones(len(t), bool)))[verify], 1e6)

        pct("cli.parse_us", dur[sel("cli.parse")], 1e3)
        pct("cli.emit_ms", dur[sel("cli.emit")], 1e6)
        main = np.flatnonzero(sel("cli.main"))
        for label in CLI_LABELS:
            mine = [dur[i] / 1e9 for i in main if cli_command_of(int(point[i])) == label]
            out["cli.cmd_s." + label] = float(np.median(mine)) if mine else 0.0
        return out


CLI_LABELS = ("eval", "moments", "converge", "bounds_T2", "bounds_T4")


def nearest_rank(sorted_values, q):
    """The q-quantile of an ascending sequence by the nearest-rank rule; 0 if empty."""
    if len(sorted_values) == 0:
        return 0.0
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])

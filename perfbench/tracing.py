"""Per-layer tracing of ppinv from outside the program.

A Tracer installs timing wrappers around the public functions and methods of
each layer (gf, poly, family, special, oracle, verify, cli).  A function that
another module imported by name, such as cli's ``write_survey_csv``, is
patched at every module attribute that holds it, so the caller's lookup finds
the wrapper.  Methods are patched on their class.  ``FieldElement`` operators
only get counters, because a span per scalar operation would swamp the survey.

Spans (name, start, end, parent) are kept in flat in-memory arrays and written
once, by ``dump``, when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

clock = time.perf_counter

SPAN, ELEMS, COUNT = "span", "elems", "count"

_TABLE_OPS = ("add", "sub", "sum_terms", "mul", "pow", "inv_of")
_ELEMENT_OPS = ("add", "sub", "mul", "truediv", "pow")
_PARAMS_OPS = (
    "images_for", "criterion_mask", "inverse_values",
    "inverse_value", "evaluate", "inverse_polynomial",
)

# (metric prefix, module under ppinv, attribute path in that module, kind)
LAYERS = (
    ("gf.first_irreducible", "gf", "first_irreducible", SPAN),
    ("gf.FieldTables", "gf", "FieldTables.__init__", SPAN),
    *((f"gf.FieldTables.{op}", "gf", f"FieldTables.{op}", ELEMS) for op in _TABLE_OPS),
    *((f"gf.FieldElement.{op}", "gf", f"FieldElement.__{op}__", COUNT) for op in _ELEMENT_OPS),
    *((f"family.PPParams.{op}", "family", f"PPParams.{op}", SPAN) for op in _PARAMS_OPS),
    ("poly.Poly.mul", "poly", "Poly.__mul__", SPAN),
    ("poly.Poly.pow_mod", "poly", "Poly.pow_mod", SPAN),
    ("poly.Poly.frobenius", "poly", "Poly.frobenius", SPAN),
    ("poly.Poly.reduce", "poly", "Poly.reduce", SPAN),
    ("poly.Poly.interpolate", "poly", "Poly.interpolate", SPAN),
    ("oracle.inverse_poly_by_interpolation", "oracle", "inverse_poly_by_interpolation", SPAN),
    ("special.evaluate_special", "special", "evaluate_special", SPAN),
    ("verify.check_family", "verify", "check_family", SPAN),
    ("verify.bijection_mask", "verify", "bijection_mask", SPAN),
    ("verify.write_survey_csv", "verify", "write_survey_csv", SPAN),
    ("cli.main", "cli", "main", SPAN),
)

# Root span around each timed call; its self time is work outside every layer.
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"

# Metrics the harness adds to the layer metrics of a traced run.
RUN_METRICS = (
    (f"{OP_SPAN}.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
)


def metric_names():
    """Every per-layer metric a traced run reports, as (name, unit, better)."""
    out = []
    for prefix, _, _, kind in LAYERS:
        out.append((f"{prefix}.calls", "count", "lower"))
        if kind != COUNT:
            out.append((f"{prefix}.self_s", "s", "lower"))
        if kind == ELEMS:
            out.append((f"{prefix}.elems", "count", "lower"))
    out.append(("family.pp_share", "ratio", "higher"))
    out.extend(RUN_METRICS)
    return out


def self_times(name_ids, parents, starts, ends, n_names):
    """Self seconds and calls per name id, and each span's self seconds.

    Spans nest and siblings never overlap (the program is single-threaded),
    so the time children cover is the sum of their durations.
    """
    name_ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    child = parents >= 0
    covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
    own = dur - covered
    return (
        np.bincount(name_ids, weights=own, minlength=n_names),
        np.bincount(name_ids, minlength=n_names),
        own,
    )


def _sum_terms_elems(args, out):
    return np.size(args[1])


def _result_elems(args, out):
    return np.size(out)


class Tracer:
    """Installs layer wrappers and records spans and counters in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.elems: dict[str, int] = {}
        self.pp = [0, 0]  # criterion-true a, a checked by criterion_mask
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.starts)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def _wrap_span(self, fn, name, after=None):
        sid = self._id(name)
        ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _wrap_count(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _after(self, name, kind):
        if name == "family.PPParams.criterion_mask":
            pp = self.pp

            def tally_criterion(args, out):
                pp[0] += int(np.count_nonzero(out))
                pp[1] += int(np.size(out))

            return tally_criterion
        if kind == ELEMS:
            elems = self.elems
            elems.setdefault(name, 0)
            measure = _sum_terms_elems if name.endswith(".sum_terms") else _result_elems

            def tally_elems(args, out):
                elems[name] += int(measure(args, out))

            return tally_elems
        return None

    def _wrapper(self, raw, name, kind):
        if isinstance(raw, classmethod):
            return classmethod(self._wrapper(raw.__func__, name, kind))
        if kind == COUNT:
            return self._wrap_count(raw, name)
        return self._wrap_span(raw, name, self._after(name, kind))

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def install(self):
        """Patch every layer at each name its callers look it up by."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for modname, mod in sorted(sys.modules.items())
            if modname == "ppinv" or modname.startswith("ppinv.")
        ]
        for name, modname, path, kind in LAYERS:
            owner = sys.modules[f"ppinv.{modname}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            wrapped = self._wrapper(raw, name, kind)
            if classes:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def traced(self, name, fn):
        """``fn`` in a span of its own, for spans the harness opens itself."""
        return self._wrap_span(fn, name)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, window: tuple[int, int], wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every recorded span.

        ``window`` is the index range of the spans recorded in the traced
        timed pass and ``wall_s`` that pass's wall time; their ratio is the
        span coverage.
        """
        own_by_name, calls_by_name, own = self_times(
            self.name_ids, self.parents, self.starts, self.ends, len(self.names)
        )
        own_of = {n: float(own_by_name[i]) for i, n in enumerate(self.names)}
        calls_of = {n: int(calls_by_name[i]) for i, n in enumerate(self.names)}
        lo, hi = window
        out: dict[str, float] = {}
        for prefix, _, _, kind in LAYERS:
            if kind == COUNT:
                out[f"{prefix}.calls"] = self.counts.get(prefix, 0)
                continue
            out[f"{prefix}.calls"] = calls_of.get(prefix, 0)
            out[f"{prefix}.self_s"] = own_of.get(prefix, 0.0)
            if kind == ELEMS:
                out[f"{prefix}.elems"] = self.elems.get(prefix, 0)
        out["family.pp_share"] = self.pp[0] / self.pp[1] if self.pp[1] else 0.0
        out[f"{OP_SPAN}.self_s"] = own_of.get(OP_SPAN, 0.0)
        out["trace.span_coverage"] = float(own[lo:hi].sum()) / wall_s if wall_s > 0 else 0.0
        return out

    def dump(self, path):
        """Write every span once, as compressed arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_ids, dtype=np.int64),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
        )

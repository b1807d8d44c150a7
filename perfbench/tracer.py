"""Span recorder for traced benchmark runs.

Wrappers are installed from outside the program: each wrapped function is
replaced in every loaded ``gaugefix`` module that binds it (so names taken
in with ``from .phase import poisson_bracket`` are covered too), and
methods are replaced on their class. The program source is not edited.

A span is (name, start, end, parent). Spans are appended to flat arrays in
memory while the program runs and are reduced once, when the run ends:
a span's self time is its duration minus the durations of its direct
children, so self times over all spans add up to the time covered by the
outermost spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function name, span name) for the module-level functions traced.
FUNCTIONS = (
    ("gaugefix.cli", "main", None),  # named per subcommand, see install()
    ("gaugefix.evolution", "evolve", "evolution.evolve"),
    ("gaugefix.evolution", "_finite", "evolution.step_check"),
    ("gaugefix.fields", "rhs_hat", "fields.rhs_hat"),
    ("gaugefix.fields", "momentum_rhs_hat", "fields.momentum_rhs_hat"),
    ("gaugefix.fields", "position_rhs_hat", "fields.position_rhs_hat"),
    ("gaugefix.fields", "constraint_norms", "fields.constraint_norms"),
    ("gaugefix.fields", "longitudinal_norms", "fields.longitudinal_norms"),
    ("gaugefix.fields", "energy", "fields.energy"),
    ("gaugefix.fields", "l2_norm", "fields.l2_norm"),
    ("gaugefix.fields", "transverse_project", "fields.transverse_project"),
    ("gaugefix.fields", "read_snapshot", "fields.snapshot_read"),
    ("gaugefix.fields", "write_snapshot", "fields.snapshot_write"),
    ("gaugefix.fields", "plane_wave_reference", None),  # wraps the returned callable
    ("gaugefix.phase", "fd_gradient", "phase.fd_gradient"),
    ("gaugefix.phase", "poisson_bracket", "phase.poisson_bracket"),
    ("gaugefix.constraints", "consistency_chain", "constraints.chain"),
    ("gaugefix.constraints", "classify_constraints", "constraints.classify"),
    ("gaugefix.constraints", "make_surface_sampler", None),  # wraps the returned sampler
    ("gaugefix.constraints", "least_squares_project", "constraints.least_squares_project"),
    ("gaugefix.constraints", "commutation_matrix", "constraints.commutation_matrix"),
    ("gaugefix.constraints", "dirac_bracket", "constraints.dirac_bracket"),
    ("gaugefix.constraints", "project_to_constraint_surface", "constraints.projection"),
    ("gaugefix.symbols", "analyze_symbol", "symbols.analyze"),
)

# (module, class, method, span name) for the methods traced on their class.
METHODS = (
    ("gaugefix.fields", "SpectralWorkspace", "forward", "fields.fft"),
    ("gaugefix.fields", "SpectralWorkspace", "backward", "fields.fft"),
    ("gaugefix.evolution", "DiagnosticsSeries", "to_csv", "evolution.to_csv"),
)

# Per-row diagnostics: spans directly under evolve that a CSV row spends.
DIAG_ROW = ("fields.constraint_norms", "fields.longitudinal_norms", "fields.energy",
            "fields.reference", "fields.l2_norm")


class Recorder:
    """In-memory span store plus a few exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.values: dict[str, list] = {}

    def reset(self) -> None:
        """Drop spans and counters recorded so far (e.g. during set-up)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counters.clear()
        self.values.clear()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def note(self, name: str, value) -> None:
        self.values.setdefault(name, []).append(value)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span timed before the recorder existed."""
        self.name_id.append(self._id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name, fn, on_result=None, name_of=None):
        """Wrap fn in a span; on_result(args, result) sees each return value."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name if name_of is None else name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def summary(self, window_s: float) -> dict:
        """Reduce spans to per-name calls, inclusive and self time."""
        n = len(self.start)
        names = self.names
        out = {"window_s": window_s, "spans": {}, "counters": dict(self.counters),
               "values": {k: list(v) for k, v in self.values.items()}}
        if n == 0:
            out["attributed_s"] = 0.0
            return out
        start, end, parent, name_id = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child_sum
        k = len(names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=self_t, minlength=k)
        for i, name in enumerate(names):
            if calls[i]:
                out["spans"][name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                                      "self_s": float(selfs[i])}
        pairs = np.bincount(name_id[parent[has_parent]] * k + name_id[has_parent],
                            minlength=k * k)
        out["edges"] = {f"{names[i // k]}>{names[i % k]}": int(pairs[i])
                        for i in np.nonzero(pairs)[0]}
        out["attributed_s"] = float(dur[~has_parent].sum())
        out["diag_rows_s"] = self._diag_rows(name_id, parent, dur)
        return out

    def _diag_rows(self, name_id, parent, dur) -> list[float]:
        ids = self._ids
        if "evolution.evolve" not in ids:
            return []
        evolve = np.nonzero(name_id == ids["evolution.evolve"])[0]
        diag = [ids[nm] for nm in DIAG_ROW if nm in ids]
        rows: list[float] = []
        start_row = ids.get("fields.constraint_norms")
        for e in evolve:
            members = np.nonzero((parent == e) & np.isin(name_id, diag))[0]
            for i in members:
                if name_id[i] == start_row or not rows:
                    rows.append(0.0)
                rows[-1] += float(dur[i])
        return rows

    def _arrays(self):
        # Copies, so the arrays stay appendable (a live buffer view locks them).
        return (np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int32), np.array(self.name_id, dtype=np.int32))

    def save(self, path) -> None:
        """Write the raw spans and the name table as an .npz file."""
        start, end, parent, name_id = self._arrays()
        np.savez(path, names=np.array(self.names, dtype=str), name_id=name_id,
                 parent=parent, start=start, end=end)


def _gaugefix_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gaugefix" or name.startswith("gaugefix."))]


def _rebind(orig, wrapper) -> None:
    """Replace orig by wrapper under every name a gaugefix module binds it to."""
    for mod in _gaugefix_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _subcommand(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    argv = sys.argv[1:] if argv is None else argv
    return f"cli.{argv[0]}" if argv else "cli.main"


def install(rec: Recorder) -> list[str]:
    """Install every wrapper whose target exists; return the ones missing.

    A target that a later version of the program no longer has is skipped,
    so its metrics read zero instead of the run failing.
    """
    missing = []

    def fft_bytes(args, result):
        rec.count("fields.fft.bytes", args[1].nbytes + result.nbytes)

    def snapshot_bytes(args, result):
        state = result if result is not None else args[0]
        rec.count("fields.snapshot.bytes", 20 + state.a.nbytes + state.pi.nbytes)

    def sampler_points(args, result):
        rec.count("constraints.sampler.points", len(result))

    def wrap_sampler(args, sampler):
        return rec.wrap("constraints.sampler", sampler, sampler_points)

    def wrap_reference(args, reference):
        return rec.wrap("fields.reference", reference)

    returns_callable = {"make_surface_sampler": wrap_sampler,
                        "plane_wave_reference": wrap_reference}
    on_result = {
        "read_snapshot": snapshot_bytes,
        "write_snapshot": snapshot_bytes,
        "evolve": lambda args, series: rec.count("evolution.rows", len(series.t)),
        "project_to_constraint_surface":
            lambda args, res: rec.note("constraints.projection.iterations", res[1].iterations),
        "analyze_symbol": lambda args, rep: rec.count("symbols.directions", len(rep.samples)),
    }

    for modname, fname, span in FUNCTIONS:
        mod = sys.modules.get(modname)
        orig = getattr(mod, fname, None) if mod is not None else None
        if orig is None:
            missing.append(f"{modname}.{fname}")
            continue
        if fname in returns_callable:
            post = returns_callable[fname]

            def wrapper(*args, _orig=orig, _post=post, **kwargs):
                return _post(args, _orig(*args, **kwargs))

            wrapper = functools.wraps(orig)(wrapper)
        elif fname == "main":
            wrapper = rec.wrap(None, orig, name_of=_subcommand)
        else:
            wrapper = rec.wrap(span, orig, on_result.get(fname))
        _rebind(orig, wrapper)

    for modname, clsname, meth, span in METHODS:
        cls = getattr(sys.modules.get(modname), clsname, None)
        if cls is None or not hasattr(cls, meth):
            missing.append(f"{modname}.{clsname}.{meth}")
            continue
        post = fft_bytes if span == "fields.fft" else None
        setattr(cls, meth, rec.wrap(span, getattr(cls, meth), post))

    phase = sys.modules.get("gaugefix.phase")
    pf_cls = getattr(phase, "PhaseFunction", None)
    if pf_cls is not None and hasattr(pf_cls, "grad"):
        orig_grad = pf_cls.grad
        counters = rec.counters

        @functools.wraps(orig_grad)
        def grad(self, z):
            counters["phase.grad.calls"] = counters.get("phase.grad.calls", 0) + 1
            if self.gradient is None:
                counters["phase.grad.fd_calls"] = counters.get("phase.grad.fd_calls", 0) + 1
            return orig_grad(self, z)

        pf_cls.grad = grad
    else:
        missing.append("gaugefix.phase.PhaseFunction.grad")
    return missing

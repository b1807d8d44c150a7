"""gaugefix benchmark: run one workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload wave_rk4 --seed 1 --seconds 25 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its src/. One client runs one operation at a
time, each in a fresh child interpreter, until the next operation would
end past --seconds (untraced: at least two operations). --trace 0 reports
the end-to-end metrics, with times scaled to the reference host speed
(calibrate.py); --trace 1 alternates untraced and traced operations and
reports the per-layer metrics. The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it start with "# " and carry the machine description, each
operation's figures and the values the output checks found. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
MIN_SETUP_SAMPLES = 5
# Untraced runs time at least two operations, so every reported median
# rests on more than one sample even when one operation takes most of
# --seconds (wave_rk4, dirac_chain); a traced run needs one pair.
MIN_OPS = 2
LAYERS = ("cli", "evolution", "fields", "phase", "constraints", "symbols")


# ---------------------------------------------------------------------------
# Machine and code identity
# ---------------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit is None:
        for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def code_digest(root: Path) -> str:
    """sha256 over the program and benchmark sources (names and bytes)."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "gaugefix").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(), "cpu_model": model, "caches_per_core_or_shared": caches,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(root), "code_sha256": code_digest(root),
    }


# ---------------------------------------------------------------------------
# Repeatability: byte-identical outputs and exact counters
# ---------------------------------------------------------------------------

class RepeatStore:
    """Output digests and exact counters of earlier operations on the same
    code, workload and seed (in this run and earlier runs in this checkout).
    A mismatch is reported as a failure of the operation that produced it."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, what: str, values: dict) -> list:
        seen = self.data.setdefault(self.key, {}).setdefault(what, {})
        failures = []
        for name, value in values.items():
            if name in seen and seen[name] != value:
                failures.append(f"{what} {name}: {value!r} differs from an earlier "
                                f"operation's {seen[name]!r}")
            seen.setdefault(name, value)
        return failures

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


def digests(outputs: dict) -> dict:
    out = {}
    for name, path in outputs.items():
        try:
            out[name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError:
            out[name] = None
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced operation
# ---------------------------------------------------------------------------

def merge(traces: list) -> dict:
    """Add up the trace summaries of one operation's children."""
    out = {"window_s": 0.0, "attributed_s": 0.0, "spans": {}, "counters": {},
           "values": {}, "edges": {}, "diag_rows_s": []}
    for tr in traces:
        out["window_s"] += tr["window_s"]
        out["attributed_s"] += tr["attributed_s"]
        out["diag_rows_s"] += tr.get("diag_rows_s", [])
        for name, s in tr["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += s[k]
        for group in ("counters", "edges"):
            for name, v in tr.get(group, {}).items():
                out[group][name] = out[group].get(name, 0) + v
        for name, vs in tr["values"].items():
            out["values"].setdefault(name, []).extend(vs)
    return out


def quantile(values: list, q: int) -> float:
    """q-th decile of values (0 if empty)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(tr: dict) -> dict:
    spans, counters, values = tr["spans"], tr["counters"], tr["values"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    window = tr["window_s"]
    m = {
        "cli.import_s": statistics.median(values.get("cli.import_s", [0.0])),
        "cli.evolve_s": total("cli.evolve"),
        "cli.symbol_s": total("cli.symbol"),
        "cli.constraints_s": total("cli.constraints"),
        "cli.project_s": total("cli.project"),
        "evolution.to_csv_s": total("evolution.to_csv"),
        "evolution.steps": calls("evolution.step_check"),
        "evolution.rows": counters.get("evolution.rows", 0),
        "evolution.step_self_s": self_s("evolution.evolve"),
        "fields.diag_row.p50_s": quantile(tr["diag_rows_s"], 5),
        "fields.diag_row.p90_s": quantile(tr["diag_rows_s"], 9),
        "fields.fft.bytes": counters.get("fields.fft.bytes", 0),
        "fields.snapshot_read_s": total("fields.snapshot_read"),
        "fields.snapshot_write_s": total("fields.snapshot_write"),
        "fields.snapshot.bytes": counters.get("fields.snapshot.bytes", 0),
        "phase.grad.fd_frac": ratio(counters.get("phase.grad.fd_calls", 0),
                                    counters.get("phase.grad.calls", 0)),
        "constraints.chain_s": total("constraints.chain"),
        "constraints.classify_s": total("constraints.classify"),
        "constraints.chain.generations": tr["edges"].get(
            "constraints.chain>constraints.sampler", 0),
        "constraints.sampler.attempts": calls("constraints.least_squares_project"),
        "constraints.sampler.accept_ratio": ratio(
            counters.get("constraints.sampler.points", 0),
            calls("constraints.least_squares_project")),
        "constraints.dirac_bracket.calls": calls("constraints.dirac_bracket"),
        "constraints.projection.iterations": sum(
            values.get("constraints.projection.iterations", [])),
        "symbols.analyze_s": total("symbols.analyze"),
        "symbols.directions": counters.get("symbols.directions", 0),
        "trace.run_s": window,
        "trace.unattributed_frac": ratio(window - tr["attributed_s"], window),
    }
    for name in ("fields.rhs_hat", "fields.momentum_rhs_hat", "fields.position_rhs_hat",
                 "fields.fft", "fields.transverse_project", "phase.fd_gradient",
                 "phase.poisson_bracket", "constraints.commutation_matrix"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for layer in LAYERS:
        m[f"trace.self_frac.{layer}"] = ratio(
            sum(s["self_s"] for n, s in spans.items() if n.startswith(layer + ".")), window)
    return m


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gaugefix" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no gaugefix source or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # The program's generators take non-negative 32-bit seeds.
    seed = args.seed & 0xFFFFFFFF
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    ctx = Context(ROOT, WORK / args.workload, seed)
    env = environment(ROOT)
    store = RepeatStore(WORK / "repeat.json", f"{args.workload}|{seed}|{env['code_sha256']}")
    print("# env " + json.dumps(env), flush=True)

    attempted = failed = 0
    plain, traced, loop_s = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for trace in ((False, True) if args.trace else (False,)):
            it = workload.iteration(ctx, trace)
            it.failures += store.check("output", digests(it.outputs))
            if trace and not it.failures:
                exact = {k: v for k, v in layer_metrics(merge(it.traces)).items()
                         if units.get(k) in ("count", "B")}
                it.failures += store.check("counter", exact)
            attempted += it.attempted
            failed += it.failed
            (traced if trace else plain).append(it)
            print(f"# op trace={int(trace)} run_s={it.run_s!r} cpu_s={it.cpu_s!r} "
                  f"rss_mb={it.rss_mb!r} setup_s={it.setup_s} speed={it.speed!r} "
                  f"cpu_speed={it.cpu_speed!r} info={json.dumps(it.info)}", flush=True)
            for msg in it.failures:
                print(f"# FAILED {msg}", flush=True)
        loop_s.append(time.perf_counter() - t0)
        if (len(loop_s) >= (1 if args.trace else MIN_OPS)
                and time.perf_counter() - t_start + statistics.median(loop_s) > args.seconds):
            break

    ok = [it for it in plain if it.run_s > 0]
    if not ok or (args.trace and not any(it.run_s > 0 for it in traced)):
        print("perfbench: no operation completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        run_s = statistics.median(it.run_s for it in ok)
        done = [it for it in traced if it.run_s > 0]
        per_op = [layer_metrics(merge(it.traces)) for it in done]
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        metrics["trace.overhead_frac"] = metrics["trace.run_s"] / run_s - 1.0
        metrics["evolution.l2_error"] = statistics.median(
            it.info.get("l2_error", 0.0) for it in done)
    else:
        setups = [s for it in plain for s in it.setup_s]
        while len(setups) < MIN_SETUP_SAMPLES:
            try:
                setups.append(workload.setup_only(ctx))
            except RuntimeError as exc:
                attempted += 1
                failed += 1
                print(f"# FAILED {exc}", flush=True)
                break
        run_s = statistics.median(it.run_s * it.speed for it in ok)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "cpu_s": statistics.median(it.cpu_s * it.cpu_speed for it in ok),
            "work_per_s": workload.work / run_s,
            "peak_rss_mb": statistics.median(it.rss_mb for it in ok),
        }
        print(f"# raw medians (not scaled by host speed): "
              f"run_s={statistics.median(it.run_s for it in ok)!r} "
              f"cpu_s={statistics.median(it.cpu_s for it in ok)!r} "
              f"speed={statistics.median(it.speed for it in ok)!r}", flush=True)
    store.save()

    if set(metrics) != set(units):
        print(f"perfbench: metric names disagree with BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print(f"# failed_frac {failed / attempted!r} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

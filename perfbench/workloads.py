"""The four workloads: their inputs, how one iteration runs, and its checks.

Parent side only (standard library): the program runs in child
interpreters (child.py), and this module only writes the inputs they are
given, times them from outside and checks the files they leave behind.
One iteration is one closed-loop operation: a fresh child (or, for
cli_short, one fresh child per command) that sets up, runs and exits
before the next one starts.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# What the installed `gaugefix` console script runs.
ENTRY = "import sys; from gaugefix.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 150.0
# spawn_probe's wall and CPU seconds on the reference machine (baseline.json),
# rounded: the host speed 1.0 for set-up and cli_short (calibrate.py has the
# served workloads'). CPU exceeds wall because numpy starts its BLAS threads.
SPAWN_REF_S = (0.180, 0.280)

TWO_PI = 2.0 * math.pi
CSV_HEADER = "t,energy,norm_divA,norm_divPi,norm_A_L,norm_pi_L,l2_error"


@dataclass
class Iteration:
    """What one closed-loop operation measured and found."""

    setup_s: list = field(default_factory=list)
    run_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # name -> path, digested by run.py
    traces: list = field(default_factory=list)   # per-child trace summaries
    speed: float = 1.0      # host speed during the work (calibrate.py); run_s * speed
    cpu_speed: float = 1.0  # is the time at the reference speed. The same for CPU time.
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


class Context:
    """Checkout root, per-workload scratch directory and child environment."""

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PERFBENCH_ROOT=str(root))

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def clear(self, *names: str) -> None:
        for name in names:
            for p in (self.workdir / name, self.workdir / (name + ".json")):
                if p.exists():
                    p.unlink()


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Child:
    """A child interpreter with a kill timer, reaped with its resource usage."""

    def __init__(self, ctx: Context, argv: list, stdout=subprocess.PIPE, stdin=None):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, *argv], cwd=ctx.root, env=ctx.env,
                                     stdin=stdin, stdout=stdout, text=True)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def message(self):
        """Next "@@" line from the child as JSON, or None at end of output."""
        for line in self.proc.stdout:
            if line.startswith("@@"):
                return json.loads(line[2:])
        return None

    def send(self, text: str) -> None:
        try:
            self.proc.stdin.write(text + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass

    def reap(self):
        """Wait for exit; return (exit code, wall seconds, CPU seconds, peak RSS MB)."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                if pipe is self.proc.stdout:
                    pipe.read()
                pipe.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.t0
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return (self.proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def spawn_probe(ctx: Context) -> tuple[float, float]:
    """Wall and CPU seconds of a fresh interpreter that imports numpy and exits.

    The host-speed probe of short commands and of set-up: it pays what every
    command and set-up pays first (process start, dynamic loading,
    unmarshalling and running module code) and does not touch gaugefix.
    """
    code, wall, cpu, _ = Child(ctx, ["-c", "import numpy"]).reap()
    if code != 0:
        raise RuntimeError(f"host-speed probe exited {code}")
    return wall, cpu


def spawn_speed(before: tuple, after: tuple) -> tuple[float, float]:
    """Host speed (wall, CPU) from the spawn probes just before and after
    some work: the reference time over the mean of the two."""
    return (SPAWN_REF_S[0] / ((before[0] + after[0]) / 2.0),
            SPAWN_REF_S[1] / ((before[1] + after[1]) / 2.0))


def served_child(ctx: Context, kind: str, trace: bool, args: list):
    """Start a child that sets up and waits; return (child, setup seconds, ready msg)."""
    child = Child(ctx, [str(CHILD), kind, "1" if trace else "0", str(ctx.workdir), *args],
                  stdin=subprocess.PIPE)
    ready = child.message()
    return child, time.perf_counter() - child.t0, ready


# ---------------------------------------------------------------------------
# Checks (each returns a list of failure descriptions)
# ---------------------------------------------------------------------------

def read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    cols = {name: [] for name in CSV_HEADER.split(",")}
    for row in csv.reader(lines[1:]):
        for name, value in zip(cols, row):
            cols[name].append(float(value))
    return cols


def slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def check_wave(cols: dict, info: dict) -> list:
    failures = []
    l2_error = cols["l2_error"][-1]
    energy0 = cols["energy"][0]
    drift = max(abs(e / energy0 - 1.0) for e in cols["energy"])
    info.update(l2_error=l2_error, energy_drift=drift)
    if len(cols["t"]) != 21:
        failures.append(f"wave_rk4: {len(cols['t'])} rows, expected 21")
    if not l2_error < 1e-6:
        failures.append(f"wave_rk4: final l2_error {l2_error!r} not below 1e-6")
    if not drift < 1e-8:
        failures.append(f"wave_rk4: energy drift {drift!r} not below 1e-8")
    return failures


def check_growth(cols: dict, info: dict) -> list:
    failures = []
    pi_l0 = cols["norm_pi_L"][0]
    rel_slope = abs(slope(cols["t"], cols["norm_A_L"]) - pi_l0) / pi_l0
    pi_dev = max(abs(v - pi_l0) for v in cols["norm_pi_L"]) / pi_l0
    info.update(slope_rel_error=rel_slope, pi_L_rel_deviation=pi_dev)
    if len(cols["t"]) != 21:
        failures.append(f"growth_diag: {len(cols['t'])} rows, expected 21")
    if not rel_slope < 1e-6:
        failures.append(f"growth_diag: norm_A_L slope off norm_pi_L(0) by {rel_slope!r}")
    if not pi_dev < 1e-10:
        failures.append(f"growth_diag: norm_pi_L not constant (relative deviation {pi_dev!r})")
    return failures


def check_dirac(report: dict, info: dict) -> list:
    failures = []
    expected_dirac = {"q1,p1": 1.0, "q2,p2": 0.0, "q1,q2": 1.0}
    dev = max(abs(report["dirac"][k] - v) for k, v in expected_dirac.items())
    mat = report["commutation_matrix"]
    mat_dev = max(abs(mat[i][j] - e) for i, row in enumerate([[0.0, -1.0], [1.0, 0.0]])
                  for j, e in enumerate(row))
    info.update(dirac_deviation=dev, projection_iterations=report["projection_iterations"])
    if report["gradient_directions"] != [3, 0, 2, 1]:
        failures.append(f"dirac_chain: gradient directions {report['gradient_directions']}")
    if report["classes"] != ["second_class"] * 4:
        failures.append(f"dirac_chain: chain classes {report['classes']}")
    if report["second_class_classes"] != ["second_class"] * 2:
        failures.append(f"dirac_chain: demo classes {report['second_class_classes']}")
    if not mat_dev < 1e-10:
        failures.append(f"dirac_chain: commutation matrix {mat}")
    if not dev < 1e-10:
        failures.append(f"dirac_chain: Dirac bracket deviation {dev!r}")
    if not (report["projection_converged"] and report["projection_iterations"] <= 6
            and report["projection_final_norm"] < 1e-12):
        failures.append("dirac_chain: circle projection did not converge in <= 6 iterations")
    return failures


def check_symbol(path: str, expected: str) -> list:
    report = json.loads(Path(path).read_text())
    if report["classification"] != expected or len(report["samples"]) != 70:
        return [f"symbol: {report['classification']} over {len(report['samples'])} "
                f"directions, expected {expected} over 70"]
    return []


def check_constraints(path: str, model: str) -> list:
    report = json.loads(Path(path).read_text())
    classes = [c["class"] for c in report["classification"]]
    labels = [c["label"] for c in report["chain"]]
    dirac = {(d["f"], d["g"]): d["dirac"] for d in report["dirac_checks"]}
    if model == "chain-demo":
        ok = labels == ["p2", "[p2, H]"] and classes == ["first_class"] * 2
    elif model == "second-class-demo":
        ok = (classes == ["second_class"] * 2
              and report["commutation_matrix"]["entries"] == [[0.0, -1.0], [1.0, 0.0]]
              and abs(dirac[("q1", "p1")] - 1.0) < 1e-10
              and abs(dirac[("q2", "p2")]) < 1e-10
              and abs(dirac[("q1", "q2")] - 1.0) < 1e-10)
    else:
        ok = labels == [] and classes == []
    return [] if ok else [f"constraints {model}: chain {labels}, classes {classes}"]


def check_project(stdout: str, tol: float) -> list:
    norms = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(":")
        if key in ("before", "after"):
            norms[key] = [float(part.split("=")[1]) for part in rest.split()]
    if set(norms) != {"before", "after"}:
        return [f"project: unexpected output {stdout!r}"]
    if not (max(norms["after"]) < tol < min(norms["before"])):
        return [f"project: norms before {norms['before']} after {norms['after']}, tol {tol}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Served:
    """A long workload: one child sets up, then runs the timed work on "go"."""

    def __init__(self, name: str, kind: str, work: float, probe: str):
        self.name = name
        self.kind = kind
        self.work = work  # work units per iteration, for work_per_s
        self.probe = probe  # calibrate.py kernel that tracks this workload's host speed

    def args(self, ctx: Context) -> list:
        raise NotImplementedError

    def check(self, ctx: Context, it: Iteration) -> list:
        raise NotImplementedError

    def setup_only(self, ctx: Context) -> float:
        before = spawn_probe(ctx)
        child, setup_s, ready = served_child(ctx, self.kind, False,
                                             [self.probe, *self.args(ctx)])
        after = spawn_probe(ctx)  # the child waits idle meanwhile
        child.send("exit")
        code = child.reap()[0]
        if ready is None or code != 0:
            raise RuntimeError(f"{self.name}: set-up child failed (exit code {code})")
        return setup_s * spawn_speed(before, after)[0]

    def iteration(self, ctx: Context, trace: bool) -> Iteration:
        it = Iteration(attempted=1)
        args = self.args(ctx)
        ctx.clear(*self.outputs)
        before = None if trace else spawn_probe(ctx)
        child, setup_s, ready = served_child(ctx, self.kind, trace, [self.probe, *args])
        if before:
            setup_s *= spawn_speed(before, spawn_probe(ctx))[0]
        result = None
        if ready is not None:
            child.send("go")
            result = child.message()
        code, _, _, rss_mb = child.reap()
        if result is None or code != 0 or result["rc"] != 0:
            it.failures.append(f"{self.name}: child exit {code}, result {result}")
            return it
        it.setup_s.append(setup_s)
        it.run_s, it.cpu_s, it.rss_mb = result["run_s"], result["cpu_s"], rss_mb
        it.speed, it.cpu_speed = result.get("speed", 1.0), result.get("cpu_speed", 1.0)
        it.info["threads_after_import"] = ready.get("threads")
        if "probes" in result:
            it.info["probes"] = result["probes"]
        if trace:
            it.traces.append(result["trace"])
        it.outputs = {name: ctx.path(name) for name in self.outputs}
        try:
            it.failures += self.check(ctx, it)
        except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
            it.failures.append(f"{self.name}: output unreadable: {exc!r}")
        return it


class Evolve(Served):
    outputs = ("diagnostics.csv",)

    def __init__(self, name: str, config: dict, check, probe: str):
        steps = round(config["t_end"] / config["dt"])
        super().__init__(name, "evolve", config["grid_n"] ** 3 * steps, probe)
        self.config = config
        self._check = check

    def args(self, ctx: Context) -> list:
        path = ctx.path("run.json")
        Path(path).write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        return [path, ctx.path("diagnostics.csv")]

    def check(self, ctx: Context, it: Iteration) -> list:
        return self._check(read_csv(ctx.path("diagnostics.csv")), it.info)


class DiracChain(Served):
    outputs = ("dirac_report.json",)

    def __init__(self):
        super().__init__("dirac_chain", "dirac", 1.0, "py")

    def args(self, ctx: Context) -> list:
        return [str(ctx.seed), ctx.path("dirac_report.json")]

    def check(self, ctx: Context, it: Iteration) -> list:
        return check_dirac(json.loads(Path(ctx.path("dirac_report.json")).read_text()), it.info)


class CliShort:
    """Short subcommands, each in its own fresh interpreter, import included."""

    name = "cli_short"
    work = 6.0  # commands per operation
    PROJECT_TOL = 1e-10
    outputs = ("raw.gfsn", "symbol-canonical.json", "symbol-gauge-fixed.json",
               "chain-demo.json", "second-class-demo.json", "regular-demo.json",
               "projected.gfsn", "projected.gfsn.json")

    def commands(self, ctx: Context) -> list:
        """(argv, check of the command's stdout and files) per command."""
        seed = str(ctx.seed)
        cmds = [(["symbol", "--formulation", form, "--seed", seed, "--out",
                  ctx.path(f"symbol-{form}.json")],
                 lambda stdout, f=form, e=expected: check_symbol(ctx.path(f"symbol-{f}.json"), e))
                for form, expected in (("canonical", "weakly_hyperbolic"),
                                       ("gauge-fixed", "strongly_hyperbolic"))]
        cmds += [(["constraints", model, "--seed", seed, "--out", ctx.path(f"{model}.json")],
                  lambda stdout, m=model: check_constraints(ctx.path(f"{m}.json"), m))
                 for model in ("chain-demo", "second-class-demo", "regular-demo")]
        cmds.append((["project", ctx.path("raw.gfsn"), "--out", ctx.path("projected.gfsn"),
                      "--tol", repr(self.PROJECT_TOL)],
                     lambda stdout: check_project(stdout, self.PROJECT_TOL)))
        return cmds

    def make_input(self, ctx: Context, name: str) -> float:
        child = Child(ctx, [str(CHILD), "snapshot", "0", str(ctx.workdir), str(ctx.seed),
                            ctx.path(name)])
        code, wall, _, _ = child.reap()
        if code != 0:
            raise RuntimeError(f"cli_short: input generation failed (exit code {code})")
        return wall

    def setup_only(self, ctx: Context) -> float:
        before = spawn_probe(ctx)
        setup_s = self.make_input(ctx, "raw-setup.gfsn")
        return setup_s * spawn_speed(before, spawn_probe(ctx))[0]

    def iteration(self, ctx: Context, trace: bool) -> Iteration:
        it = Iteration()
        ctx.clear(*self.outputs)
        # Untraced, a host-speed probe runs before the set-up and after it and
        # each command; each is scaled by the speed of the two around it.
        probe = None if trace else spawn_probe(ctx)
        setup_s = self.make_input(ctx, "raw.gfsn")
        if probe:
            after = spawn_probe(ctx)
            setup_s *= spawn_speed(probe, after)[0]
            probe = after
        it.setup_s.append(setup_s)
        norm_run = norm_cpu = 0.0
        for argv, check in self.commands(ctx):
            it.attempted += 1
            log = ctx.path("stdout.txt")
            trace_file = ctx.workdir / "trace.json"
            if trace_file.exists():
                trace_file.unlink()
            with open(log, "w") as fh:
                cmd = ([str(CHILD), "cli", "1", str(ctx.workdir), *argv] if trace
                       else ["-c", ENTRY, *argv])
                code, wall, cpu, rss_mb = Child(ctx, cmd, stdout=fh).reap()
            it.run_s += wall
            it.cpu_s += cpu
            if probe:
                after = spawn_probe(ctx)
                speed, cpu_speed = spawn_speed(probe, after)
                norm_run += wall * speed
                norm_cpu += cpu * cpu_speed
                probe = after
            it.rss_mb = max(it.rss_mb, rss_mb)
            if code != 0:
                it.failures.append(f"cli_short: {' '.join(argv[:2])} exited {code}")
                continue
            if trace:
                summary = json.loads(trace_file.read_text())
                summary["window_s"] = wall
                it.traces.append(summary)
            try:
                it.failures += check(Path(log).read_text())
            except (OSError, ValueError, KeyError) as exc:
                it.failures.append(f"cli_short: {argv[0]} output unreadable: {exc!r}")
        if norm_run > 0:
            it.speed, it.cpu_speed = norm_run / it.run_s, norm_cpu / it.cpu_s
        it.outputs = {name: ctx.path(name) for name in self.outputs}
        return it


WORKLOADS = {
    "wave_rk4": Evolve("wave_rk4", {
        "scenario": "plane_wave", "grid_n": 32, "formulation": "gauge_fixed",
        "stepper": "rk4", "dt": TWO_PI / 1000.0, "t_end": TWO_PI, "stride": 50,
    }, check_wave, "arith 32"),
    "growth_diag": Evolve("growth_diag", {
        "scenario": "contaminated", "grid_n": 64, "formulation": "canonical",
        "stepper": "stormer_verlet", "dt": 0.01, "t_end": 0.2, "stride": 1,
    }, check_growth, "fft 64"),
    "dirac_chain": DiracChain(),
    "cli_short": CliShort(),
}

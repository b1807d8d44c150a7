"""One benchmark child: a fresh interpreter that drives gaugefix as a user does.

Usage (run by run.py, with PYTHONPATH pointing at the checkout's src/):

    python3 perfbench/child.py evolve   <trace 0|1> <workdir> <probe> <config> <csv>
    python3 perfbench/child.py dirac    <trace 0|1> <workdir> <probe> <seed> <report>
    python3 perfbench/child.py snapshot <trace 0|1> <workdir> <seed> <path>
    python3 perfbench/child.py cli      1           <workdir> <argv...>

evolve and dirac import the program, build their inputs, print a ready
line and wait on stdin for "go" (run the timed work) or "exit"; untraced,
the timed work is interleaved with blocks of the calibrate.py kernel named
by <probe>, which measure the host's speed. snapshot
writes the raw random_smooth input file of cli_short and exits; cli runs
one traced command line and exits with its code. Lines meant for run.py
start with "@@" followed by JSON; everything the program prints is kept
out of that channel.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

def emit(obj) -> None:
    sys.__stdout__.write("@@" + json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def thread_count() -> int | None:
    """Threads of this process (Linux), e.g. after BLAS has started its pool."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def import_program():
    """Import gaugefix.cli from the checkout; return (module, start, end)."""
    t0 = time.perf_counter()
    from gaugefix import cli
    t1 = time.perf_counter()
    src = os.path.join(os.environ.get("PERFBENCH_ROOT", ""), "src")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gaugefix imported from {cli.__file__}, not from {src}")
    return cli, t0, t1


def start_trace(trace: bool):
    if not trace:
        return None
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    rec = tracer.Recorder()
    missing = tracer.install(rec)
    if missing:
        print(f"perfbench: not traced (absent): {', '.join(missing)}", file=sys.stderr)
    return rec


# ---------------------------------------------------------------------------
# dirac_chain: the library pipeline
# ---------------------------------------------------------------------------

def dirac_inputs(seed: int) -> dict:
    import numpy as np
    from gaugefix import constraints, phase, toys

    quad = np.zeros((4, 4))
    quad[2, 2] = 1.0
    quad[0, 1] = quad[1, 0] = 1.0
    system = phase.HamiltonianSystem.canonical(
        2, phase.quadratic_function(quad, label="p1^2/2 + q1 q2"))
    primaries = constraints.constraint_set(
        [phase.linear_function([0.0, 0.0, 0.0, 1.0], label="p2")], 4)
    return {"seed": seed, "system": system, "primaries": primaries,
            "second_class": toys.second_class_demo(), "circle": toys.circle_pair(),
            "circle_form": phase.CosymplecticForm.canonical(1),
            "circle_start": np.array([1.3, 0.4])}


def dirac_run(inp: dict) -> dict:
    """Chain + classes, second-class matrix and Dirac brackets, circle projection.

    Library names are looked up on the modules at call time, so traced
    wrappers see every call.
    """
    import numpy as np
    from gaugefix import constraints as C

    sampler = C.make_surface_sampler(np.random.default_rng(inp["seed"]))
    system = inp["system"]
    chain = C.consistency_chain(system, inp["primaries"], sampler)
    labeled = C.classify_constraints(chain, sampler, form=system.form)

    model = inp["second_class"]
    form = model.system.form
    sc = C.classify_constraints(
        C.consistency_chain(model.system, model.primaries, sampler), sampler, form=form)
    z = model.sample_point
    matrix = C.commutation_matrix(sc, z, form)
    checks = dict(model.check_functions)
    dirac = {f"{a},{b}": C.dirac_bracket(checks[a], checks[b], sc, z, form)
             for a, b in (("q1", "p1"), ("q2", "p2"), ("q1", "q2"))}

    circle = inp["circle"]
    z_proj, report = C.project_to_constraint_surface(
        circle, inp["circle_start"], tol=1e-12, form=inp["circle_form"])
    return {"chain": chain, "labeled": labeled, "sc": sc, "matrix": matrix,
            "dirac": dirac, "circle": circle, "z_proj": z_proj, "projection": report}


def dirac_report(out: dict) -> dict:
    import numpy as np

    origin = np.zeros(out["chain"].dim)
    return {
        "chain_labels": out["chain"].labels,
        "gradient_directions": [int(np.argmax(np.abs(c.grad(origin)))) for c in out["chain"]],
        "classes": [c.class_label.value for c in out["labeled"]],
        "second_class_classes": [c.class_label.value for c in out["sc"]],
        "commutation_matrix": out["matrix"].entries.tolist(),
        "dirac": out["dirac"],
        "projection_iterations": out["projection"].iterations,
        "projection_converged": out["projection"].converged,
        "projection_final_norm": float(np.linalg.norm(out["circle"].values(out["z_proj"]))),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def serve(kind: str, trace: bool, workdir: str, args: list[str]) -> int:
    """Set up, report ready, then run the timed work on "go"."""
    cli, t0, t1 = import_program()
    rec = start_trace(trace)
    probe, *args = args
    if kind == "evolve":
        config, csv_path = args
        argv = ["evolve", "--config", config, "--out", csv_path]
    else:
        seed, report_path = int(args[0]), args[1]
        inputs = dirac_inputs(seed)
    emit({"ready": True, "threads": thread_count()})

    if sys.stdin.readline().strip() != "go":
        return 0
    stdout = io.StringIO()

    def work():
        with contextlib.redirect_stdout(stdout):
            if kind == "evolve":
                return cli.main(argv), None
            return 0, dirac_run(inputs)

    if rec is None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import calibrate

        (rc, out), times = calibrate.Pacer(probe).run(work)
        result = {"rc": rc, "run_s": times.pop("raw_run_s"), "cpu_s": times.pop("raw_cpu_s"),
                  **times}
    else:
        rec.reset()
        c0 = time.process_time()
        w0 = time.perf_counter()
        rc, out = work()
        wall = time.perf_counter() - w0
        result = {"rc": rc, "run_s": wall, "cpu_s": time.process_time() - c0}
    result["stdout"] = stdout.getvalue()
    if rec is not None:
        summary = rec.summary(result["run_s"])
        summary["values"]["cli.import_s"] = [t1 - t0]
        result["trace"] = summary
        rec.save(os.path.join(workdir, f"spans-{kind}.npz"))
    if kind == "dirac":
        with open(report_path, "w") as fh:
            json.dump(dirac_report(out), fh, indent=1, sort_keys=True)
            fh.write("\n")
    emit(result)
    return 0


def write_snapshot_input(seed: int, path: str) -> int:
    """The raw (unprojected) N=64 random_smooth snapshot that cli_short projects."""
    import numpy as np
    from gaugefix import fields

    length = 2.0 * np.pi
    a, pi = fields.random_smooth_fields(np.random.default_rng(seed), 64, length)
    fields.write_snapshot(fields.FieldState(a, pi, length), path)
    return 0


def traced_command(workdir: str, argv: list[str]) -> int:
    cli, t0, t1 = import_program()
    rec = start_trace(True)
    rec.add("cli.import", t0, t1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    summary = rec.summary(0.0)  # run.py sets the window to the wall time it measured
    summary["values"]["cli.import_s"] = [t1 - t0]
    sys.stdout.write(stdout.getvalue())
    with open(os.path.join(workdir, "trace.json"), "w") as fh:
        json.dump(summary, fh)
    rec.save(os.path.join(workdir, f"spans-{argv[0]}.npz"))
    return rc


def main() -> int:
    kind, trace, workdir, *args = sys.argv[1:]
    if kind in ("evolve", "dirac"):
        return serve(kind, trace == "1", workdir, args)
    if kind == "snapshot":
        return write_snapshot_input(int(args[0]), args[1])
    if kind == "cli":
        return traced_command(workdir, args)
    raise SystemExit(f"unknown child kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main())

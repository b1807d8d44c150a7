"""The command-line cases: one table of gaugefix command lines whose
outputs and refusals are pinned, and check_case, which runs a case
through a runner run(argv, stdin) -> (exit code, stdout, stderr).

Each case runs in a fresh directory on its inputs: a config in run.json,
a snapshot in in.gfsn (also on standard input when argv reads /dev/stdin), or
a Python script for an argv that starts with "-c". It gives the exit
code, stdout, stderr and every file the run leaves, each as exact bytes,
a Prefix, the numbers of a unit case times a power of two (Scaled) or
the bytes of another route (Same). A case that needs a path (/dev/full)
is skipped where that path is absent.

tests/test_cli.py runs every case in process through gaugefix.cli.main.
``python tests/cli_cases.py CMD...`` (CMD ``gaugefix``, or ``python -m
gaugefix.cli``) runs each through CMD in a fresh process with
PYTHONWARNINGS=error, once ``import gaugefix`` is seen to load no numpy
and not to come from this checkout's src. pytest collects nothing here.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
HEADER = "t,energy,norm_divA,norm_divPi,norm_A_L,norm_pi_L,l2_error\n"


@dataclass(frozen=True)
class Prefix:
    """Output that starts with text and, when rows is given, has that many lines."""
    text: str
    rows: int | None = None


@dataclass(frozen=True)
class Scaled:
    """case's numbers in the same output times 2^(exp p): p is 0 for t, 2 for energy, else 1."""
    case: Case
    exp: int


@dataclass(frozen=True)
class Same:
    """The bytes of case's same output, as another route gives them."""
    case: Case


@dataclass(frozen=True)
class Snapshot:
    """random_smooth_fields of seed 1 on an N-grid times 2^exp, on a cube of side length."""
    n: int
    exp: int = 0
    length: float = 2.0 * math.pi

    def write(self, path: str) -> None:
        import numpy as np
        from gaugefix import fields

        a, pi = fields.random_smooth_fields(np.random.default_rng(1), self.n, 2.0 * np.pi)
        fields.write_snapshot(fields.FieldState(np.ldexp(a, self.exp), np.ldexp(pi, self.exp),
                                                self.length), path)


@dataclass(frozen=True, eq=False)
class Case:
    id: str
    argv: tuple[str, ...]
    code: int = 0
    stdout: object = ""
    stderr: object = ""
    files: dict = field(default_factory=dict)
    config: dict | bytes | None = None
    snapshot: Snapshot | bytes | None = None
    needs: str | None = None  # a path the case runs on, skipped where it is absent

    def skipped(self) -> bool:
        return self.needs is not None and not os.path.exists(self.needs)


def golden(name: str) -> bytes:
    return (ROOT / "tests" / "golden" / name).read_bytes()


def _readme_block(heading: str, lang: str) -> str:
    return re.search(rf"{heading}\n.*?```{lang}\n(.*?)```", README, re.S).group(1)


# The README's library sketch prints the values its "# value:" comments
# give, one line each.
SKETCH = _readme_block("## Library sketch", "python")
SKETCH_PRINTS = "".join(f"{v}\n" for v in re.findall(r"^# (\S+):", SKETCH, re.M))
assert SKETCH_PRINTS, "the README library sketch has no '# value:' comment"
# A well-formed command line loads no argparse. The script sets a loaded
# argparse aside while it imports the CLI and runs the command, as a test
# process has its own.
PLAIN_SYMBOL = """\
import sys
loaded = sys.modules.pop("argparse", None)
try:
    from gaugefix.cli import main
    main(["symbol", "--formulation", "canonical", "--out", "report.json"])
    print("argparse" in sys.modules)
finally:
    if loaded is not None:
        sys.modules["argparse"] = loaded
"""
EVOLVE = ("evolve", "--config", "run.json", "--out", "run.csv")
PROJECT = ("project", "in.gfsn", "--out", "out.gfsn")
SNAPSHOT_OUT = {"out.gfsn": Prefix(""), "out.gfsn.json": Prefix("")}


def _wrote(rows: int, aborted: bool = False) -> str:
    return f"wrote run.csv ({rows} rows{', aborted' if aborted else ''})\n"


def _aborted(t: str) -> str:
    return f"evolution aborted at t={t}: non-finite state\n"


def _outside_range(length: float) -> str:
    return (f"an N=8 grid of side L={length!r} is outside float64 range: its wavenumbers, "
            "k^2 or Parseval scale (L/N^2)^3 are not finite and nonzero")


def _refused(id: str, err, config=None, argv=EVOLVE, snapshot=None) -> Case:
    """A command line refused before its run: exit 1, one error line, no file."""
    return Case(id, argv, 1, stderr=f"error: {err}\n", config=config, snapshot=snapshot)


def _plane_wave(**keys) -> dict:
    return {"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0, "grid_n": 8, **keys}


# random_smooth with reprojection: its bytes depend on the CPU's exp
# kernel, so only its rows are pinned; the data at 2^520 and 2^-664 scale it.
SMOOTH = Case("evolve-random-smooth-reproject-rows", EVOLVE, stdout=_wrote(11), config=dict(
    scenario="random_smooth", seed=3, dt=0.05, t_end=2.0, grid_n=16, formulation="canonical",
    stepper="rk4", stride=4, reproject_every=5), files={"run.csv": Prefix(HEADER, rows=12)})
# project from a file at an odd N, whose last x-slab is short, and an even one.
FILE_ROUTE = {n: Case(f"project-file-n{n}", PROJECT, snapshot=Snapshot(n), files=SNAPSHOT_OUT,
                      stdout=Prefix("before: norm_divA=", rows=2)) for n in (17, 16)}
REPORT_ERRORS = ("cannot write missing/out: missing is not a directory",
                 "cannot write .: it is a directory")

CASES = [
    Case("readme-library-sketch", ("-c", SKETCH), stdout=SKETCH_PRINTS),
    Case("symbol-without-argparse", ("-c", PLAIN_SYMBOL),
         stdout="classification: weakly_hyperbolic (wrote report.json)\nFalse\n",
         files={"report.json": Prefix('{\n  "classification": "weakly_hyperbolic"')}),
    # The README's evolve command line and run.json, and the CSV they give.
    Case("readme-evolve-example", tuple(_readme_block("### evolve", "sh").split()[1:]),
         config=_readme_block("### evolve", "json").encode(),
         stdout="wrote diagnostics.csv (21 rows)\n",
         files={"diagnostics.csv": golden("evolve_readme_example.csv")}),
    *(Case(f"constraints-{model}-seed-{seed}", ("constraints", model, "--seed", seed),
           stdout=golden(f"constraints_{model}.json").decode())
      for model in ("chain-demo", "regular-demo", "second-class-demo")
      for seed in ("0", "101", "901")),
    Case("constraints-out", ("constraints", "second-class-demo", "--out", "out.json"),
         stdout="wrote out.json\n",
         files={"out.json": golden("constraints_second-class-demo.json")}),
    Case("evolve-out-from-config", EVOLVE[:3], stdout="wrote diag.csv (11 rows)\n",
         config=_plane_wave(out_csv="diag.csv"), files={"diag.csv": Prefix(HEADER, rows=12)}),
    # Evolve CSVs pinned byte for byte, one per carrier: the growth_diag
    # run (a few Fourier coefficients), random_smooth with reprojection
    # (shell moments), the unstable N=8 plane wave (its coefficients) and
    # an unstable random_smooth run (every mode as a vector).
    Case("evolve-growth-diag", EVOLVE, stdout=_wrote(21), config=dict(
        scenario="contaminated", grid_n=64, formulation="canonical", stepper="stormer_verlet",
        dt=0.01, t_end=0.2, stride=1), files={"run.csv": golden("evolve_growth_diag.csv")}),
    Case("evolve-random-smooth-reproject", EVOLVE, stdout=_wrote(8), config=dict(
        scenario="random_smooth", grid_n=16, seed=3, dt=0.05, t_end=1.0, reproject_every=4,
        stride=3), files={"run.csv": golden("evolve_random_smooth_reproject.csv")}),
    Case("evolve-plane-wave-unstable", EVOLVE, 2, _wrote(57, True), _aborted("2800.0"),
         config=_plane_wave(dt=50.0, t_end=5000.0),
         files={"run.csv": golden("evolve_plane_wave_unstable.csv")}),
    Case("evolve-random-smooth-unstable", EVOLVE, 2, _wrote(107, True), _aborted("106.0"),
         config=dict(scenario="random_smooth", grid_n=16, seed=1, dt=1.0, t_end=200.0),
         files={"run.csv": golden("evolve_random_smooth_unstable.csv")}),
    SMOOTH,
    # Data below 2^-400 take the shell moments of their spectrum scaled up
    # by a power of two, and data above 2^400 are read at one: every column
    # is the unit run's times the power, the energy at 2^1040 inf.
    *(Case(f"evolve-random-smooth-2^{exp}", EVOLVE, stdout=_wrote(11),
           config={**SMOOTH.config, "amplitude": 2.0 ** exp},
           files={"run.csv": Scaled(SMOOTH, exp)})
      for exp in (-664, 520)),
    # Amplitude 6.6e305: every grid value is at most 6.6e305, but the backward
    # transform of the wave's two 1.69e308 coefficients, which the command
    # never makes, overflows; the state it carries stays finite: exit 0.
    Case("evolve-plane-wave-6.6e305", EVOLVE, stdout=_wrote(4),
         config=_plane_wave(t_end=0.3, amplitude=6.6e305), files={"run.csv": (
             HEADER + "0.0,inf,0.0,0.0,0.0,0.0,0.0\n"
             "0.1,inf,0.0,0.0,0.0,0.0,6.124553184653958e+299\n"
             "0.2,inf,0.0,0.0,0.0,0.0,1.2249106327628798e+300\n"
             "0.30000000000000004,inf,0.0,0.0,0.0,0.0,1.8373659431111744e+300\n").encode()}),
    # omega = 2, coefficients 1.28e308: the reference is finite at t = 0
    # (l2_error 0.0), and pi = -2 c sin(2 t) overflows after t = 0.38.
    Case("evolve-fast-wave", EVOLVE, 2, _wrote(39, True), _aborted("0.38"), config=dict(
        scenario="plane_wave", grid_n=8, mode=[2, 0, 0], amplitude=5e305,
        formulation="gauge_fixed", dt=0.01, t_end=3.14),
         files={"run.csv": Prefix(HEADER + "0.0,inf,0.0,0.0,0.0,0.0,0.0\n", rows=40)}),
    # pi_x = 4e303 cos x: A_L = t pi_L grows until the spectrum overflows
    # after t = 175.5.
    Case("evolve-grid-overflow", EVOLVE, 2, _wrote(352, True), _aborted("175.5"),
         config=_plane_wave(scenario="contaminated", dt=0.5, t_end=1000.0, amplitude=0.0,
                            contamination_amplitude=4e303),
         files={"run.csv": Prefix(HEADER, rows=353)}),
    # Configs, arguments and outputs refused before the run.
    _refused("evolve-plane-wave-amplitude-1e308", "Fourier coefficients must be finite",
             _plane_wave(amplitude=1e308)),
    _refused("evolve-contaminated-amplitude-1e308", "Fourier coefficients must be finite",
             _plane_wave(scenario="contaminated", contamination_amplitude=1e308)),
    _refused("evolve-random-smooth-amplitude-1e308", "field values must be finite",
             _plane_wave(scenario="random_smooth", amplitude=1e308, seed=1)),
    _refused("evolve-out-in-a-missing-directory",
             "cannot write missing/run.csv: missing is not a directory", _plane_wave(),
             (*EVOLVE[:4], "missing/run.csv")),
    _refused("evolve-out-a-directory", "cannot write .: it is a directory", _plane_wave(),
             (*EVOLVE[:4], ".")),
    _refused("evolve-without-out", "no output path: pass --out or set out_csv in the config",
             _plane_wave(), EVOLVE[:3]),
    _refused("evolve-config-not-utf8", "config run.json is not valid JSON: 'utf-8' codec can't "
             "decode byte 0xe9 in position 64: invalid continuation byte",
             b'{"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0, "note": "caf\xe9"}'),
    Case("evolve-config-not-json", EVOLVE, 1, config=b"{not json",
         stderr=Prefix("error: config run.json is not valid JSON: ", rows=1)),
    _refused("evolve-config-missing", "cannot read config none.json: [Errno 2] No such file or "
             "directory: 'none.json'", argv=("evolve", "--config", "none.json", *EVOLVE[3:])),
    _refused("evolve-unknown-key", "unknown config keys: grdi_n", _plane_wave(grdi_n=16)),
    _refused("evolve-missing-key", "missing required config keys: t_end",
             {"scenario": "plane_wave", "dt": 0.1}),
    _refused("evolve-random-smooth-without-seed", "scenario random_smooth requires a seed",
             _plane_wave(scenario="random_smooth")),
    _refused("evolve-polarization-along-the-mode", "polarization must be orthogonal to the mode "
             "vector", _plane_wave(polarization=[1, 0, 0])),
    _refused("evolve-mode-not-integers", "mode must be a 3-vector of integers",
             _plane_wave(mode=["a", "b", "c"])),
    _refused("evolve-mode-past-int64", "mode [100000000000000000000000, 0, 0] is not resolved "
             "on an N=8 grid", _plane_wave(mode=[10 ** 23, 0, 0])),
    _refused("evolve-mode-int64-min", "mode [-9223372036854775808, 0, 1] is not resolved on "
             "an N=32 grid", _plane_wave(mode=[-2 ** 63, 0, 1], grid_n=32)),
    _refused("evolve-grid_n-past-int64", "grid_n must be an integer from 4 to 9223372036854775807, "
             "got 100000000000000000000", _plane_wave(grid_n=10 ** 20)),
    *(_refused(f"evolve-{key}-{value!r}", f"{key} must be {choices}, got {value!r}",
               _plane_wave(**{key: value}))
      for key, choices in (("formulation", "canonical or gauge-fixed"),
                           ("stepper", "rk4 or stormer_verlet"))
      for value in ("Canonical", "rk-4", "gauge fixed", "", 5, None, True, ["rk4"])),
    _refused("project-malformed", "snapshot in.gfsn is too short for a header",
             argv=PROJECT, snapshot=b"JUNKJUNKJUNK"),
    # A header that claims N = 2^20 would need 48 EiB of payload: the size
    # comes from fstat, before anything of that size is allocated.
    _refused("project-header-claims-more", f"snapshot in.gfsn has 20 bytes, expected "
             f"{20 + 48 * 2 ** 60}", argv=PROJECT,
             snapshot=struct.pack("<4sIId", b"GFSN", 1, 2 ** 20, 1.0)),
    *(_refused(f"symbol-tol-{tol}", f"tol_imag must be positive and finite, got {float(tol)!r}",
               argv=("symbol", "--formulation", "canonical", "--tol", tol))
      for tol in ("0", "-1", "nan", "inf")),
    *(_refused(f"project-tol-{tol}", f"--tol must be a non-negative number, got {float(tol)!r}",
               argv=(*PROJECT, "--tol", tol), snapshot=Snapshot(8)) for tol in ("-1", "nan")),
    *(_refused(f"{argv[0]}-out-{where}", err, argv=(*argv, "--out", out),
               snapshot=Snapshot(8) if argv[0] == "project" else None)
      for argv, (missing, directory) in (
          (("symbol", "--formulation", "canonical"), REPORT_ERRORS),
          (("constraints", "chain-demo"), REPORT_ERRORS),
          (PROJECT[:2], ("cannot write snapshot missing/out: No such file or directory",
                         "cannot write snapshot .: it exists and is not a regular file")))
      for where, out, err in (("in-a-missing-directory", "missing/out", missing),
                              ("a-directory", ".", directory))),
    # A write that fails after the run names its file.
    *(Case(f"{argv[0]}-out-dev-full", argv, 1, config=config, needs="/dev/full",
           stderr="error: cannot write /dev/full: No space left on device\n")
      for argv, config in ((("symbol", "--formulation", "canonical", "--out", "/dev/full"), None),
                           (("constraints", "chain-demo", "--out", "/dev/full"), None),
                           (EVOLVE[:3], _plane_wave(out_csv="/dev/full")))),
    # A grid whose wavenumbers, k^2 or Parseval scale leave float64.
    *(_refused(f"evolve-{scenario}-L-{length!r}", _outside_range(length),
               _plane_wave(scenario=scenario, domain_length=length, seed=1))
      for scenario, length in [
          ("plane_wave", 1e308), ("contaminated", 1e200), ("contaminated", 1e308),
          ("random_smooth", 1e200), ("random_smooth", 1e308), ("plane_wave", 1e-160),
          ("plane_wave", 1e-300), ("plane_wave", 1e-320), ("contaminated", 1e-320),
          ("random_smooth", 1e-320)]),
    *(_refused(f"project-L-{length!r}", _outside_range(length), argv=PROJECT,
               snapshot=Snapshot(8, length=length)) for length in (1e200, 1e-160, 1e-300, 1e-320)),
    # project streams a file and a pipe to the same bytes and norms.
    *FILE_ROUTE.values(),
    *(Case(f"project-pipe-n{n}", ("project", "/dev/stdin", "--out", "out.gfsn"),
           stdout=Same(file), snapshot=Snapshot(n),
           files={name: Same(file) for name in SNAPSHOT_OUT}) for n, file in FILE_ROUTE.items()),
    # The same data times 2^600 and 2^-600 print each norm of the unit run
    # times the power, bit for bit.
    *(Case(f"project-n16-2^{exp}", PROJECT, stdout=Scaled(FILE_ROUTE[16], exp),
           snapshot=Snapshot(16, exp), files=SNAPSHOT_OUT) for exp in (600, -600)),
]


def _numbers(name: str, text: str) -> list[tuple[float, int]]:
    """The numbers an output reports, each with the power of the data's scale in it."""
    if name == "stdout":
        return [(float(v), 1) for v in re.findall(r"=(\S+)", text)]
    header, *rows = text.splitlines()
    powers = [{"t": 0, "energy": 2}.get(column, 1) for column in header.split(",")]
    return [(float(v), p) for row in rows for v, p in zip(row.split(","), powers)]


def _expect(expected, name: str, got: bytes, reference) -> None:
    """Assert that output name holds got as expected says; reference(case)
    gives the outputs of a case that Same or Scaled refer to."""
    if isinstance(expected, str):
        expected = expected.encode()
    if isinstance(expected, bytes):
        assert got == expected, f"{name}: {got[:2000]!r} != {expected[:2000]!r}"
    elif isinstance(expected, Prefix):
        assert got.startswith(expected.text.encode()), f"{name}: {got[:2000]!r}"
        rows = len(got.splitlines())
        assert expected.rows in (None, rows), f"{name}: {rows} rows, not {expected.rows}"
    elif isinstance(expected, Same):
        assert got == reference(expected.case)[name], f"{name} differs from {expected.case.id}"
    else:
        import numpy as np

        values = [v for v, _ in _numbers(name, got.decode())]
        with np.errstate(over="ignore", under="ignore"):
            want = [np.ldexp(u, expected.exp * p)
                    for u, p in _numbers(name, reference(expected.case)[name].decode())]
        assert np.array_equal(values, want, equal_nan=True), (
            f"{name}: {values} is not {expected.case.id}'s times 2^{expected.exp}")


def _outputs(case: Case, run, workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Run case in workdir, made here: (exit code, each output by name)."""
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, given in (("run.json", case.config), ("in.gfsn", case.snapshot)):
            if isinstance(given, dict):
                given = json.dumps(given).encode()
            if isinstance(given, Snapshot):
                given.write(name)
            elif given is not None:
                Path(name).write_bytes(given)
        inputs = set(os.listdir())
        piped = "/dev/stdin" in case.argv
        code, out, err = run(list(case.argv), Path("in.gfsn").read_bytes() if piped else None)
        left = sorted(set(os.listdir()) - inputs)
        assert left == sorted(case.files), f"left {left}, not {sorted(case.files)}"
        return code, {"stdout": out, "stderr": err, **{n: Path(n).read_bytes() for n in left}}
    finally:
        os.chdir(cwd)


def check_case(case: Case, run, root: Path) -> None:
    """Run case through run in root/<case.id> and assert what it gives:
    exit code, stdout, stderr and files, no traceback and no warning. A
    case that Same or Scaled refers to runs beside it, in root/<its id>."""
    code, outputs = _outputs(case, run, root / case.id)
    err = outputs["stderr"]
    assert b"Traceback" not in err and b"Warning" not in err, err.decode(errors="replace")
    assert code == case.code, f"exit {code}, not {case.code}; stderr {err!r}"
    refs = {}

    def reference(ref: Case) -> dict[str, bytes]:
        if ref.id not in refs:
            refs[ref.id] = _outputs(ref, run, root / ref.id)[1]
        return refs[ref.id]

    for name, expected in {"stdout": case.stdout, "stderr": case.stderr, **case.files}.items():
        _expect(expected, name, outputs[name], reference)


def command_runner(prefix: list[str]):
    """A runner of argv through the command prefix, or of a "-c" script
    through this interpreter, in a fresh process with PYTHONWARNINGS=error."""
    def run(argv, stdin):
        command = [sys.executable, *argv] if argv[0] == "-c" else [*prefix, *argv]
        done = subprocess.run(command, input=stdin, capture_output=True, timeout=600,
                              env=dict(os.environ, PYTHONWARNINGS="error"))
        return done.returncode, done.stdout, done.stderr
    return run


def main(prefix: list[str]) -> int:
    if not __debug__:
        raise SystemExit("the checks are asserts: run without -O")
    probe = subprocess.run([sys.executable, "-W", "error", "-c", "import sys, gaugefix; "
                            "print('numpy' in sys.modules, gaugefix.__file__)"],
                           cwd=tempfile.gettempdir(), capture_output=True, text=True, check=True)
    numpy_loaded, where = probe.stdout.rstrip("\n").split(" ", 1)
    if numpy_loaded != "False":
        raise SystemExit("import gaugefix loaded numpy")
    if Path(where).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"gaugefix imported from {where}, this checkout's src: install it "
                         "or point PYTHONPATH at another copy")
    run, failed, skipped = command_runner(prefix), 0, 0
    for case in CASES:
        if case.skipped():
            skipped += 1
            print(f"skip {case.id}: no {case.needs}")
            continue
        with tempfile.TemporaryDirectory() as root:
            try:
                check_case(case, run, Path(root))
                print(f"ok   {case.id}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {case.id}: {exc}")
    print(f"{len(CASES) - failed - skipped} passed, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(f"usage: python {sys.argv[0]} CMD...  (gaugefix, python -m gaugefix.cli)")
    sys.exit(main(sys.argv[1:]))

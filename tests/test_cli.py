import argparse
import json
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gaugefix
from gaugefix import cli, evolution, fields, symbols, toys
from gaugefix.cli import (
    SCENARIOS,
    ConfigError,
    RunConfig,
    build_parser,
    main,
)
from gaugefix.evolution import evolve
from gaugefix.fields import (
    FieldState,
    SpectralWorkspace,
    get_workspace,
    plane_wave_reference,
    random_smooth_fields,
    read_snapshot,
    write_snapshot,
)
from oracles import constraint_norms, plane_wave_initial_data, project_state


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "scenario": "plane_wave",
        "dt": 0.1,
        "t_end": 1.0,
        "grid_n": 8,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestEvolveCommand:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "diag.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        table = read_csv(out)
        assert table.dtype.names == (
            "t", "energy", "norm_divA", "norm_divPi", "norm_A_L", "norm_pi_L",
            "l2_error",
        )
        assert table["t"][0] == 0.0
        assert table["t"][-1] == pytest.approx(1.0)
        assert np.all(np.isfinite(table["l2_error"]))

    def test_out_from_config(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = write_config(tmp_path, out_csv=str(out))
        assert main(["evolve", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_missing_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["evolve", "--config", str(cfg)]) == 1
        assert "no output path" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_random_smooth_requires_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="random_smooth")
        out = tmp_path / "r.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_override_enables_and_varies_run(self, tmp_path):
        cfg = write_config(tmp_path, scenario="random_smooth")
        out1, out2, out3 = (tmp_path / f"{i}.csv" for i in range(3))
        base = ["evolve", "--config", str(cfg)]
        assert main(base + ["--out", str(out1), "--seed", "7"]) == 0
        assert main(base + ["--out", str(out2), "--seed", "7"]) == 0
        assert main(base + ["--out", str(out3), "--seed", "8"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()

    def test_formulation_override(self, tmp_path):
        cfg = write_config(tmp_path, scenario="contaminated", t_end=2.0)
        out_c = tmp_path / "canonical.csv"
        out_g = tmp_path / "fixed.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out_c)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out_g),
                     "--formulation", "gauge-fixed"]) == 0
        canonical = read_csv(out_c)
        fixed = read_csv(out_g)
        assert canonical["norm_A_L"][-1] > 0.1
        assert np.max(fixed["norm_A_L"]) < 1e-10

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grdi_n=16)
        assert main(["evolve", "--config", str(cfg), "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert "unknown config keys" in err
        assert "grdi_n" in err

    def test_missing_required_key(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "plane_wave", "dt": 0.1}))
        assert main(["evolve", "--config", str(path), "--out", "x.csv"]) == 1
        assert "t_end" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        assert main(["evolve", "--config", str(path), "--out", "x.csv"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.fixture
    def no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "build_initial_data", refuse)
        monkeypatch.setattr(evolution, "evolve", refuse)

    @pytest.mark.parametrize("source", ["--out", "out_csv"])
    @pytest.mark.parametrize("where", ["missing-directory", "file-as-directory", "directory"])
    def test_out_that_cannot_be_written_is_refused_before_the_run(self, tmp_path, capsys, no_run,
                                                                  where, source):
        (tmp_path / "file").write_text("")
        out = {"missing-directory": tmp_path / "missing" / "diag.csv",
               "file-as-directory": tmp_path / "file" / "diag.csv",
               "directory": tmp_path}[where]
        argv = ["evolve", "--config"]
        if source == "--out":
            argv += [str(write_config(tmp_path)), "--out", str(out)]
        else:
            argv += [str(write_config(tmp_path, out_csv=str(out)))]
        assert main(argv) == 1
        reason = "it is a directory" if where == "directory" else f"{out.parent} is not a directory"
        assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["file", "run.json"]

    def test_config_that_is_not_utf8(self, tmp_path, capsys, no_run):
        raw = b'{"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0, "note": "caf\xe9"}'
        path = tmp_path / "run.json"
        path.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError) as decode:
            raw.decode("utf-8")
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr() == (
            "", f"error: config {path} is not valid JSON: {decode.value}\n")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["evolve", "--config", str(tmp_path / "none.json"),
                     "--out", "x.csv"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_abort_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dt=50.0, t_end=5000.0)
        out = tmp_path / "aborted.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "aborted" in captured.err
        assert out.exists()

    def test_grid_overflow_is_an_abort(self, tmp_path, capsys):
        # pi_x = 4e303 cos x: A_L = t pi_L grows until the spectrum
        # overflows after t = 175.5.
        cfg = write_config(tmp_path, scenario="contaminated", dt=0.5, t_end=1000.0,
                           amplitude=0.0, contamination_amplitude=4e303)
        out = tmp_path / "overflow.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "evolution aborted at t=175.5" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 1 + 352

    def test_finite_state_overflowing_on_the_grid_is_no_abort(self, tmp_path, capsys):
        # Amplitude 6.6e305: every grid value is at most 6.6e305, but the
        # backward transform of the wave's two 1.69e308 coefficients
        # overflows. The command writes only the CSV and never makes that
        # grid state, and the state it carries stayed finite: exit 0.
        cfg = write_config(tmp_path, dt=0.1, t_end=0.3, amplitude=6.6e305)
        out = tmp_path / "big.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote {out} (4 rows)\n", "")
        assert out.read_text() == (
            "t,energy,norm_divA,norm_divPi,norm_A_L,norm_pi_L,l2_error\n"
            "0.0,inf,0.0,0.0,0.0,0.0,0.0\n"
            "0.1,inf,0.0,0.0,0.0,0.0,6.124553184653958e+299\n"
            "0.2,inf,0.0,0.0,0.0,0.0,1.2249106327628798e+300\n"
            "0.30000000000000004,inf,0.0,0.0,0.0,0.0,1.8373659431111744e+300\n")

    def test_astronomical_step_count_refused_fast(self, tmp_path, capsys):
        # 1e302 steps in 1e296 rows: refused before the loop, not run forever.
        cfg = write_config(tmp_path, dt=0.01, t_end=1e300, stride=1000000)
        out = tmp_path / "huge.csv"
        t0 = time.perf_counter()
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_polarization_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, polarization=[1, 0, 0])
        assert main(["evolve", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert "orthogonal" in capsys.readouterr().err

    def test_unstable_plane_wave_aborts_when_its_mode_overflows(self, tmp_path, capsys):
        # The command evolves the wave's Fourier coefficients alone, so the
        # abort comes from the wave's own mode, not from grid rounding noise.
        cfg = write_config(tmp_path, dt=50.0, t_end=5000.0)
        out = tmp_path / "aborted.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "evolution aborted at t=2800.0" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 1 + 57

    @pytest.mark.parametrize("patch, err", [
        ({"mode": [10 ** 23, 0, 0]},
         "error: mode [100000000000000000000000, 0, 0] is not resolved on an N=8 grid"),
        ({"mode": [-2 ** 63, 0, 1], "grid_n": 32},
         "error: mode [-9223372036854775808, 0, 1] is not resolved on an N=32 grid"),
        ({"grid_n": 10 ** 20}, "error: grid_n must be an integer from 4 to "),
    ], ids=["mode-past-int64", "mode-int64-min", "grid_n-past-int64"])
    def test_integers_past_int64_are_clean_errors(self, tmp_path, capsys, patch, err):
        cfg = write_config(tmp_path, **patch)
        out = tmp_path / "x.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(err)
        assert not out.exists()

    @pytest.mark.parametrize("message, err", [
        ("Unable to allocate 2.27 PiB for an array", "Unable to allocate 2.27 PiB for an array"),
        ("", "out of memory"),
    ])
    def test_memory_error_is_a_clean_error(self, tmp_path, capsys, monkeypatch, message, err):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(fields, "random_smooth_fields", exhausted)
        cfg = write_config(tmp_path, scenario="random_smooth", seed=1)
        out = tmp_path / "never.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not out.exists()


# The wave_rk4 and growth_diag runs of perfbench/workloads.py, with its
# output checks.
BENCH_CONFIGS = {
    "wave_rk4": dict(scenario="plane_wave", grid_n=32, formulation="gauge_fixed", stepper="rk4",
                     dt=2.0 * np.pi / 1000.0, t_end=2.0 * np.pi, stride=50),
    "growth_diag": dict(scenario="contaminated", grid_n=64, formulation="canonical",
                        stepper="stormer_verlet", dt=0.01, t_end=0.2, stride=1),
}


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_benchmark_runs_pass_their_checks(tmp_path, name):
    cfg = BENCH_CONFIGS[name]
    path = write_config(tmp_path, **cfg)
    out = tmp_path / "diagnostics.csv"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    table = read_csv(out)
    assert len(table) == 21
    if name == "wave_rk4":
        assert table["l2_error"][-1] < 1e-6
        assert np.max(np.abs(table["energy"] / table["energy"][0] - 1.0)) < 1e-8
    else:
        pi_l0 = table["norm_pi_L"][0]
        slope = np.polyfit(table["t"], table["norm_A_L"], 1)[0]
        assert abs(slope - pi_l0) / pi_l0 < 1e-6
        assert np.max(np.abs(table["norm_pi_L"] - pi_l0)) / pi_l0 < 1e-10
    # The same run from the grid data, through a transform and the shell
    # moments, agrees column by column.
    kind = "transverse" if cfg["scenario"] == "plane_wave" else "contaminated"
    n = cfg["grid_n"]
    state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), kind=kind, grid_n=n)
    ref = plane_wave_reference((1, 0, 0), (0, 1, 0), grid_n=n) if kind == "transverse" else None
    grid = evolve(state, cfg["formulation"], cfg["stepper"], cfg["dt"], cfg["t_end"],
                  reference=ref, stride=cfg["stride"])
    for column in ("t", "energy", "norm_divA", "norm_divPi", "norm_A_L", "norm_pi_L"):
        assert_allclose(table[column], getattr(grid, column), rtol=1e-14, atol=0, err_msg=column)
    assert_allclose(table["l2_error"], grid.l2_error, rtol=0, atol=3e-15)


# Evolve CSVs pinned byte for byte, one per carrier: the README example and
# the growth_diag run (a few Fourier coefficients as vectors), random_smooth
# with reprojection (shell moments), the unstable N=8 plane wave (its
# coefficients, aborting at t=2800) and an unstable random_smooth run
# (every mode as a vector, aborting at t=106).
GOLDEN_EVOLVE = {
    "readme_example": (dict(scenario="plane_wave", dt=0.0062831853, t_end=6.2831853, grid_n=32,
                            formulation="gauge_fixed", stepper="rk4", stride=50), 0),
    "growth_diag": (BENCH_CONFIGS["growth_diag"], 0),
    "random_smooth_reproject": (dict(scenario="random_smooth", grid_n=16, seed=3, dt=0.05,
                                     t_end=1.0, reproject_every=4, stride=3), 0),
    "plane_wave_unstable": (dict(scenario="plane_wave", grid_n=8, dt=50.0, t_end=5000.0), 2),
    "random_smooth_unstable": (dict(scenario="random_smooth", grid_n=16, seed=1, dt=1.0,
                                    t_end=200.0), 2),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EVOLVE))
def test_evolve_csv_matches_golden_file(tmp_path, name):
    cfg, code = GOLDEN_EVOLVE[name]
    out = tmp_path / "diagnostics.csv"
    assert main(["evolve", "--config", str(write_config(tmp_path, **cfg)), "--out", str(out)]) == code
    golden = Path(__file__).parent / "golden" / f"evolve_{name}.csv"
    assert out.read_bytes() == golden.read_bytes()


class TestSymbolCommand:
    def run_json(self, capsys, *argv):
        assert main(["symbol", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_canonical_report(self, capsys):
        doc = self.run_json(capsys, "--formulation", "canonical")
        assert doc["classification"] == "weakly_hyperbolic"
        assert doc["kappa"] == [-1.0, 0.0, 1.0]

    def test_gauge_fixed_report(self, capsys):
        doc = self.run_json(capsys, "--formulation", "gauge-fixed")
        assert doc["classification"] == "strongly_hyperbolic"
        assert doc["kappa"] == [-1.0, 0.0, 1.0]
        assert all(s["complete"] for s in doc["samples"])

    def test_output_file_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["symbol", "--formulation", "canonical",
                         "--out", str(out), "--seed", "5"]) == 0
            assert "weakly_hyperbolic" in capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        json.loads(out1.read_text())

    def test_formulation_is_required(self):
        with pytest.raises(SystemExit):
            main(["symbol"])

    def test_canonical_report_is_strict_json(self, capsys):
        def reject(literal):
            raise AssertionError(f"nonstandard JSON literal {literal}")

        assert main(["symbol", "--formulation", "canonical"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert any(s["cond"] is None for s in doc["samples"])

    def test_zero_tol_is_a_clean_error(self, capsys):
        # Negative, NaN and infinite tolerances are refused the same way as zero.
        for tol in ("0", "-1", "nan", "inf"):
            assert main(["symbol", "--formulation", "canonical", "--tol", tol]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "tol" in err


class TestProjectCommand:
    def make_snapshot(self, tmp_path):
        state = plane_wave_initial_data(
            (1, 0, 0), (0, 1, 0), grid_n=8, kind="contaminated"
        )
        path = tmp_path / "in.gfsn"
        write_snapshot(state, path)
        return state, path

    def test_projects_and_reports(self, tmp_path, capsys):
        state, path = self.make_snapshot(tmp_path)
        out = tmp_path / "out.gfsn"
        assert main(["project", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("before:")
        assert lines[1].startswith("after:")
        projected = read_snapshot(out)
        after = constraint_norms(projected)
        before = constraint_norms(state)
        assert before[1] > 0.1
        assert max(after) < 1e-10

    def test_tol_gate(self, tmp_path, capsys):
        # Random data keeps roundoff-sized residuals after projection, so
        # the gate is reachable from both sides.
        a, pi = random_smooth_fields(np.random.default_rng(3), 8, 2.0 * np.pi)
        state = FieldState(a, pi, 2.0 * np.pi)
        path = tmp_path / "in.gfsn"
        write_snapshot(state, path)
        out = tmp_path / "out.gfsn"
        assert main(["project", str(path), "--out", str(out), "--tol", "1e-10"]) == 0
        capsys.readouterr()
        after = constraint_norms(project_state(state))
        assert max(after) > 0.0
        tol = max(after) / 2.0
        assert main(["project", str(path), "--out", str(out),
                     "--tol", repr(tol)]) == 1
        assert "above tol" in capsys.readouterr().err

    def test_six_transforms_and_the_outputs_of_the_grid_route(self, tmp_path, capsys,
                                                              monkeypatch):
        # Six per field, one N^3 component at a time: per component one
        # forward, one back to the grid (in place in the component's
        # spectrum, through _inverse) and one forward of the written grid.
        a, pi = random_smooth_fields(np.random.default_rng(5), 16, 2.0 * np.pi)
        state = FieldState(a, pi, 2.0 * np.pi)
        path, out, ref = tmp_path / "in.gfsn", tmp_path / "out.gfsn", tmp_path / "ref.gfsn"
        write_snapshot(state, path)
        calls = []

        def counted(name):
            method = getattr(SpectralWorkspace, name)

            def wrapper(ws, f, *args, **kwargs):
                calls.append((name, f.shape))
                return method(ws, f, *args, **kwargs)
            return wrapper

        for name in ("forward", "backward", "_inverse"):
            monkeypatch.setattr(SpectralWorkspace, name, counted(name))
        assert main(["project", str(path), "--out", str(out)]) == 0
        assert calls.count(("forward", (16, 16, 16))) == 12
        assert calls.count(("_inverse", (16, 16, 9))) == 6 and len(calls) == 18
        monkeypatch.undo()
        write_snapshot(project_state(state), ref)
        assert out.read_bytes() == ref.read_bytes()
        assert Path(f"{out}.json").read_bytes() == Path(f"{ref}.json").read_bytes()
        before = capsys.readouterr().out.splitlines()[0]
        printed = [float(v.split("=")[1]) for v in before.split()[1:]]
        assert_allclose(printed, constraint_norms(state), rtol=1e-12)

    def test_builds_no_shell_table(self, tmp_path, capsys):
        # The shells (an np.unique over every mode) serve the evolution's
        # moments; the projection makes k^2 one kx plane at a time.
        state, path = self.make_snapshot(tmp_path)
        get_workspace.cache_clear()
        assert main(["project", str(path), "--out", str(tmp_path / "out.gfsn")]) == 0
        ws = vars(get_workspace(state.grid_n, state.domain_length))
        n = state.grid_n
        assert not {"k2", "inv_k2", "shells"} & set(ws)
        # Nor a (3, N, N, N/2+1) wavevector table: the wavevector is read as three axes.
        assert not [v for v in ws.values() if getattr(v, "shape", None) == (3, n, n, n // 2 + 1)]

    @pytest.mark.parametrize("field", ["a", "pi"])
    @pytest.mark.parametrize("existing", [None, b"an earlier output"])
    def test_overflowing_projection_writes_nothing(self, tmp_path, capsys, field, existing):
        # An overflow in pi comes after a's components went to the new file.
        wild = np.zeros((3, 8, 8, 8))
        wild[0] = 1e308 * (-1.0) ** np.arange(8)[:, None, None]
        tame = random_smooth_fields(np.random.default_rng(1), 8, 2.0 * np.pi)[0]
        path, out = tmp_path / "in.gfsn", tmp_path / "out.gfsn"
        write_snapshot(FieldState(*((wild, tame) if field == "a" else (tame, wild)),
                                  2.0 * np.pi), path)
        if existing is not None:
            out.write_bytes(existing)
        assert main(["project", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: field values must be finite\n"
        assert (out.read_bytes() if out.exists() else None) == existing
        left = {"in.gfsn", "in.gfsn.json"} | ({"out.gfsn"} if existing else set())
        assert {p.name for p in tmp_path.iterdir()} == left

    def test_out_may_be_the_input(self, tmp_path, capsys):
        _, path = self.make_snapshot(tmp_path)
        out = tmp_path / "out.gfsn"
        assert main(["project", str(path), "--out", str(out)]) == 0
        assert main(["project", str(path), "--out", str(path)]) == 0
        assert path.read_bytes() == out.read_bytes()
        assert Path(f"{path}.json").read_bytes() == Path(f"{out}.json").read_bytes()
        assert {p.name for p in tmp_path.iterdir()} == {"in.gfsn", "in.gfsn.json",
                                                        "out.gfsn", "out.gfsn.json"}

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    def test_out_through_a_symbolic_link_writes_its_target(self, tmp_path, capsys):
        _, path = self.make_snapshot(tmp_path)
        out, elsewhere = tmp_path / "out.gfsn", tmp_path / "elsewhere"
        elsewhere.mkdir()
        link = tmp_path / "link.gfsn"
        link.symlink_to(elsewhere / "target.gfsn")
        assert main(["project", str(path), "--out", str(out)]) == 0
        assert main(["project", str(path), "--out", str(link)]) == 0
        assert link.is_symlink() and link.read_bytes() == out.read_bytes()
        assert [p.name for p in elsewhere.iterdir()] == ["target.gfsn"]

    def test_out_gets_the_mode_that_open_for_writing_gives(self, tmp_path, capsys):
        _, path = self.make_snapshot(tmp_path)
        out, probe = tmp_path / "out.gfsn", tmp_path / "probe"
        umask = os.umask(0o027)
        try:
            open(probe, "wb").close()
            assert main(["project", str(path), "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert out.stat().st_mode == probe.stat().st_mode
        # An existing output keeps its mode, as when it is opened and truncated.
        out.chmod(0o604)
        assert main(["project", str(path), "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o7777 == 0o604

    def test_out_that_is_not_a_regular_file_is_refused_first(self, tmp_path, capsys):
        # The input is malformed too: the output is checked before any work.
        bad = tmp_path / "bad.gfsn"
        bad.write_bytes(b"JUNK")
        directory = tmp_path / "dir"
        directory.mkdir()
        outs = [directory, Path(os.devnull)]
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp_path / "fifo")
            outs.append(tmp_path / "fifo")
        for out in outs:
            assert main(["project", str(bad), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (f"error: cannot write snapshot {out}: "
                                               "it exists and is not a regular file\n")
        assert not any(directory.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["bad.gfsn", "dir"] + (["fifo"] if len(outs) == 3 else []))

    def test_file_size_that_disagrees_with_the_header_is_refused_first(self, tmp_path, capsys):
        # A header that claims N = 2^20 would need 48 EiB of payload: the size
        # comes from fstat, before anything of that size is allocated.
        path, out = tmp_path / "in.gfsn", tmp_path / "out.gfsn"
        path.write_bytes(struct.pack("<4sIId", b"GFSN", 1, 2 ** 20, 1.0))
        assert main(["project", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: snapshot {path} has 20 bytes, "
                                           f"expected {20 + 48 * 2 ** 60}\n")
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw, None),
        (lambda raw: raw[:-8], "has 3084 bytes, expected 3092"),
        (lambda raw: raw + bytes(8), "has 3100 bytes, expected 3092"),
        (lambda raw: raw[:2], "is too short for a header"),
        # A header that claims N=256: only what the pipe sends is read.
        (lambda raw: struct.pack("<4sIId", b"GFSN", 1, 256, 1.0) + raw[20:120],
         f"has 120 bytes, expected {20 + 48 * 256 ** 3}"),
    ], ids=["whole", "short", "over", "headless", "claims-more"])
    def test_pipe_input_projects_to_the_bytes_of_the_file_route(self, tmp_path, capsys,
                                                                 edit, message):
        state = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=4, kind="contaminated")
        path, fifo = tmp_path / "in.gfsn", tmp_path / "pipe"
        write_snapshot(state, path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(edit(path.read_bytes()),))
        writer.start()
        try:
            code = main(["project", str(fifo), "--out", str(tmp_path / "piped.gfsn")])
        finally:
            if writer.is_alive():  # never opened: let the writer's open return
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        piped = capsys.readouterr()
        if message is not None:
            assert (code, piped.err) == (1, f"error: snapshot {fifo} {message}\n")
            assert not (tmp_path / "piped.gfsn").exists()
            return
        assert code == 0
        assert main(["project", str(path), "--out", str(tmp_path / "out.gfsn")]) == 0
        assert capsys.readouterr().out == piped.out
        assert (tmp_path / "piped.gfsn").read_bytes() == (tmp_path / "out.gfsn").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_dev_stdin_projects_to_the_bytes_of_the_file_route(self, tmp_path):
        state, path = self.make_snapshot(tmp_path)
        code = ("import sys\nfrom gaugefix.cli import main\n"
                "sys.exit(main(['project', '/dev/stdin', '--out', sys.argv[1]]))")
        src = str(Path(gaugefix.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        piped = subprocess.run([sys.executable, "-c", code, str(tmp_path / "piped.gfsn")],
                               input=path.read_bytes(), env=env, capture_output=True,
                               check=True, timeout=60)
        assert main(["project", str(path), "--out", str(tmp_path / "out.gfsn")]) == 0
        assert (tmp_path / "piped.gfsn").read_bytes() == (tmp_path / "out.gfsn").read_bytes()
        assert piped.stderr == b""

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_is_a_clean_error(self, tmp_path, capsys, tol):
        _, path = self.make_snapshot(tmp_path)
        out = tmp_path / "out.gfsn"
        assert main(["project", str(path), "--out", str(out), "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("error: --tol")
        assert not out.exists()

    @pytest.mark.parametrize("where", [0, 6 * 8 ** 3 - 1])
    def test_input_that_is_not_finite_is_a_format_error(self, tmp_path, capsys, where):
        # The first value of a_x, or the last of pi_z.
        _, path = self.make_snapshot(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 20 + 8 * where, float("inf"))
        path.write_bytes(raw)
        out = tmp_path / "out.gfsn"
        assert main(["project", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: snapshot {path} payload invalid: "
                                           "field values must be finite\n")
        assert not out.exists()

    def test_malformed_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.gfsn"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["project", str(bad), "--out", str(tmp_path / "o.gfsn")]) == 1
        assert "error:" in capsys.readouterr().err


class TestConstraintsCommand:
    def run_json(self, capsys, *argv):
        assert main(["constraints", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_chain_demo_report(self, capsys):
        doc = self.run_json(capsys, "chain-demo")
        assert doc["model"] == "chain-demo"
        assert doc["primaries"] == ["p2"]
        assert [c["label"] for c in doc["chain"]] == ["p2", "[p2, H]"]
        assert [c["origin"] for c in doc["chain"]] == ["primary", "consistency"]
        assert {c["class"] for c in doc["classification"]} == {"first_class"}
        # A first-class set has no invertible commutation matrix, so the
        # Dirac bracket column is null and the reason is recorded.
        assert all(c["dirac"] is None for c in doc["dirac_checks"])
        assert "gauge" in doc["dirac_note"]

    def test_second_class_demo_report(self, capsys):
        doc = self.run_json(capsys, "second-class-demo")
        assert {c["class"] for c in doc["classification"]} == {"second_class"}
        assert doc["commutation_matrix"]["entries"] == [[0.0, -1.0], [1.0, 0.0]]
        checks = {(c["f"], c["g"]): c for c in doc["dirac_checks"]}
        assert checks[("q1", "p1")]["dirac"] == 1.0
        assert checks[("q2", "p2")]["dirac"] == 0.0
        assert checks[("q1", "q2")]["dirac"] == 1.0
        assert checks[("q1", "p1")]["poisson"] == 1.0
        assert "dirac_note" not in doc

    def test_regular_demo_report(self, capsys):
        doc = self.run_json(capsys, "regular-demo")
        assert doc["chain"] == []
        assert doc["primaries"] == []
        assert doc["dirac_checks"] == []

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["constraints", "nonexistent-model"])

    @pytest.mark.parametrize("seed", ["0", "901"])
    @pytest.mark.parametrize("model", ["chain-demo", "second-class-demo", "regular-demo"])
    def test_output_matches_golden_file(self, capsys, model, seed):
        assert main(["constraints", model, "--seed", seed]) == 0
        golden = Path(__file__).parent / "golden" / f"constraints_{model}.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_out_flag_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for out in (out1, out2):
            assert main(["constraints", "second-class-demo", "--out", str(out)]) == 0
            capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


class TestRunConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig.from_dict({"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0})
        assert cfg.grid_n == 32
        assert cfg.formulation == "canonical"
        assert cfg.stepper == "rk4"

    def test_rejects_non_object_root(self):
        with pytest.raises(ConfigError, match="object"):
            RunConfig.from_dict([1, 2, 3])

    @pytest.mark.parametrize("patch,fragment", [
        ({"scenario": "melting"}, "scenario"),
        ({"dt": -0.5}, "dt"),
        ({"dt": "soon"}, "numbers"),
        ({"t_end": 0.01}, "t_end"),
        ({"grid_n": 3}, "grid_n"),
        ({"domain_length": 0.0}, "domain_length"),
        ({"formulation": "axial"}, "formulation"),
        ({"stepper": "euler"}, "stepper"),
        ({"mode": [1, 0]}, "mode"),
        ({"reproject_every": 0}, "reproject_every"),
        ({"stride": -2}, "stride"),
        ({"seed": 1.5}, "seed"),
        *(({key: True}, key) for key in (
            "dt", "t_end", "seed", "stride", "reproject_every", "amplitude",
            "contamination_amplitude", "domain_length", "grid_n")),
        ({"amplitude": "x"}, "amplitude"),
        ({"contamination_amplitude": [1]}, "contamination_amplitude"),
        ({"mode": ["a", "b", "c"]}, "mode"),
        ({"mode": [1.5, 0, 0]}, "mode"),
        ({"polarization": ["a", "b", "c"]}, "polarization"),
        ({"polarization": [10 ** 400, 0, 0]}, "polarization"),
        ({"domain_length": "2pi"}, "domain_length"),
        ({"out_csv": 5}, "out_csv"),
        ({"polarization": [0.0, 1.0]}, "^polarization must be a 3-vector of finite numbers$"),
        ({"polarization": 1.0}, "^polarization must be a 3-vector of finite numbers$"),
        *(({"scenario": "contaminated", "contamination_amplitude": value},
           "^scenario contaminated requires contamination_amplitude > 0$")
          for value in (0.0, -0.1)),
    ])
    def test_validation_failures(self, patch, fragment):
        base = {"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0}
        base.update(patch)
        with pytest.raises(ConfigError, match=fragment):
            RunConfig.from_dict(base)

    @pytest.mark.parametrize("key, value", [
        (key, value) for key in ("formulation", "stepper")
        for value in ("Canonical", "rk-4", "gauge fixed", "", 5, None, True, ["rk4"])])
    def test_bad_spellings_keep_their_messages(self, tmp_path, capsys, key, value):
        expected = {"formulation": "formulation must be canonical or gauge-fixed",
                    "stepper": "stepper must be rk4 or stormer_verlet"}[key]
        cfg = write_config(tmp_path, **{key: value})
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {expected}, got {value!r}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("formulation", ["canonical", "gauge-fixed", "gauge_fixed"])
    @pytest.mark.parametrize("stepper", ["rk4", "stormer_verlet", "stormer-verlet"])
    def test_accepted_spellings(self, formulation, stepper):
        cfg = RunConfig.from_dict({"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0,
                                   "formulation": formulation, "stepper": stepper})
        assert (cfg.formulation, cfg.stepper) == (formulation, stepper)

    def test_spectral_data_that_overflow_are_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="contaminated", contamination_amplitude=1e308)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: Fourier coefficients must be finite\n"

    def test_bad_value_is_a_clean_cli_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mode=["a", "b", "c"])
        assert main(["evolve", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: mode")

    @given(st.fixed_dictionaries(
        {"scenario": st.sampled_from(SCENARIOS) | JSON, "dt": st.floats(0.01, 1.0) | JSON,
         "t_end": st.floats(1.0, 10.0) | JSON},
        optional={key: JSON for key in (
            "grid_n", "domain_length", "formulation", "stepper", "mode",
            "polarization", "amplitude", "contamination_amplitude",
            "reproject_every", "stride", "seed", "out_csv", "extra")},
    ) | JSON)
    def test_from_dict_returns_config_or_config_error(self, raw):
        try:
            cfg = RunConfig.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(cfg.dt, float) and isinstance(cfg.t_end, float)
        assert np.isfinite(cfg.dt) and np.isfinite(cfg.t_end)


@pytest.mark.parametrize("argv", [
    ["symbol", "--formulation", "canonical", "--seed", "-1"],
    ["constraints", "chain-demo", "--seed", "-3"],
])
def test_negative_seed_refused_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran with a negative seed")

    monkeypatch.setattr(symbols, "maxwell_canonical_symbol", no_work)
    monkeypatch.setattr(toys, "get_model", no_work)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: --seed must be a non-negative integer, got {argv[-1]}\n")


def parse_outcome(parse, argv, capsys):
    """(stdout, stderr, exit code) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


# Help and each kind of usage error, for every command.
USAGE_CASES = [
    ["evolve", "-h"],
    ["evolve"],
    ["evolve", "--config", "c.json", "--formulation", "bogus"],
    ["evolve", "--config", "c.json", "--seed", "x"],
    ["evolve", "--config", "c.json", "--bogus"],
    ["symbol", "-h"],
    ["symbol"],
    ["symbol", "--formulation", "bogus"],
    ["symbol", "--formulation", "canonical", "--tol", "x"],
    ["symbol", "--formulation", "canonical", "extra"],
    ["project", "-h"],
    ["project", "in.snap"],
    ["project", "in.snap", "--out", "o.snap", "--tol", "x"],
    ["project", "in.snap", "--out", "o.snap", "--bogus", "1"],
    ["constraints", "-h"],
    ["constraints"],
    ["constraints", "bogus"],
    ["constraints", "chain-demo", "--seed", "x"],
    ["constraints", "chain-demo", "extra"],
]


@pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
def test_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # argparse wraps help to the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    full = parse_outcome(build_parser().parse_args, argv, capsys)
    assert parse_outcome(main, argv, capsys) == full


def test_a_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cfg = write_config(tmp_path)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 0
    assert built == ["gaugefix evolve"]
    built.clear()
    assert main(["constraints", "chain-demo"]) == 0
    assert built == ["gaugefix constraints"]
    built.clear()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert built == ["gaugefix", "gaugefix evolve", "gaugefix symbol", "gaugefix project",
                     "gaugefix constraints"]
    assert "{evolve,symbol,project,constraints}" in capsys.readouterr().out


def _run_python(code, *args):
    """``python -c code args`` with this gaugefix first on the path."""
    src = str(Path(gaugefix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)


def _python(code):
    """Standard output of ``python -c code`` with this gaugefix first on the path."""
    return _run_python(code).stdout


def test_out_of_range_geometry_and_data_are_clean_errors(tmp_path):
    """Each case runs through cli.main in one fresh interpreter, whose stderr
    shows any numpy warning or traceback as the user would see it."""
    big = plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=8)
    cases = []
    for scenario, length in [("plane_wave", 1e308), ("contaminated", 1e200),
                             ("contaminated", 1e308), ("random_smooth", 1e200),
                             ("random_smooth", 1e308), ("plane_wave", 1e-160),
                             ("plane_wave", 1e-300), ("plane_wave", 1e-320),
                             ("contaminated", 1e-320), ("random_smooth", 1e-320)]:
        cfg = write_config(tmp_path, f"{scenario}_{length}.json", scenario=scenario,
                           domain_length=length, seed=1)
        cases.append((["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
                      1, f"error: an N=8 grid of side L={length!r} is outside float64 range"))
    for length in (1e200, 1e-160, 1e-300, 1e-320):
        path = tmp_path / f"{length}.gfsn"
        write_snapshot(FieldState(big.a, big.pi, length), path)
        cases.append((["project", str(path), "--out", str(tmp_path / "x.gfsn")],
                      1, f"error: an N=8 grid of side L={length!r} is outside float64 range"))
    for scenario, code, err in [("plane_wave", 1, "error: Fourier coefficients must be finite"),
                                ("random_smooth", 1, "error: field values must be finite")]:
        cfg = write_config(tmp_path, f"{scenario}_amplitude.json", scenario=scenario,
                           amplitude=1e308, seed=1)
        cases.append((["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
                      code, err))
    driver = ("import json, sys\n"
              "from gaugefix.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    print('#', file=sys.stderr, flush=True)\n"
              "    print('exit', main(argv), flush=True)\n")
    run = _run_python(driver, json.dumps([argv for argv, _, _ in cases]))
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr
    codes = [int(line[5:]) for line in run.stdout.splitlines() if line.startswith("exit ")]
    assert codes == [code for _, code, _ in cases]
    for (_, _, err), printed in zip(cases, run.stderr.split("#\n")[1:], strict=True):
        assert printed.startswith(err)


def test_cli_import_leaves_scipy_out():
    # evolve's modules, evolution and fields, load with the CLI and not on
    # first use: a caller that times cli.main after the import (as the
    # perfbench evolve workloads do) would otherwise see their compile time
    # in the run. The finite half and the symbols load with their commands.
    code = ("import sys, gaugefix.cli; print('scipy' in sys.modules, "
            "'gaugefix.evolution' in sys.modules, 'gaugefix.fields' in sys.modules, "
            "*(f'gaugefix.{m}' in sys.modules for m in ('constraints', 'phase', 'symbols', "
            "'toys')))")
    loaded = _python(code).split()
    assert loaded[:3] == ["False", "True", "True"]
    assert loaded[3:] == ["False"] * 4


def test_import_gaugefix_loads_no_numpy_and_no_submodule():
    # The package's names and submodules load on first use, and no module
    # but the CLI sets anything in the environment.
    code = ("import os, sys, gaugefix\n"
            "print('numpy' in sys.modules, [m for m in sys.modules if m.startswith('gaugefix.')])\n"
            "env = dict(os.environ)\n"
            "gaugefix.constraints, gaugefix.evolution, gaugefix.fields, gaugefix.phase\n"
            "gaugefix.symbols\n"
            "import gaugefix.toys\n"
            "print(dict(os.environ) == env)")
    assert _python(code).splitlines() == ["False []", "True"]


@pytest.mark.parametrize("before, expected", [
    ("os.environ.pop('OPENBLAS_NUM_THREADS', None)", "'1' False"),
    ("os.environ['OPENBLAS_NUM_THREADS'] = '2'", "'2' True"),
    ("os.environ.pop('OPENBLAS_NUM_THREADS', None); import numpy", "None True"),
])
def test_cli_starts_numpy_with_one_blas_thread_unless_told_otherwise(before, expected):
    # A value the user set wins, and once numpy is loaded its BLAS has
    # started, so the environment is left as it is.
    code = (f"import os\n{before}\nenv = dict(os.environ)\nimport gaugefix.cli\n"
            "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')), dict(os.environ) == env)")
    assert _python(code) == expected + "\n"


@pytest.mark.parametrize("argv, runs", [
    (["symbol", "--formulation", "canonical"], ["symbols"]),
    (["symbol", "--formulation", "gauge-fixed"], ["symbols"]),
    (["project", "{snapshot}", "--out", "{out}"], []),
    (["constraints", "chain-demo"], ["constraints", "phase", "toys"]),
])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, runs):
    snapshot = tmp_path / "in.gfsn"
    write_snapshot(plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=8), snapshot)
    argv = [arg.format(snapshot=snapshot, out=tmp_path / "out.gfsn") for arg in argv]
    code = ("import io, sys, contextlib, gaugefix.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = gaugefix.cli.main({argv!r})\n"
            "print(code, *(m for m in ('constraints', 'phase', 'symbols', 'toys')\n"
            "              if f'gaugefix.{m}' in sys.modules))")
    assert _python(code).split() == ["0", *runs]


def test_readme_library_sketch_prints_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    assert _python(sketch.split("```", 1)[0]) == "1.0\n"


@pytest.mark.parametrize("argv, unused", [
    (["symbol", "--formulation", "canonical"], "numpy.ma"),
    (["symbol", "--formulation", "gauge-fixed"], "numpy.ma"),
    (["constraints", "chain-demo"], "numpy.random"),
    (["constraints", "second-class-demo"], "numpy.random"),
    (["constraints", "regular-demo"], "numpy.random"),
])
def test_commands_leave_the_numpy_modules_they_do_not_use_out(argv, unused):
    # Neither the CLI import nor the command loads the module: symbol ranks
    # its speeds by a sorted set, and constraints samples nothing.
    code = ("import io, sys, contextlib, gaugefix.cli\n"
            f"loaded = {unused!r} in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = gaugefix.cli.main({argv!r})\n"
            f"print(code, loaded, {unused!r} in sys.modules)")
    assert _python(code).split() == ["0", "False", "False"]

import argparse
import contextlib
import errno
import io
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
from hypothesis import given, settings
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
    get_workspace,
    plane_wave_reference,
    random_smooth_fields,
    read_snapshot,
    write_snapshot,
)
from cli_cases import CASES, check_case, command_runner
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

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_astronomical_step_count_refused_fast(self, tmp_path, capsys):
        # 1e302 steps in 1e296 rows: refused before the loop, not run forever.
        cfg = write_config(tmp_path, dt=0.01, t_end=1e300, stride=1000000)
        out = tmp_path / "huge.csv"
        t0 = time.perf_counter()
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith("error: ")
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
        # spectrum) and one forward of the written grid, each as rfftn's or
        # irfftn's one-axis passes in their order, the passes along z over
        # x-slabs of at most N/2+1 = 9 planes.
        a, pi = random_smooth_fields(np.random.default_rng(5), 16, 2.0 * np.pi)
        state = FieldState(a, pi, 2.0 * np.pi)
        path, out, ref = tmp_path / "in.gfsn", tmp_path / "out.gfsn", tmp_path / "ref.gfsn"
        write_snapshot(state, path)
        calls = []

        def counted(name):
            transform = getattr(np.fft, name)

            def wrapper(f, *args, axis=-1, **kwargs):
                calls.append((name, axis, f.shape))
                return transform(f, *args, axis=axis, **kwargs)
            return wrapper

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(name))
        assert main(["project", str(path), "--out", str(out)]) == 0
        half = (16, 16, 9)
        along_yx = [("fft", 1, half), ("fft", 0, half)]
        forward = [("rfft", 2, (w, 16, 16)) for w in (9, 7)] + along_yx
        inverse = ([("ifft", 0, half), ("ifft", 1, half)]
                   + [c for w in (9, 7) for c in (("irfft", 2, (w, 16, 9)), ("rfft", 2, (w, 16, 16)))]
                   + along_yx)
        assert calls == 2 * (3 * forward + 3 * inverse)
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
        # The input is malformed too: the output is checked before any work,
        # and so is its sidecar, here a directory at out.gfsn.json.
        bad = tmp_path / "bad.gfsn"
        bad.write_bytes(b"JUNK")
        directory, sidecar = tmp_path / "dir", tmp_path / "out.gfsn.json"
        directory.mkdir()
        sidecar.mkdir()
        outs = [(directory, directory), (Path(os.devnull), Path(os.devnull)),
                (tmp_path / "out.gfsn", sidecar)]
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp_path / "fifo")
            outs.append((tmp_path / "fifo", tmp_path / "fifo"))
        for out, refused in outs:
            assert main(["project", str(bad), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (f"error: cannot write snapshot {refused}: "
                                               "it exists and is not a regular file\n")
        assert not any(directory.iterdir()) and not any(sidecar.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["bad.gfsn", "dir", "out.gfsn.json"] + (["fifo"] if len(outs) == 4 else []))

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
        path = tmp_path / "in.gfsn"
        write_snapshot(state, path)
        with fifo_fed(tmp_path / "pipe", edit(path.read_bytes())) as fifo:
            code = main(["project", str(fifo), "--out", str(tmp_path / "piped.gfsn")])
        piped = capsys.readouterr()
        if message is not None:
            assert (code, piped.err) == (1, f"error: snapshot {fifo} {message}\n")
            assert not (tmp_path / "piped.gfsn").exists()
            return
        assert code == 0
        assert main(["project", str(path), "--out", str(tmp_path / "out.gfsn")]) == 0
        assert capsys.readouterr().out == piped.out
        assert (tmp_path / "piped.gfsn").read_bytes() == (tmp_path / "out.gfsn").read_bytes()

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

    @pytest.mark.parametrize("failure", ["read", "runs-on", "write", "sidecar"])
    def test_a_failed_read_or_write_leaves_dst_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                         failure):
        # A payload read that fails (EIO), a pipe that runs on past one whole
        # 64 KiB read after the payload (its size counts every byte), and a
        # write that fails (ENOSPC), of the snapshot or of its sidecar.
        _, path = self.make_snapshot(tmp_path)
        size, extra = path.stat().st_size, (1 << 16) + 8
        out, sidecar = tmp_path / "out.gfsn", tmp_path / "out.gfsn.json"
        out.write_bytes(b"an earlier output")
        sidecar.write_bytes(b"an earlier sidecar")

        class Failing(io.FileIO):
            def readinto(self, buf):
                if self.tell() >= 20:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                return super().readinto(buf)

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def failing_open(file, mode="r", **kwargs):
            if (failure, mode) == ("sidecar", "w"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            if mode == {"read": "rb", "write": "xb"}.get(failure):
                return Failing(file, mode.rstrip("b"))
            return open(file, mode, **kwargs)

        with contextlib.ExitStack() as stack:
            src = path
            if failure == "runs-on":
                src = stack.enter_context(
                    fifo_fed(tmp_path / "pipe", path.read_bytes() + bytes(extra)))
            else:
                monkeypatch.setattr(fields, "open", failing_open, raising=False)
            code = main(["project", str(src), "--out", str(out)])
        err = {"read": f"cannot read snapshot {path}: [Errno 5] Input/output error",
               "runs-on": f"snapshot {src} has {size + extra} bytes, expected {size}",
               "write": f"cannot write snapshot {out}: No space left on device",
               "sidecar": f"cannot write snapshot {sidecar}: No space left on device"}[failure]
        assert (code, capsys.readouterr()) == (1, ("", f"error: {err}\n"))
        assert (out.read_bytes(), sidecar.read_bytes()) == (b"an earlier output",
                                                            b"an earlier sidecar")
        assert {p.name for p in tmp_path.iterdir()} == {"in.gfsn", "in.gfsn.json", "out.gfsn",
                                                        "out.gfsn.json"}


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

    @pytest.mark.parametrize("formulation", ["canonical", "gauge-fixed", "gauge_fixed"])
    @pytest.mark.parametrize("stepper", ["rk4", "stormer_verlet", "stormer-verlet"])
    def test_accepted_spellings(self, formulation, stepper):
        cfg = RunConfig.from_dict({"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0,
                                   "formulation": formulation, "stepper": stepper})
        assert (cfg.formulation, cfg.stepper) == (formulation, stepper)

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


FLAGS = sorted({arg for name in cli.COMMANDS for arg, _ in cli._declared(name) if arg[0] == "-"})
CHOICES = sorted({c for name in cli.COMMANDS for _, kw in cli._declared(name)
                  for c in kw.get("choices", ())})
VALUES = st.sampled_from(["-1", "0", "7", "x", "nan", "1e-10", "", "extra", *CHOICES])
TOKENS = st.one_of(
    st.sampled_from(FLAGS), VALUES,
    st.sampled_from(["-h", "--", "--out=x", *(f[:n] for f in FLAGS for n in range(3, len(f)))]))


FULL_PARSER = build_parser()


def _full_parse(argv):
    """vars of the full parser's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            return vars(FULL_PARSER.parse_args(argv))
    except SystemExit:
        return None


@settings(max_examples=200)
@given(st.data())
def test_plain_reading_gives_what_argparse_gives(data):
    # Every namespace read without argparse is the full parser's, and every
    # argv of exact flags with separate values and positionals, none
    # starting with "-", that argparse takes is read without it. The argv:
    # most of the command's arguments in any order, most with a value its
    # type and choices take, then up to two tokens of any kind put anywhere.
    name = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = []
    for arg, kw in data.draw(st.permutations(cli._declared(name))):
        if data.draw(st.sampled_from([True, True, False])):
            valid = kw.get("choices") or {int: ["0", "7"], float: ["nan", "1e-10", "7"]}.get(
                kw.get("type"), ["x", "nan", ""])
            value = data.draw(st.sampled_from(valid) if data.draw(st.integers(0, 3)) else VALUES)
            argv += [arg, value] if arg[0] == "-" else [value]
    for _ in range(data.draw(st.integers(0, 2))):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(TOKENS))
    plain, full = cli._read_plainly(name, argv), _full_parse([name, *argv])
    if plain is not None:
        # Compared as repr, in which nan equals nan.
        assert full is not None and repr(sorted(vars(plain).items())) == repr(sorted(full.items()))
    flags, tokens, plain_form = {a for a, _ in cli._declared(name) if a[0] == "-"}, iter(argv), True
    for token in tokens:
        if token in flags:
            token = next(tokens, "-")
        plain_form &= not token.startswith("-")
    if plain_form and full is not None:
        assert plain is not None, argv


def test_a_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch):
    # A well-formed command line builds no parser, a usage error only its
    # command's, and the top-level help all five.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cfg = write_config(tmp_path)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 0
    assert main(["constraints", "chain-demo"]) == 0
    assert built == []
    capsys.readouterr()
    for argv, code, prog in [(["constraints", "bogus"], 2, ["gaugefix constraints"]),
                             (["-h"], 0, ["gaugefix", "gaugefix evolve", "gaugefix symbol",
                                          "gaugefix project", "gaugefix constraints"])]:
        built.clear()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, built) == (code, prog)
    assert "{evolve,symbol,project,constraints}" in capsys.readouterr().out


def _pythonpath():
    """PYTHONPATH with this gaugefix first."""
    src = str(Path(gaugefix.__file__).resolve().parents[1])
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def _python(code):
    """Standard output of ``python -c code`` with this gaugefix first on the path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_pythonpath()), check=True).stdout


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




@pytest.mark.parametrize("argv, runs, unused", [
    (["symbol", "--formulation", "canonical"], ["symbols"], "numpy.ma"),
    (["symbol", "--formulation", "gauge-fixed"], ["symbols"], "numpy.ma"),
    (["project", "{snapshot}", "--out", "{out}"], [], "numpy.random"),
    *((["constraints", model], ["constraints", "phase", "toys"], "numpy.random")
      for model in ("chain-demo", "second-class-demo", "regular-demo")),
    (["evolve", "--config", "{config}", "--out", "{out}"], [], "numpy.fft"),
    # Help and a usage error: argparse, as the full parser prints them.
    (["evolve", "-h"], [], "numpy.fft"),
    (["constraints", "bogus"], ["constraints", "phase", "toys"], "numpy.random"),
])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, capsys, monkeypatch, argv, runs,
                                                  unused):
    # evolve's modules load with the CLI, so that a caller that times
    # cli.main after the import (as perfbench does) does not time their
    # compilation; the others load with their commands, and scipy never.
    # symbol ranks its speeds by a sorted set, project and constraints
    # sample nothing, and a plane wave evolves as its Fourier coefficients.
    # A well-formed command line loads no argparse, nor the gettext and
    # locale that its messages load.
    monkeypatch.setenv("COLUMNS", "80")
    snapshot, config = tmp_path / "in.gfsn", write_config(tmp_path, grid_n=16, t_end=2.0)
    write_snapshot(plane_wave_initial_data((1, 0, 0), (0, 1, 0), grid_n=8), snapshot)
    argv = [arg.format(snapshot=snapshot, config=config, out=tmp_path / "out") for arg in argv]
    code = ("import contextlib, io, json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('gaugefix.')\n"
            f"                  or m in ('scipy', 'argparse', 'gettext', 'locale', {unused!r}))\n"
            "import gaugefix.cli\n"
            "after_import = loaded()\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "    try:\n"
            f"        code = gaugefix.cli.main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(json.dumps([after_import, code, loaded(), out.getvalue(), err.getvalue()]))")
    cli_modules = ["gaugefix.cli", "gaugefix.evolution", "gaugefix.fields"]
    after_import, code, modules, out, err = json.loads(_python(code))
    parser_modules = []
    if "-h" in argv or "bogus" in argv:
        parser_modules = ["argparse", "gettext", "locale"]
        assert (out, err, code) == parse_outcome(build_parser().parse_args, argv, capsys)
    else:
        assert (code, err) == (0, "")
    assert after_import == cli_modules
    assert modules == sorted(cli_modules + [f"gaugefix.{m}" for m in runs] + parser_modules)


@contextlib.contextmanager
def fifo_fed(fifo, data):
    """A named pipe at fifo that a thread writes data into while the block
    runs, removed after it."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        yield fifo
    finally:
        if writer.is_alive():  # never opened: let the writer's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        fifo.unlink()
    assert not writer.is_alive()


def run_in_process(argv, stdin):
    """(exit code, stdout, stderr) of cli.main(argv), or of a "-c" script
    exec'd here. A pipe's bytes reach the command through a named pipe
    that a thread writes, where the command line reads /dev/stdin."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if stdin is not None:
            fifo = str(stack.enter_context(fifo_fed(Path("stdin.fifo"), stdin)))
            argv = [fifo if arg == "/dev/stdin" else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv[0] == "-c":
                exec(argv[1], {"__name__": "__main__"})
                code = 0
            else:
                code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_cli_case(case, tmp_path):
    if case.skipped():
        pytest.skip(f"needs {case.needs}")
    check_case(case, run_in_process, tmp_path)


def test_a_pipe_case_reads_dev_stdin_in_a_fresh_process(tmp_path, monkeypatch):
    # In process a pipe case reads a named pipe; here, as the installed
    # script does in CI, it reads /dev/stdin.
    monkeypatch.setenv("PYTHONPATH", _pythonpath())
    case = next(case for case in CASES if case.id == "project-pipe-n17")
    check_case(case, command_runner([sys.executable, "-m", "gaugefix.cli"]), tmp_path)

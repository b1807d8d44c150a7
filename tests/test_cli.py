import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gaugefix
from gaugefix.cli import SCENARIOS, ConfigError, RunConfig, main
from gaugefix.fields import (
    FieldState,
    constraint_norms,
    plane_wave_initial_data,
    project_state,
    random_smooth_fields,
    read_snapshot,
    write_snapshot,
)


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
        # pi_x = 4e303 cos x: the last finite spectrum overflows on the grid.
        cfg = write_config(tmp_path, scenario="contaminated", dt=0.5, t_end=1000.0,
                           amplitude=0.0, contamination_amplitude=4e303)
        out = tmp_path / "overflow.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "evolution aborted at t=175.5" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 1 + 352

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
        # Negative and NaN tolerances are refused the same way as zero.
        for tol in ("0", "-1", "nan"):
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

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_is_a_clean_error(self, tmp_path, capsys, tol):
        _, path = self.make_snapshot(tmp_path)
        out = tmp_path / "out.gfsn"
        assert main(["project", str(path), "--out", str(out), "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("error: --tol")
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
    ])
    def test_validation_failures(self, patch, fragment):
        base = {"scenario": "plane_wave", "dt": 0.1, "t_end": 1.0}
        base.update(patch)
        with pytest.raises(ConfigError, match=fragment):
            RunConfig.from_dict(base)

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


def test_cli_import_leaves_scipy_out():
    src = str(Path(gaugefix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, gaugefix.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"

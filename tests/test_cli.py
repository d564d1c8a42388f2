import csv
import json
from pathlib import Path

import numpy as np
import pytest

from randkf.cli import main
from randkf.config import ConfigError, parse_config, rotation_matrix

REPO = Path(__file__).resolve().parent.parent
SIM1 = REPO / "configs" / "simulation1.yaml"
SIM2 = REPO / "configs" / "simulation2.yaml"

MINIMAL = """
mode: simulate
horizon: 5
seed: 3
model:
  kind: nahi
  h: [[1, 0], [0, 1]]
  p: 0.9
  f: [[1, 0], [0, 1]]
  rv: [[0.1, 0], [0, 0.1]]
  rw: [[1, 0], [0, 1]]
initial:
  mean: [0, 0]
  cov: [[1, 0], [0, 1]]
"""


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


class TestParseConfig:
    def test_simulation1_bundle(self):
        cfg = parse_config(SIM1.read_text())
        assert cfg.horizon == 300
        np.testing.assert_array_equal(cfg.initial.mean, [50.0, 0.0])
        np.testing.assert_array_equal(cfg.initial.cov, 0.5 * np.eye(2))
        m = cfg.provider()(0)
        np.testing.assert_allclose(
            m.H.mean, 0.95 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(m.F.mean, rotation_matrix(300))
        np.testing.assert_array_equal(m.Rv, 2 * np.eye(2))

    def test_simulation2_bundle(self):
        cfg = parse_config(SIM2.read_text())
        m = cfg.provider()(0)
        expected = (0.1 * rotation_matrix(300) + 0.2 * rotation_matrix(250)
                    + 0.7 * rotation_matrix(100))
        np.testing.assert_allclose(m.F.mean, expected, atol=1e-15)
        assert m.H.is_deterministic

    def test_probability_out_of_range_names_field(self):
        bad = MINIMAL.replace("p: 0.9", "p: 1.2")
        with pytest.raises(ConfigError, match="model.p"):
            parse_config(bad)

    def test_unknown_field_rejected(self):
        bad = MINIMAL + "\nextra_knob: 1\n"
        with pytest.raises(ConfigError, match="extra_knob"):
            parse_config(bad)

    def test_dimension_mismatch_rejected(self):
        bad = MINIMAL.replace("mean: [0, 0]", "mean: [0, 0, 0]")
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(bad)

    def test_missing_field_rejected(self):
        bad = MINIMAL.replace("horizon: 5", "")
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(bad)


class TestRunModes:
    def test_simulate_writes_truth_and_measurements(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(MINIMAL)
        assert main(["simulate", "--config", str(cfg_file),
                     "--out", str(tmp_path / "out")]) == 0
        header, truth = read_csv(tmp_path / "out" / "truth.csv")
        assert header == ["k", "x_1", "x_2"]
        assert truth.shape == (6, 3)
        header, ys = read_csv(tmp_path / "out" / "measurements.csv")
        assert header == ["y1", "y2"]
        assert ys.shape == (6, 2)

    def test_filter_on_simulated_measurements(self, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(MINIMAL)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg_file), "--out", str(out)])
        code = main(["filter", "--config", str(cfg_file), "--out", str(out),
                     "--measurements", str(out / "measurements.csv")])
        assert code == 0
        header, est = read_csv(out / "estimates.csv")
        assert header == ["k", "xhat_1", "xhat_2", "P_11", "P_12", "P_22"]
        assert est.shape == (6, 6)

    def test_filter_wrong_column_count_fails(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(MINIMAL)
        bad = tmp_path / "bad.csv"
        bad.write_text("y1\n1.0\n2.0\n")
        code = main(["filter", "--config", str(cfg_file),
                     "--out", str(tmp_path / "out"),
                     "--measurements", str(bad)])
        assert code != 0
        assert "header" in capsys.readouterr().err

    def test_filter_non_finite_measurement_fails_with_step(self, tmp_path,
                                                          capsys):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(MINIMAL)
        bad = tmp_path / "bad.csv"
        bad.write_text("y1,y2\n1.0,2.0\n0.5,nan\n1.5,0.5\n")
        out = tmp_path / "out"
        code = main(["filter", "--config", str(cfg_file), "--out", str(out),
                     "--measurements", str(bad)])
        assert code == 1
        assert "error: measurement is not finite at step 1" in \
            capsys.readouterr().err
        assert not (out / "estimates.csv").exists()

    def test_montecarlo_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["montecarlo", "--config", str(SIM1),
                         "--out", str(out), "--runs", "3",
                         "--seed", "55"]) == 0
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["runs"] == 3
        assert summary["seed"] == 55

    def test_sweep_trace_strictly_decreasing(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(SIM1),
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["gamma", "trace_P_K"]
        assert rows.shape == (5, 2)
        traces = rows[:, 1]
        assert np.all(traces[:-1] > traces[1:])

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)])
        assert code != 0
        assert "error:" in capsys.readouterr().err


def test_float_serialization_round_trips(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg_file), "--out", str(out)])
    from randkf.config import parse_config as pc
    from randkf.sim_harness import derive_run_seeds, simulate_truth
    cfg = pc(MINIMAL)
    seed = derive_run_seeds(cfg.seed, 1)[0]
    traj = simulate_truth(cfg.provider(), cfg.initial, cfg.horizon, seed)
    _, ys = read_csv(out / "measurements.csv")
    np.testing.assert_array_equal(ys, traj.measurements)

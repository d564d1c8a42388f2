import copy
import csv
import dataclasses
import io
import json
import subprocess
import numpy as np
import pytest
import yaml

import randkf.adapters
import randkf.filter_core
from conftest import (
    REPO,
    SIM1,
    SIM1_IC,
    SIM2,
    model_arrays,
    sim1_model,
    sim2_model,
)
from randkf.adapters import (
    MultiModelDynamics,
    NahiModel,
    PartitionedObsModel,
    UncertainObsModel,
    build_multimodel,
    build_nahi,
    build_partitioned,
    build_uncertain_obs,
)
from randkf.cli import main
from randkf.config import (
    MODEL_KINDS,
    ConfigError,
    parse_config,
    rotation_matrix,
)
from randkf.random_matrix import MatrixDist

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


def assert_restated(cfg, model):
    """conftest's model and SIM1_IC restate cfg's bit for bit."""
    got = [*model_arrays(cfg.step_model), cfg.initial.mean, cfg.initial.cov]
    want = [*model_arrays(model), SIM1_IC.mean, SIM1_IC.cov]
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


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
        assert_restated(cfg, sim1_model())

    def test_config_is_frozen(self):
        # step_model is built once, so a config's model cannot be swapped
        # under it: the provider keeps serving the parsed model
        cfg = parse_config(SIM1.read_text())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.model = dataclasses.replace(cfg.model, p=0.5)
        np.testing.assert_allclose(cfg.provider()(0).H.mean[0], [0.95, 0.95])

    def test_overrides_apply_at_parse_and_keep_the_document(self):
        text = SIM1.read_text()
        cfg = parse_config(text, mode="filter", seed=5, runs=2,
                           measurements="ys.csv")
        assert (cfg.mode, cfg.seed, cfg.runs, cfg.measurements) == (
            "filter", 5, 2, "ys.csv")
        assert cfg.raw == yaml.safe_load(text)
        assert cfg.raw["mode"] == "montecarlo"

    def test_too_many_runs_fail_at_parse_time(self):
        # 10^9 runs of sim1's 300 steps, named by the field or the option
        text = SIM1.read_text()
        what = ("1000000000 runs of 300 steps would allocate 4.26e+04 GiB, "
                "over the 8 GiB limit")
        for kwargs, path in (({"runs": 10**9}, "--runs"), ({}, "runs")):
            with pytest.raises(ConfigError) as exc:
                parse_config(text.replace("runs: 50", "runs: 1000000000"),
                             **kwargs)
            assert str(exc.value) == f"{path}: {what}"

    def test_simulation2_bundle(self):
        cfg = parse_config(SIM2.read_text())
        m = cfg.provider()(0)
        expected = (0.1 * rotation_matrix(300) + 0.2 * rotation_matrix(250)
                    + 0.7 * rotation_matrix(100))
        np.testing.assert_allclose(m.F.mean, expected, atol=1e-15)
        assert not m.H.factors.any()
        assert_restated(cfg, sim2_model())

    def test_strings_float_reads_are_numbers(self):
        # YAML 1.1 reads 1e-3, 1.0e3 and 3e2 as strings, not floats; an
        # integer field reads a whole one as an int
        text = MINIMAL.replace("p: 0.9", "p: 1e-3").replace(
            "rw: [[1, 0], [0, 1]]", "rw: [[1e-3, 0], [0, 1.0e3]]").replace(
            "horizon: 5", "horizon: 3e2\nruns: 5e1").replace(
            "seed: 3", "seed: 7.0e0")
        doc = yaml.safe_load(text)
        assert (doc["model"]["p"], doc["horizon"]) == ("1e-3", "3e2")
        cfg = parse_config(text)
        assert cfg.model.p == 0.001
        np.testing.assert_array_equal(cfg.model.Rw, [[0.001, 0], [0, 1000.0]],
                                      strict=True)
        got = (cfg.horizon, cfg.runs, cfg.seed)
        assert got == (300, 50, 7) and {type(v) for v in got} == {int}


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", sorted(SIM1.parent.glob("*.yaml")),
                         ids=lambda p: p.name)
def test_c_and_python_yaml_loaders_agree(path):
    text = path.read_text()
    assert (yaml.load(text, Loader=yaml.CSafeLoader)
            == yaml.load(text, Loader=yaml.SafeLoader))


def test_malformed_document_rejected():
    with pytest.raises(ConfigError, match="malformed config document: "):
        parse_config("mode: [filter\nhorizon: 3\n")


H2 = [[1.0, 1.0], [1.0, -1.0]]
RW2 = [[1.0, 0.2], [0.2, 1.0]]


def kind_cases():
    """kind: (its YAML model node, its builder, the adapter's model
    written out directly)."""
    H, F, F100 = np.array(H2), rotation_matrix(200), rotation_matrix(100)
    noise = {"Rv": 2 * np.eye(2), "Rw": np.array(RW2)}
    rot = {"rotation": {"period": 200}}
    yaml_noise = {"rv": [[2.0, 0.0], [0.0, 2.0]], "rw": RW2}
    return {
        "general": (
            {"measurements": [{"matrix": H2, "prob": 0.6},
                              {"matrix": [[0, 0], [0, 0]], "prob": 0.4}],
             "f": rot, **yaml_noise},
            build_uncertain_obs,
            UncertainObsModel(measurement_dist=MatrixDist.of(
                [(H, 0.6), (np.zeros((2, 2)), 0.4)]), F=F, **noise)),
        "nahi": ({"h": H2, "p": 0.7, "f": rot, **yaml_noise}, build_nahi,
                 NahiModel(h=H, p=0.7, F=F, **noise)),
        "partitioned": (
            {"blocks": [{"h": H2[:1], "p": 0.7}, {"h": H2[1:], "p": 0.4}],
             "f": rot, **yaml_noise},
            build_partitioned,
            PartitionedObsModel(blocks=((H[:1], 0.7), (H[1:], 0.4)), F=F,
                                **noise)),
        "multimodel": (
            {"transitions": [{"matrix": rot, "prob": 0.3},
                             {"matrix": {"rotation": {"period": 100}},
                              "prob": 0.7}],
             "h": H2, **yaml_noise},
            build_multimodel,
            MultiModelDynamics(transition_dist=MatrixDist.of(
                [(F, 0.3), (F100, 0.7)]), H=H, **noise)),
    }


def document(model_node: dict) -> dict:
    return {"mode": "filter", "horizon": 3, "model": model_node,
            "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_model_kind_parses_to_its_adapter_bit_for_bit(kind):
    node, build, model = kind_cases()[kind]
    doc = document({"kind": kind, **node})
    got = parse_config(yaml.safe_dump(doc)).step_model
    ref = build(model, 0)
    for a, b in ((got.F.mean, ref.F.mean), (got.F.factors, ref.F.factors),
                 (got.H.mean, ref.H.mean), (got.H.factors, ref.H.factors),
                 (got.Rv, ref.Rv), (got.Rw, ref.Rw)):
        np.testing.assert_array_equal(a, b, strict=True)


DELETE = object()
# Every config error in one table, {test name: {id: (model kind, path in
# the document, the value written there or DELETE, extra CLI arguments,
# the whole message)}}; config_error_test runs each test name's cases.
CONFIG_ERRORS = {
    "test_bad_value_fails_cleanly_naming_its_field": {
        "horizon": ("nahi", "horizon", "abc", [], "horizon: not an integer"),
        "runs": ("nahi", "runs", [1], [], "runs: not an integer"),
        "seed": ("nahi", "seed", "1.5e3x", [], "seed: not an integer"),
        "gammas": ("nahi", "gammas", 0.5, [], "gammas: expected a list"),
        "model.f.rotation.period": (
            "nahi", "model.f.rotation.period", "xyz", [],
            "model.f.rotation.period: not a number"),
        "horizon-fraction": ("nahi", "horizon", 20.7, [],
                             "horizon: not an integer"),
        "horizon-boolean": ("nahi", "horizon", True, [],
                            "horizon: not an integer"),
        "runs-fraction": ("nahi", "runs", 1.9, [], "runs: not an integer"),
        "seed-fraction": ("nahi", "seed", 2.5, [], "seed: not an integer"),
        "seed-negative": ("nahi", "seed", -3, [], "seed: must be >= 0"),
        "horizon-exponent-fraction": ("nahi", "horizon", "2.5e0", [],
                                      "horizon: not an integer"),
        "runs-exponent-fraction": ("nahi", "runs", "15e-2", [],
                                   "runs: not an integer"),
        "seed-override-negative": ("nahi", "seed", 3, ["--seed", "-3"],
                                   "--seed: must be >= 0"),
        "measurements": ("nahi", "measurements", 5, [],
                         "measurements: expected a file path"),
        "probability": ("nahi", "model.p", 1.2, [],
                        "model.p: probability 1.2 outside [0, 1]"),
        "unknown-field": ("nahi", "extra_knob", 1, [],
                          "config: unknown field 'extra_knob'"),
        "dimension": ("nahi", "initial.mean", [0, 0, 0], [],
                      "initial: mean/cov dimension mismatch"),
        "missing-field": ("nahi", "horizon", DELETE, [],
                          "config: missing field 'horizon'"),
        "mode": ("nahi", "mode", "train", [], "mode: 'train' not one of "
                 "('filter', 'simulate', 'montecarlo', 'sweep')"),
        # the subcommand overrides the document's mode; both are checked
        "mode-null": ("nahi", "mode", None, [], "mode: 'None' not one of "
                      "('filter', 'simulate', 'montecarlo', 'sweep')"),
        # refused before any array is allocated
        "horizon-too-large": (
            "nahi", "horizon", 10**30, [],
            f"horizon: {10**30} steps would allocate 1.42e+23 GiB, "
            "over the 8 GiB limit"),
        "horizon-exponent-too-large": (
            "nahi", "horizon", "1e30", [],
            f"horizon: {int(1e30)} steps would allocate 1.42e+23 GiB, "
            "over the 8 GiB limit"),
    },
    "test_bad_model_value_names_its_path": {row[-1]: row for row in [
        ("general", "model.measurements[1].prob", 1.5, [],
         "model.measurements[1].prob: probability 1.5 outside [0, 1]"),
        ("general", "model.measurements[0].matrix", [1, 2], [],
         "model.measurements[0].matrix: expected a matrix (list of rows)"),
        ("general", "model.measurements", [], [],
         "model.measurements: expected a non-empty list"),
        ("general", "model.measurements[0].prob", 0.5, [],
         "model.measurements: probabilities sum to 0.9, not 1"),
        ("nahi", "model.p", "high", [], "model.p: not a number"),
        ("nahi", "model.per_model_noise", [RW2], [],
         "model: unknown field 'per_model_noise'"),
        ("partitioned", "model.blocks[0].h", [1, 2], [],
         "model.blocks[0].h: expected a matrix (list of rows)"),
        ("partitioned", "model.blocks[1].p", True, [],
         "model.blocks[1].p: not a number"),
        ("partitioned", "model.blocks[1].q", 0.5, [],
         "model.blocks[1]: unknown field 'q'"),
        ("partitioned", "model.rw", DELETE, [], "model: missing field 'rw'"),
        ("multimodel", "model.transitions[0].matrix.rotation.period", 0, [],
         "model.transitions[0].matrix.rotation.period: must be nonzero"),
        ("multimodel", "model.transitions[1].prob", DELETE, [],
         "model.transitions[1]: missing field 'prob'"),
        ("multimodel", "model.transitions", {"matrix": H2}, [],
         "model.transitions: expected a non-empty list"),
        ("multimodel", "model.h", "x", [],
         "model.h: expected a matrix (list of rows)"),
        ("multimodel", "model.kind", "dropout", [], "model.kind: 'dropout' "
         "not one of ('general', 'nahi', 'partitioned', 'multimodel')"),
        ("multimodel", "model.kind", [1], [], "model.kind: '[1]' not one of "
         "('general', 'nahi', 'partitioned', 'multimodel')"),
        ("nahi", "model.h", [[True, 1], [1, -1]], [],
         "model.h[0][0]: not a number"),
        ("nahi", "model.rv", [[2, None], [0, 2]], [],
         "model.rv[0][1]: not a number"),
        ("nahi", "model.rw", [[1, 0], [0]], [],
         "model.rw: expected a matrix (list of rows)"),
        ("nahi", "model", 5, [], "model: expected a mapping"),
        ("nahi", "model.kind", DELETE, [], "model: missing field 'kind'"),
        ("nahi", "model.rv", np.eye(3).tolist(), [],
         "model: Rv dimension must match state dimension"),
        # off by 5e-6: inside np.allclose's default rtol, far outside the
        # trace-scaled PSD_TOL
        ("nahi", "model.rv", [[2, 1.000005], [1, 2]], [],
         "model: Rv is not symmetric"),
    ]},
    # it requires rw, has no per-model noises, and names a bad matrix once
    "test_general_model_parses_like_every_kind": {
        "rw": ("general", "model.rw", DELETE, [], "model: missing field 'rw'"),
        "per_model_noise": ("general", "model.per_model_noise", [RW2, RW2],
                            [], "model: unknown field 'per_model_noise'"),
        "f": ("general", "model.f", [1, 2], [],
              "model.f: expected a matrix (list of rows)"),
        "rv": ("general", "model.rv", "x", [],
               "model.rv: expected a matrix (list of rows)"),
    },
    "test_bad_initial_value_is_named_once": {
        "cov": ("nahi", "initial.cov", "abc", [],
                "initial.cov: expected a matrix (list of rows)"),
        "cov-rotation": ("nahi", "initial.cov", {"rotation": {"period": "x"}},
                         [], "initial.cov.rotation.period: not a number"),
        "mean": ("nahi", "initial.mean", ["a", 0.0], [],
                 "initial.mean[0]: not a number"),
        "cov-psd": ("nahi", "initial.cov", [[1, 2], [2, 1]], [],
                    "initial: cov is not positive semidefinite"),
        "mean-mapping": ("nahi", "initial.mean", {"a": 1}, [],
                         "initial.mean: expected a list"),
        "mean-nested": ("nahi", "initial.mean", [[50.0, 0.0]], [],
                        "initial.mean[0]: not a number"),
        "cov-dimension": ("nahi", "initial.cov", np.eye(3).tolist(), [],
                          "initial: mean/cov dimension mismatch"),
        "cov-asymmetric": ("nahi", "initial.cov", [[1, 0.5], [0, 1]], [],
                           "initial: cov is not symmetric"),
        "cov-nearly-symmetric": ("nahi", "initial.cov",
                                 [[2, 1.000005], [1, 2]], [],
                                 "initial: cov is not symmetric"),
        "mapping": ("nahi", "initial", 5, [], "initial: expected a mapping"),
        "state-dimension": (
            "nahi", "initial", {"mean": [0, 0, 0], "cov": np.eye(3).tolist()},
            [], "initial.mean: dimension 3 does not match state dimension 2"),
    },
    "test_non_finite_matrix_names_its_path": {row[1]: row for row in [
        ("nahi", "model.h", [[np.inf, 1], [1, -1]], [],
         "model.h[0][0]: not finite"),
        ("nahi", "model.f", [[np.nan, 0], [0, 1]], [],
         "model.f[0][0]: not finite"),
        ("nahi", "model.rv", [[np.inf, 0], [0, 2]], [],
         "model.rv[0][0]: not finite"),
        ("nahi", "model.rw", [[1, 0], [0, -np.inf]], [],
         "model.rw[1][1]: not finite"),
        ("nahi", "initial.cov", [[np.nan, 0], [0, 1]], [],
         "initial.cov[0][0]: not finite"),
        ("nahi", "initial.mean[1]", np.inf, [], "initial.mean[1]: not finite"),
        ("nahi", "model.p", np.nan, [], "model.p: not finite"),
        ("nahi", "model.f.rotation.period", np.inf, [],
         "model.f.rotation.period: not finite"),
        ("partitioned", "model.blocks[0].h", [[np.inf, 1]], [],
         "model.blocks[0].h[0][0]: not finite"),
        ("general", "model.measurements[1].matrix", [[0, 0], [np.nan, 0]], [],
         "model.measurements[1].matrix[1][0]: not finite"),
        ("multimodel", "model.transitions[0].matrix", [[1, np.inf], [0, 1]],
         [], "model.transitions[0].matrix[0][1]: not finite"),
    ]},
}


def with_change(doc, path, value):
    """doc with the value at path (`model.blocks[0].h`) set, or deleted."""
    *keys, last = [int(k) if k.isdigit() else k for k in
                   path.replace("[", ".").replace("]", "").split(".")]
    doc = copy.deepcopy(doc)
    at = doc
    for key in keys:
        at = at[key]
    if value is DELETE:
        del at[last]
    else:
        at[last] = value
    return doc


def config_error_test(cases):
    """A test that runs `simulate` on each case's config: it must exit 1,
    print only the case's message and make no output directory."""
    @pytest.mark.parametrize("kind, path, value, args, message",
                             cases.values(), ids=list(cases))
    def test(tmp_path, capsys, kind, path, value, args, message):
        node = {"kind": kind, **kind_cases()[kind][0]}
        cfg_file, out = tmp_path / "cfg.yaml", tmp_path / "out"
        cfg_file.write_text(yaml.safe_dump(
            with_change(document(node), path, value)))
        assert main(["simulate", "--config", str(cfg_file),
                     "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    return test


for _name, _cases in CONFIG_ERRORS.items():
    globals()[_name] = config_error_test(_cases)


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

    @pytest.mark.parametrize("row, problem", [
        ("0.5", "1 cells, expected 2"), ("0.5,1,2", "3 cells, expected 2"),
        ("3,abc", "a non-numeric cell "
         "(could not convert string to float: 'abc')"),
    ], ids=["short", "long", "non-numeric"])
    def test_filter_ragged_row_fails_naming_line(self, tmp_path, capsys,
                                                 row, problem):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"y1,y2\n1.0,2.0\n\n{row}\n1.5,0.5\n")
        code = main(["filter", "--config", str(SIM1),
                     "--out", str(tmp_path / "out"),
                     "--measurements", str(bad)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 4 has {problem}\n")

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
        # with a run axis: the first step at which any run is non-finite
        cfg = parse_config(MINIMAL)
        ys = np.ones((3, 6, 2))
        ys[1, 2, 0] = ys[2, 4, 1] = np.nan
        with pytest.raises(ValueError,
                           match="^measurement is not finite at step 2$"):
            randkf.filter_core.filter_sequence(cfg.provider(), cfg.initial,
                                               ys)

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

    def test_models_built_once_per_model_object(self, tmp_path,
                                                monkeypatch):
        # constant-probability models: sweep builds the parse-time model
        # and one per gamma, montecarlo only the parse-time model
        gammas = parse_config(SIM1.read_text()).gammas
        calls = []
        real = randkf.adapters.moments_from_dist
        monkeypatch.setattr(randkf.adapters, "moments_from_dist",
                            lambda dist: calls.append(dist) or real(dist))
        assert main(["sweep", "--config", str(SIM1),
                     "--out", str(tmp_path / "sweep")]) == 0
        assert len(calls) == 1 + len(gammas)
        calls.clear()
        assert main(["montecarlo", "--config", str(SIM1),
                     "--out", str(tmp_path / "mc"), "--runs", "2"]) == 0
        assert len(calls) == 1

    def test_sweep_runs_one_recursion_for_all_gammas(self, tmp_path,
                                                    monkeypatch):
        # one predict per step of the horizon, not one per step and gamma
        cfg = parse_config(SIM1.read_text())
        assert len(cfg.gammas) == 5 and cfg.horizon == 300
        calls = []
        real = randkf.filter_core.predict
        monkeypatch.setattr(randkf.filter_core, "predict",
                            lambda *args: calls.append(args[3])
                            or real(*args))
        assert main(["sweep", "--config", str(SIM1),
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == cfg.horizon

    def test_output_field_rejected(self, tmp_path, capsys):
        # the output directory is --out; a config field for it was ignored
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(SIM1.read_text() + "output: /nonexistent/x\n")
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_file), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: config: unknown field 'output'\n"
        assert not out.exists()

    # (subcommand, config file, (text, its replacement), extra arguments,
    # the error message); {csv} is a measurements file with a bad cell,
    # {empty} one with a header and no rows
    @pytest.mark.parametrize("command, config, edit, args, message", [
        ("filter", SIM1, ("", ""), [],
         "filter mode needs a 'measurements' CSV path"),
        ("filter", SIM1, ("", ""), ["--measurements", "{csv}"],
         "{csv}: line 2 has a non-numeric cell "
         "(could not convert string to float: 'abc')"),
        ("filter", SIM1, ("", ""), ["--measurements", "{empty}"],
         "{empty}: no measurement rows"),
        ("sweep", SIM2, ("", ""), [],
         "sweep mode needs a non-empty 'gammas' list"),
        ("sweep", SIM2, ("horizon: 300", "horizon: 300\ngammas: [0.5]"), [],
         "sweep mode requires a 'nahi' model"),
        ("sweep", SIM1, ("[0.5, 0.7, 0.9, 0.95, 1.0]", "[0.5, 1.5]"), [],
         "gammas[1]: probability 1.5 outside [0, 1]"),
    ], ids=["filter-no-measurements", "filter-malformed-csv",
            "filter-no-rows", "sweep-no-gammas", "sweep-multimodel",
            "sweep-gamma-out-of-range"])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, command,
                                       config, edit, args, message):
        cfg_file, out = tmp_path / "cfg.yaml", tmp_path / "out"
        cfg_file.write_text(config.read_text().replace(*edit))
        files = {"csv": tmp_path / "ys.csv", "empty": tmp_path / "empty.csv"}
        files["csv"].write_text("y1,y2\n1.0,abc\n")
        files["empty"].write_text("y1,y2\n\n")
        code = main([command, "--config", str(cfg_file), "--out", str(out),
                     *(a.format(**files) for a in args)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {message.format(**files)}\n"
        assert not out.exists()

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--seed"), ("sweep", "--runs"), ("filter", "--seed"),
        ("filter", "--runs"), ("simulate", "--runs")])
    def test_override_a_mode_ignores_is_rejected(self, tmp_path, capsys,
                                                 command, flag):
        # only simulate and montecarlo draw with the seed, and only
        # montecarlo has runs
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(SIM1), "--out", str(tmp_path),
                  flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


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


def test_csv_bytes_are_csv_module_rows_of_17_digit_cells(tmp_path):
    # every output CSV holds the bytes a csv.writer gives for its values,
    # each formatted with 17 significant digits (CRLF line ends)
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(MINIMAL + "gammas: [0.5, 0.9]\n")
    out = tmp_path / "out"
    for argv in (["simulate"], ["montecarlo", "--runs", "2"], ["sweep"],
                 ["filter", "--measurements",
                  str(out / "measurements.csv")]):
        assert main(argv + ["--config", str(cfg_file),
                            "--out", str(out)]) == 0
    for name in ("truth.csv", "measurements.csv", "metrics.csv",
                 "sweep.csv", "estimates.csv"):
        header, rows = read_csv(out / name)
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(header)
        w.writerows([format(float(x), ".17g") for x in row] for row in rows)
        assert (out / name).read_bytes().decode() == expected.getvalue()


def test_compare_outputs_script(tmp_path, capsys):
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "scripts" / "compare_outputs.py")
    cmp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cmp)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()

    def write(d, text, name="x.csv"):
        (d / name).write_text(text)

    write(a, "k,v\r\n0,1000\r\n1,nan\r\n")
    write(b, "k,v\r\n0,1000\r\n1,nan\r\n")
    assert cmp.main([str(a), str(b)]) == 0
    write(b, "k,v\r\n0,1000.0000000001\r\n1,nan\r\n")   # 1e-13 relative
    assert cmp.main([str(a), str(b)]) == 0
    assert "max relative difference 1e-13" in capsys.readouterr().out
    for text in ("k,v\r\n0,1000.000001\r\n1,nan\r\n",   # 1e-9 relative
                 "k,w\r\n0,1000\r\n1,nan\r\n",          # header
                 "k,v\r\n0,1000\r\n",                   # shape
                 "k,v\r\n0,1000\r\n1,2\r\n"):           # nan on one side
        write(b, text)
        assert cmp.main([str(a), str(b)]) == 1
    write(b, "k,v\r\n0,1000\r\n1,nan\r\n")
    write(a, "{}", "summary.json")
    assert cmp.main([str(a), str(b)]) == 1


def test_step_cost_summary_is_not_decided_by_one_slow_round():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "step_cost", REPO / "scripts" / "step_cost.py")
    step_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_cost)
    # five quiet rounds (minima 100-108 µs per step at 10 steps) and one
    # busy round three times slower
    quiet = [[a * 1e-3, a * 1.5e-3, a * 2e-3]
             for a in (1.0, 1.02, 1.04, 1.06, 1.08)]
    busy = [[3e-3, 3.5e-3, 4e-3]]
    got = step_cost.summary(quiet + busy, 10)
    assert got == pytest.approx([100.0, 160.5, 105.0, 1.0])
    # the busy round counts as no more than one more quiet round would
    assert got[2] == step_cost.summary(quiet + [[1.1e-3] * 3], 10)[2]


def load_bench_pairs():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_pairs_rejects_fewer_than_two_pairs(tmp_path, capsys):
    bench = load_bench_pairs()
    work = tmp_path / "work"
    with pytest.raises(SystemExit) as exc:
        bench.main(["HEAD", "HEAD", "--seed", "1", "--pairs", "1",
                    "--work", str(work), "--out", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not work.exists()


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1),
                                             (False, 2)])
def test_bench_pairs_rejects_a_run_with_failed_operations(
        tmp_path, monkeypatch, correct, failed):
    # perfbench exits 0 after failed operations, e.g. a traced run whose
    # required layer was never called; either flag must stop the run
    bench = load_bench_pairs()
    result = {"correct": correct, "attempted": 4, "failed": failed,
              "metrics": {}}
    stdout = "\n".join(["FAILED traced: no calls recorded for filter_core.update",
                        "FAILED untraced: exit 1",
                        f"mc-dropout failed_ops {failed}/4",
                        json.dumps(result)]) + "\n"
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda args, **kw: subprocess.CompletedProcess(
                            args, 0, stdout=stdout, stderr=""))
    with pytest.raises(RuntimeError) as exc:
        bench.run_bench(tmp_path / "head", "mc-dropout", 1, 1.0, 1)
    assert str(exc.value) == (
        f"head mc-dropout: failed {failed}/4\n"
        "FAILED traced: no calls recorded for filter_core.update\n"
        "FAILED untraced: exit 1")

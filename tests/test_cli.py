"""End-to-end runner tests: config parsing, exit statuses, report files,
and the manifest round-trip guarantee."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from specproj.cli import convergence_report, main
from specproj.config import (
    SEEDED_KINDS,
    ConfigError,
    config_as_text,
    load_config,
)
from specproj.models import SphereModel, TorusModel


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SCALING_CFG = """
[scaling]
model = torus2
x0 = 0.0,0.0
lambdas = 20,40
delta = 1.0
max_j = 1
max_k = 0
probe_radius = 1.0
points_per_axis = 3
"""

LOOPSET_CFG = """
[loopset]
surface = sphere
x0 = 1.0,0.3
n_directions = 8
t_max = 6.5
tol = 1e-3
seed = 2
"""

REMAINDER_CFG = """
[remainder]
model = torus2
x0 = 0.0,0.0
lambdas = 10,20,40,80
probe_radius = 0.1
points_per_axis = 2
"""

RANDOMWAVE_CFG = """
[randomwave]
model = torus2
window_lo = 2
window_hi = 5
x0 = 0.0,0.0
samples = 64
probe_radius = 0.4
points_per_axis = 2
seed = 6
"""

KERNEL_CFG = """
[kernel]
model = sphere2
window_lo = 3
window_hi = 7
x0 = 0.0,0.0,1.0
alpha = 0:0
beta = 0:0
probe_radius = 0.3
points_per_axis = 2
"""


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.cfg", SCALING_CFG + "foo = 1\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(cfg, "scaling")

    def test_missing_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.cfg",
                           "[scaling]\nmodel = torus2\n")
        with pytest.raises(ConfigError, match="missing required"):
            load_config(cfg, "scaling")

    def test_wrong_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.cfg", SCALING_CFG)
        with pytest.raises(ConfigError, match="section"):
            load_config(cfg, "kernel")

    def test_window_and_probe_validation(self, tmp_path):
        bad_window = KERNEL_CFG.replace("window_hi = 7", "window_hi = 3")
        cfg = write_config(tmp_path, "w.cfg", bad_window)
        with pytest.raises(ConfigError):
            load_config(cfg, "kernel")
        bad_probe = KERNEL_CFG.replace("probe_radius = 0.3",
                                       "probe_radius = 4.0")
        cfg = write_config(tmp_path, "p.cfg", bad_probe)
        with pytest.raises(ConfigError, match="probe_radius"):
            load_config(cfg, "kernel")

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg", RANDOMWAVE_CFG)
        assert load_config(cfg, "randomwave").seed == 6
        assert load_config(cfg, "randomwave", seed_override=99).seed == 99
        # the deterministic kinds take no seed, from a file or an override
        assert SEEDED_KINDS == ("randomwave", "loopset")
        cfg = write_config(tmp_path, "k.cfg", KERNEL_CFG)
        with pytest.raises(ConfigError, match=r"unknown keys: \['seed'\]"):
            load_config(cfg, "kernel", seed_override=0)

    def test_model_parsing(self, tmp_path):
        cfg = write_config(tmp_path, "m.cfg", REMAINDER_CFG)
        config = load_config(cfg, "remainder")
        assert isinstance(config.model, TorusModel)
        cfg2 = write_config(tmp_path, "m2.cfg", KERNEL_CFG)
        assert isinstance(load_config(cfg2, "kernel").model, SphereModel)


class TestExitStatuses:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ok.cfg", LOOPSET_CFG)
        assert main(["loopset", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0

    def test_validation_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.cfg", SCALING_CFG + "foo = 1\n")
        code = main(["scaling", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error kind=validation msg=")
        assert err.count("\n") == 1

    def test_budget_error_is_3(self, tmp_path, capsys):
        text = REMAINDER_CFG.replace("lambdas = 10,20,40,80",
                                     "lambdas = 10,20,40,20000")
        cfg = write_config(tmp_path, "big.cfg", text)
        code = main(["remainder", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "error kind=budget" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path, capsys):
        code = main(["kernel", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("kind,cfg_text", [
        ("kernel", KERNEL_CFG),
        ("scaling", SCALING_CFG),
        ("remainder", REMAINDER_CFG),
    ])
    def test_seed_flag_only_where_read(self, tmp_path, capsys, kind,
                                       cfg_text):
        # --seed exists for the kinds that draw random numbers only;
        # argparse exits 2 when another kind is given it
        cfg = write_config(tmp_path, "c.cfg", cfg_text)
        with pytest.raises(SystemExit) as exc:
            main([kind, "--config", cfg, "--out", str(tmp_path / "out"),
                  "--seed", "0"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_state_is_1(self, tmp_path, capsys, monkeypatch):
        from specproj import loopset
        monkeypatch.setattr(loopset, "_accel",
                            lambda a, x, v: np.full_like(v, np.nan))
        cfg = write_config(tmp_path, "l.cfg", LOOPSET_CFG)
        code = main(["loopset", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error kind=numerical msg=")
        assert "nan" in err

    @pytest.mark.parametrize("kind,cfg_text,flags", [
        # non-finite floats
        ("kernel", KERNEL_CFG.replace("x0 = 0.0,0.0,1.0",
                                      "x0 = nan,0.0,1.0"), []),
        ("randomwave", RANDOMWAVE_CFG.replace("x0 = 0.0,0.0",
                                              "x0 = inf,0.0"), []),
        ("loopset", LOOPSET_CFG.replace("t_max = 6.5", "t_max = nan"), []),
        ("loopset", LOOPSET_CFG.replace("x0 = 1.0,0.3", "x0 = nan,0.3"), []),
        # total derivative order 5
        ("kernel", KERNEL_CFG.replace("alpha = 0:0", "alpha = 2:2")
                             .replace("beta = 0:0", "beta = 1:0"), []),
        # negative seeds, from the config and from --seed
        ("randomwave", RANDOMWAVE_CFG.replace("seed = 6", "seed = -1"), []),
        ("randomwave", RANDOMWAVE_CFG, ["--seed", "-5"]),
        ("loopset", LOOPSET_CFG.replace("seed = 2", "seed = -1"), []),
        ("loopset", LOOPSET_CFG, ["--seed", "-5"]),
        # a seed on a kind that draws no random numbers
        ("kernel", KERNEL_CFG + "seed = 0\n", []),
        ("scaling", SCALING_CFG + "seed = 0\n", []),
        ("remainder", REMAINDER_CFG + "seed = 0\n", []),
        # c off the ellipsoid
        ("loopset", LOOPSET_CFG + "c = 3.0\n", []),
        ("loopset", LOOPSET_CFG.replace("sphere", "torus") + "c = 2.0\n", []),
    ], ids=["kernel-x0-nan", "randomwave-x0-inf", "loopset-t_max-nan",
            "loopset-x0-nan", "kernel-order-5", "randomwave-seed",
            "randomwave-seed-flag", "loopset-seed", "loopset-seed-flag",
            "kernel-seed", "scaling-seed", "remainder-seed", "sphere-c",
            "torus-c"])
    def test_refused_before_any_output(self, tmp_path, capsys, kind,
                                       cfg_text, flags):
        cfg = write_config(tmp_path, "bad.cfg", cfg_text)
        out = tmp_path / "out"
        assert main([kind, "--config", cfg, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith(
            "error kind=validation msg=")
        assert not out.exists()

    @pytest.mark.parametrize("cfg_text", [
        # the pair check needs 2 sqrt(2) r < pi/2, r < 0.5554
        REMAINDER_CFG.replace("probe_radius = 0.1", "probe_radius = 0.6"),
        # and 2 sqrt(3) r < pi/2, r < 0.4534, on torus3
        REMAINDER_CFG.replace("torus2", "torus3")
                     .replace("x0 = 0.0,0.0", "x0 = 0.0,0.0,0.0")
                     .replace("probe_radius = 0.1", "probe_radius = 0.5"),
    ], ids=["torus2", "torus3"])
    def test_pair_refusal_leaves_no_output(self, tmp_path, capsys, cfg_text):
        # the config passes; the sweep refuses the probe pairs before any
        # report is written
        cfg = write_config(tmp_path, "r.cfg", cfg_text)
        out = tmp_path / "out"
        assert main(["remainder", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error kind=validation msg=")
        assert not out.exists()

    def test_readme_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        kind = text.split("]", 1)[0].lstrip("[")
        config = load_config(write_config(tmp_path, "readme.cfg", text), kind)
        assert config.model.model_id == "torus2"
        assert config.max_j == 1


class TestReports:
    def test_scaling_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg", SCALING_CFG)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "scaling_report.csv").read_text().splitlines()
        assert report[0] == "lambda,alpha,beta,sup_error"
        # 2 lambdas x 3 alphas (|a|<=1) x 1 beta
        assert len(report) == 1 + 2 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["scaling_report.csv"]
        assert "wall_seconds" in manifest

    def test_loopset_output_header(self, tmp_path):
        cfg = write_config(tmp_path, "l.cfg", LOOPSET_CFG)
        out = tmp_path / "out"
        assert main(["loopset", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "loopset.csv").read_text().splitlines()
        assert lines[0] == "direction_angle,first_return_time_or_-1,min_distance"
        assert len(lines) == 9

    def test_loopset_manifest_metrics(self, tmp_path):
        # the integrator's guard values go to the manifest, not the CSV;
        # a run that passed its guards has both within their 1e-6 bound
        cfg = write_config(tmp_path, "l.cfg", LOOPSET_CFG)
        out = tmp_path / "out"
        assert main(["loopset", "--config", cfg, "--out", str(out)]) == 0
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        for name in ("max_energy_drift", "max_constraint_drift"):
            assert 0.0 < metrics[name] <= 1e-6

    def test_remainder_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "r.cfg", REMAINDER_CFG)
        out = tmp_path / "out"
        assert main(["remainder", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "remainder.csv").read_text().splitlines()
        assert lines[0] == "lambda,sup_remainder"
        assert len(lines) == 5
        record = json.loads(
            (out / "remainder_summary.jsonl").read_text().splitlines()[0])
        assert set(record) == {"model", "x0", "alpha", "beta", "alpha_hat",
                               "C_hat", "residual", "dropped_zeros"}

    def test_randomwave_outputs_with_dump(self, tmp_path):
        cfg = write_config(tmp_path, "rw.cfg",
                           RANDOMWAVE_CFG + "dump_samples = true\n")
        out = tmp_path / "out"
        assert main(["randomwave", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "randomwave_summary.csv").read_text().splitlines()
        assert lines[0] == "point_index,mean,variance,covariance_to_x0,stderr"
        assert len(lines) == 5   # 2x2 probe grid
        header = json.loads((out / "samples.json").read_text())
        raw = np.frombuffer((out / "samples.bin").read_bytes(),
                            dtype=header["dtype"]).reshape(header["shape"])
        assert raw.shape == (64, 4)
        assert header["seed"] == 6

    def test_sample_dump_is_written_atomically(self, tmp_path, monkeypatch):
        # the dump goes through reports' temp-file-and-replace writers, so
        # Path's direct writers are never reached and no temp file is left
        cfg = write_config(tmp_path, "rw.cfg",
                           RANDOMWAVE_CFG + "dump_samples = true\n")
        plain = tmp_path / "plain"
        assert main(["randomwave", "--config", cfg, "--out", str(plain)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("non-atomic write")

        monkeypatch.setattr(Path, "write_bytes", refuse)
        monkeypatch.setattr(Path, "write_text", refuse)
        out = tmp_path / "out"
        assert main(["randomwave", "--config", cfg, "--out", str(out)]) == 0
        for name in ("samples.bin", "samples.json",
                     "randomwave_summary.csv"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()
        assert not list(out.glob("*.tmp"))

    def test_kernel_output(self, tmp_path):
        cfg = write_config(tmp_path, "k.cfg", KERNEL_CFG)
        out = tmp_path / "out"
        assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "kernel_field.csv").read_text().splitlines()
        assert lines[0] == "u_1,u_2,v_1,v_2,alpha,beta,value"
        assert len(lines) == 1 + 4 * 4

    def test_seed_flag_changes_randomwave(self, tmp_path):
        cfg = write_config(tmp_path, "rw.cfg", RANDOMWAVE_CFG)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["randomwave", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["randomwave", "--config", cfg, "--out", str(out2),
                     "--seed", "77"]) == 0
        a = (out1 / "randomwave_summary.csv").read_text()
        b = (out2 / "randomwave_summary.csv").read_text()
        assert a != b


class TestManifestRoundTrip:
    @pytest.mark.parametrize("kind,cfg_text", [
        ("scaling", SCALING_CFG),
        ("remainder", REMAINDER_CFG),
        ("randomwave", RANDOMWAVE_CFG),
        ("loopset", LOOPSET_CFG),
        ("kernel", KERNEL_CFG),
    ])
    def test_rerun_from_manifest_is_bit_identical(self, tmp_path, kind,
                                                  cfg_text):
        cfg = write_config(tmp_path, "first.cfg", cfg_text)
        out1 = tmp_path / "out1"
        assert main([kind, "--config", cfg, "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg2 = write_config(tmp_path, "second.cfg", manifest["config"])
        out2 = tmp_path / "out2"
        assert main([kind, "--config", cfg2, "--out", str(out2)]) == 0
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


TORUS3_KERNEL_CFG = """
[kernel]
model = torus3
window_lo = 3
window_hi = 7
x0 = 0.0,0.0,0.0
alpha = 1:0:1
probe_radius = 0.3
points_per_axis = 2
"""

ELLIPSOID_LOOPSET_CFG = LOOPSET_CFG.replace("sphere", "ellipsoid") + """\
c = 1.5
t_min = 0.5
step = 5e-4
"""


class TestConfigText:
    """config_as_text is the manifest's config: its exact text is pinned
    here, and loading it back gives the same config."""

    @pytest.mark.parametrize("kind,cfg_text,seed,expected", [
        ("scaling", SCALING_CFG, None,
         "[scaling]\nmodel = torus2\nx0 = 0.0,0.0\nlambdas = 20.0,40.0\n"
         "delta = 1.0\nmax_j = 1\nmax_k = 0\nprobe_radius = 1.0\n"
         "points_per_axis = 3\n"),
        ("remainder", REMAINDER_CFG, None,
         "[remainder]\nmodel = torus2\nx0 = 0.0,0.0\n"
         "lambdas = 10.0,20.0,40.0,80.0\nalpha = 0:0\nbeta = 0:0\n"
         "probe_radius = 0.1\npoints_per_axis = 2\n"),
        ("randomwave", RANDOMWAVE_CFG, None,
         "[randomwave]\nmodel = torus2\nwindow_lo = 2.0\nwindow_hi = 5.0\n"
         "x0 = 0.0,0.0\nsamples = 64\nprobe_radius = 0.4\n"
         "points_per_axis = 2\nseed = 6\ndump_samples = false\n"),
        ("loopset", LOOPSET_CFG, None,
         "[loopset]\nsurface = sphere\nc = 1.0\nx0 = 1.0,0.3\n"
         "n_directions = 8\nt_max = 6.5\ntol = 0.001\nt_min = 0.1\n"
         "step = 0.001\nseed = 2\n"),
        ("kernel", KERNEL_CFG, None,
         "[kernel]\nmodel = sphere2\nwindow_lo = 3.0\nwindow_hi = 7.0\n"
         "x0 = 0.0,0.0,1.0\nalpha = 0:0\nbeta = 0:0\nprobe_radius = 0.3\n"
         "points_per_axis = 2\n"),
        ("kernel", TORUS3_KERNEL_CFG, None,
         "[kernel]\nmodel = torus3\nwindow_lo = 3.0\nwindow_hi = 7.0\n"
         "x0 = 0.0,0.0,0.0\nalpha = 1:0:1\nbeta = 0:0:0\nprobe_radius = 0.3\n"
         "points_per_axis = 2\n"),
        ("loopset", ELLIPSOID_LOOPSET_CFG, None,
         "[loopset]\nsurface = ellipsoid\nc = 1.5\nx0 = 1.0,0.3\n"
         "n_directions = 8\nt_max = 6.5\ntol = 0.001\nt_min = 0.5\n"
         "step = 0.0005\nseed = 2\n"),
        ("randomwave", RANDOMWAVE_CFG + "dump_samples = yes\n", None,
         "[randomwave]\nmodel = torus2\nwindow_lo = 2.0\nwindow_hi = 5.0\n"
         "x0 = 0.0,0.0\nsamples = 64\nprobe_radius = 0.4\n"
         "points_per_axis = 2\nseed = 6\ndump_samples = true\n"),
        ("loopset", LOOPSET_CFG, 11,
         "[loopset]\nsurface = sphere\nc = 1.0\nx0 = 1.0,0.3\n"
         "n_directions = 8\nt_max = 6.5\ntol = 0.001\nt_min = 0.1\n"
         "step = 0.001\nseed = 11\n"),
    ])
    def test_text_is_pinned_and_round_trips(self, tmp_path, kind, cfg_text,
                                            seed, expected):
        config = load_config(write_config(tmp_path, "a.cfg", cfg_text), kind,
                             seed_override=seed)
        text = config_as_text(kind, config)
        assert text == expected
        again = load_config(write_config(tmp_path, "b.cfg", text), kind)
        assert again == config
        assert config_as_text(kind, again) == text


class TestConvergenceReport:
    def test_single_lambda_single_row_per_pair(self):
        rows = convergence_report(TorusModel(n=2), np.zeros(2), (30.0,),
                                  1.0, 0, 0, 1.0, 3)
        assert len(rows) == 1
        lam, alpha, beta, sup = rows[0]
        assert lam == 30.0
        assert alpha == "0:0" and beta == "0:0"
        assert sup >= 0.0

    def test_sup_error_positive_and_finite(self):
        rows = convergence_report(TorusModel(n=2), np.zeros(2), (20.0, 40.0),
                                  1.0, 1, 1, 1.0, 3)
        assert len(rows) == 2 * 3 * 3
        assert all(math.isfinite(r[3]) for r in rows)


class TestExamples:
    def test_every_example_config_runs(self, tmp_path, capsys):
        # scripts/configs/*.cfg are the documented examples; each must
        # still load and run after an option changes
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "run_all", root / "scripts" / "run_all.py")
        run_all = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_all)
        assert run_all.run_all(tmp_path) == 0
        produced = {kind.name: sorted(p.name for p in kind.iterdir())
                    for kind in tmp_path.iterdir()}
        assert produced == {
            "kernel": ["kernel_field.csv", "manifest.json"],
            "loopset": ["loopset.csv", "manifest.json"],
            "randomwave": ["manifest.json", "randomwave_summary.csv"],
            "remainder": ["manifest.json", "remainder.csv",
                          "remainder_summary.jsonl"],
            "scaling": ["manifest.json", "scaling_report.csv"],
        }

"""Config parsing, CSV output, presets, exit codes."""

from pathlib import Path

import pytest

from multinet.blocks import site_costs
from multinet.cli import (
    ConfigError,
    load_config_source,
    main,
    parse_config,
    preset_names,
    rows_to_csv,
    run_experiment,
)

MINIMAL = """
[experiment]
scenario = ghz
sweep = capacity
sweep_min = 200
sweep_max = 400
sweep_steps = 3
target = m
m = 1

[noise]
channel = ldn
q = 0.98

[architecture]
schemes = A,C
"""

CLUSTER = """
[experiment]
scenario = cluster
sweep = q
sweep_values = 0.97,0.99
target = threshold
threshold = 0.9

[architecture]
families = windmill
dims = 8x8

[storage]
capacity = 400
"""

FROM_BELL = """
[experiment]
scenario = from-bell
sweep = q
sweep_values = 0.99
target = m
m = 1

[noise]
channel = edge

[architecture]
dims = 8x8

[storage]
capacity = 100
"""

GOLDEN = Path(__file__).parent / "golden"


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario == "ghz"
        assert cfg.sweep_values == [200.0, 300.0, 400.0]
        assert cfg.schemes == ["A", "C"]

    def test_explicit_value_list(self):
        cfg = parse_config(MINIMAL.replace(
            "sweep_min = 200\nsweep_max = 400\nsweep_steps = 3",
            "sweep_values = 200,800,1600",
        ))
        assert cfg.sweep_values == [200.0, 800.0, 1600.0]

    def test_empty_range_names_key(self):
        bad = MINIMAL.replace("sweep_min = 200", "sweep_min = 900")
        with pytest.raises(ConfigError, match="sweep_min"):
            parse_config(bad)

    def test_unknown_scheme_reported(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(MINIMAL.replace("A,C", "A,Z"))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(MINIMAL.replace("scenario = ghz", "scenario = mesh"))

    def test_bad_value_names_key_and_value(self):
        with pytest.raises(ConfigError, match="'q'"):
            parse_config(MINIMAL.replace("q = 0.98", "q = fast"))

    def test_missing_capacity_for_fixed_sweep(self):
        text = MINIMAL.replace("sweep = capacity", "sweep = q").replace(
            "sweep_min = 200\nsweep_max = 400", "sweep_min = 0.9\nsweep_max = 1.0"
        )
        with pytest.raises(ConfigError, match="capacity"):
            parse_config(text)

    def test_sweep_domain_enforced(self):
        with pytest.raises(ConfigError, match="domain"):
            parse_config(MINIMAL.replace("sweep_min = 200", "sweep_min = -100"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="treshold"):
            parse_config(MINIMAL + "treshold = 0.5\n")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("q = 0.98", "q = nan"),
            ("q = 0.98", "q = 0.98\npx = inf"),
            ("q = 0.98", "q = 0.98\npz = -inf"),
            ("m = 1", "m = 1\nthreshold = nan"),
            ("sweep_max = 400", "sweep_max = inf"),
        ],
    )
    def test_non_finite_numbers_rejected(self, old, new):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(MINIMAL.replace(old, new))

    def test_unparseable_list_entries_name_key(self):
        with pytest.raises(ConfigError, match="sweep_values"):
            parse_config(MINIMAL.replace(
                "sweep_min = 200\nsweep_max = 400\nsweep_steps = 3", "sweep_values = 200,lots"
            ))

    def test_unparseable_syntax_reports_source(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("experiment]\nscenario=ghz\n", name="broken.cfg")


class TestRows:
    def test_order_and_format(self):
        cfg = parse_config(MINIMAL)
        rows = run_experiment(cfg)
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)
        schemes_at_first = [r[2] for r in rows if r[1] == 200.0]
        assert schemes_at_first == sorted(schemes_at_first)
        csv_text = rows_to_csv(rows)
        header, first = csv_text.splitlines()[:2]
        assert header == "sweep_param,sweep_value,scheme,F,m,n_used,infeasible"
        assert first.startswith("capacity,200,A,")

    def test_infeasible_rows_are_flagged(self):
        cfg = parse_config(MINIMAL.replace("q = 0.98", "q = 0.3"))
        rows = run_experiment(cfg)
        assert rows and all(r[3] == 0.0 and r[6] == 1 for r in rows)


class TestPresets:
    def test_all_figures_present(self):
        names = preset_names()
        for fig in ("fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13"):
            assert fig in names

    def test_presets_parse(self):
        for name in preset_names():
            text, label = load_config_source(name)
            cfg = parse_config(text, name=label)
            assert cfg.sweep_values

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            load_config_source("does-not-exist")


class TestMain:
    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["run", "fig3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_param,sweep_value,scheme,F,m,n_used,infeasible"
        assert len(lines) == 1 + 19 * 2

    def test_validate_preset(self, capsys):
        assert main(["validate", "fig3"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("scenario = ghz", "scenario = mesh"))
        assert main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    def test_infeasible_everywhere_exit_code(self, tmp_path):
        cfg = tmp_path / "hopeless.cfg"
        cfg.write_text(MINIMAL.replace("q = 0.98", "q = 0.2"))
        out = tmp_path / "hopeless.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert out.exists()

    def test_console_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys

        import multinet

        # the child imports the package under test, installed or not
        src = str(Path(multinet.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = tmp_path / "fig3.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "multinet.cli", "run", "fig3", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("sweep_param,")

    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        assert "fig3" in capsys.readouterr().out

    def test_every_preset_completes(self, tmp_path):
        import time

        for name in preset_names():
            out = tmp_path / f"{name}.csv"
            start = time.time()
            assert main(["run", name, "--out", str(out)]) == 0, name
            assert time.time() - start < 60.0, name
            assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes(), name

    @pytest.mark.parametrize("values", ["nan,0.99", "0.95,inf", "-inf"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_sweep_value_is_a_config_error(self, tmp_path, capsys, command, values):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(CLUSTER.replace("sweep_values = 0.97,0.99", f"sweep_values = {values}"))
        out = tmp_path / "nonfinite.csv"
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["px = 0.6\npz = 0.6", "px = -0.1", "pz = 1.5"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_biased_channel_out_of_range_is_a_config_error(self, tmp_path, capsys, command, noise):
        cfg = tmp_path / "biased.cfg"
        cfg.write_text(MINIMAL.replace("channel = ldn", f"channel = biased\n{noise}"))
        out = tmp_path / "biased.csv"
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'px' and 'pz'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "arch, named",
        [
            ("families = windmill\nblock_sizes = 2\ndims = 6x6", "windmill"),
            ("families = windmill\nblock_sizes = 1,2\ndims = 6x6", "windmill"),
            ("families = windmill\nblock_sizes = 2\ndims = 6x6x6", "windmill"),
            ("families = mesh\ndims = 8x8", "mesh"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_untileable_lattice_is_a_config_error(self, tmp_path, capsys, command, arch, named):
        cfg = tmp_path / "untileable.cfg"
        cfg.write_text(CLUSTER.replace("families = windmill\ndims = 8x8", arch))
        out = tmp_path / "untileable.csv"
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_untileable_swept_block_size_is_a_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "swept.cfg"
        cfg.write_text(
            CLUSTER.replace("sweep = q\nsweep_values = 0.97,0.99", "sweep = block_size\nsweep_values = 1,2,3")
            .replace("threshold = 0.9", "threshold = 0.9\n\n[noise]\nq = 0.99")
        )
        out = tmp_path / "swept.csv"
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "block size 3" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_from_bell_odd_lattice_is_a_config_error(self, tmp_path, capsys, command):
        parse_config(FROM_BELL)  # the even lattice is accepted
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(FROM_BELL.replace("dims = 8x8", "dims = 3x3"))
        out = tmp_path / "odd.csv"
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "from-bell lattice" in err and "Traceback" not in err
        assert not out.exists()

    def test_run_maps_library_errors_to_exit_2(self, tmp_path, capsys, monkeypatch):
        # whatever validation lets through still ends as a config error
        monkeypatch.setattr("multinet.cli._validate_config", lambda cfg: None)
        configs = {
            "biased": MINIMAL.replace("channel = ldn", "channel = biased\npx = 0.6\npz = 0.6"),
            "untileable": CLUSTER.replace("dims = 8x8", "block_sizes = 2\ndims = 6x6"),
            "odd-from-bell": FROM_BELL.replace("dims = 8x8", "dims = 3x3"),
        }
        for name, text in configs.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            assert main(["run", str(cfg), "--out", str(tmp_path / f"{name}.csv")]) == 2, name
            assert "config error" in capsys.readouterr().err, name

    def test_unwritable_output_path(self, tmp_path):
        assert main(["run", "fig3", "--out", str(tmp_path)]) == 2

    def test_determinism_across_parallelism(self, tmp_path):
        # the first run of fig10 fills the storage cache, the second reads it
        site_costs.cache_clear()
        for preset in ("fig3", "fig10"):
            outputs = []
            for run in (1, 2):
                out = tmp_path / f"{preset}-{run}.csv"
                assert main(["run", preset, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == (GOLDEN / f"{preset}.csv").read_bytes()

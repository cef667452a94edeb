"""Config parsing, CSV output, presets, exit codes."""

import configparser
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet import cli
from multinet.cli import (
    MAX_SWEEP_STEPS,
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
        ).replace("q = 0.98\n", "")
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


def oracle_sections(text):
    """``text``'s sections as configparser reads them, the grammar ``_read_sections`` keeps."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {section: dict(parser.items(section)) for section in parser.sections()}


class TestReader:
    @pytest.mark.parametrize("text, expected", [
        ("# a comment\n; another\n[noise]\n  # indented comment\nq = 0.98\n",
         {"noise": {"q": "0.98"}}),
        ("[noise]\nq: 0.98\np :1.0\n", {"noise": {"q": "0.98", "p": "1.0"}}),
        ("[Noise]\nQ = 0.98\nChannel = LDN\n", {"Noise": {"q": "0.98", "channel": "LDN"}}),
        ("[architecture]\nschemes = A,\n    C\n\tB\nfamilies = windmill\n",
         {"architecture": {"schemes": "A,\nC\nB", "families": "windmill"}}),
        ("[x]\nurl = a=b:c\nkey: v=w\n", {"x": {"url": "a=b:c", "key": "v=w"}}),
        ("[x]\nsweep min = 200          ; or not\n", {"x": {"sweep min": "200          ; or not"}}),
        ("\n  \n[x]\n[y]\nk =\n", {"x": {}, "y": {"k": ""}}),
    ])
    def test_matches_configparser(self, text, expected):
        assert cli._read_sections(text, "case.cfg") == oracle_sections(text) == expected

    @pytest.mark.parametrize("text, line", [
        ("[noise]\nq = 0.9\n[noise]\np = 1.0\n", 3),  # a repeated section
        ("[noise]\nq = 0.9\n\n# note\nQ: 0.8\n", 5),  # a repeated key, in any case
        ("# header\nscenario = ghz\n[experiment]\n", 2),  # a key before any section
        ("[experiment]\nscenario = ghz\nsweep capacity\n", 3),  # no delimiter
        ("[experiment]\n = ghz\n", 2),  # no key
    ])
    def test_malformed_lines_name_their_number(self, tmp_path, capsys, text, line):
        with pytest.raises(ConfigError, match=f"^cannot parse case.cfg: line {line}: "):
            cli._read_sections(text, "case.cfg")
        with pytest.raises(configparser.Error):
            oracle_sections(text)
        for command in ("validate", "run"):
            code, err = exit_and_err(tmp_path, capsys, command, text)
            assert code == 2 and f"cannot parse {tmp_path / 'case.cfg'}: line {line}: " in err

    def test_default_section_is_unknown(self):
        # configparser took an empty [DEFAULT] as no section at all
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            parse_config("[DEFAULT]\n" + MINIMAL)


class TestCommandLine:
    @pytest.mark.parametrize("form", [
        ["run", "fig3", "--out", "{out}"],
        ["run", "--out", "{out}", "fig3"],
        ["run", "fig3", "--out={out}"],
        ["run", "--out={out}", "fig3"],
    ])
    def test_accepted_run_forms(self, tmp_path, capsys, form):
        out = tmp_path / "fig3.csv"
        assert main([arg.format(out=out) for arg in form]) == 0
        assert out.read_bytes() == (GOLDEN / "fig3.csv").read_bytes()
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [
        [],
        ["simulate", "fig3"],
        ["run", "fig3"],
        ["run", "fig3", "--out"],
        ["run", "--out", "{out}"],
        ["run", "fig3", "fig4", "--out", "{out}"],
        ["run", "fig3", "--out", "{out}", "--out", "{out}"],
        ["run", "fig3", "--verbose", "--out", "{out}"],
        ["validate"],
        ["validate", "fig3", "fig4"],
        ["validate", "fig3", "--out", "{out}"],
        ["validate", "fig3", "--out={out}"],
        ["list-presets", "fig3"],
    ])
    def test_rejected_forms_print_the_usage(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main([arg.format(out=out) for arg in argv]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr == cli.USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["run", "--help"], ["validate", "fig3", "-h"]])
    def test_help_prints_the_usage(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr() == (cli.USAGE, "")


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

    def test_lattices_read_only_their_keys(self):
        # validation builds a sweep's lattices once unless the swept key is
        # one of the scenario's lattice_keys
        for name in preset_names():
            cfg = parse_config(load_config_source(name)[0])
            sc = cli.SCENARIOS[cfg.scenario]
            if sc.sweeps[cfg.sweep_param] not in sc.lattice_keys:
                points = {tuple(sc.lattices(cli._at(cfg, v))) for v in cfg.sweep_values}
                assert points == {tuple(sc.lattices(cfg))}, name

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

    def test_package_imports_without_numpy(self):
        # numpy is a test-only dependency: the library and the CLI never import it
        import os
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = "import sys, multinet, multinet.cli; sys.exit('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

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
        cfg.write_text(MINIMAL.replace("channel = ldn\nq = 0.98", f"channel = biased\n{noise}"))
        out = tmp_path / "biased.csv"
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'px' and 'pz'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["directory", "not-utf-8"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, command, source):
        # open fails on a directory, decoding on a UTF-16 byte-order mark: each names the path
        cfg = tmp_path / "unreadable.cfg"
        if source == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
        out = tmp_path / "unreadable.csv"
        argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read") and str(cfg) in err
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
    def test_extent_two_lattice_is_a_config_error(self, tmp_path, capsys, command):
        # no family's unit cell lifts to an extent-2 torus, so none may count blocks on it
        arch = "families = windmill,shifted-grid\nblock_sizes = 1\ndims = 2x2"
        configs = {
            "tiny": CLUSTER.replace("families = windmill\ndims = 8x8", arch),
            "narrow-from-bell": FROM_BELL.replace("dims = 8x8", "dims = 2x6"),
        }
        for name, text in configs.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            out = tmp_path / f"{name}.csv"
            argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
            assert main(argv) == 2, name
            err = capsys.readouterr().err
            assert "config error:" in err and "Traceback" not in err, name
            assert not out.exists(), name

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

    def test_determinism_across_parallelism(self, tmp_path, clear_caches):
        # the first runs fill every cache, the second runs read them
        for preset in ("fig3", "fig8", "fig10"):
            outputs = []
            for run in (1, 2):
                out = tmp_path / f"{preset}-{run}.csv"
                assert main(["run", preset, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == (GOLDEN / f"{preset}.csv").read_bytes()


TRIANGULAR = """
[experiment]
scenario = triangular
sweep = levels
sweep_values = 0,1

[noise]
q = 0.99

[architecture]
schemes = A,C

[storage]
capacity = 1600
"""


def exit_and_err(tmp_path, capsys, command, text):
    """``main``'s exit code and stderr for ``command`` on a config holding ``text``."""
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    out = tmp_path / "case.csv"
    code = main([command, str(cfg)] + (["--out", str(out)] if command == "run" else []))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert not out.exists()
    return code, err


class TestScenarioContract:
    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL.replace("channel = ldn", "channel = edge"),
            TRIANGULAR.replace("q = 0.99", "q = 0.99\nchannel = z"),
            TRIANGULAR.replace("q = 0.99", "q = 0.99\nchannel = biased"),
            CLUSTER + "\n[noise]\nchannel = z\n",
            CLUSTER + "\n[noise]\nchannel = biased\n",
            FROM_BELL + "\n[noise]\nchannel = z\n",
            FROM_BELL + "\n[noise]\nchannel = edge\n",
        ],
        ids=[
            "ghz-edge", "triangular-z", "triangular-biased", "cluster-z", "cluster-biased", "from-bell-z",
            "from-bell-edge",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_channel_the_scenario_does_not_model(self, tmp_path, capsys, command, text):
        code, err = exit_and_err(tmp_path, capsys, command, text)
        assert code == 2 and "[noise] key 'channel'" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            (TRIANGULAR.replace("sweep_values = 0,1", "sweep_values = 0,1\ntarget = threshold\nm = 7"), "target"),
            (TRIANGULAR.replace("sweep_values = 0,1", "sweep_values = 0,1\nm = 7"), "m"),
            (MINIMAL.replace("target = m\nm = 1", "target = threshold\nm = 0"), "target"),
            (MINIMAL.replace("m = 1", "m = 1\nthreshold = 0.5"), "threshold"),
            (CLUSTER + "\n[noise]\np = 0.5\n", "p"),
            (CLUSTER.replace("dims = 8x8", "dims = 8x8\nschemes = A"), "schemes"),
            (MINIMAL + "\n[storage]\nmode = global\n", "mode"),
            (TRIANGULAR.replace("capacity = 1600", "capacity = 1600\nmode = global"), "mode"),
            (FROM_BELL.replace("capacity = 100", "capacity = 100\nmode = global"), "mode"),
            (FROM_BELL.replace("dims = 8x8", "dims = 8x8\nblock_sizes = 2"), "block_sizes"),
            (MINIMAL.replace("schemes = A,C", "schemes = A,C\nlevels = 3"), "levels"),
        ],
        ids=[
            "triangular-threshold", "triangular-m", "ghz-threshold", "ghz-threshold-value", "cluster-p",
            "cluster-schemes", "ghz-global", "triangular-global", "from-bell-global", "from-bell-block-sizes",
            "ghz-levels",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_setting_the_scenario_ignores(self, tmp_path, capsys, command, text, key):
        code, err = exit_and_err(tmp_path, capsys, command, text)
        assert code == 2 and f"key '{key}'" in err and "does not read" in err

    @pytest.mark.parametrize(
        "preset, old, new, named",
        [
            ("fig3", "p = 1.0", "p = 1.0\npx = 0.3\npz = 0.3", "[noise] key 'px'"),
            ("fig5", "p = 1.0", "p = 1.0\npz = 0.3", "[noise] key 'pz'"),
            ("fig6", "p = 1.0", "p = 1.0\nq = 0.5", "[noise] key 'q'"),
            ("fig6", "p = 1.0", "p = 1.0\nq = 0.98", "[noise] key 'q'"),
            ("fig6", "sweep = capacity\nsweep_min = 200\nsweep_max = 2000\nsweep_steps = 19",
             "sweep = q\nsweep_values = 0.5,0.98", "sweep over 'q'"),
        ],
        ids=["ldn-px-pz", "z-pz", "biased-q-0.5", "biased-q-0.98", "biased-q-swept"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_setting_a_key_the_ghz_channel_ignores(self, tmp_path, capsys, command, preset, old, new, named):
        # ldn and z read q, not px or pz; biased reads px and pz, not q
        text = load_config_source(preset)[0].replace(old, new)
        if "sweep = q" in text:
            text = text.replace("mode = per-node", "mode = per-node\ncapacity = 400")
        assert text.count(new) == 1
        code, err = exit_and_err(tmp_path, capsys, command, text)
        assert code == 2 and "config error" in err and named in err
        assert "does not read it with channel" in err

    def test_settings_at_their_default_are_accepted(self):
        parse_config(MINIMAL + "\n[storage]\nmode = per-node\n")
        parse_config(CLUSTER + "\n[noise]\np = 1.0\n")

    @pytest.mark.parametrize(
        "text, named",
        [
            (TRIANGULAR.replace("sweep = levels\nsweep_values = 0,1", "sweep = capacity\nsweep_values = 1600")
             .replace("schemes = A,C", "schemes = A,C\nlevels = -1"), "'levels'"),
            (TRIANGULAR.replace("sweep_values = 0,1", "sweep_values = 0,700"), "domain"),
            (TRIANGULAR.replace("sweep_values = 0,1", "sweep_values = 0,647"), "domain"),
            (TRIANGULAR.replace("sweep_values = 0,1", "sweep_values = 0,1.5"), "'levels'"),
            (MINIMAL.replace("m = 1", "m = 0"), "'m'"),
            (CLUSTER.replace("dims = 8x8", "dims = 8x8\nblock_sizes = 0"), "'block_sizes'"),
            (CLUSTER.replace("capacity = 400", "capacity = -5"), "'capacity'"),
        ],
        ids=["levels-negative", "levels-swept-700", "levels-swept-647", "levels-swept-fraction", "m-zero",
             "block-size-zero", "capacity-negative"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_one_domain_per_numeric_key(self, tmp_path, capsys, command, text, named):
        code, err = exit_and_err(tmp_path, capsys, command, text)
        assert code == 2 and named in err

    def test_levels_bound_is_accepted(self):
        rows = run_experiment(parse_config(TRIANGULAR.replace("sweep_values = 0,1", "sweep_values = 646")))
        assert [r[2] for r in rows] == ["A", "C"] and all(0.0 <= r[3] <= 1.0 for r in rows)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_oversized_block_size_is_rejected_fast(self, tmp_path, capsys, command):
        import time

        start = time.perf_counter()
        code, err = exit_and_err(
            tmp_path, capsys, command, CLUSTER.replace("dims = 8x8", "dims = 8x8\nblock_sizes = 1000000")
        )
        assert code == 2 and "block size 1000000" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("sweep, values, lattices", [
        ("q", "sweep_min = 0.9\nsweep_max = 1.0\nsweep_steps = 1000", 5),
        ("block_size", "sweep_values = 1,2,1,4,2", 7),
    ])
    def test_validation_tiles_each_lattice_once(self, monkeypatch, sweep, values, lattices):
        # a q sweep leaves the lattices as they are, and a block_size sweep
        # repeats some: each distinct lattice is tiled once, not once per point
        calls = []
        count = cli.blocks_count
        monkeypatch.setattr(cli, "blocks_count", lambda *args: calls.append(args) or count(*args))
        text = CLUSTER.replace("sweep = q", f"sweep = {sweep}").replace("sweep_values = 0.97,0.99", values)
        text = text.replace("families = windmill", "families = bipartite,windmill,shifted-grid")
        if sweep == "q":
            text = text.replace("dims = 8x8", "dims = 64x64\nblock_sizes = 1,2")
        parse_config(text)
        assert len(calls) == len(set(calls)) == lattices

    def test_sweep_values_and_range_together_is_a_config_error(self):
        with pytest.raises(ConfigError, match="sweep_min"):
            parse_config(MINIMAL.replace("sweep_steps = 3", "sweep_steps = 3\nsweep_values = 200"))

    @pytest.mark.parametrize("steps", [MAX_SWEEP_STEPS + 1, 10**12])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_oversized_sweep_range_is_rejected_fast(self, tmp_path, capsys, command, steps):
        import time

        start = time.perf_counter()
        code, err = exit_and_err(tmp_path, capsys, command, MINIMAL.replace("sweep_steps = 3", f"sweep_steps = {steps}"))
        assert code == 2 and "sweep_steps" in err and str(MAX_SWEEP_STEPS) in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_setting_the_swept_key_is_a_config_error(self, tmp_path, capsys, command):
        # the sweep sets q at every point, so the config's own q would never be read
        text = MINIMAL.replace("sweep = capacity", "sweep = q").replace(
            "sweep_min = 200\nsweep_max = 400", "sweep_min = 0.9\nsweep_max = 1.0"
        ) + "\n[storage]\ncapacity = 400\n"
        code, err = exit_and_err(tmp_path, capsys, command, text)
        assert code == 2 and "key 'q'" in err and "sweep over 'q'" in err
        parse_config(text.replace("q = 0.98", "q = 1.0"))  # its default is accepted


# Every key a config may hold, with the names it may take, listed here rather
# than read from the module under test so that the generator runs unchanged
# against older versions.  Unknown names are mixed in.
NAMES = {
    "scenario": ["ghz", "triangular", "cluster", "from-bell", "mesh"],
    "sweep": ["capacity", "q", "levels", "block_size", "m"],
    "target": ["m", "threshold", "fidelity"],
    "channel": ["ldn", "z", "biased", "edge", "amplitude"],
    "mode": ["per-node", "global", "shared"],
    "schemes": ["A", "A-opt", "B", "C", "D", "A,A-opt,B,C"],
    "families": ["bipartite", "windmill", "shifted-grid", "mesh", "bipartite,windmill,shifted-grid"],
}
KEYS_BY_SECTION = {
    "experiment": ("scenario", "sweep", "sweep_values", "sweep_steps", "target", "m", "threshold"),
    "noise": ("channel", "q", "p", "px", "pz"),
    "architecture": ("schemes", "families", "block_sizes", "dims", "levels"),
    "storage": ("mode", "capacity"),
}
# The key each sweep sets, and keys the generator draws more often than the rest.
SWEPT_KEYS = {
    "q": ("noise", "q"),
    "capacity": ("storage", "capacity"),
    "levels": ("architecture", "levels"),
    "block_size": ("architecture", "block_sizes"),
}
RARE_KEYS = [("architecture", "levels"), ("experiment", "sweep_steps"), ("experiment", "sweep_values")]
# Caps that keep an example fast: at most 3 sweep values or steps, lattice
# extents at most 64, block sizes at most 8 plus one far above every extent.
NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "646", "700", "1e308", "1" + "0" * 40, "fast"]),
    st.integers(-3, 3000).map(str),
    st.floats(-0.5, 1.5).map(repr),
)
VALUES = {
    **{key: st.sampled_from(names) for key, names in NAMES.items()},
    "sweep_values": st.lists(NUMBERS | st.sampled_from(["645", "646", "647", "700"]), min_size=1, max_size=3)
    .map(",".join),
    "sweep_steps": st.one_of(st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "2.5", "nan", "fast"])),
    "dims": st.lists(st.integers(1, 64), min_size=1, max_size=3).map(lambda ds: "x".join(map(str, ds))),
    "block_sizes": st.lists(st.one_of(st.integers(1, 8), st.just(10**6)), min_size=1, max_size=3)
    .map(lambda bs: ",".join(map(str, bs))),
}


@st.composite
def mutated_presets(draw):
    """A packaged preset cut to at most 3 sweep values, then mutated: each name
    it holds is swapped 1 time in 2, and 0-2 keys are dropped or set.

    One preset in four keeps its sweep range, with 1-3 steps or a malformed
    step count.  Half the keys drawn are the key the sweep sets, and the
    triangular ``levels``, ``sweep_steps`` and ``sweep_values`` (with values
    around 646, the most ``levels`` allowed) are drawn as often as all the
    other keys together.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(load_config_source(draw(st.sampled_from(preset_names())))[0])
    exp = parser["experiment"]
    if draw(st.integers(0, 3), label="keep the sweep range") == 0:
        exp["sweep_steps"] = draw(VALUES["sweep_steps"])
    else:
        lo, hi = float(exp.pop("sweep_min")), float(exp.pop("sweep_max"))
        del exp["sweep_steps"]
        picks = draw(st.lists(st.sampled_from([lo, (lo + hi) / 2, hi]), min_size=1, max_size=3))
        exp["sweep_values"] = ",".join(map(repr, sorted(picks)))
    for section in parser.sections():
        for key in NAMES.keys() & parser[section].keys():
            if draw(st.booleans()):
                parser.set(section, key, draw(st.sampled_from(NAMES[key])))
    keys = [(s, k) for s, keys in KEYS_BY_SECTION.items() for k in keys]
    keys += RARE_KEYS * (len(keys) // len(RARE_KEYS))
    if exp.get("sweep") in SWEPT_KEYS:
        keys += [SWEPT_KEYS[exp["sweep"]]] * len(keys)
    for _ in range(draw(st.integers(0, 2))):
        section, key = draw(st.sampled_from(keys))
        if not parser.has_section(section):
            parser.add_section(section)
        if draw(st.integers(0, 3)) == 0:
            parser.remove_option(section, key)
        else:
            parser.set(section, key, draw(VALUES.get(key, NUMBERS)))
    return parser


class TestCliProperties:
    @settings(max_examples=300, deadline=None)
    @given(mutated_presets())
    def test_validate_agrees_with_run(self, parser):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "case.cfg"), os.path.join(tmp, "case.csv")
            with open(cfg, "w", encoding="utf-8") as fh:
                parser.write(fh)
            checked = main(["validate", cfg])
            ran = main(["run", cfg, "--out", out])
        assert checked in (0, 2) and ran in (0, 2, 3)
        assert not (checked == 0 and ran == 2), "validate accepted a config that run rejects"

    @settings(max_examples=300, deadline=None)
    @given(mutated_presets())
    def test_reader_agrees_with_configparser(self, parser):
        # the configs as configparser writes them, the form perfbench/run.py writes
        buffer = io.StringIO()
        parser.write(buffer)
        text = buffer.getvalue()
        assert cli._read_sections(text, "case.cfg") == oracle_sections(text)

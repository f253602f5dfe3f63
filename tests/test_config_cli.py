import argparse
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from cdce.channel import ChannelStats
from cdce.cli import build_parser, main
from cdce.config import ENV_BASE_SEED, ConfigError, _UniqueKeyLoader, load_config
from cdce.grids import Dims
from cdce.harness import ESTIMATOR_NAMES, SimConfig, run_trial
from cdce.pilots import FrameSpec, af_summary, assemble_frame, discrete_af, pilot_dd_image

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REPO_CONFIG = str(CONFIG_DIR / "pilot_only.yaml")
DATA_CONFIG = str(CONFIG_DIR / "with_data.yaml")
AF_CONFIG = str(CONFIG_DIR / "af_study.yaml")


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """
trials: 2
estimators: [st_ls, st_lmmse]
snr_grid_db: [10]
"""


# A repeated estimator would run twice per trial and write two identical rows
# per SNR point; two SNR points with one seed key (the SNR rounded to 1e-6 dB)
# would draw identical trials.
DUPLICATES = [
    ("estimators: [cdce, st_ls, cdce]", r"estimators \['cdce'\] are listed more than once"),
    ("snr_grid_db: [10, 5, 10.0]", "SNR points 10.0 and 10.0 dB share a seed key: identical trials"),
    ("snr_grid_db: [5, 10, 10.0000001]", "SNR points 10.0 and 10.0000001 dB share a seed key: identical trials"),
]


# YAML would keep the last of two equal keys; the loader refuses them, at the
# top level and inside a section
REPEATED = [
    ("estimators: [cdce, st_ls]\nsnr_grid_db: [10]\nestimators: [st_ls]", r"repeated key 'estimators' in .*cfg\.yaml, line \d"),
    ("dims: {m: 8, m: 16}", "repeated key 'm'"),
    ("lasso:\n  tol: 1.0e-6\n  lambda: 0.1\n  tol: 1.0e-5", "repeated key 'tol'"),
]


# A lattice too sparse for the search region cannot tell some of its bins
# apart: every 4th subcarrier at M = 8 sees delays 0 and 2 alike, and two
# pilot symbols cannot resolve 7 Doppler bins. Its region dictionary is
# singular.
ALIASED = [
    pytest.param(
        Path(REPO_CONFIG).read_text().replace("freq_spacing: 2", "freq_spacing: 4"),
        r"invalid config .*aliases the search region.*"
        r"freq_spacing·\(l_max\+1\) ≤ M and time_spacing·\(2·k_max\+1\) ≤ N; here 4·3 against M = 8",
        id="pilot_only.yaml with freq_spacing 4",
    ),
    ("frame: {time_spacing: 7}", r"invalid config .*aliases the search region.*7·7 against N = 14"),
]


# Fewer pilots than region bins cannot resolve the region, wherever they
# sit: 8 random pilots against 3 x 7 = 21 bins.
TOO_FEW_RANDOM_PILOTS = [
    ("frame: {placement: uniform_random, sequence: zadoff_chu, freq_spacing: 4, time_spacing: 4}",
     r"invalid config .*8 randomly placed pilots cannot resolve a search region of 21 bins"),
]


# Below 3 paths a trial's NMSE, which divides by ||h||², has an infinite
# variance (2 paths) or no mean (1 path).
TOO_FEW_PATHS = [
    (f"stats: {{n_paths: {n}}}",
     rf"invalid config .*n_paths {n} is below 3: .*E\[1/\|\|h\|\|²\] is finite only from 2 paths "
     r"and E\[1/\|\|h\|\|⁴\] only from 3, so below 3 paths the sweep's stderr_db estimates nothing")
    for n in (1, 2)
]


# The channel's gain variance is 1/n_paths, a lattice starts at (0, 0) and a
# sequence kind names one sequence, so these keys are unknown like any typo.
REMOVED_KEYS = [
    (text, rf"unknown keys \['{key}'\] in section '{section}'")
    for text, section, key in (
        ("stats: {gain_variance: 0.5}", "stats", "gain_variance"),
        ("frame: {freq_offset: 1}", "frame", "freq_offset"),
        ("frame: {time_offset: 1}", "frame", "time_offset"),
        ("frame: {sequence: zadoff_chu, sequence_param: 2}", "frame", "sequence_param"),
    )
]


class TestLoadConfig:
    def test_repo_pilot_config(self):
        cfg = load_config(REPO_CONFIG)
        assert cfg.dims == Dims(8, 14, 2)
        assert cfg.stats.n_paths == 3
        assert cfg.stats.l_max == 2
        assert cfg.stats.k_max == 3
        assert cfg.frame.freq_spacing == 2
        assert cfg.frame.time_spacing == 1
        assert cfg.frame.sequence_kind == "all_ones"
        assert cfg.frame.data_mode == "pilot_only"
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.trials == 500
        assert cfg.estimators == ESTIMATOR_NAMES
        assert cfg.lasso.lam == 0.01
        assert cfg.cov_samples == 1000
        assert cfg.base_seed == 0

    def test_repo_data_config_fills_qpsk(self):
        cfg = load_config(DATA_CONFIG)
        assert cfg.frame.data_mode == "with_data"

    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg.dims == Dims(8, 14, 2)
        assert cfg.trials == 500
        assert cfg.estimators == ESTIMATOR_NAMES
        assert cfg.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.base_seed == 0

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/no/such/config.yaml")

    def test_unparseable_yaml_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(write_config(tmp_path, "trials: [unclosed"))

    def test_parses_with_libyaml_when_present(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert issubclass(_UniqueKeyLoader, base)

    def test_non_mapping_top_level_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(write_config(tmp_path, "- 1\n- 2\n"))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("snr_points: [0]", "unknown keys"),
            ("dims: {m: 8, rows: 3}", "unknown keys"),
            ("stats: {doppler: 2}", "unknown keys"),
            ("frame: {spacing: 2}", "unknown keys"),
            ("lasso: {alpha: 0.1}", "unknown keys"),
            # the sample grid's pulse is the only one, so it has no key
            ("pulse: ideal", "unknown keys"),
            ("trials: many", "integer"),
            ("trials: true", "integer"),
            ("dims: {m: 8.5}", "integer"),
            ("dims: {m: 0}", "invalid dims"),
            ("dims: {cp_len: 9}", "invalid dims"),
            ("stats: {n_paths: 0}", "invalid stats"),
            ("frame: {pilot_power: strong}", "number"),
            ("mode: blind", "mode"),
            # the frame takes mode as the config spells it, so no other name
            # of a fill loads
            ("mode: qpsk", "mode must be pilot_only or with_data, got 'qpsk'"),
            ("mode: none", "mode must be pilot_only or with_data, got 'none'"),
            ("snr_grid_db: []", "non-empty"),
            ("snr_grid_db: 10", "non-empty"),
            ("estimators: []", "non-empty"),
            ("estimators: [st_ls, 3]", "string"),
            ("dims: [8, 14]", "must be a mapping"),
            ("lasso: {lambda: -0.5}", "invalid lasso"),
            ("frame: {freq_spacing: 0}", "invalid frame"),
            ("frame: {time_spacing: 0}", "lattice spacings must be at least 1"),
            ("frame: {freq_spacing: -2}", "lattice spacings must be at least 1"),
            ("estimators: [kalman]", "invalid config"),
            ("trials: 0", "invalid config"),
            ("stats: {l_max: 3}", "CP length"),
            ("stats: {k_max: 8}", "Doppler grid"),
            ("stats: {k_max: 7}", "Doppler grid"),
            ("stats: {n_paths: 22}", "distinct paths"),
            ("frame: {sequence: walsh}", "power-of-two"),
            ("lasso: {lambda: .nan}", "invalid lasso"),
            ("lasso: {tol: .nan}", "invalid lasso"),
            ("frame: {pilot_power: .nan}", "invalid frame"),
            ("frame: {pilot_power: .inf}", "invalid frame"),
            ("snr_grid_db: [.nan]", "invalid config"),
            ("snr_grid_db: [10, -.inf]", "invalid config"),
            ("snr_grid_db: [1.0e+303]", "invalid config"),
            ("snr_grid_db: [-4000]", "invalid config"),
            ("snr_grid_db: [-3082]", "invalid config"),
            ("snr_grid_db: [10, -1541.3]", "invalid config"),
            ("mode: with_data\nframe: {freq_spacing: 1}", "invalid frame"),
            # e-notation reads as a number, but not where it is quoted or
            # where an integer is due
            ("lasso: {lambda: '1e-2'}", "lasso.lambda must be a number, got '1e-2'"),
            ("trials: 1e3", "trials must be an integer, got 1000.0"),
            # a pilot energy at or above harness.MAX_N0, wherever the pilots sit
            ("frame: {pilot_power: 1.0e+307}", r"56·1e\+307 is not below 1\.34e\+154"),
            ("frame: {placement: uniform_random, sequence: zadoff_chu, pilot_power: 1.0e+307}", "pilot energy"),
        ] + DUPLICATES + REPEATED + ALIASED + TOO_FEW_RANDOM_PILOTS + TOO_FEW_PATHS + REMOVED_KEYS,
    )
    def test_bad_configs_rejected(self, tmp_path, text, fragment):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=fragment) as caught:
            load_config(path)
        if fragment.startswith("invalid"):
            assert path in str(caught.value)

    def test_random_pilot_benchmark_config_loads(self):
        # 56 random pilots against 21 region bins
        cfg = load_config(str(CONFIG_DIR.parent / "bench" / "configs" / "random_pilots.yaml"), env={})
        assert cfg.frame.placement == "uniform_random"
        assert cfg.frame.n_pilots == 56 and cfg.stats.region_size == 21

    def test_empty_file_is_the_dataclass_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""), env={})
        assert cfg == SimConfig(dims=Dims(), stats=ChannelStats(), frame=FrameSpec(dims=Dims()))

    def test_readme_defaults_are_the_code_defaults(self, tmp_path):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        documented = load_config(write_config(tmp_path, block, "readme.yaml"), env={})
        assert documented == load_config(write_config(tmp_path, ""), env={})

    def test_e_notation_floats_load(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "lasso: {lambda: 1e-2, tol: 1E-6}\nsnr_grid_db: [0, 1E3, 5e+1]"))
        assert (cfg.lasso.lam, cfg.lasso.tol) == (0.01, 1e-6)
        assert cfg.snr_grid_db == (0.0, 1000.0, 50.0)
        # the loader's resolver is its own: PyYAML's loaders still read a string
        assert yaml.safe_load("1e-2") == "1e-2"

    @pytest.mark.parametrize("placement", ["lattice", "uniform_random"])
    def test_large_finite_pilot_power_loads(self, tmp_path, placement):
        text = f"frame: {{placement: {placement}, sequence: zadoff_chu, pilot_power: 1.0e+100}}"
        assert load_config(write_config(tmp_path, text)).frame.pilot_power == 1e100

    def test_merged_keys_may_be_overridden(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "dims: {<<: {m: 16, n: 16}, n: 14}"))
        assert cfg.dims == Dims(16, 14, 2)

    def test_close_snr_points_with_distinct_keys_load(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "snr_grid_db: [10, 10.000001]"))
        assert cfg.snr_grid_db == (10.0, 10.000001)

    def test_sequence_key_maps_to_kind(self, tmp_path):
        # Walsh rows need a power-of-two pilot count: 4 x 16 here
        cfg = load_config(write_config(tmp_path, "dims: {n: 16}\nframe: {sequence: walsh}"))
        assert cfg.frame.sequence_kind == "walsh"

    def test_env_overrides_file_seed(self, tmp_path):
        path = write_config(tmp_path, "base_seed: 3")
        assert load_config(path, env={}).base_seed == 3
        assert load_config(path, env={ENV_BASE_SEED: "12"}).base_seed == 12

    def test_bad_env_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, "")
        with pytest.raises(ConfigError, match=ENV_BASE_SEED):
            load_config(path, env={ENV_BASE_SEED: "0x7"})


class TestCliSingle:
    def test_prints_one_line_per_estimator(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL)
        assert main(["single", "--config", path, "--snr-db", "10", "--trial", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split("\t")[0] for ln in lines] == ["st_ls", "st_lmmse"]
        cfg = load_config(path)
        ratios = run_trial(cfg, 10.0, 0)
        for ln, name in zip(lines, ("st_ls", "st_lmmse")):
            assert float(ln.split("\t")[1]) == pytest.approx(
                10 * math.log10(ratios[name]), abs=1e-5
            )

    def test_negative_trial_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL)
        assert main(["single", "--config", path, "--snr-db", "0", "--trial", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_snr_below_every_finite_value_is_an_error(self, tmp_path, capsys, snr):
        path = write_config(tmp_path, SMALL)
        assert main(["single", "--config", path, f"--snr-db={snr}", "--trial", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "SNR" in err

    @pytest.mark.parametrize("snr", ["1e303", "-1e303", "-4000"])
    def test_snr_too_large_in_magnitude_is_an_error(self, tmp_path, capsys, snr):
        # its seed key or its noise variance would overflow
        path = write_config(tmp_path, SMALL)
        assert main(["single", "--config", path, f"--snr-db={snr}", "--trial", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "SNR" in err

    @pytest.mark.parametrize("snr", ["-3082", "-1541.3"])
    def test_snr_below_the_lowest_simulated_is_an_error(self, tmp_path, capsys, snr):
        # its noise variance would overflow the squared errors of an NMSE
        path = write_config(tmp_path, SMALL)
        assert main(["single", "--config", path, f"--snr-db={snr}", "--trial", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "SNR" in err and "-1541.27" in err

    def test_lowest_simulated_snr_prints_finite_nmse(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["single", "--config", path, "--snr-db=-1541.2", "--trial", "0"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert math.isfinite(float(line.split("\t")[1]))

    def test_positive_infinite_snr_is_noiseless(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL)
        assert main(["single", "--config", path, "--snr-db=inf", "--trial", "0"]) == 0


class TestCliSweep:
    def test_writes_csv_with_exact_header(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "estimator,snr_db,trials,nmse_db,stderr_db"
        assert len(lines) == 3
        assert lines[1].startswith("st_lmmse,10,2,")
        assert lines[2].startswith("st_ls,10,2,")

    def test_format_flag_is_gone(self, tmp_path, capsys):
        # the sweep writes CSV only
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "rows.json"
        with pytest.raises(SystemExit) as caught:
            main(["sweep", "--config", path, "--out", str(out), "--format", "json"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL)
        rc = main(["sweep", "--config", path, "--out", "/nonexistent-dir/rows.csv"])
        assert rc == 1
        assert "error: cannot write results" in capsys.readouterr().err

    def test_bad_config_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "mode: blind")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text,named", DUPLICATES + REPEATED)
    def test_duplicates_are_an_error_before_any_trial(self, tmp_path, capsys, text, named):
        path = write_config(tmp_path, "trials: 1\n" + text)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert re.search(named, err)
        assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestCliAf:
    def test_payload_matches_library_surfaces(self, tmp_path):
        out = tmp_path / "af.json"
        assert main(["af", "--config", AF_CONFIG, "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert set(payload) == {"dd_image", "ambiguity", "summary"}

        cfg = load_config(AF_CONFIG)
        frame = assemble_frame(
            cfg.frame, np.random.default_rng(np.random.SeedSequence([cfg.base_seed]))
        )
        assert payload["summary"] == af_summary(cfg.frame, frame)
        assert payload["summary"]["bins_for_90pct"] == 2
        assert payload["summary"]["af_max_sidelobe"] == 0.0
        expected = {
            "dd_image": pilot_dd_image(frame),
            "ambiguity": discrete_af(pilot_dd_image(frame)),
        }
        for key, grid in expected.items():
            block = payload[key]
            assert block["rows"] == cfg.dims.m
            assert block["cols"] == cfg.dims.n
            assert len(block["re"]) == cfg.dims.m * cfg.dims.n
            rebuilt = (
                np.array(block["re"]) + 1j * np.array(block["im"])
            ).reshape(cfg.dims.m, cfg.dims.n, order="F")
            np.testing.assert_allclose(rebuilt, grid, atol=1e-12)

    def test_random_placement_summary_reads_the_written_surface(self, tmp_path):
        # the summary reads the frame whose grids the file holds
        config = write_config(tmp_path, "frame: {placement: uniform_random, sequence: zadoff_chu}")
        out = tmp_path / "af.json"
        assert main(["af", "--config", config, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        block = payload["ambiguity"]
        af = np.abs(np.array(block["re"]) + 1j * np.array(block["im"]))
        assert payload["summary"]["af_peak"] == pytest.approx(af[0])
        assert payload["summary"]["af_max_sidelobe"] == pytest.approx(af[1:].max())

    def test_column_major_flattening(self, tmp_path):
        out = tmp_path / "af.json"
        main(["af", "--config", AF_CONFIG, "--out", str(out)])
        payload = json.loads(out.read_text())
        cfg = load_config(AF_CONFIG)
        frame = assemble_frame(
            cfg.frame, np.random.default_rng(np.random.SeedSequence([cfg.base_seed]))
        )
        grid = pilot_dd_image(frame)
        block = payload["dd_image"]
        # the entry at flat index m is (row 0, col 1) under column-major order
        assert block["re"][cfg.dims.m] == pytest.approx(grid[0, 1].real, abs=1e-12)

    def test_unwritable_output_is_an_error(self, capsys):
        rc = main(["af", "--config", AF_CONFIG, "--out", "/nonexistent-dir/af.json"])
        assert rc == 1
        assert "error: cannot write" in capsys.readouterr().err


class TestCliReadme:
    def test_readme_cli_section_names_the_parser_flags(self):
        # every subcommand with its flags, as the section's command lines show
        # them, and no flag in its prose that the parser does not take
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for command, rest in re.findall(r"^cdce (\S+)(.*)$", section, re.M):
            documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", rest))
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        parsed = {
            command: {flag for action in sub._actions if action.dest != "help" for flag in action.option_strings}
            for command, sub in subparsers.choices.items()
        }
        assert documented == parsed
        assert set(re.findall(r"--[a-z][a-z-]*", section)) == set().union(*parsed.values())

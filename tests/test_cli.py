import dataclasses
import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refimsim import cli
from refimsim.cli import load_scenario, main, parse_values, ConfigError
from refimsim.engine import Scenario


def read(path):
    with open(path, "rb") as f:
        return f.read()


class TestConfigLoading:
    def test_preset_names_resolve(self):
        for name in ("hex19", "two-cell", "hetnet5", "hetnet10", "mixed-density"):
            assert load_scenario(name).validate()

    def test_config_file_with_preset_base(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"preset": "toy2", "slots": 150, "seed": 9}))
        sc = load_scenario(str(p))
        assert sc.slots == 150 and sc.seed == 9 and sc.subchannels == 2

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"preset": "toy2", "warp_speed": 11}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_scenario(str(p))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/path.json")

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(str(p))

    def test_invalid_field_value_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"preset": "toy2", "algorithm": "psychic"}))
        with pytest.raises(ConfigError):
            load_scenario(str(p))


class TestParseValues:
    def test_comma_list(self):
        assert parse_values("1,10,50,200", "feedback_period") == [1, 10, 50, 200]

    def test_inclusive_range(self):
        assert parse_values("0..16", "split_ratio") == list(range(17))

    def test_loop_caps(self):
        assert parse_values("1x1,3x3", "loop_caps") == ["1x1", "3x3"]

    def test_fractions(self):
        assert parse_values("0.25,0.5", "deployment_fraction") == [0.25, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            parse_values(" , ", "ref_count")


class TestRunCommand:
    def test_outputs_and_reproducibility(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "toy2", "--seed", "3", "--out", str(out1)]) == 0
        assert main(["run", "toy2", "--seed", "3", "--out", str(out2)]) == 0
        assert read(out1 / "summary.json") == read(out2 / "summary.json")
        assert read(out1 / "users.csv") == read(out2 / "users.csv")
        captured = capsys.readouterr().out
        assert "GAT" in captured and "AET" in captured and "AAT" in captured

        summary = json.loads(read(out1 / "summary.json"))
        for key in ("gat_bps", "aet_bps", "aat_bps", "seed", "config_hash"):
            assert key in summary
        header = read(out1 / "users.csv").decode().splitlines()[0]
        assert header == "user_id,serving_bs,tier,R_bps,is_edge"

    def test_different_seed_different_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "toy2", "--seed", "3", "--out", str(out1)])
        main(["run", "toy2", "--seed", "4", "--out", str(out2)])
        assert read(out1 / "users.csv") != read(out2 / "users.csv")

    def test_algo_override_same_topology(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "toy2", "--algo", "eq", "--seed", "1", "--out", str(out1)])
        main(["run", "toy2", "--algo", "refim", "--seed", "1", "--out", str(out2)])
        users1 = read(out1 / "users.csv").decode().splitlines()
        users2 = read(out2 / "users.csv").decode().splitlines()
        assert [u.split(",")[:3] for u in users1] == [u.split(",")[:3] for u in users2]
        assert users1 != users2

    def test_dump_powers(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "toy2", "--slots", "140", "--dump-powers",
                     "--out", str(out)]) == 0
        lines = read(out / "powers.csv").decode().splitlines()
        assert lines[0] == "slot,bs,subchannel,watts"
        assert len(lines) == 1 + 140 * 2 * 2

    def test_dump_protocol(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "toy2", "--slots", "110", "--dump-protocol",
                     "--out", str(out)]) == 0
        lines = read(out / "protocol.csv").decode().splitlines()
        assert lines[0] == "slot,sender,receiver,message_type,bytes"
        assert any("table_refresh" in l for l in lines[1:])
        assert any("index_exchange" in l for l in lines[1:])

    def test_output_bytes_pinned(self, tmp_path):
        # sha256 of each file, recorded before the writers were rewritten
        pinned = {
            "summary.json": "a6024253aa0c0e57c5bdf81410678cd4d7ca2d30a53fcca326142dd2c0f00932",
            "users.csv": "37be22e4c5c778d695e52d675fbb8bd2385c321bf41e170f0150ad426b0f775e",
            "powers.csv": "70d1ca058735ebca2dffc904e98ada4f0dbf61c2c58cc142355f9965341d1d12",
            "protocol.csv": "0d855ae58368296828fe5c0dcdbac8131c52e3ff3eba052bc4c6f8e20f251fa9",
        }
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({"preset": "two-cell", "seed": 7, "slots": 120,
                                   "warmup_slots": 40}))
        assert main(["run", str(cfg), "--dump-powers", "--dump-protocol",
                     "--out", str(out)]) == 0
        assert {name: hashlib.sha256(read(out / name)).hexdigest()
                for name in pinned} == pinned

    def test_missing_config_exit_1_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["run", "/no/such/file.json", "--out", str(out)]) == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err


    def test_override_failing_validation_exit_1_no_outputs(self, tmp_path, capsys):
        # two-cell warms up for 500 slots, so --slots 50 breaks warmup < slots
        out = tmp_path / "never"
        assert main(["run", "two-cell", "--slots", "50", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc", [{"preset": "two-cell", "ewma_beta": 0},
                                     {"feedback_period_slots": 0},
                                     {"preset": "hex19", "inter_site_distance_m": 0},
                                     {"preset": "hetnet5", "home_size_m": -5}] + [
        {"preset": "two-cell", **field} for field in (
            {"zones": [1]}, {"center_band_m": 5}, {"subchannels": 0},
            {"users_per_group": 0}, {"sinr_gap_db": -1}, {"ref_count": 1.5},
            {"algorithm": "general", "sched_loops": 0}, {"bandwidth_hz": -1},
            {"user_speed_kmh": -3}, {"slot_duration_s": 0}, {"center_band_m": [5]},
            {"edge_band_m": [300, 900]}, {"kind": "mixed_density", "zones": [{"cols": 2}]},
            {"seed": -1}, {"shadowing_sigma_macro_db": -1}, {"initial_throughput_bps": 0},
            {"noise_figure_db": "x"}, {"slots": 600.5}, {"subchannels": 2.5},
            {"mobile_users": "no"}, {"edge_only_feedback": "false"},
            {"users_per_group": True}, {"macro_power_dbm": None}, {"carrier_freq_hz": -1},
            {"noise_figure_db": float("nan")}, {"bandwidth_hz": float("inf")},
            {"utility_alpha": float("nan")}, {"macro_power_dbm": float("-inf")},
            {"kind": "mixed_density", "zones": [{"cols": 2, "rows": 1,
                                                 "spacing_m": float("inf")}]},
            {"ref_count": -1}, {"femto_feedback_period_slots": -1},
            {"kind": "mixed_density", "zones": [{"cols": 1.5, "rows": 1, "spacing_m": 900}]})])
    def test_invalid_field_in_config_exit_1_no_outputs(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "never"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed_override_exit_1_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["run", "toy2", "--seed", "-1", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")


# Out-of-range values of the Scenario fields that have a range, on the
# splitting two-cell base of TestFuzzedConfig; the other fields are checked
# for their type and finiteness only.
OUT_OF_RANGE = {
    "kind": ["ring"], "seed": [-1], "slots": [0, 500], "warmup_slots": [-1, 1000],
    "subchannels": [0], "bandwidth_hz": [0.0, -1e6], "slot_duration_s": [0.0],
    "algorithm": ["psychic"], "sched_loops": [0], "power_loops": [0],
    "initial_power_rule": ["warm"], "spectrum_policy": ["auction"],
    "macro_subchannels": [-1, 17], "deployment_fraction": [-0.1, 1.5], "ref_count": [-1],
    "feedback_period_slots": [0], "femto_feedback_period_slots": [-1], "rings": [-1],
    "inter_site_distance_m": [0.0], "macro_users_per_cell": [0],
    "femto_users_per_cell": [0], "femtos_per_macro": [-1], "home_size_m": [-20.0],
    "bs_distance_m": [500.0], "center_band_m": [[400.0, 200.0], [200.0, 800.0]],
    "edge_band_m": [[700.0, 2100.0], [300.0, 900.0]], "users_per_group": [0],
    "zones": [[{"cols": 0, "rows": 1, "spacing_m": 900.0}],
              [{"cols": 1, "rows": 1, "spacing_m": -900.0}]],
    "user_speed_kmh": [-3.0], "carrier_freq_hz": [0.0], "shadowing_sigma_macro_db": [-1.0],
    "shadowing_sigma_femto_db": [-1.0], "sinr_gap_db": [-1.0], "ewma_beta": [0.0, 1.5],
    "initial_throughput_bps": [0.0],
}


def invalid_values(name):
    """Values of the wrong type for field `name`, judged by its default, plus
    its out-of-range values."""
    default = next(f.default for f in dataclasses.fields(Scenario) if f.name == name)
    if isinstance(default, bool):
        wrong = [0, 1, 1.0, "true", None]
    elif isinstance(default, int):
        wrong = [1.5, True, "3", None, math.nan, math.inf]
    elif isinstance(default, float):
        wrong = [True, False, "1.0", None, [1.0], math.nan, math.inf, -math.inf]
    elif isinstance(default, str):
        wrong = [5, True, None, [default]]
    else:  # the tuple fields
        wrong = [5, True, None]
    return wrong + OUT_OF_RANGE.get(name, [])


FIELD_NAMES = sorted(f.name for f in dataclasses.fields(Scenario))


# Every numeric value below a field's lower bound is rejected, however far below.
BELOW_LOWER_BOUND = {
    **dict.fromkeys(["seed", "ref_count", "femto_feedback_period_slots", "rings",
                     "femtos_per_macro"], st.integers(max_value=-1)),
    **dict.fromkeys(["subchannels", "sched_loops", "power_loops", "feedback_period_slots",
                     "macro_users_per_cell", "femto_users_per_cell", "users_per_group"],
                    st.integers(max_value=0)),
    **dict.fromkeys(["bandwidth_hz", "slot_duration_s", "inter_site_distance_m",
                     "home_size_m", "carrier_freq_hz", "initial_throughput_bps"],
                    st.floats(max_value=0.0, allow_infinity=False)),
    **dict.fromkeys(["user_speed_kmh", "sinr_gap_db", "shadowing_sigma_macro_db",
                     "shadowing_sigma_femto_db"],
                    st.floats(max_value=-math.ulp(0.0), allow_infinity=False)),
}


def run_exit_1_empty_out_dir(tmp, name, value):
    """`refimsim run` on the splitting two-cell base with field `name` set to
    `value` exits 1 and writes nothing into its output directory."""
    doc = {"preset": "two-cell", "spectrum_policy": "splitting", "macro_subchannels": 8,
           name: value}
    cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
    with open(cfg, "w") as f:
        json.dump(doc, f)
    os.mkdir(out)
    assert main(["run", cfg, "--out", out]) == 1
    assert os.listdir(out) == []


class TestFuzzedConfig:
    def test_every_range_names_a_field(self):
        assert set(OUT_OF_RANGE) <= set(FIELD_NAMES)
        assert set(BELOW_LOWER_BOUND) <= set(FIELD_NAMES)

    @pytest.mark.parametrize("name,value", [(n, v) for n in FIELD_NAMES
                                            for v in invalid_values(n)],
                             ids=[f"{n}={json.dumps(v)}" for n in FIELD_NAMES
                                  for v in invalid_values(n)])
    def test_invalid_field_exit_1_empty_out_dir(self, tmp_path, name, value):
        run_exit_1_empty_out_dir(str(tmp_path), name, value)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.sampled_from(sorted(BELOW_LOWER_BOUND)).flatmap(
        lambda name: st.tuples(st.just(name), BELOW_LOWER_BOUND[name])))
    def test_any_value_below_the_bound_exit_1(self, field):
        with tempfile.TemporaryDirectory() as tmp:
            run_exit_1_empty_out_dir(tmp, *field)


class TestConfigErrorsBeforeAnyRun:
    @pytest.mark.parametrize("argv", [
        ["sweep", "two-cell", "--axis", "split_ratio", "--values", "abc"],
        ["sweep", "two-cell", "--axis", "loop_caps", "--values", "3"],
        ["sweep", "toy2", "--axis", "loop_caps", "--values", "1..2"],
        ["sweep", "two-cell", "--axis", "split_ratio", "--values", "20"],
        ["sweep", "two-cell", "--axis", "feedback_period", "--values", "0"],
        ["sweep", "two-cell", "--axis", "deployment_fraction", "--values", "2"],
        ["sweep", "two-cell", "--axis", "feedback_period", "--values", "1,10,0"],
        ["oracle", "toy2", "--levels", "1"],
        ["run", "list-preset.json"],
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
    def test_exit_1_no_outputs(self, tmp_path, capsys, monkeypatch, argv):
        (tmp_path / "list-preset.json").write_text(json.dumps({"preset": ["hex19"]}))
        monkeypatch.chdir(tmp_path)

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the configuration was checked")

        monkeypatch.setattr(cli.engine, "run", no_run)
        assert main(argv) == 1
        assert sorted(os.listdir(tmp_path)) == ["list-preset.json"]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestSweepCommand:
    def test_row_per_value(self, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "toy2", "--axis", "ref_count", "--values", "0,1,2",
                     "--out", str(out)]) == 0
        lines = read(out / "sweep.csv").decode().splitlines()
        assert lines[0] == "axis,value,gat_bps,aet_bps,aat_bps,seed,config_hash"
        assert len(lines) == 4

    def test_split_ratio_gets_sharing_baseline_row(self, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "toy2", "--axis", "split_ratio", "--values", "0..2",
                     "--out", str(out)]) == 0
        lines = read(out / "sweep.csv").decode().splitlines()
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].split(",")[1] == "sharing"

    def test_unknown_axis_exit_1(self, tmp_path):
        assert main(["sweep", "toy2", "--axis", "frequency", "--values", "1",
                     "--out", str(tmp_path / "x")]) == 1


class TestOracleCommand:
    def test_toy_instance_ratio_ordering(self, capsys):
        assert main(["oracle", "toy2", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out
        ratios = {}
        for line in out.splitlines()[1:]:
            parts = line.split()
            ratios[parts[0]] = float(parts[2].rstrip("%"))
        assert ratios["oracle"] == pytest.approx(100.0)
        assert ratios["refim"] >= ratios["wf"] >= ratios["eq"]

    def test_spectrum_policy_confines_the_powers(self, tmp_path, capsys, monkeypatch):
        # one macro subchannel under splitting: both macro BSs may use only subchannel 0
        real, seen = cli.compare_to_oracle, {}

        def spy(gains, noise_w, cells, weights, budgets, masks, *args, **kwargs):
            seen["masks"] = masks
            return real(gains, noise_w, cells, weights, budgets, masks, *args, **kwargs)

        monkeypatch.setattr(cli, "compare_to_oracle", spy)
        cfg = tmp_path / "split.json"
        cfg.write_text(json.dumps({"preset": "toy2", "spectrum_policy": "splitting",
                                   "macro_subchannels": 1}))
        assert main(["oracle", str(cfg)]) == 0
        split = capsys.readouterr().out
        assert np.all(seen["masks"][:, 0] > 0) and np.all(seen["masks"][:, 1] == 0)
        assert main(["oracle", "toy2"]) == 0
        assert capsys.readouterr().out != split

    def test_large_instance_refused(self, capsys):
        assert main(["oracle", "hex19"]) == 1
        assert "exceeds" in capsys.readouterr().err


class TestNoChildProcessLeft:
    """The fading's worker processes end with the command that forked them."""

    @staticmethod
    def _no_child_left():
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False

    def test_runtime_error_exit_2(self, tmp_path, capsys, monkeypatch):
        from refimsim import channel

        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        forked, fork = [], channel.fork

        def counted(*args):
            forked.append(1)
            return fork(*args)

        served_rates, calls = cli.engine.scheduling.served_rates, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 8:
                raise RuntimeError("slot 7")
            return served_rates(*args)

        monkeypatch.setattr(channel, "fork", counted)
        monkeypatch.setattr(cli.engine.scheduling, "served_rates", failing)
        cfg = tmp_path / "hetnet.json"  # three fading tiles
        cfg.write_text(json.dumps({"kind": "hetnet", "rings": 0, "femtos_per_macro": 10,
                                   "subchannels": 16, "slots": 12, "warmup_slots": 0}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "slot 7" in capsys.readouterr().err
        assert len(forked) == 1 and self._no_child_left()

    def test_oracle(self, capsys, monkeypatch):
        from refimsim import channel

        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        assert main(["oracle", "toy2"]) == 0
        assert self._no_child_left()

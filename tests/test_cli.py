import json
import os

import numpy as np
import pytest

from refimsim import cli
from refimsim.cli import load_scenario, main, parse_values, ConfigError


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

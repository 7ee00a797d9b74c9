import csv
import inspect
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from interpk import cli, verify
from interpk.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return main(list(args))


@pytest.fixture
def couple_config(tmp_path):
    cfg = {
        "couple": {"norm0": {"p": 1, "weights": [1, 1, 1]},
                   "norm1": {"p": "inf", "weights": [1, 1, 1]},
                   "strategy": "exact_l1_linf", "offset": 0},
        "vector": {"offset": 0, "entries": [3, 1, 2]},
        "n_min": 0, "n_max": 2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRouting:
    def test_kprofile_json(self, couple_config, tmp_path):
        out = tmp_path / "prof.json"
        assert run_cli(["kprofile", "--config", str(couple_config),
                        "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["report"]["values"] == [3.0, 5.0, 6.0]
        assert data["version"]

    def test_kprofile_csv(self, couple_config, tmp_path):
        out = tmp_path / "prof.csv"
        assert run_cli(["kprofile", "--config", str(couple_config),
                        "--out", str(out), "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,t,K"
        assert lines[2] == "0,1.0,3.0"

    def test_interp_norm(self, tmp_path):
        cfg = {
            "couple": {"norm0": {"p": 1, "weights": [1]},
                       "norm1": {"p": 1, "weights": [1]},
                       "strategy": "power_coordinatewise"},
            "vector": {"offset": 0, "entries": [1.0]},
            "theta": 0.5, "q": 2,
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.json"
        assert run_cli(["interp-norm", "--config", str(path),
                        "--out", str(out)]) == 0
        val = json.loads(out.read_text())["report"]["value"]
        assert val == pytest.approx(math.sqrt(3.0), abs=1e-5)

    def test_snumbers_csv(self, tmp_path):
        mat = tmp_path / "m.json"
        mat.write_text(json.dumps({"rows": 2, "cols": 2,
                                   "entries": [[1, 1], [1, 1]]}))
        out = tmp_path / "sn.csv"
        assert run_cli(["snumbers", "--matrix", str(mat),
                        "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "n,a_n"
        assert float(lines[1].split(",")[1]) == pytest.approx(2.0)

    def test_witness_flags_in_csv(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli(["witness", "--p", "2", "--q", "1", "--n", "65536",
                        "--out", str(out), "--max-rows", "16"]) == 0
        text = out.read_text()
        assert "flag=diverging" in text

    def test_lift_csv(self, tmp_path):
        cfg = tmp_path / "l.json"
        cfg.write_text(json.dumps({
            "epsilon": [1.0, 0.5, 1 / 3, 0.25, 0.2, 1 / 6, 1 / 7, 0.125],
            "h": [2, 4, 6, 8, 10, 12, 14, 16], "N": 4}))
        out = tmp_path / "xi.csv"
        assert run_cli(["lift", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        xi = [float(r[2]) for r in rows]
        assert xi == pytest.approx([1.0, 0.5, 1 / 3, 0.25])

    def test_strictness_csv(self, tmp_path):
        out = tmp_path / "st.csv"
        assert run_cli(["strictness", "--theta", "0.5", "--q", "1",
                        "--n-list", "4", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert abs(float(row[3]) - 2.914) <= 1e-3

    def test_verify_pass_exit_zero(self, tmp_path):
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps({"family": "l1_geometric", "t": 0.25,
                                   "sizes": [9, 11]}))
        out = tmp_path / "r.json"
        code = run_cli(["verify", "dichotomy", "--config", str(cfg),
                        "--seed", "7", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["report"]["pass"] is True

    def test_verify_trace_on_request(self, tmp_path):
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps({"dims": [2], "count": 10, "budget": 1}))
        out, trace = tmp_path / "r.json", tmp_path / "t.csv"
        code = run_cli(["verify", "mainlema", "--config", str(cfg),
                        "--seed", "3", "--out", str(out),
                        "--trace", str(trace)])
        assert code == 0
        assert json.loads(out.read_text())["report"]["trace_path"] == str(trace)
        lines = trace.read_text().splitlines()
        assert lines[1].split(",")[0] == "index"
        assert len(lines) > 10

    def test_null_means_absent(self, couple_config, tmp_path):
        # an optional key given as null takes its default
        cfg = json.loads(couple_config.read_text())
        del cfg["n_min"], cfg["n_max"]
        outs = []
        for name, window in (("a", {}), ("b", {"n_min": None,
                                                "n_max": None})):
            couple_config.write_text(json.dumps({**cfg, **window}))
            out = tmp_path / f"{name}.json"
            assert run_cli(["kprofile", "--config", str(couple_config),
                            "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["config"]["n_min"] == -20

    def test_verify_fail_exit_three(self, tmp_path):
        # an impossible lower bound forces a failed band
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps({"family": "l1_linf", "t": 0.25,
                                   "sizes": [4], "upper_slack": -0.9}))
        out = tmp_path / "r.json"
        code = run_cli(["verify", "dichotomy", "--config", str(cfg),
                        "--seed", "7", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["report"]["pass"] is False


class TestConfigErrors:
    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"family": "l1_linf", "bogus": 1}))
        code = run_cli(["verify", "dichotomy", "--config", str(cfg),
                        "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = run_cli(["kprofile", "--config", str(cfg),
                        "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "broken.json" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"t": 0.25, "sizes": [4]}))
        code = run_cli(["verify", "dichotomy", "--config", str(cfg),
                        "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_missing_seed_is_usage_error(self, tmp_path):
        code = run_cli(["verify", "dichotomy",
                        "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_couple_without_norm0(self, couple_config, tmp_path, capsys):
        cfg = json.loads(couple_config.read_text())
        del cfg["couple"]["norm0"]
        couple_config.write_text(json.dumps(cfg))
        code = run_cli(["kprofile", "--config", str(couple_config),
                        "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "norm0" in capsys.readouterr().err

    def test_unparsable_window(self, couple_config, tmp_path):
        cfg = json.loads(couple_config.read_text())
        cfg["n_min"] = "abc"
        couple_config.write_text(json.dumps(cfg))
        code = run_cli(["kprofile", "--config", str(couple_config),
                        "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[]")
        code = run_cli(["kprofile", "--config", str(cfg),
                        "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "list.json" in capsys.readouterr().err

    def test_error_while_computing_propagates(self, couple_config, tmp_path,
                                              monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug in k_profile")

        monkeypatch.setattr(cli, "k_profile", broken)
        with pytest.raises(ValueError, match="bug in k_profile"):
            run_cli(["kprofile", "--config", str(couple_config),
                     "--out", str(tmp_path / "x.json")])


    @pytest.mark.parametrize("config, key", [
        ({"t_grid": [2.0]}, "t_grid"),
        ({"t_grid": [2.0, 4.0]}, "t_grid"),
        ({"band": [0.1]}, "band"),
        ({"band": [0.1, 1.0, 8.0]}, "band"),
        ({"band": [8.0, 0.1]}, "band"),
    ])
    def test_mainlema_refuses_bad_grid_or_band(self, config, key, tmp_path,
                                               capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"dims": [2], "count": 4, "t_grid": [0.5],
                                   **config}))
        out = tmp_path / "x.json"
        code = run_cli(["verify", "mainlema", "--config", str(cfg),
                        "--seed", "0", "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("check, config", [
        ("mainlema", {}),
        ("sum-intersection", {"theta": 0.3, "p": 1.0}),
        ("reiteration", {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5,
                         "r": 2.0}),
    ])
    def test_l1_geometric_refuses_even_dims(self, check, config, tmp_path,
                                            capsys):
        # the family's window is symmetric, so it has an odd dimension
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"family": "l1_geometric", "dims": [3, 4],
                                   **config}))
        out = tmp_path / "x.json"
        code = run_cli(["verify", check, "--config", str(cfg),
                        "--seed", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "l1_geometric" in err and "got 4" in err
        assert not out.exists()

    def test_dichotomy_refuses_even_l1_geometric_size(self, tmp_path, capsys):
        cfg = tmp_path / "d.json"
        cfg.write_text(json.dumps({"family": "l1_geometric", "t": 0.25,
                                   "sizes": [9, 10]}))
        code = run_cli(["verify", "dichotomy", "--config", str(cfg),
                        "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "got 10" in capsys.readouterr().err

    @pytest.mark.parametrize("check, config", [
        ("mainlema", {}),
        ("sum-intersection", {"theta": 0.3, "p": 1.0}),
        ("reiteration", {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5,
                         "r": 2.0}),
        ("konig", {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0}),
    ])
    def test_sample_count_below_one(self, check, config, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"count": 0, **config}))
        code = run_cli(["verify", check, "--config", str(cfg),
                        "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "count must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("check, config", [
        ("mainlema", {"dims": []}),
        ("sum-intersection", {"theta": 0.3, "p": 1.0, "dims": []}),
        ("reiteration", {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5,
                         "r": 2.0, "dims": []}),
        ("konig", {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0,
                   "lengths": [], "witness_length": 1024}),
        ("konig", {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0,
                   "lengths": [0, 4]}),
        ("konig", {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0,
                   "lengths": [-1, 4]}),
        ("sum-intersection", {"theta": 0.3, "p": 1.0, "dims": [-1, 4]}),
    ])
    def test_empty_or_nonpositive_sweep(self, check, config, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code = run_cli(["verify", check, "--config", str(cfg),
                        "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("check, config, message", [
        pytest.param("konig", {"theta": 1.5},
                     "theta must lie in (0, 1), got 1.5", id="konig-theta"),
        pytest.param("reiteration", {"theta0": 1.5},
                     "theta0 must lie in (0, 1), got 1.5",
                     id="reiteration-theta0"),
        pytest.param("konig", {"p0": 0},
                     "p0 must be positive, got 0.0", id="konig-p0-zero"),
        pytest.param("konig", {"p0": math.inf, "p1": math.inf},
                     "p must lie in (0, inf)", id="konig-p-inf"),
        pytest.param("reiteration", {"r": 0}, "r must be positive, got 0.0",
                     id="reiteration-r-zero"),
        *(pytest.param(check, {"n_min": 2, "n_max": 1}, "need n_min <= n_max",
                       id=f"{check}-empty-window")
          for check in ("sum-intersection", "konig", "reiteration")),
        # 2^n leaves the positive normal floats
        pytest.param("sum-intersection", {"n_min": -2000, "n_max": 2000},
                     "n_min = -2000 is outside [-1022, 1023]",
                     id="sum-intersection-n-min-underflows"),
        pytest.param("sum-intersection", {"n_min": -20, "n_max": 1024},
                     "n_max = 1024 is outside [-1022, 1023]",
                     id="sum-intersection-n-max-overflows"),
        # the derived profile mirrors n to -n
        pytest.param("sum-intersection", {"n_min": -20, "n_max": 19},
                     "symmetric window n_min = -n_max, got n_min = -20 and "
                     "n_max = 19", id="sum-intersection-asymmetric-window"),
        pytest.param("konig", {"lengths": [4], "n_min": -1070,
                               "n_max": 1070},
                     "n_min = -1070 is outside [-1022, 1023]",
                     id="konig-window-outside-normal-floats"),
        # inside that range, but the left side underflows to 0 everywhere
        pytest.param("reiteration", {"n_min": -1000, "n_max": -990},
                     "reiteration: no ratio left at size 4",
                     id="reiteration-no-ratio-at-a-size"),
    ])
    def test_refuses_inadmissible_parameters(self, check, config, message,
                                             tmp_path, capsys):
        base = {
            "sum-intersection": {"theta": 0.3, "p": 1.0, "dims": [4],
                                 "count": 4},
            "reiteration": {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5,
                            "r": 2.0, "dims": [4], "count": 4},
            "konig": {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0,
                      "lengths": [4, 8], "count": 4, "witness_length": 1024},
        }[check]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**base, **config}))
        out = tmp_path / "x.json"
        code = run_cli(["verify", check, "--config", str(cfg),
                        "--seed", "0", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("check, config, key", [
        pytest.param("dichotomy", {"sizes": []}, "sizes",
                     id="dichotomy-no-sizes"),
        pytest.param("distinctness", {"p_list": []}, "p_list",
                     id="distinctness-no-p"),
        pytest.param("distinctness", {"q_list": []}, "q_list",
                     id="distinctness-no-q"),
        pytest.param("distinctness", {"norm_lengths": []}, "norm_lengths",
                     id="distinctness-no-norm-lengths"),
        pytest.param("distinctness", {"norm_lengths": [0]}, "norm_lengths",
                     id="distinctness-norm-length-zero"),
        pytest.param("distinctness", {"norm_lengths": [2]}, "norm_lengths",
                     id="distinctness-norm-lengths-below-4"),
    ])
    def test_refuses_empty_or_short_lists(self, check, config, key,
                                          tmp_path, capsys):
        base = {"dichotomy": {"family": "l1_geometric", "t": 0.25},
                "distinctness": {"p_list": [2.0], "q_list": [1.0],
                                 "N": 1024}}[check]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**base, **config}))
        out = tmp_path / "x.json"
        code = run_cli(["verify", check, "--config", str(cfg),
                        "--seed", "0", "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_short_norm_length_next_to_a_long_one(self, tmp_path):
        # only the largest norm length must cover the witness's 4 terms
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p_list": [2.0], "q_list": [1.0],
                                   "N": 1024, "norm_lengths": [2, 16]}))
        out = tmp_path / "x.json"
        assert run_cli(["verify", "distinctness", "--config", str(cfg),
                        "--seed", "0", "--out", str(out)]) == 0
        pair, = json.loads(out.read_text())["report"]["pairs"]
        assert sorted(pair["ideal_norms"]) == ["16", "2"]

    def test_norm_length_beyond_a_dense_matrix(self, tmp_path):
        # the norms read the witness itself, with no L x L operator
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p_list": [2.0], "q_list": [1.0],
                                   "N": 1024, "norm_lengths": [4, 2000000]}))
        out = tmp_path / "x.json"
        assert run_cli(["verify", "distinctness", "--config", str(cfg),
                        "--seed", "0", "--out", str(out)]) == 0
        pair, = json.loads(out.read_text())["report"]["pairs"]
        assert sorted(pair["ideal_norms"]) == ["2000000", "4"]

    @pytest.mark.parametrize("key, value", [("n_min", -2000),
                                            ("n_max", 1024)])
    def test_kprofile_window_outside_normal_floats(self, key, value,
                                                   couple_config, tmp_path,
                                                   capsys):
        cfg = {**json.loads(couple_config.read_text()), key: value}
        couple_config.write_text(json.dumps(cfg))
        out = tmp_path / "x.json"
        code = run_cli(["kprofile", "--config", str(couple_config),
                        "--out", str(out)])
        assert code == 2
        assert (f"{key} = {value} is outside [-1022, 1023]"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_witness_max_rows_below_one(self, tmp_path, capsys):
        for rows in ("0", "-3"):
            code = run_cli(["witness", "--p", "2", "--q", "1", "--n", "64",
                            "--max-rows", rows,
                            "--out", str(tmp_path / "w.csv")])
            assert code == 2
            assert "--max-rows" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("command, extra", [
        ("kprofile", {}),
        ("interp-norm", {"theta": 0.5, "q": 2}),
        ("lattice-norm", {"r": 1, "lattice_weights": [1, 1, 1]}),
    ])
    @pytest.mark.parametrize("key, value", [
        ("vector", [1, 2]), ("couple", 3), ("vector", "x")])
    def test_couple_and_vector_must_be_objects(self, command, extra, key,
                                               value, couple_config,
                                               tmp_path, capsys):
        cfg = {**json.loads(couple_config.read_text()), **extra, key: value}
        if command == "lattice-norm":
            del cfg["n_max"]
        couple_config.write_text(json.dumps(cfg))
        code = run_cli([command, "--config", str(couple_config),
                        "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert f"wrongly typed config key {key}" in capsys.readouterr().err


def _readme_required_keys() -> dict:
    """check -> required keys, from the README's verify config table."""
    out = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in cli.VERIFY_CHECKS:
            out[cells[0]] = tuple(k.strip("` ") for k in cells[1].split(",")
                                  if k.strip() not in ("", "-"))
    return out


def _readme_defaults() -> dict:
    """check -> {option: default}, from the cells "`key` = `JSON`" of the
    README's verify config table."""
    out = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in cli.VERIFY_CHECKS:
            out[cells[0]] = {k: json.loads(v) for k, v in
                             re.findall(r"`(\w+)` = `([^`]*)`", cells[2])}
    return out


@pytest.mark.parametrize("check", sorted(cli.VERIFY_CHECKS))
class TestVerifyRegistry:
    """The verify config schema is read from the check's signature."""

    def run_verify(self, tmp_path, check, config):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(config))
        return run_cli(["verify", check, "--config", str(path), "--seed",
                        "1", "--out", str(tmp_path / "r.json")])

    def test_missing_required_key(self, check, tmp_path, capsys):
        _, required = cli.verify_schema(check)
        for key in required:
            config = {k: 1 for k in required if k != key}
            assert self.run_verify(tmp_path, check, config) == 2
            assert f"missing config key: {key}" in capsys.readouterr().err

    def test_unknown_key(self, check, tmp_path, capsys):
        assert self.run_verify(tmp_path, check, {"bogus": 1}) == 2
        assert "unknown config key: bogus" in capsys.readouterr().err

    def test_readme_required_keys(self, check):
        assert _readme_required_keys()[check] == cli.verify_schema(check)[1]

    def test_readme_defaults(self, check):
        defaults, required = cli.verify_schema(check)
        assert _readme_defaults()[check] == {
            k: json.loads(json.dumps(v)) for k, v in defaults.items()
            if k not in required}


# per check: a config whose one wrongly typed key is named last
WRONG_TYPES = {
    "mainlema": [{"count": "x"}, {"t_grid": 0.5}, {"band": [0.1, "8"]},
                 {"budget": 1.5}],
    "sum-intersection": [{"p": 1.0, "theta": "abc"},
                         {"theta": 0.3, "p": 1.0, "dims": [4.5]}],
    "reiteration": [{"theta0": 0.25, "theta1": 0.75, "alpha": 0.5, "r": 2.0,
                     "family": 3},
                    {"theta0": 0.25, "theta1": 0.75, "r": 2.0,
                     "alpha": [0.5]}],
    "konig": [{"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0, "lengths": 4},
              {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0,
               "witness_length": True}],
    "dichotomy": [{"family": "l1_linf", "t": 0.25, "sizes": [9],
                   "samples": "8"},
                  {"family": "l1_linf", "sizes": [9], "t": {"v": 1}}],
    "distinctness": [{"p_list": [2.0], "q_list": [1.0], "N": 1024.0},
                     {"p_list": [2.0], "N": 1024, "q_list": ["1"]}],
}


@pytest.mark.parametrize("check", sorted(cli.VERIFY_CHECKS))
def test_wrongly_typed_verify_value(check, tmp_path, capsys):
    for config in WRONG_TYPES[check]:
        path = tmp_path / "v.json"
        path.write_text(json.dumps(config))
        assert run_cli(["verify", check, "--config", str(path), "--seed",
                        "1", "--out", str(tmp_path / "r.json")]) == 2
        key = list(config)[-1]
        assert f"wrongly typed config key {key}:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_typed_values_are_echoed_unchanged(tmp_path):
    # an integer for a float fits, and null for an optional key takes its
    # default
    config = {"theta": 0.3, "p": 1, "dims": [4], "count": 4,
              "spread_growth": None}
    path, out = tmp_path / "v.json", tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert run_cli(["verify", "sum-intersection", "--config", str(path),
                    "--seed", "1", "--out", str(out)]) in (0, 3)
    echo = json.loads(out.read_text())["config"]
    assert echo["p"] == 1 and isinstance(echo["p"], int)
    assert echo["spread_growth"] == 1.1


@pytest.mark.parametrize("check, config", [
    ("dichotomy", {"family": "l1_geometric", "t": 0.25, "sizes": [9]}),
    ("distinctness", {"p_list": [2.0], "q_list": [1.0], "N": 1024}),
])
def test_trace_ignored_without_keep_trace(check, config, tmp_path):
    # these checks record no per-sample trace, so --trace writes nothing
    path, trace = tmp_path / "v.json", tmp_path / "t.csv"
    path.write_text(json.dumps(config))
    assert run_cli(["verify", check, "--config", str(path), "--seed", "1",
                    "--out", str(tmp_path / "r.json"),
                    "--trace", str(trace)]) == 0
    assert not trace.exists()
    report = json.loads((tmp_path / "r.json").read_text())["report"]
    assert "trace_path" not in report


@pytest.mark.parametrize("check, config, echoed", [
    ("dichotomy", {"family": "l1_geometric", "t": 0.25, "sizes": [9]},
     {"samples": 32, "lower": 0.99, "upper_slack": 1e-9}),
    ("distinctness", {"p_list": [2.0], "q_list": [1.0], "N": 1024},
     {"norm_lengths": [16, 64]}),
    ("sum-intersection", {"theta": 0.3, "p": 1.0, "dims": [4], "count": 4},
     {"family": "l1_linf", "n_min": -20, "n_max": 20,
      "spread_growth": 1.1}),
])
def test_config_echo_adds_signature_defaults(check, config, echoed, tmp_path):
    path, out = tmp_path / "v.json", tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert run_cli(["verify", check, "--config", str(path), "--seed", "1",
                    "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["config"]
    assert echo == {"seed": 1, **config, **echoed}


# per check: a small config, with every required key
SMALL_CONFIGS = {
    "mainlema": {"dims": [2], "count": 4, "t_grid": [0.5]},
    "sum-intersection": {"theta": 0.3, "p": 1.0, "dims": [4], "count": 4},
    "reiteration": {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5, "r": 2.0,
                    "dims": [4], "count": 4},
    "konig": {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0, "lengths": [4],
              "count": 4, "witness_length": 1024},
    "dichotomy": {"family": "l1_geometric", "t": 0.25, "sizes": [9]},
    "distinctness": {"p_list": [2.0], "q_list": [1.0], "N": 1024},
}
ECHO_CASES = [*SMALL_CONFIGS.items(),
              ("reiteration", {**SMALL_CONFIGS["reiteration"], "p": 1.0,
                               "q": 2.0, "n_min": -1, "n_max": 1})]


def _verify_echo(tmp_path, check, config, name):
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    path.write_text(json.dumps(config))
    assert run_cli(["verify", check, "--config", str(path), "--seed", "5",
                    "--out", str(out)]) in (0, 3)
    return out.read_bytes(), json.loads(out.read_text())["config"]


@pytest.mark.parametrize("check, config", ECHO_CASES)
def test_config_echo_names_every_key(check, config, tmp_path):
    # every parameter but the run keys; reiteration's p and q (default
    # None, meaning r) only when given
    params = inspect.signature(getattr(verify, cli.VERIFY_CHECKS[check]),
                               eval_str=True).parameters
    keys = set(params) - {"seed", "keep_trace"}
    if check == "reiteration":
        keys -= {"p", "q"} - set(config)
    _, echo = _verify_echo(tmp_path, check, config, "a")
    assert set(echo) == keys | {"seed"}
    for key in keys - set(config):
        assert echo[key] == json.loads(json.dumps(params[key].default))


@pytest.mark.parametrize("check, config", ECHO_CASES)
def test_config_echo_replays_byte_identically(check, config, tmp_path):
    first, echo = _verify_echo(tmp_path, check, config, "a")
    del echo["seed"]
    second, _ = _verify_echo(tmp_path, check, echo, "b")
    assert second == first


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps({"theta": 0.3, "p": 1.0, "dims": [4, 8],
                                   "count": 30}))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert run_cli(["verify", "sum-intersection", "--config", str(cfg),
                            "--seed", "7", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_csv(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli(["witness", "--p", "2", "--q", "1", "--n", "4096",
                            "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_subprocess_entry_point(self, tmp_path):
        # the installed console script routes identically
        out = tmp_path / "sp.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "interpk.cli", "strictness", "--theta",
             "0.5", "--q", "1", "--n-list", "1,2", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


def _csv_text(comments, header, rows):
    buf = io.StringIO(newline="")
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestWitnessCsv:
    """``witness`` CSVs against a rendering of the whole-array witness."""

    @staticmethod
    def expected(p, q, N, p_star, q_star, max_rows):
        n = np.arange(1, N + 1, dtype=float)
        eps = n ** (-1.0 / p) * (1.0 + np.log(n)) ** (-1.0 / q)
        summand = (n ** (1.0 / p_star - 1.0 / q_star) * eps) ** q_star
        partial = np.cumsum(summand)
        increment = float(partial[-1]) - float(partial[N // 2 - 1])
        if increment >= 0.05:
            flag = "diverging"
        elif increment <= 0.01 * float(partial[-1]):
            flag = "converging"
        else:
            flag = "indeterminate"
        stride = max(1, N // max_rows)
        idx = np.unique(np.concatenate([np.arange(0, N, stride), [N - 1]]))
        rows = [(int(n[i]), float(eps[i]), float(summand[i]),
                 float(partial[i])) for i in idx]
        return _csv_text(
            (f"interpk {cli.__version__} witness p={p} q={q}",
             f"probe p={p_star} q={q_star} flag={flag}"),
            ("n", "s_n", "summand", "partial_sum"), rows)

    @pytest.mark.parametrize("p, q, N, star, max_rows", [
        (2.0, 1.0, 65536, None, 256),           # README's call, default probe
        (2.0, 1.0, 65536, (3.0, 2.0), 256),     # --p-star/--q-star given
        (1.5, 2.0, 10000, None, 1),             # --max-rows 1
        (1.5, 2.0, 5000, (1.5, 4.0), 6000),     # --max-rows > --n
        (0.5, 0.7, 4097, None, 4097),           # --max-rows = --n
        (4.0, 3.0, 12295, (4.0, 6.0), 37),      # stride 332 across blocks
        (2.0, 1.0, 4, None, 256),
    ], ids=["default-probe", "star", "max-rows-1", "max-rows-above-n",
            "max-rows-n", "odd-stride", "n-4"])
    def test_rows_equal_whole_array_rendering(self, tmp_path, p, q, N, star,
                                              max_rows):
        args = ["witness", "--p", str(p), "--q", str(q), "--n", str(N),
                "--max-rows", str(max_rows), "--out", str(tmp_path / "w.csv")]
        if star is not None:
            args += ["--p-star", str(star[0]), "--q-star", str(star[1])]
        assert run_cli(args) == 0
        p_star, q_star = star or (p, q)
        want = self.expected(p, q, N, p_star, q_star, max_rows)
        got = (tmp_path / "w.csv").read_bytes()
        assert got.splitlines(True) == want.encode().splitlines(True)

    @pytest.mark.parametrize("extra, message", [
        (["--n", "64", "--max-rows", "0"], "--max-rows must be >= 1, got 0"),
        (["--n", "3", "--max-rows", "0"], "--max-rows must be >= 1, got 0"),
        (["--n", "3"], "need N >= 4"),
        (["--n", "-5"], "need N >= 4"),
        (["--n", "64", "--p", "0"], "p and q must be positive"),
        (["--n", "64", "--q", "-1"], "p and q must be positive"),
        (["--n", "64", "--p-star", "0"], "p_star must lie in (0, inf)"),
        (["--n", "64", "--q-star", "0"], "q_star must lie in (0, inf)"),
        (["--n", "64", "--q-star", "-1"], "q_star must lie in (0, inf)"),
        (["--n", "64", "--p-star", "inf"], "p_star must lie in (0, inf)"),
    ], ids=["max-rows-0", "max-rows-first", "n-3", "n-negative", "p-0",
            "q-negative", "p-star-0", "q-star-0", "q-star-negative",
            "p-star-inf"])
    def test_refusals_exit_two(self, tmp_path, capsys, extra, message):
        args = ["witness", "--p", "2", "--q", "1", "--out",
                str(tmp_path / "w.csv")] + extra
        assert run_cli(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()


class TestRowsFromArrays:
    """``lift`` and ``snumbers`` CSVs equal the per-cell rendering."""

    def test_lift(self, tmp_path):
        rng = np.random.default_rng(5)
        eps = np.sort(rng.uniform(0.01, 1.0, 300))[::-1]
        cfg = tmp_path / "l.json"
        cfg.write_text(json.dumps({"epsilon": eps.tolist(),
                                   "h": (2 * np.arange(1, 301)).tolist(),
                                   "N": 300}))
        out = tmp_path / "xi.csv"
        assert run_cli(["lift", "--config", str(cfg), "--out", str(out)]) == 0
        from interpk.lethargy import DecaySpec, lift_sequence
        spec = DecaySpec(eps, 2 * np.arange(1, 301))
        xi = lift_sequence(spec, 300)
        rows = [(i + 1, float(spec.epsilon[i]), float(xi[i]))
                for i in range(len(xi))]
        assert out.read_bytes() == _csv_text(
            (f"interpk {cli.__version__} lift",), ("n", "eps_n", "xi_n"),
            rows).encode()

    def test_snumbers(self, tmp_path):
        A = np.random.default_rng(6).standard_normal((9, 5))
        mat = tmp_path / "m.json"
        mat.write_text(json.dumps({"rows": 9, "cols": 5,
                                   "entries": A.tolist()}))
        out = tmp_path / "a.csv"
        assert run_cli(["snumbers", "--matrix", str(mat),
                        "--out", str(out)]) == 0
        values = np.linalg.svd(np.asarray(A.tolist()), compute_uv=False)
        rows = [(i + 1, float(v)) for i, v in enumerate(values)]
        assert out.read_bytes() == _csv_text(
            (f"interpk {cli.__version__} snumbers",), ("n", "a_n"),
            rows).encode()


@pytest.mark.parametrize("check", ["mainlema", "sum-intersection",
                                   "reiteration", "konig", "dichotomy"])
def test_negative_seed_is_a_config_error(check, tmp_path, capsys):
    path, out = tmp_path / "c.json", tmp_path / "r.json"
    path.write_text(json.dumps(SMALL_CONFIGS[check]))
    code = run_cli(["verify", check, "--config", str(path), "--seed", "-1",
                    "--out", str(out)])
    assert code == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_seedless_check_takes_any_seed(tmp_path):
    # distinctness has no seed parameter: --seed is only echoed
    path, out = tmp_path / "c.json", tmp_path / "r.json"
    path.write_text(json.dumps(SMALL_CONFIGS["distinctness"]))
    assert run_cli(["verify", "distinctness", "--config", str(path),
                    "--seed", "-1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == -1


# every command's argument list, and verify's with --trace; OUT and TRACE
# stand for the artifact paths
ARTIFACT_INPUTS = {
    "couple.json": {
        "couple": {"norm0": {"p": 1, "weights": [1, 1, 1]},
                   "norm1": {"p": "inf", "weights": [1, 1, 1]},
                   "strategy": "exact_l1_linf", "offset": 0},
        "vector": {"offset": 0, "entries": [3, 1, 2]},
        "n_min": -4, "n_max": 4},
    "interp.json": {
        "couple": {"norm0": {"p": 1, "weights": [1, 2]},
                   "norm1": {"p": 1, "weights": [2, 1]},
                   "strategy": "power_coordinatewise"},
        "vector": {"offset": 0, "entries": [1.0, 0.5]},
        "theta": 0.5, "q": 2},
    "lattice.json": {
        "couple": {"norm0": {"p": 1, "weights": [1, 1, 1]},
                   "norm1": {"p": "inf", "weights": [1, 1, 1]},
                   "strategy": "exact_l1_linf", "offset": 0},
        "vector": {"offset": 0, "entries": [3, 1, 2]},
        "r": 1, "lattice_weights": [1, 0.5, 0.25], "n_min": -1},
    "matrix.json": {"rows": 3, "cols": 2,
                    "entries": [[2, 1], [1, 3], [0.5, -1]]},
    "lift.json": {"epsilon": [1.0, 0.5, 1 / 3, 0.25, 0.2, 1 / 6],
                  "h": [2, 4, 6, 8, 10, 12], "N": 4},
    "dichotomy.json": {"family": "l1_geometric", "t": 0.25, "sizes": [9]},
    "mainlema.json": {"dims": [2], "count": 10, "budget": 1},
}
ARTIFACT_ARGVS = {
    "kprofile": ["kprofile", "--config", "couple.json", "--out", "OUT"],
    "kprofile-csv": ["kprofile", "--config", "couple.json", "--out", "OUT",
                     "--format", "csv"],
    "interp-norm": ["interp-norm", "--config", "interp.json", "--out", "OUT"],
    "lattice-norm": ["lattice-norm", "--config", "lattice.json",
                     "--out", "OUT"],
    "snumbers": ["snumbers", "--matrix", "matrix.json", "--out", "OUT"],
    "ideal-norm": ["ideal-norm", "--matrix", "matrix.json", "--p", "2",
                   "--q", "1", "--out", "OUT"],
    "witness": ["witness", "--p", "2", "--q", "1", "--n", "4096",
                "--out", "OUT"],
    "lift": ["lift", "--config", "lift.json", "--out", "OUT"],
    "strictness": ["strictness", "--theta", "0.5", "--q", "1",
                   "--n-list", "2,4,8", "--out", "OUT"],
    "verify": ["verify", "dichotomy", "--config", "dichotomy.json",
               "--seed", "7", "--out", "OUT"],
    "verify-trace": ["verify", "mainlema", "--config", "mainlema.json",
                     "--seed", "3", "--out", "OUT", "--trace", "TRACE"],
}
LONGER, SHORTER = b"x" * 65536, b"x"


class TestArtifactOverwrite:
    """An artifact written over an existing path reads as a fresh write.

    The writer overwrites in place and trims a regular file to the bytes
    written; the path's links, mode and kind of file are kept.
    """

    @pytest.fixture
    def inputs(self, tmp_path):
        folder = tmp_path / "inputs"
        folder.mkdir()
        for name, data in ARTIFACT_INPUTS.items():
            (folder / name).write_text(json.dumps(data))
        return folder

    @staticmethod
    def run(inputs, command, paths):
        """Exit code of ``command`` with its inputs in ``inputs`` and its
        artifacts at ``paths`` (OUT, and TRACE where it takes one)."""
        names = {**{name: str(inputs / name) for name in ARTIFACT_INPUTS},
                 **{key: str(path) for key, path in paths.items()}}
        return run_cli([names.get(arg, arg) for arg in ARTIFACT_ARGVS[command]])

    @classmethod
    def written(cls, inputs, command, folder, prefill=None):
        """(exit code, {OUT/TRACE: bytes}) of ``command`` writing into
        ``folder``, over files holding ``prefill`` unless it is None."""
        folder.mkdir(exist_ok=True)
        paths = {key: folder / key for key in ("OUT", "TRACE")
                 if key in ARTIFACT_ARGVS[command]}
        if prefill is not None:
            for path in paths.values():
                path.write_bytes(prefill)
        code = cls.run(inputs, command, paths)
        return code, {key: path.read_bytes() for key, path in paths.items()}

    @pytest.mark.parametrize("prefill", [LONGER, SHORTER],
                             ids=["longer", "shorter"])
    @pytest.mark.parametrize("command", ARTIFACT_ARGVS)
    def test_overwrite_equals_fresh_write(self, command, prefill, inputs,
                                          tmp_path):
        # the same paths both times: verify echoes its trace path
        fresh = self.written(inputs, command, tmp_path / "out")
        assert fresh[0] == 0
        assert self.written(inputs, command, tmp_path / "out",
                            prefill) == fresh

    @pytest.mark.parametrize("command", ["kprofile", "strictness"])
    def test_symlink_stays_and_target_holds_report(self, command, inputs,
                                                   tmp_path):
        _, fresh = self.written(inputs, command, tmp_path / "fresh")
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(LONGER)
        link.symlink_to(target)
        assert self.run(inputs, command, {"OUT": link}) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == fresh["OUT"]

    @pytest.mark.parametrize("command", ["kprofile", "strictness"])
    def test_hard_link_keeps_inode(self, command, inputs, tmp_path):
        _, fresh = self.written(inputs, command, tmp_path / "fresh")
        other, out = tmp_path / "other", tmp_path / "out"
        other.write_bytes(LONGER)
        os.link(other, out)
        inode = out.stat().st_ino
        assert self.run(inputs, command, {"OUT": out}) == 0
        assert out.stat().st_ino == inode
        assert other.read_bytes() == fresh["OUT"]

    @pytest.mark.parametrize("command", ["kprofile", "strictness"])
    def test_modes_of_new_and_existing_files(self, command, inputs,
                                             tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        new, old = tmp_path / "new", tmp_path / "old"
        old.write_bytes(LONGER)
        old.chmod(0o640)
        for out in (new, old):
            assert self.run(inputs, command, {"OUT": out}) == 0
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640

    @pytest.mark.skipif(not os.path.exists(os.devnull),
                        reason=f"no {os.devnull}")
    @pytest.mark.parametrize("command", ARTIFACT_ARGVS)
    def test_dev_null(self, command, inputs):
        devnull = pathlib.Path(os.devnull)
        assert self.run(inputs, command,
                        {"OUT": devnull, "TRACE": devnull}) == 0

    @pytest.mark.parametrize("command", ["kprofile", "strictness"])
    def test_directory_raises(self, command, inputs, tmp_path):
        with pytest.raises(IsADirectoryError):
            self.run(inputs, command, {"OUT": tmp_path})

    @pytest.mark.parametrize("command", ["kprofile", "strictness"])
    def test_read_only_file_as_plain_open_finds_it(self, command, inputs,
                                                   tmp_path):
        # what ``open(path, "w")`` does with a read-only file: refused,
        # unless the user may write anyway (root)
        _, fresh = self.written(inputs, command, tmp_path / "fresh")
        probe, out = tmp_path / "probe", tmp_path / "out"
        for path in (probe, out):
            path.write_bytes(LONGER)
            path.chmod(0o444)
        try:
            open(probe, "w").close()
        except PermissionError:
            with pytest.raises(PermissionError):
                self.run(inputs, command, {"OUT": out})
            assert out.read_bytes() == LONGER
        else:
            assert self.run(inputs, command, {"OUT": out}) == 0
            assert out.read_bytes() == fresh["OUT"]
        assert stat.S_IMODE(out.stat().st_mode) == 0o444

    def test_no_artifact_is_opened_with_o_trunc(self, inputs, tmp_path,
                                                monkeypatch):
        opened, os_open = [], os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        paths = []
        for command in ARTIFACT_ARGVS:
            code, artifacts = self.written(inputs, command, tmp_path / command,
                                           LONGER)
            assert code == 0
            paths += [str(tmp_path / command / key) for key in artifacts]
        created = {path for path, flags in opened if flags & os.O_CREAT}
        assert created >= set(paths)
        assert not [path for path, flags in opened if flags & os.O_TRUNC]

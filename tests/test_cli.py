import inspect
import json
import math
import pathlib
import re
import subprocess
import sys

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

"""CLI verbs, exit codes, file outputs, and the round-trip invariant."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import minkval
from minkval.cli import build_operator, ConfigError, main
from minkval.geometry import polytope_from_json, polytope_to_json, standard_simplex
from minkval.operators import moment_body


@pytest.fixture
def t2_file(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(polytope_to_json(standard_simplex(2, 2))))
    return str(path)


@pytest.fixture
def cube_file(tmp_path):
    from minkval.geometry import convex_hull
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)])
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(polytope_to_json(cube)))
    return str(path)


class TestCompute:
    def test_polytope_output_round_trips(self, cube_file, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["compute", "--input", cube_file, "--operator",
                   "linf_projection", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["kind"] == "polytope"
        P = polytope_from_json(obj)
        assert len(P.vertices) == 6

    def test_moment_probe_value(self, t2_file, tmp_path):
        out = tmp_path / "m.json"
        rc = main(["compute", "--input", t2_file, "--operator", "moment",
                   "--params", '{"p": 1, "sign": 1}', "--out", str(out),
                   "--probes", "8"])
        assert rc == 0
        obj = json.loads(out.read_text())
        by_x = {tuple(r["x"]): r["value"] for r in obj["probes"]}
        assert by_x[("1", "0")] == "1/6"
        assert obj["mode"] == "exact" and obj["operator"] == "moment"

    def test_probe_count_honored(self, cube_file, tmp_path):
        out = tmp_path / "p.json"
        main(["compute", "--input", cube_file, "--operator", "projection",
              "--out", str(out), "--probes", "5"])
        assert len(json.loads(out.read_text())["probes"]) == 5

    def test_origin_missing_is_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "vertices": [["1", "1"], ["2", "1"],
                                                        ["1", "2"]]}))
        rc = main(["compute", "--input", str(bad), "--operator", "projection"])
        assert rc == 1

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        rc = main(["compute", "--input", str(bad), "--operator", "projection"])
        assert rc == 2

    def test_unknown_operator_exit_2(self, t2_file):
        rc = main(["compute", "--input", t2_file, "--operator", "warp"])
        assert rc == 2

    def test_family_dimension_error(self, t2_file, tmp_path):
        rc = main(["compute", "--input", t2_file, "--operator",
                   "covariant_l1_3d",
                   "--params", '{"c": [1, 1], "a": [0, 1], "b": [0, 1]}'])
        assert rc == 1

    @pytest.mark.parametrize("operator,params", [
        ("moment", '{"p": "abc"}'),
        ("lp_projection", '{"p": [2]}'),
        ("face_sum", '{"a": ["1", "x"]}'),
        ("difference_body", '{"a": 1}'),
        ("lp_contravariant", '{"p": "abc", "c": [1, 2]}'),
        ("lp_contravariant", '{"p": 2, "c": [1, "1/0"]}'),
        ("moment", '[1, 2]'),
    ])
    def test_non_rational_params_exit_2(self, cube_file, operator, params, capsys):
        rc = main(["compute", "--input", cube_file, "--operator", operator,
                   "--params", params])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_float_mode_rejected(self, cube_file):
        # float evaluation does not exist; the mode must not pose as one
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--input", cube_file, "--operator", "projection",
                  "--mode", "float"])
        assert exc.value.code == 2


class TestVerify:
    def test_small_config_green(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "families": ["projection", "moment"], "dims": [3],
            "lambdas": ["1/2"], "scales": ["1"], "probes": 15, "depth": 1}))
        out = tmp_path / "bundle.json"
        rc = main(["verify", "--input", str(cfg), "--out", str(out)])
        assert rc == 0
        bundle = json.loads(out.read_text())
        assert bundle["ok"] is True

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("][")
        assert main(["verify", "--input", str(cfg)]) == 2


class TestFlagsOverConfig:
    @staticmethod
    def emitted(tmp_path, *argv):
        out = tmp_path / "emitted.json"
        assert main(["suite", *argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    @pytest.fixture
    def cfg_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dims": [3], "probes": 500, "seed": 11}))
        return str(path)

    def test_probes_flag_beats_config(self, tmp_path, cfg_file):
        cfg = self.emitted(tmp_path, "--input", cfg_file, "--probes", "64")
        assert cfg["probes"] == 64 and cfg["seed"] == 11

    def test_seed_flag_beats_config(self, tmp_path, cfg_file):
        cfg = self.emitted(tmp_path, "--input", cfg_file, "--seed", "20260823")
        assert cfg["seed"] == 20260823 and cfg["probes"] == 500

    def test_config_kept_without_flags(self, tmp_path, cfg_file):
        cfg = self.emitted(tmp_path, "--input", cfg_file)
        assert cfg["probes"] == 500 and cfg["seed"] == 11 and cfg["dims"] == [3]

    def test_flags_without_config(self, tmp_path):
        cfg = self.emitted(tmp_path, "--probes", "7", "--seed", "3")
        assert cfg["probes"] == 7 and cfg["seed"] == 3 and cfg["dims"] == [3, 4]

    def test_compute_default_probe_count(self, cube_file, tmp_path):
        out = tmp_path / "p.json"
        assert main(["compute", "--input", cube_file, "--operator", "projection",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["probes"]) == 64


class TestConfigBounds:
    # every bound is checked in test_harness; here the exit code
    @pytest.mark.parametrize("bad", [
        {"dims": [2]}, {"dims": [3, 2]}, {"lambdas": ["1/2", "1"]},
        {"probes": "many"}, [3, 4],
    ])
    def test_verify_exits_2(self, tmp_path, bad, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert main(["verify", "--input", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["compute", "verify", "counterexample", "suite", "slice"])
    @pytest.mark.parametrize("flag", [("--probes", "0"), ("--probes", "-2"), ("--seed", "-1")],
                             ids=["probes0", "probes-2", "seed-1"])
    def test_bad_probe_flags_exit_2(self, cube_file, tmp_path, verb, flag, capsys):
        out = tmp_path / "never.json"
        argv = [verb, *flag, "--out", str(out)]
        if verb in ("compute", "slice"):
            argv += ["--input", cube_file, "--operator", "projection"]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_directions_rejects_negative_count(self):
        from minkval.supports import probe_directions
        with pytest.raises(ValueError):
            probe_directions(3, -2)
        assert probe_directions(3, 0) == []


class TestCounterexampleVerb:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "ce.json"
        rc = main(["counterexample", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "9" in text and "margin 1" in text
        assert json.loads(out.read_text())["pass"] is True


class TestSuiteVerb:
    def test_emitted_config_feeds_verify(self, tmp_path):
        out = tmp_path / "cfg.json"
        assert main(["suite", "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())
        assert cfg["dims"] == [3, 4] and cfg["probes"] == 500


class TestSlice:
    def test_resolution_rows(self, cube_file, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["slice", "--input", cube_file, "--operator", "projection",
                   "--probes", "4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,support"
        assert len(lines) == 5

    def test_cube_projection_profile(self, cube_file, tmp_path):
        out = tmp_path / "s.csv"
        main(["slice", "--input", cube_file, "--operator", "projection",
              "--probes", "8", "--out", str(out)])
        rows = [line.split(",") for line
                in out.read_text().strip().splitlines()[1:]]
        import math
        for theta_s, h_s in rows:
            theta = float(theta_s)
            expect = 4 * (abs(math.cos(theta)) + abs(math.sin(theta)))
            assert float(h_s) == pytest.approx(expect, abs=1e-6)

    def test_degenerate_plane(self, cube_file):
        rc = main(["slice", "--input", cube_file, "--plane", "1,0,0;2,0,0"])
        assert rc == 1

    def test_zero_plane_vector(self, cube_file):
        rc = main(["slice", "--input", cube_file, "--plane", "0,0,0;1,0,0"])
        assert rc == 1

    def test_non_rational_plane_exit_2(self, cube_file, capsys):
        rc = main(["slice", "--input", cube_file, "--plane", "1,x,0;0,1,0"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_plane_vector_of_wrong_length_exit_1(self, cube_file):
        rc = main(["slice", "--input", cube_file, "--plane", "1,0;0,1,0"])
        assert rc == 1

    def test_oblique_plane(self, cube_file, tmp_path):
        """A plane whose vectors are not orthogonal is orthogonalized: the
        CSV of the cube's projection body, 4 |x|_1, in span{(1,1,0),(1,0,0)}."""
        out = tmp_path / "s.csv"
        rc = main(["slice", "--input", cube_file, "--plane", "1,1,0;1,0,0",
                   "--probes", "8", "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip().splitlines() == [
            "theta,support",
            "0.0000000000,5.656854249492",
            "0.7853981634,4.000000000000",
            "1.5707963268,5.656854249492",
            "2.3561944902,4.000000000000",
            "3.1415926536,5.656854249492",
            "3.9269908170,4.000000000000",
            "4.7123889804,5.656854249492",
            "5.4977871438,4.000000000000",
        ]


class TestOperatorResolution:
    def test_params_file(self, tmp_path, t2_file):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"p": 2, "sign": -1}')
        out = tmp_path / "o.json"
        rc = main(["compute", "--input", t2_file, "--operator", "moment",
                   "--params", str(pfile), "--out", str(out), "--probes", "4"])
        assert rc == 0
        obj = json.loads(out.read_text())
        T = standard_simplex(2, 2)
        h = moment_body(T, 2, -1)
        row = obj["probes"][0]
        x = tuple(int(c) for c in row["x"])
        assert Fraction(row["value"]) == h.value(x)

    def test_build_operator_rejects_bad_sign(self):
        with pytest.raises(ConfigError):
            build_operator("moment", {"sign": 2})

    def test_console_script(self, cube_file, tmp_path):
        # the child imports the same minkval as the tests, installed or not
        src = os.path.dirname(os.path.dirname(minkval.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "c.json"
        proc = subprocess.run(
            [sys.executable, "-m", "minkval.cli", "compute", "--input",
             cube_file, "--operator", "polar", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert json.loads(out.read_text())["kind"] == "polytope"


class TestNoNumpyOnExactPath:
    """numpy is imported only by the Monte-Carlo moments and the random
    sphere pairs of the subadditivity check; importing the package or
    running an exact verb must not load it."""

    @staticmethod
    def child_env():
        src = os.path.dirname(os.path.dirname(minkval.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return {**os.environ, "PYTHONPATH": path}

    def test_import(self):
        code = "import sys, minkval, minkval.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=self.child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_compute_verb(self, cube_file, tmp_path):
        out = tmp_path / "c.json"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "minkval.cli", "compute", "--input",
             cube_file, "--operator", "projection", "--out", str(out)],
            capture_output=True, text=True, env=self.child_env())
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(out.read_text())["probes"]) == 64
        loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")]
        assert "minkval.harness" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "numpy"]

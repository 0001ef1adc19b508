import json

import numpy as np
import pytest

from birkdag import io as bio
from birkdag.cli import main
from birkdag.sem import Permutation, generate_dag


class TestMatrixCsv:
    def test_round_trip_exact(self, rng):
        a = rng.standard_normal((4, 6)) * np.exp(rng.uniform(-8, 8, (4, 6)))
        text = bio.matrix_to_csv(a)
        assert np.array_equal(bio.matrix_from_csv(text), a)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="ragged"):
            bio.matrix_from_csv("1,2\n3\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bio.matrix_from_csv("\n")


class TestPermutationCsv:
    def test_one_based_round_trip(self):
        perm = Permutation(np.array([2, 0, 1]))
        text = bio.permutation_to_csv(perm)
        assert text == "3,1,2\n"
        assert np.array_equal(bio.permutation_from_csv(text).pi, perm.pi)


class TestInstanceJson:
    def test_round_trip(self):
        inst = generate_dag(6, 5, np.random.default_rng(0))
        text = bio.instance_to_json(inst, s=5, seed=0)
        back = bio.instance_from_json(text)
        assert np.array_equal(back.adjacency.b, inst.adjacency.b)
        assert np.array_equal(back.ordering.pi, inst.ordering.pi)
        assert np.array_equal(back.noise.omega2, inst.noise.omega2)


@pytest.fixture
def workdir(tmp_path):
    rc = main(["generate", "--p", "5", "--s", "3", "--n", "120", "--seed", "7",
               "--out-dir", str(tmp_path / "gen")])
    assert rc == 0
    return tmp_path


class TestCliGenerate:
    def test_writes_all_files(self, workdir):
        gen = workdir / "gen"
        for name in ("instance.json", "data.csv", "truth_b.csv", "truth_perm.csv"):
            assert (gen / name).exists()
        data = bio.matrix_from_csv((gen / "data.csv").read_text())
        assert data.shape == (120, 5)

    def test_zero_edges_matrix(self, tmp_path):
        assert main(["generate", "--p", "5", "--s", "0", "--n", "10", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        b = bio.matrix_from_csv((tmp_path / "truth_b.csv").read_text())
        assert np.count_nonzero(b) == 0

    def test_deterministic(self, tmp_path):
        for d in ("a", "b"):
            main(["generate", "--p", "4", "--s", "2", "--n", "30", "--seed", "5",
                  "--out-dir", str(tmp_path / d)])
        for name in ("instance.json", "data.csv", "truth_b.csv", "truth_perm.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_negative_s_exits_2(self, tmp_path):
        assert main(["generate", "--p", "5", "--s", "-1", "--n", "10",
                     "--out-dir", str(tmp_path)]) == 2


class TestCliFit:
    def test_fit_writes_json(self, workdir, tmp_path):
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(workdir / "gen" / "data.csv"),
                   "--lambda", "0.2", "--gamma", "2.0", "--seed", "1",
                   "--out", str(out)])
        assert rc in (0, 4)
        doc = json.loads(out.read_text())
        assert doc["p"] == 5 and doc["n"] == 120
        assert len(doc["permutation"]) == 5
        assert "ebic" in doc and "score_trace" in doc

    def test_large_lambda_empty_b_hat(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "ind.csv"
        data.write_text(bio.matrix_to_csv(rng.standard_normal((400, 4))))
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--lambda", "2.0", "--gamma", "2.0",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["b_hat"] == []

    def test_gamma_below_one_exits_5(self, workdir, tmp_path):
        rc = main(["fit", "--data", str(workdir / "gen" / "data.csv"),
                   "--lambda", "0.2", "--gamma", "0.5", "--out", str(tmp_path / "x.json")])
        assert rc == 5

    def test_malformed_csv_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        rc = main(["fit", "--data", str(bad), "--lambda", "0.2", "--gamma", "2.0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_missing_file_exits_3(self, tmp_path):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--lambda", "0.2",
                   "--gamma", "2.0", "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_cli_matches_in_process_fit(self, workdir, tmp_path):
        # the data CSV round-trips exactly, so the CLI result reproduces an
        # in-process fit on the loaded matrix bit for bit
        from birkdag.pipeline import RrcfConfig, fit
        from birkdag.scoring import McpParams
        from birkdag.sem import DataMatrix

        out = tmp_path / "fit.json"
        main(["fit", "--data", str(workdir / "gen" / "data.csv"),
              "--lambda", "0.25", "--gamma", "2.0", "--seed", "3",
              "--outer-k-max", "6", "--out", str(out)])
        doc = json.loads(out.read_text())
        x = bio.matrix_from_csv((workdir / "gen" / "data.csv").read_text())
        res = fit(DataMatrix(x), RrcfConfig(mcp=McpParams(0.25, 2.0), seed=3, outer_k_max=6))
        assert doc["ebic"] == res.ebic_value
        assert doc["permutation"] == [int(i) + 1 for i in res.perm_hat.pi]
        got_lhat = {(i, j): v for i, j, v in doc["l_hat"]}
        for i in range(res.l_hat.p):
            for j in range(i + 1):
                if res.l_hat.l[i, j] != 0.0:
                    assert got_lhat[(i + 1, j + 1)] == res.l_hat.l[i, j]


class TestCliTune:
    def test_single_point_grid(self, workdir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.3], "gammas": [2.0]}))
        out = tmp_path / "tune"
        rc = main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                   "--grid", str(grid), "--out", str(out)])
        assert rc == 0
        best = json.loads((out / "best_params.json").read_text())
        assert best["lambda"] == 0.3
        table = (out / "tuning_table.csv").read_text().splitlines()
        assert table[0] == "lambda,gamma,mu,support,ebic"
        assert len(table) == 2

    def test_unknown_grid_key_exits_2(self, workdir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.3], "gammas": [2.0], "etas": [0.1]}))
        rc = main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                   "--grid", str(grid), "--out", str(tmp_path / "t")])
        assert rc == 2

    def test_gamma_bic_out_of_range_exits_2(self, workdir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.3], "gammas": [2.0]}))
        rc = main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                   "--grid", str(grid), "--gamma-bic", "1.5", "--out", str(tmp_path / "t")])
        assert rc == 2


class TestCliProject:
    def test_identity_input(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(bio.matrix_to_csv(np.eye(3)))
        out = tmp_path / "proj.csv"
        assert main(["project", "--matrix", str(m), "--out", str(out)]) == 0
        assert np.abs(bio.matrix_from_csv(out.read_text()) - np.eye(3)).max() <= 1e-10

    def test_scaled_identity_projects_to_identity(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(bio.matrix_to_csv(2.0 * np.eye(2)))
        out = tmp_path / "proj.csv"
        assert main(["project", "--matrix", str(m), "--eps", "1e-12", "--out", str(out)]) == 0
        assert np.abs(bio.matrix_from_csv(out.read_text()) - np.eye(2)).max() <= 1e-9

    def test_non_square_exits_2(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("1,2,3\n4,5,6\n")
        assert main(["project", "--matrix", str(m), "--out", str(tmp_path / "o.csv")]) == 2


class TestCliSamplePerms:
    def test_permutation_input(self, tmp_path):
        m = tmp_path / "perm.csv"
        m.write_text(bio.matrix_to_csv(np.eye(4)[[2, 0, 3, 1]]))
        out = tmp_path / "perms.csv"
        assert main(["sample-perms", "--matrix", str(m), "--n-samples", "5",
                     "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(line == "3,1,4,2" for line in lines)

    def test_non_ds_input_exits_2(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(bio.matrix_to_csv(np.full((3, 3), 0.5)))
        assert main(["sample-perms", "--matrix", str(m), "--n-samples", "2",
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestCliBenchmark:
    def spec_json(self, tmp_path, **kw):
        doc = {"settings": [[8, 8]], "n": 100, "reps": 1, "seed": 4,
               "grid": {"lambdas": [0.2, 0.4], "gammas": [2.0]}, "outer_k_max": 3}
        doc.update(kw)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_tiny_spec_two_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["benchmark", "--spec", str(self.spec_json(tmp_path)), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + rep + mean
        assert lines[0].startswith("setting_p,setting_s,rep,seed")

    def test_deterministic_bytes(self, tmp_path):
        spec = self.spec_json(tmp_path)
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            main(["benchmark", "--spec", str(spec), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["--threads", "0", "benchmark", "--spec", str(self.spec_json(tmp_path)),
                   "--out", str(out)])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_setting_exits_2(self, tmp_path):
        spec = self.spec_json(tmp_path, settings=[[1, 0]])
        rc = main(["benchmark", "--spec", str(spec), "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestCliHelp:
    @pytest.mark.parametrize("cmd", ["generate", "fit", "tune", "project",
                                     "sample-perms", "benchmark"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

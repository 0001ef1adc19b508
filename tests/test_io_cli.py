import json

import numpy as np
import pytest

from birkdag import io as bio
from birkdag.cli import main
from birkdag.metrics import BenchmarkSpec
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
        text = bio.instance_to_json(inst, seed=0)
        back = bio.instance_from_json(text)
        assert np.array_equal(back.adjacency.b, inst.adjacency.b)
        assert np.array_equal(back.ordering.pi, inst.ordering.pi)
        assert np.array_equal(back.noise.omega2, inst.noise.omega2)
        assert back.expected_edges == inst.expected_edges == 5

    def test_s_is_read_as_a_count(self):
        # JSON may write the count 2 as 2.0; a fractional s used to be
        # truncated to 2
        doc = json.loads(bio.instance_to_json(generate_dag(4, 2, np.random.default_rng(1)), seed=1))
        doc["s"] = 2.0
        back = bio.instance_from_json(json.dumps(doc))
        assert type(back.expected_edges) is int and back.expected_edges == 2
        doc["s"] = 2.5
        with pytest.raises(ValueError, match="s must be an integer, got 2.5"):
            bio.instance_from_json(json.dumps(doc))


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

    @pytest.mark.parametrize("p, n", [("1", "10"), ("5", "0")])
    def test_out_of_range_size_exits_2(self, tmp_path, p, n):
        assert main(["generate", "--p", p, "--s", "0", "--n", n,
                     "--out-dir", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())


class TestTriplets:
    def test_row_major_nonzeros_without_signed_zeros(self):
        a = np.array([[1.5, 0.0, -0.0], [0.0, -0.0, 2.0], [-3.0, 1e-300, 0.0]])
        got = bio._triplets(a)
        assert got == [[1, 1, 1.5], [2, 3, 2.0], [3, 1, -3.0], [3, 2, 1e-300]]
        assert all(type(i) is int and type(j) is int and type(x) is float for i, j, x in got)
        assert bio._triplets(np.zeros((2, 2))) == []


class TestCliFit:
    def test_fit_writes_json(self, workdir, tmp_path, capsys):
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(workdir / "gen" / "data.csv"),
                   "--lambda", "0.2", "--gamma", "2.0", "--seed", "1",
                   "--out", str(out)])
        assert rc in (0, 4)
        doc = json.loads(out.read_text())
        assert doc["p"] == 5 and doc["n"] == 120
        assert len(doc["permutation"]) == 5
        assert "ebic" in doc and "score_trace" in doc
        # the printed flag names what the JSON's "converged" records
        assert f"; ordering_fixed_point={doc['converged']}\n" in capsys.readouterr().out

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
        for gamma in ("0.5", "1.0"):
            rc = main(["fit", "--data", str(workdir / "gen" / "data.csv"),
                       "--lambda", "0.2", "--gamma", gamma, "--out", str(tmp_path / "x.json")])
            assert rc == 5

    @pytest.mark.parametrize("change", [
        {"--gamma": "nan"}, {"--gamma": "inf"},
        {"--lambda": "-0.1"}, {"--lambda": "nan"},
        {"--mu": "-1"},
    ])
    def test_invalid_setting_exits_2_before_reading_data(self, tmp_path, change):
        # the data file does not exist, so reading it would exit 3
        settings = {"--lambda": "0.2", "--gamma": "2.0", **change}
        args = [item for pair in settings.items() for item in pair]
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), *args,
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

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

    def test_config_record_has_one_key_per_setting(self, workdir, tmp_path):
        # every RrcfConfig value is recorded, mcp as lambda and gamma
        import dataclasses

        from birkdag.pipeline import RrcfConfig

        out = tmp_path / "fit.json"
        main(["fit", "--data", str(workdir / "gen" / "data.csv"), "--lambda", "0.25",
              "--gamma", "3.0", "--mu", "0.2", "--seed", "3", "--outer-k-max", "2",
              "--gamma-bic", "0.25", "--init", "identity", "--out", str(out)])
        cfg = json.loads(out.read_text())["config"]
        names = {f.name for f in dataclasses.fields(RrcfConfig)} - {"mcp"}
        assert set(cfg) == names | {"lambda", "gamma"}
        assert cfg == {"lambda": 0.25, "gamma": 3.0, "mu": 0.2, "seed": 3,
                       "outer_k_max": 2, "gamma_bic": 0.25, "init": "identity"}

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


def capped_solver(monkeypatch, name):
    """Run the pipeline's L-step entry ``name`` at a one-sweep cap."""
    from birkdag import pipeline
    from birkdag.solver import SolverSettings

    real = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name,
                        lambda *args: real(*args, settings=SolverSettings(k_max=1)))


class TestCliUnconvergedRows:
    def test_fit_exits_4_and_names_the_l_steps(self, workdir, tmp_path, capsys, monkeypatch):
        from birkdag.pipeline import RrcfConfig, fit
        from birkdag.scoring import McpParams
        from birkdag.sem import DataMatrix

        capped_solver(monkeypatch, "estimate_cholesky")
        data = workdir / "gen" / "data.csv"
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(data), "--lambda", "0.2", "--gamma", "2.0",
                   "--outer-k-max", "3", "--out", str(out)])
        assert rc == 4 and out.exists()
        x = bio.matrix_from_csv(data.read_text())
        res = fit(DataMatrix(x), RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=3))
        rows = res.diagnostics["solver_unconverged_rows"]
        assert rows[0] > 0
        want = [f"warning: L-step {k} of {len(rows)} left {r} row(s) unconverged at the sweep cap"
                for k, r in enumerate(rows, 1) if r]
        assert capsys.readouterr().err.splitlines() == want

    def test_tune_exits_4_and_names_the_cells(self, workdir, tmp_path, capsys, monkeypatch):
        from birkdag.pipeline import TuningGrid, tune
        from birkdag.sem import DataMatrix

        capped_solver(monkeypatch, "estimate_cholesky_path")
        data = workdir / "gen" / "data.csv"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.2, 0.4], "gammas": [2.0, 3.0]}))
        out = tmp_path / "tune"
        rc = main(["tune", "--data", str(data), "--grid", str(grid), "--out", str(out)])
        assert rc == 4 and (out / "tuning_table.csv").exists()
        x = bio.matrix_from_csv(data.read_text())
        _, table = tune(DataMatrix(x), TuningGrid(lambdas=(0.2, 0.4), gammas=(2.0, 3.0)))
        assert all(row["unconverged_rows"] > 0 for row in table)
        want = [f"warning: cell lambda={row['lam']} gamma={row['gamma']} left "
                f"{row['unconverged_rows']} L-step row(s) unconverged at the sweep cap"
                for row in table]
        assert capsys.readouterr().err.splitlines() == want

    def test_uncapped_tune_exits_0_without_warnings(self, workdir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.2, 0.4], "gammas": [2.0]}))
        rc = main(["tune", "--data", str(workdir / "gen" / "data.csv"), "--grid", str(grid),
                   "--out", str(tmp_path / "tune")])
        assert rc == 0 and capsys.readouterr().err == ""


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
        assert table[0] == "lambda,gamma,support,ebic,sweeps_max,unconverged_rows,status"
        assert len(table) == 2
        assert table[1].startswith("0.3,2.0,") and table[1].endswith(",0,ok")

    def test_seed_is_not_an_option(self, workdir, tmp_path):
        # tune is deterministic without one: no step of it draws at random
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.3], "gammas": [2.0]}))
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                  "--grid", str(grid), "--seed", "0", "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert not (tmp_path / "t").exists()

    def test_unknown_grid_key_exits_2(self, workdir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.3], "gammas": [2.0], "etas": [0.1]}))
        rc = main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                   "--grid", str(grid), "--out", str(tmp_path / "t")])
        assert rc == 2

    def test_scalar_grid_list_exits_2(self, workdir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": 0.3, "gammas": [2.0]}))
        rc = main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                   "--grid", str(grid), "--out", str(tmp_path / "t")])
        assert rc == 2

    def test_gamma_bic_out_of_range_exits_2(self, workdir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.3], "gammas": [2.0], "gamma_bic": 1.5}))
        rc = main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                   "--grid", str(grid), "--out", str(tmp_path / "t")])
        assert rc == 2

    def test_grid_gamma_bic_is_used(self, workdir, tmp_path):
        # the grid JSON's gamma_bic scores the cells and is reported
        tables = {}
        for name, extra in (("default", {}), ("one", {"gamma_bic": 1.0})):
            grid = tmp_path / f"{name}.json"
            grid.write_text(json.dumps({"lambdas": [0.05, 0.3], "gammas": [2.0], **extra}))
            out = tmp_path / name
            assert main(["tune", "--data", str(workdir / "gen" / "data.csv"),
                         "--grid", str(grid), "--out", str(out)]) == 0
            rows = (out / "tuning_table.csv").read_text().splitlines()[1:]
            tables[name] = [row.split(",")[3] for row in rows]  # the ebic column
        assert tables["one"] != tables["default"]
        best = json.loads((tmp_path / "one" / "best_params.json").read_text())
        assert best["gamma_bic"] == 1.0


class TestCliGuard:
    @pytest.mark.parametrize("command", ["fit", "tune"])
    def test_data_dependent_guard_exits_5(self, workdir, tmp_path, capsys, command):
        # gamma 1.5 lies in the MCP domain, but with the data scaled by 0.1
        # it falls below 1/(2 min S_ii), which only the solver can check
        from birkdag.sem import DataMatrix, sample_covariance

        x = 0.1 * bio.matrix_from_csv((workdir / "gen" / "data.csv").read_text())
        data = tmp_path / "scaled.csv"
        data.write_text(bio.matrix_to_csv(x))
        guard = 1.0 / (2.0 * np.diag(sample_covariance(DataMatrix(x)).s).min())
        assert 1.5 < guard
        out = tmp_path / "out"
        if command == "fit":
            args = ["--lambda", "0.2", "--gamma", "1.5"]
        else:
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"lambdas": [0.2], "gammas": [1.5]}))
            args = ["--grid", str(grid)]
        capsys.readouterr()
        assert main([command, "--data", str(data), *args, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == f"error: gamma=1.5 must exceed max(1/(2 min S^P_ii), 1) = {guard}\n"
        assert not out.exists()

    def test_tune_writes_every_cell_and_exits_4_when_one_fails(self, workdir, tmp_path, capsys):
        from birkdag.pipeline import TuningGrid, tune
        from birkdag.sem import DataMatrix, sample_covariance

        x = 0.1 * bio.matrix_from_csv((workdir / "gen" / "data.csv").read_text())
        data = tmp_path / "scaled.csv"
        data.write_text(bio.matrix_to_csv(x))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambdas": [0.2], "gammas": [1.5, 500.0]}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["tune", "--data", str(data), "--grid", str(grid), "--out", str(out)]) == 4
        _, table = tune(DataMatrix(x), TuningGrid(lambdas=(0.2,), gammas=(500.0,)))
        assert (out / "tuning_table.csv").read_text().splitlines()[1:] == [
            "0.2,1.5,,,,,guard",
            ",".join(str(table[0][k]) for k in (
                "lam", "gamma", "support", "ebic", "sweeps_max", "unconverged_rows", "status")),
        ]
        assert json.loads((out / "best_params.json").read_text())["gamma"] == 500.0
        guard = 1.0 / (2.0 * np.diag(sample_covariance(DataMatrix(x)).s).min())
        assert capsys.readouterr().err == (
            "warning: cell lambda=0.2 gamma=1.5 was not solved: "
            f"gamma=1.5 must exceed max(1/(2 min S^P_ii), 1) = {guard}\n")

    @pytest.mark.parametrize("command", ["tune", "benchmark"])
    def test_gamma_at_one_in_json_exits_5(self, workdir, tmp_path, capsys, command):
        # the McpParams check that makes fit --gamma 1.0 exit 5, met while
        # the grid JSON or the spec's grid is read
        doc = tmp_path / "doc.json"
        if command == "tune":
            doc.write_text(json.dumps({"gammas": [1.0]}))
            args = ["--data", str(workdir / "gen" / "data.csv"), "--grid", str(doc)]
        else:
            doc.write_text(json.dumps({"settings": [[8, 8]], "grid": {"gammas": [1.0]}}))
            args = ["--spec", str(doc)]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *args, "--out", str(out)]) == 5
        assert capsys.readouterr().err == "error: gamma must exceed 1, got 1.0\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("eps", ["nan", "0"])
    def test_nonpositive_eps_exits_2(self, tmp_path, eps):
        m = tmp_path / "m.csv"
        m.write_text(bio.matrix_to_csv(np.eye(3)))
        out = tmp_path / "o.csv"
        assert main(["project", "--matrix", str(m), "--eps", eps, "--out", str(out)]) == 2
        assert not out.exists()


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

    def test_output_bytes(self, tmp_path):
        # rank matching on 0.5 P1 + 0.25 P2 + 0.25 P3, pinned from the
        # one-draw-per-sample form of the sampler
        m = tmp_path / "ds.csv"
        m.write_text("0.25,0.0,0.5,0.0,0.25\n0.5,0.25,0.0,0.25,0.0\n0.0,0.0,0.5,0.0,0.5\n"
                     "0.0,0.75,0.0,0.25,0.0\n0.25,0.0,0.0,0.5,0.25\n")
        out = tmp_path / "perms.csv"
        assert main(["sample-perms", "--matrix", str(m), "--n-samples", "8",
                     "--seed", "11", "--out", str(out)]) == 0
        assert out.read_text() == ("3,5,1,2,4\n1,2,5,4,3\n3,1,4,5,2\n3,5,1,2,4\n"
                                   "3,1,4,5,2\n1,3,5,2,4\n4,5,2,3,1\n2,1,4,3,5\n")

    def test_non_ds_input_exits_2(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(bio.matrix_to_csv(np.full((3, 3), 0.5)))
        assert main(["sample-perms", "--matrix", str(m), "--n-samples", "2",
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_nan_input_exits_2(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("nan,nan\nnan,nan\n")
        out = tmp_path / "o.csv"
        assert main(["sample-perms", "--matrix", str(m), "--n-samples", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_zero_samples_exits_2(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(bio.matrix_to_csv(np.eye(3)))
        out = tmp_path / "o.csv"
        assert main(["sample-perms", "--matrix", str(m), "--n-samples", "0",
                     "--out", str(out)]) == 2
        assert not out.exists()


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

    def test_unknown_spec_key_exits_2(self, tmp_path):
        spec = self.spec_json(tmp_path, outer_kmax=3)
        out = tmp_path / "o.csv"
        assert main(["benchmark", "--spec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("change, named", [
        ({"outer_k_max": 0}, "outer_k_max"),
        ({"seed": -1}, "seed"),
        ({"grid": {"lambdas": [-0.3]}}, "lambda"),
        ({"grid": {"lambdas": [float("nan")]}}, "lambda"),
        ({"grid": {"lambdas": [float("inf")]}}, "lambda"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, change, named):
        # rejected when the spec is read, before any replicate runs
        spec = self.spec_json(tmp_path, **change)
        out = tmp_path / "o.csv"
        assert main(["benchmark", "--spec", str(spec), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"measure_runtime": "false"},
        {"measure_runtime": 0},
        {"n": 100.5},
        {"reps": 1.7},
        {"reps": True},
        {"seed": "4"},
        {"outer_k_max": 2.5},
        {"settings": [[8.5, 8]]},
        {"grid": {"lambdas": [True]}},
        {"grid": {"gamma_bic": "0.5"}},
    ])
    def test_wrong_scalar_type_exits_2(self, tmp_path, capsys, change):
        spec = self.spec_json(tmp_path, **change)
        out = tmp_path / "o.csv"
        assert main(["benchmark", "--spec", str(spec), "--out", str(out)]) == 2
        assert f"spec key {next(iter(change))!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, named", [
        ("tune", [], "the grid must be a JSON object, got list"),
        ("benchmark", [[8, 8]], "the spec must be a JSON object, got list"),
        ("benchmark", {"settings": [[8, 8]], "grid": []},
         "spec key 'grid': the grid must be a JSON object, got list"),
    ])
    def test_non_object_document_exits_2(self, workdir, tmp_path, capsys, command, doc, named):
        # a grid of [] used to end in an AttributeError traceback
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        if command == "tune":
            args = ["--data", str(workdir / "gen" / "data.csv"), "--grid", str(path)]
        else:
            args = ["--spec", str(path)]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *args, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_counts_read_as_integers(self):
        doc = {"settings": [[8.0, 8]], "n": 100.0, "reps": 1, "seed": 4.0, "outer_k_max": 3.0}
        spec = bio.spec_from_json(json.dumps(doc))
        assert spec == BenchmarkSpec(settings=((8, 8),), n=100, reps=1, seed=4, outer_k_max=3)
        assert all(type(v) is int for v in (spec.n, spec.seed, spec.outer_k_max, *spec.settings[0]))

    def test_each_failed_replicate_named(self, tmp_path, capsys, monkeypatch):
        from birkdag import metrics

        real_fit = metrics.fit

        def fit_failing_rep_1(data, cfg):
            if cfg.seed == 4_000_001:
                raise RuntimeError("boom")
            return real_fit(data, cfg)

        monkeypatch.setattr(metrics, "fit", fit_failing_rep_1)
        out = tmp_path / "o.csv"
        rc = main(["benchmark", "--spec", str(self.spec_json(tmp_path, reps=2)), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["replicate failed: setting (8,8) rep 1 seed 4000001: RuntimeError: boom",
                       "1 replicate(s) failed"]
        rows = out.read_text().splitlines()
        assert rows[2].startswith("8,8,1,4000001,,,,,,") and rows[2].endswith(",error")


class TestCliHelp:
    @pytest.mark.parametrize("cmd", ["generate", "fit", "tune", "project",
                                     "sample-perms", "benchmark"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

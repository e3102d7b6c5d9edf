"""End-to-end CLI runs: file layout, headers, determinism, exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import vmpg.cli
from vmpg import __version__
from vmpg.cli import (
    _assemble_spec,
    _build_problem,
    _config_hash,
    _load_problem_file,
    build_parser,
    main,
)
from vmpg.problems import generate_qp, generate_regression


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def data_rows(path):
    """CSV rows with comments and the column header stripped."""
    lines = [ln for ln in read_lines(path) if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def assert_same_problem(got, want):
    """The two problem dataclasses are of one type and equal field by field."""
    assert type(got) is type(want)
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(got, name), value)
        else:
            assert getattr(got, name) == value, name


def snapshot(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestBench:
    def test_grid_layout_headers_and_determinism(self, tmp_path):
        out = str(tmp_path / "o")
        argv = [
            "bench", "--kind", "qp", "--n", "30", "--kappa", "100",
            "--seed", "0,1", "--method", "vmpg-dbb,pg-bb",
            "--out", out, "--timing", "none",
        ]
        assert main(argv) == 0
        names = sorted(os.listdir(out))
        assert names == [
            "summary.csv",
            "trace_pg-bb_0.csv",
            "trace_pg-bb_1.csv",
            "trace_vmpg-dbb_0.csv",
            "trace_vmpg-dbb_1.csv",
        ]

        lines = read_lines(os.path.join(out, "trace_vmpg-dbb_0.csv"))
        assert lines[0] == f"# vmpg {__version__}"
        assert lines[1].startswith("# config: ") and len(lines[1].split()[-1]) == 12
        assert lines[2] == "# rng: numpy-pcg64"
        assert lines[3] == "# seed: 0"
        assert lines[4] == (
            "iter,objective,grad_map_norm,step_norm_u,backtracks,u_min,u_max,wall_ms"
        )

        header, rows = data_rows(os.path.join(out, "summary.csv"))
        assert header == [
            "method", "seed", "iterations", "wall_ms", "final_objective",
            "status", "iter_mean", "iter_stddev",
        ]
        seeds = [r[1] for r in rows]
        assert seeds.count("aggregate") == 2
        assert len(rows) == 6
        for row in rows:
            if row[1] == "aggregate":
                assert row[6] != "" and row[7] != ""
            else:
                assert row[5] == "converged"
                assert row[6] == "" and row[7] == ""

        first = snapshot(out)
        assert main(argv) == 0
        assert snapshot(out) == first

    def test_timing_none_zeroes_wall_clock(self, tmp_path):
        out = str(tmp_path / "o")
        assert main([
            "bench", "--kind", "qp", "--n", "20", "--kappa", "10",
            "--seed", "0", "--method", "vmpg-dbb", "--out", out,
            "--timing", "none",
        ]) == 0
        _, rows = data_rows(os.path.join(out, "trace_vmpg-dbb_0.csv"))
        assert all(r[7] == "0" for r in rows)

    def test_floats_round_trip_at_full_precision(self, tmp_path):
        out = str(tmp_path / "o")
        assert main([
            "bench", "--kind", "ls", "--n", "10", "--n-samples", "60",
            "--seed", "0", "--method", "vmpg-dbb", "--out", out,
        ]) == 0
        _, rows = data_rows(os.path.join(out, "trace_vmpg-dbb_0.csv"))
        for cell in (rows[0][1], rows[-1][1], rows[-1][2]):
            assert format(float(cell), ".17g") == cell

    def test_unconverged_run_exits_two(self, tmp_path):
        out = str(tmp_path / "o")
        code = main([
            "bench", "--kind", "qp", "--n", "30", "--kappa", "1000",
            "--seed", "0", "--method", "vmpg-dbb", "--out", out,
            "--max-iter", "2", "--eps-tol", "1e-12",
        ])
        assert code == 2
        _, rows = data_rows(os.path.join(out, "summary.csv"))
        assert rows[0][5] == "max-iter"
        assert rows[1][5] == "failed"


class TestSweepMu:
    def test_long_table_covers_the_grid(self, tmp_path):
        out = str(tmp_path / "o")
        assert main([
            "sweep-mu", "--kind", "ls", "--n", "10", "--n-samples", "50",
            "--seed", "0,1", "--mus", "0.01,1", "--out", out,
        ]) == 0
        header, rows = data_rows(os.path.join(out, "sweep_mu.csv"))
        assert header == ["mu", "seed", "iter", "objective"]
        combos = {(r[0], r[1]) for r in rows}
        assert combos == {("0.01", "0"), ("0.01", "1"), ("1", "0"), ("1", "1")}

        header, rows = data_rows(os.path.join(out, "sweep_summary.csv"))
        assert header == ["mu", "seed", "iterations", "final_objective", "status"]
        assert len(rows) == 4
        assert all(r[4] == "converged" for r in rows)

    def test_each_seed_is_built_once_for_all_mus(self, tmp_path, monkeypatch):
        built = []
        generate = vmpg.cli.generate_qp

        def counting(n, kappa, seed):
            built.append(seed)
            return generate(n, kappa, seed)

        monkeypatch.setattr(vmpg.cli, "generate_qp", counting)
        out = str(tmp_path / "o")
        assert main([
            "sweep-mu", "--kind", "qp", "--n", "10", "--kappa", "10",
            "--seed", "0,1", "--mus", "1e-8,0.01,1", "--out", out,
        ]) == 0
        assert built == [0, 1]
        _, rows = data_rows(os.path.join(out, "sweep_summary.csv"))
        assert [(r[0], r[1]) for r in rows] == [
            ("1e-08", "0"), ("1e-08", "1"), ("0.01", "0"), ("0.01", "1"),
            ("1", "0"), ("1", "1"),
        ]


class TestConsensusCommand:
    def test_modes_and_bytes_column(self, tmp_path):
        out = str(tmp_path / "o")
        assert main([
            "consensus", "--kind", "ls", "--n", "8", "--n-samples", "200",
            "--nodes", "3", "--mode", "local-dbb,local-bb", "--seed", "0",
            "--ridge", "1e-2", "--out", out,
        ]) == 0
        header, rows = data_rows(os.path.join(out, "trace_local-dbb_0.csv"))
        assert header[-1] == "bytes_exchanged"
        assert all(r[-1] == str(2 * 8 * 3 * 8) for r in rows)
        _, srows = data_rows(os.path.join(out, "summary.csv"))
        assert {r[0] for r in srows} == {"local-dbb", "local-bb"}
        assert len(srows) == 4  # 2 runs + 2 aggregates

    def test_rejects_qp_input(self, tmp_path):
        code = main([
            "consensus", "--kind", "qp", "--n", "10",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_single_node_matches_pooled_bench(self, tmp_path):
        """One consensus node with no coupling penalty is the plain solver."""
        # the second shape is tall and large, so both commands use the Gram
        # form; it is cut at --max-iter, which exits with code 2
        for size, code in (
            (["--n", "10", "--n-samples", "100"], 0),
            (["--n", "64", "--n-samples", "2048", "--max-iter", "40"], 2),
        ):
            shared = [
                "--kind", "ls", *size,
                "--seed", "3", "--mu", "1e-6", "--timing", "none",
            ]
            cons_out = str(tmp_path / size[1] / "cons")
            bench_out = str(tmp_path / size[1] / "bench")
            assert main([
                "consensus", *shared, "--nodes", "1", "--ridge", "0",
                "--mode", "local-dbb", "--out", cons_out,
            ]) == code
            assert main([
                "bench", *shared, "--reg", "none", "--method", "vmpg-dbb",
                "--out", bench_out,
            ]) == code
            _, cons_rows = data_rows(os.path.join(cons_out, "trace_local-dbb_3.csv"))
            _, bench_rows = data_rows(os.path.join(bench_out, "trace_vmpg-dbb_3.csv"))
            assert len(cons_rows) == len(bench_rows)
            for c, b in zip(cons_rows, bench_rows):
                assert c[:8] == b


class TestGenAndSolve:
    def test_round_trip_matches_generator(self, tmp_path, capsys):
        out_dir = str(tmp_path / "gen") + os.sep
        assert main([
            "gen", "--kind", "qp", "--n", "20", "--kappa", "10",
            "--seed", "5", "--out", out_dir,
        ]) == 0
        path = capsys.readouterr().out.strip()
        assert path.endswith("problem_qp_5.npz")
        data = np.load(path)
        ref = generate_qp(20, 10, 5)
        np.testing.assert_array_equal(data["Q"], ref.Q)
        np.testing.assert_array_equal(data["q"], ref.q)

        solve_out = str(tmp_path / "solve")
        assert main([
            "solve", "--problem", path, "--method", "vmpg-dbb",
            "--reg", "nonneg", "--seed", "5", "--out", solve_out,
        ]) == 0
        line = capsys.readouterr().out.strip()
        assert "status=converged" in line
        assert os.path.exists(os.path.join(solve_out, "trace_vmpg-dbb_5.csv"))

    def test_gen_regression_instance(self, tmp_path, capsys):
        target = str(tmp_path / "inst.npz")
        assert main([
            "gen", "--kind", "logistic", "--n", "6", "--n-samples", "40",
            "--seed", "2", "--out", target,
        ]) == 0
        data = np.load(target)
        assert str(data["kind"]) == "logistic"
        assert data["A"].shape == (40, 6)

    def test_gen_without_an_output_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("VMPG_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--kind", "qp", "--n", "5", "--seed", "1"]) == 1
        assert "--out" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_gen_takes_its_output_path_from_the_environment(self, tmp_path, monkeypatch,
                                                            capsys):
        target = str(tmp_path / "env.npz")
        monkeypatch.setenv("VMPG_OUT_DIR", target)
        assert main(["gen", "--kind", "qp", "--n", "5", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip() == target
        assert os.path.exists(target)

    def test_missing_problem_file_is_usage_error(self, tmp_path):
        code = main([
            "solve", "--problem", str(tmp_path / "nope.npz"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("content", ["npy", "truncated-npz"])
    def test_unreadable_problem_file_is_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.npz"
        np.savez(path, kind="qp", Q=np.eye(2), q=np.ones(2))
        if content == "npy":
            path = tmp_path / "bad.npy"
            np.save(path, np.ones(3))
        else:
            path.write_bytes(path.read_bytes()[:100])
        assert main(["solve", "--problem", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("vmpg: error: cannot read problem file")

    def test_gen_prints_the_file_it_wrote(self, tmp_path, capsys):
        target = str(tmp_path / "g" / "inst")
        assert main(["gen", "--kind", "qp", "--n", "5", "--seed", "1", "--out", target]) == 0
        path = capsys.readouterr().out.strip()
        assert path == target + ".npz"
        assert os.listdir(tmp_path / "g") == ["inst.npz"]
        assert main(["solve", "--problem", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("kind, n_samples", [("qp", None), ("ls", 40), ("logistic", 40)])
    def test_gen_round_trip_rebuilds_the_problem(self, tmp_path, capsys, kind, n_samples):
        argv = ["gen", "--kind", kind, "--n", "6", "--seed", "3", "--out", str(tmp_path) + os.sep]
        assert main(argv + (["--n-samples", str(n_samples)] if n_samples else [])) == 0
        spec = {"kind": kind, "n": 6, "kappa": 1e4, "n_samples": n_samples}
        loaded, loaded_kind = _load_problem_file(capsys.readouterr().out.strip())
        assert loaded_kind == kind
        assert_same_problem(loaded, _build_problem(spec, 3))

    def test_a_regression_file_of_the_first_format_loads(self, tmp_path):
        """Files that stored the loss only as the kind, and no planted vector
        as an empty array, load to the problem they were written from."""
        problem = generate_regression(30, 4, "ls", 2)
        problem.x_star = None
        path = tmp_path / "old.npz"
        np.savez(path, kind="ls", A=problem.A, b=problem.b, lam=problem.lam,
                 x_star=np.array([]), noise=problem.noise, seed=2)
        loaded, kind = _load_problem_file(str(path))
        assert kind == "ls"
        assert_same_problem(loaded, problem)

    @pytest.mark.parametrize("arrays, named", [
        ({"Q": np.eye(2), "q": np.ones(2)}, "'kind'"),
        ({"kind": "qp", "Q": np.eye(2)}, "'q'"),
        ({"kind": "qp", "Q": np.eye(3), "q": np.ones(4), "p": 0.0, "strong_convexity": 1.0,
          "smoothness": 1.0, "kappa": 1.0, "seed": 0}, "Q has shape (3, 3) and q (4,)"),
        ({"kind": "ls", "A": np.ones((5, 2)), "b": np.ones(4), "lam": 0.1},
         "A has shape (5, 2) and b (4,)"),
        ({"kind": "logistic", "A": np.ones((5, 2)), "b": np.ones(4), "lam": 0.1},
         "A has shape (5, 2) and b (4,)"),
        ({"kind": "svm", "A": np.ones((5, 2)), "b": np.ones(5), "lam": 0.1}, "'svm'"),
        ({"kind": "ls", "loss": "logistic", "A": np.ones((5, 2)), "b": np.ones(5),
          "lam": 0.1}, "kind 'ls' but loss 'logistic'"),
    ], ids=["no-kind", "no-q", "Q-q", "A-b-ls", "A-b-logistic", "bad-kind", "kind-loss"])
    def test_malformed_problem_file_is_usage_error(self, tmp_path, capsys, arrays, named):
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        out = tmp_path / "o"
        assert main(["solve", "--problem", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vmpg: error:") and named in err
        assert not out.exists()

    def test_a_problem_file_takes_its_regularizer_from_its_kind(self, tmp_path, capsys):
        """Without --reg, solving a gen file runs what solving the same
        instance by its flags runs: an ls file gets Lasso, not Nonnegative."""
        flags = ["--kind", "ls", "--n", "6", "--n-samples", "40", "--seed", "1"]
        assert main(["gen", *flags, "--out", str(tmp_path / "inst.npz")]) == 0
        capsys.readouterr()
        runs = []
        for source in (["--problem", str(tmp_path / "inst.npz"), "--seed", "1"], flags):
            out = str(tmp_path / f"o{len(runs)}")
            assert main(["solve", *source, "--timing", "none", "--out", out]) == 0
            line = capsys.readouterr().out
            runs.append((line, data_rows(os.path.join(out, "trace_vmpg-dbb_1.csv"))))
        assert runs[0] == runs[1]
        assert "iterations=76 " in runs[0][0]

    @pytest.mark.parametrize("flag, value", [
        ("--kind", "qp"),
        ("--n", "3"),
        ("--kappa", "5"),
        ("--n-samples", "30"),
        ("--noise", "0.5"),
        ("--data", "d.csv"),
        ("--label-column", "2"),
    ])
    def test_a_problem_file_rejects_a_generator_flag(self, tmp_path, capsys, flag, value):
        """The file decides the instance, so a flag that builds one would be
        ignored: it exits 1 and writes nothing."""
        path = str(tmp_path / "inst.npz")
        assert main(["gen", "--kind", "ls", "--n", "6", "--n-samples", "40",
                     "--out", path]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["solve", "--problem", path, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"vmpg: error: {flag} ") and "--problem" in err
        assert not out.exists()
        assert main(["solve", "--problem", path, "--out", str(out)]) == 0

    @pytest.mark.parametrize("declared, code", [
        (0.5, 0), (1.0, 0), (1.0 + 1e-6, 1), (2.0, 1), ("one", 1),
    ])
    def test_a_qp_file_may_not_overstate_its_modulus(self, tmp_path, capsys, declared, code):
        """A --reg none solve ends at ||grad f||^2 / (2m) with the file's m,
        so a file whose strong_convexity is above the least eigenvalue of its
        Q (1 here) exits 1 and writes nothing; an understated m is sound."""
        problem = generate_qp(8, 50.0, 3)
        path = tmp_path / "qp.npz"
        np.savez(path, kind="qp", Q=problem.Q, q=problem.q, p=problem.p,
                 strong_convexity=declared, smoothness=problem.smoothness,
                 kappa=problem.kappa, seed=problem.seed)
        out = tmp_path / "o"
        assert main(["solve", "--problem", str(path), "--reg", "none",
                     "--out", str(out)]) == code
        if code:
            assert "strong_convexity" in capsys.readouterr().err
            assert not out.exists()

    def test_data_needs_a_regression_kind(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("y,a,b\n1,0.5,2\n-1,1.5,0\n1,2,1\n")
        out = tmp_path / "o"
        assert main(["bench", "--data", str(data), "--out", str(out)]) == 1
        assert "--kind ls|logistic" in capsys.readouterr().err
        assert not out.exists()
        assert main(["bench", "--kind", "logistic", "--data", str(data), "--max-iter", "3",
                     "--out", str(out)]) in (0, 2)


class TestConfigAndEnvironment:
    def test_ini_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\n"
            "kind = ls\n"
            "n = 12\n"
            "n-samples = 60\n"
            "seed = 4\n"
            "method = pg-bb\n"
            "eps-tol = 1e-5\n"
        )
        out = str(tmp_path / "o")
        assert main(["bench", "--config", str(cfg), "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "trace_pg-bb_4.csv"))

    def test_ini_mode_selects_the_consensus_mode(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nkind = ls\nn = 8\nn-samples = 60\nnodes = 3\nseed = 0\n"
            "mode = global-bb\n"
        )
        out = str(tmp_path / "o")
        assert main(["consensus", "--config", str(cfg), "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["summary.csv", "trace_global-bb_0.csv"]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nkind = ls\nn = 12\nn-samples = 60\nseed = 4\nmethod = pg-bb\n")
        out = str(tmp_path / "o")
        assert main([
            "bench", "--config", str(cfg), "--method", "vmpg-dbb", "--out", out,
        ]) == 0
        names = os.listdir(out)
        assert "trace_vmpg-dbb_4.csv" in names
        assert "trace_pg-bb_4.csv" not in names

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nwarp = 9\n")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        env_dir = str(tmp_path / "envout")
        monkeypatch.setenv("VMPG_OUT_DIR", env_dir)
        monkeypatch.chdir(tmp_path)
        assert main([
            "bench", "--kind", "qp", "--n", "15", "--kappa", "10",
            "--seed", "0", "--method", "vmpg-dbb",
        ]) == 0
        assert os.path.exists(os.path.join(env_dir, "summary.csv"))

    @pytest.mark.parametrize("command, flag, value, message", [
        ("bench", "--method", "adam", "unknown method 'adam'"),
        ("bench", "--seed", "", "--seed list is empty"),
        ("bench", "--method", "", "--method list is empty"),
        ("solve", "--method", "", "--method list is empty"),
        ("consensus", "--mode", ",", "--mode list is empty"),
        ("sweep-mu", "--mus", "", "--mus list is empty"),
    ])
    def test_bad_list_is_usage_error(self, tmp_path, capsys, command, flag, value,
                                     message):
        out = tmp_path / "o"
        code = main([command, "--kind", "ls", "--n", "8", "--n-samples", "60",
                     flag, value, "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_list_in_ini_fails_only_the_subcommand_that_reads_it(self, tmp_path,
                                                                       capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nkind = ls\nn = 8\nn-samples = 60\nmode = ,\nmus =\n")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert main(["sweep-mu", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
        assert "--mus list is empty" in capsys.readouterr().err
        assert main(["consensus", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
        assert "--mode list is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("ridge", ["-5", "nan", "inf"])
    def test_bad_consensus_ridge_is_usage_error(self, tmp_path, capsys, ridge):
        out = tmp_path / "o"
        code = main(["consensus", "--kind", "ls", "--n", "5", "--n-samples", "40",
                     "--nodes", "2", "--ridge", ridge, "--out", str(out)])
        assert code == 1
        assert "ridge must be nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--max-iter", "--eps-tol", "--n-samples"])
    def test_zero_solver_limit_is_usage_error(self, tmp_path, capsys, flag):
        code = main([
            "solve", "--kind", "qp", "--n", "10", "--kappa", "100",
            flag, "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        message = "--n-samples must be >= 1" if flag == "--n-samples" else "invalid solver limits"
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("reg, weights", [
        ("lasso", ["--lam", "nan"]),
        ("lasso", ["--lam", "inf"]),
        ("elastic-net", ["--lam", "1", "--lam2", "nan"]),
        # an explicit --lam2 0 is checked, not replaced by --lam
        ("elastic-net", ["--lam", "1", "--lam2", "0"]),
    ])
    def test_bad_regularizer_weight_is_usage_error(self, tmp_path, capsys, reg, weights):
        code = main([
            "bench", "--kind", "ls", "--n", "8", "--n-samples", "40", "--reg", reg,
            *weights, "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "must be positive and finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("flag, value", [
        ("--eps-tol", "nan"), ("--eps-tol", "inf"), ("--beta", "nan"), ("--beta", "inf"),
    ])
    def test_non_finite_solver_setting_is_usage_error(self, tmp_path, capsys, flag, value):
        code = main([
            "solve", "--kind", "qp", "--n", "10", "--kappa", "100",
            flag, value, "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command, flag, value", [
        ("consensus", "--reg", "lasso"),
        ("consensus", "--lam", "5"),
        ("consensus", "--lam2", "2"),
        ("consensus", "--method", "fista"),
        ("sweep-mu", "--method", "pg-bb"),
        ("sweep-mu", "--mu", "0.5"),
        ("gen", "--method", "fista"),
        ("gen", "--max-iter", "5"),
        ("gen", "--reg", "lasso"),
    ])
    def test_flag_the_command_would_ignore_exits_one(self, tmp_path, capsys, command,
                                                     flag, value):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            main([command, "--kind", "ls", "--n", "8", "--n-samples", "60",
                  flag, value, "--out", str(out)])
        assert info.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--warp", "9"])
        assert info.value.code == 1

    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"vmpg {__version__}"


def capture_configs(monkeypatch):
    """Record the SolverConfig of every solve the CLI starts."""
    configs = []
    solve = vmpg.cli.solve

    def recording(f, g, x0, config):
        configs.append(config)
        return solve(f, g, x0, config)

    monkeypatch.setattr(vmpg.cli, "solve", recording)
    return configs


class TestIniAndFlagsAgree:
    """Settings that an INI file and the flags once treated differently."""

    def test_bad_ini_timing_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ntiming = bogus\n")
        out = tmp_path / "o"
        assert main([
            "solve", "--config", str(cfg), "--kind", "qp", "--n", "5", "--out", str(out),
        ]) == 1
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_ini_mls_sets_the_window(self, tmp_path, monkeypatch):
        configs = capture_configs(monkeypatch)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nmls = 3\n")
        assert main([
            "solve", "--config", str(cfg), "--kind", "qp", "--n", "5", "--kappa", "10",
            "--out", str(tmp_path / "o"),
        ]) == 0
        assert [c.m_ls for c in configs] == [3]

    def test_ini_problem_solves_the_file(self, tmp_path, capsys):
        path = str(tmp_path / "inst.npz")
        assert main(["gen", "--kind", "qp", "--n", "8", "--kappa", "10", "--seed", "2",
                     "--out", path]) == 0
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nproblem = {path}\nseed = 2\ntiming = none\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--problem", path, "--seed", "2", "--timing", "none",
                     "--out", str(tmp_path / "b")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == lines[2] and "iterations=" in lines[1]
        _, rows_a = data_rows(tmp_path / "a" / "trace_vmpg-dbb_2.csv")
        _, rows_b = data_rows(tmp_path / "b" / "trace_vmpg-dbb_2.csv")
        assert rows_a == rows_b

    def test_delta_flag_reaches_the_solver(self, tmp_path, monkeypatch):
        configs = capture_configs(monkeypatch)
        assert main([
            "solve", "--kind", "qp", "--n", "5", "--kappa", "10", "--method", "pg-bb",
            "--delta", "3", "--out", str(tmp_path / "o"),
        ]) == 0
        assert [c.delta for c in configs] == [3.0]

    def test_bb_settings_are_checked_for_every_method(self, tmp_path, capsys):
        assert main([
            "solve", "--kind", "qp", "--n", "5", "--method", "fista", "--mu", "0",
            "--out", str(tmp_path / "o"),
        ]) == 1
        assert "mu must be positive" in capsys.readouterr().err


# (argv, the spec it assembles): the spec is what each file's "# config:" hashes
SPEC_CASES = [
    (
        ["bench", "--kind", "qp", "--n", "100", "--kappa", "1e4", "--reg", "nonneg",
         "--method", "vmpg-dbb,pg-bb,fista", "--seed", "0,1,2", "--out", "o"],
        {"kappa": 10000.0, "kind": "qp", "methods": ["vmpg-dbb", "pg-bb", "fista"],
         "modes": ["local-dbb"], "n": 100, "nodes": 10, "out": "o", "reg": "nonneg",
         "seeds": [0, 1, 2]},
    ),
    (
        ["bench", "--kind", "ls", "--n", "30", "--kappa", "5", "--n-samples", "80",
         "--reg", "elastic-net", "--lam", "0.1", "--lam2", "0.2", "--noise", "0.3",
         "--data", "d.csv", "--label-column", "y", "--method", "fista", "--seed", "7",
         "--max-iter", "9", "--eps-tol", "1e-6", "--mu", "0.5", "--mls", "4",
         "--beta", "3", "--timing", "none", "--line-search", "monotone", "--out", "o"],
        {"beta": 3.0, "data": "d.csv", "eps_tol": 1e-06, "kappa": 5.0, "kind": "ls",
         "label_column": "y", "lam": 0.1, "lam2": 0.2, "line_search": "monotone",
         "m_ls": 4, "max_iter": 9, "methods": ["fista"], "modes": ["local-dbb"],
         "mu": 0.5, "n": 30, "n_samples": 80, "nodes": 10, "noise": 0.3, "out": "o",
         "reg": "elastic-net", "seeds": [7], "timing": "none"},
    ),
    (
        ["bench", "--kind", "logistic", "--data", "d.csv", "--label-column", "-1"],
        {"data": "d.csv", "kind": "logistic", "label_column": -1,
         "methods": ["vmpg-dbb", "pg-bb"], "modes": ["local-dbb"], "n": 200,
         "nodes": 10, "out": "vmpg-out", "reg": "lasso", "seeds": [0]},
    ),
    (
        ["consensus", "--kind", "ls", "--n", "10", "--n-samples", "120", "--nodes", "4",
         "--mode", "local-bb, global-dbb", "--ridge", "0", "--seed", "1", "--out", "o"],
        {"kind": "ls", "methods": ["vmpg-dbb", "pg-bb"],
         "modes": ["local-bb", "global-dbb"], "n": 10, "n_samples": 120, "nodes": 4,
         "out": "o", "reg": "lasso", "ridge": 0.0, "seeds": [1]},
    ),
    (
        ["sweep-mu", "--kind", "qp", "--n", "10", "--kappa", "10",
         "--mus", "1e-8,0.01,1", "--out", "o"],
        {"kappa": 10.0, "kind": "qp", "methods": ["vmpg-dbb", "pg-bb"],
         "modes": ["local-dbb"], "mus": [1e-08, 0.01, 1.0], "n": 10, "nodes": 10,
         "out": "o", "reg": "nonneg", "seeds": [0]},
    ),
    (
        ["solve", "--problem", "p.npz", "--method", "pg-fixed", "--reg", "none",
         "--seed", "5", "--out", "o"],
        {"kappa": 10000.0, "kind": "qp", "methods": ["pg-fixed"], "modes": ["local-dbb"],
         "n": 200, "nodes": 10, "out": "o", "problem_file": "p.npz", "reg": "none",
         "seeds": [5]},
    ),
    (
        ["gen", "--kind", "qp", "--n", "20", "--seed", "3", "--out", "g/"],
        {"kappa": 10000.0, "kind": "qp", "methods": ["vmpg-dbb", "pg-bb"],
         "modes": ["local-dbb"], "n": 20, "nodes": 10, "out": "g/", "reg": "nonneg",
         "seeds": [3]},
    ),
    (
        ["bench", "--config", "run.ini", "--out", "o"],
        {"eps_tol": 1e-05, "kind": "ls", "m_ls": 7, "methods": ["pg-bb"],
         "modes": ["local-dbb"], "n": 12, "n_samples": 60, "nodes": 10, "out": "o",
         "reg": "lasso", "seeds": [4, 5]},
    ),
    (
        ["bench", "--config", "run.ini", "--method", "vmpg-dbb", "--n", "20", "--out", "o"],
        {"eps_tol": 1e-05, "kind": "ls", "m_ls": 7, "methods": ["vmpg-dbb"],
         "modes": ["local-dbb"], "n": 20, "n_samples": 60, "nodes": 10, "out": "o",
         "reg": "lasso", "seeds": [4, 5]},
    ),
    (
        ["consensus", "--config", "cons.ini", "--n", "6", "--out", "o"],
        {"kind": "logistic", "methods": ["vmpg-dbb", "pg-bb"],
         "modes": ["global-bb", "local-bb"], "mu": 0.25, "n": 6, "nodes": 3, "out": "o",
         "reg": "lasso", "ridge": 0.5, "seeds": [0], "timing": "none"},
    ),
]


def assemble(argv):
    return _assemble_spec(build_parser().parse_args(argv))


class TestSpec:
    @pytest.fixture(autouse=True)
    def _configs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VMPG_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(
            "[run]\nkind = ls\nn = 12\nn-samples = 60\nseed = 4,5\nmethod = pg-bb\n"
            "eps-tol = 1e-5\nm_ls = 7\n"
        )
        (tmp_path / "cons.ini").write_text(
            "[run]\nkind = logistic\nnodes = 3\nmode = global-bb,local-bb\n"
            "ridge = 0.5\nmu = 0.25\ntiming = none\n"
        )

    @pytest.mark.parametrize("argv, spec", SPEC_CASES, ids=lambda v: " ".join(v)[:40])
    def test_assembled_spec(self, argv, spec):
        assert assemble(argv) == spec

    def test_config_hash_of_a_spec(self):
        assert _config_hash(assemble(SPEC_CASES[0][0])) == "dabab534cc77"


def flag_actions():
    """(subcommand, action) for every settable flag, each once."""
    subs = next(a for a in build_parser()._actions if a.dest == "command").choices
    seen = {}
    for command, sub in subs.items():
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                seen.setdefault(action.option_strings[0], (command, action))
    return seen


# values for the flags that take free text; the others take their last
# choice, 3 or 2.5
TEXT_VALUES = {
    "seeds": "3,4",
    "methods": "pg-bb,fista",
    "modes": "global-bb",
    "mus": "0.5,2",
    "out": "elsewhere",
    "data": "d.csv",
    "label_column": "2",
    "problem_file": "p.npz",
}


@pytest.mark.parametrize("flag", sorted(flag_actions()))
def test_ini_key_sets_what_its_flag_sets(flag, tmp_path, monkeypatch):
    command, action = flag_actions()[flag]
    if action.choices is not None:
        value = list(action.choices)[-1]
    elif action.type is None:
        value = TEXT_VALUES[action.dest]
    else:
        value = {int: "3", float: "2.5"}[action.type]
    monkeypatch.delenv("VMPG_OUT_DIR", raising=False)
    base = [command] if flag == "--out" else [command, "--out", "o"]
    want = assemble(base + [flag, value])
    for key in {flag[2:], action.dest, action.dest.replace("_", "-")}:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\n{key} = {value}\n")
        assert assemble(base + ["--config", str(cfg)]) == want, key


def test_ini_value_outside_the_choices_is_usage_error(tmp_path):
    # consensus never reads reg, so only the INI reader can reject it
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nreg = sideways\n")
    out = tmp_path / "o"
    assert main([
        "consensus", "--config", str(cfg), "--kind", "ls", "--n", "4",
        "--n-samples", "30", "--nodes", "2", "--out", str(out),
    ]) == 1
    assert not out.exists()


def test_importing_the_cli_leaves_scipy_unloaded():
    """Only logistic losses and the test-only prox oracle need scipy, and they
    import it on first use; start-up loads numpy and vmpg alone."""
    src = os.path.dirname(os.path.dirname(vmpg.cli.__file__))
    code = (
        "import sys, vmpg, vmpg.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"

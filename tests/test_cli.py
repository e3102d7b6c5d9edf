"""End-to-end CLI runs: file layout, headers, determinism, exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import vmpg.cli
from vmpg import __version__
from vmpg.cli import main
from vmpg.problems import generate_qp


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def data_rows(path):
    """CSV rows with comments and the column header stripped."""
    lines = [ln for ln in read_lines(path) if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


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
        shared = [
            "--kind", "ls", "--n", "10", "--n-samples", "100",
            "--seed", "3", "--mu", "1e-6", "--timing", "none",
        ]
        cons_out = str(tmp_path / "cons")
        bench_out = str(tmp_path / "bench")
        assert main([
            "consensus", *shared, "--nodes", "1", "--ridge", "0",
            "--mode", "local-dbb", "--out", cons_out,
        ]) == 0
        assert main([
            "bench", *shared, "--reg", "none", "--method", "vmpg-dbb",
            "--out", bench_out,
        ]) == 0
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

    def test_unknown_method_is_usage_error(self, tmp_path):
        code = main([
            "bench", "--kind", "qp", "--method", "adam",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--max-iter", "--eps-tol"])
    def test_zero_solver_limit_is_usage_error(self, tmp_path, capsys, flag):
        code = main([
            "solve", "--kind", "qp", "--n", "10", "--kappa", "100",
            flag, "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "invalid solver limits" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--warp", "9"])
        assert info.value.code == 1

    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"vmpg {__version__}"


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    """Only the test-only prox oracle needs scipy.optimize; start-up skips it."""
    src = os.path.dirname(os.path.dirname(vmpg.cli.__file__))
    code = "import sys, vmpg.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"

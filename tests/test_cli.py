import gc
import weakref

import pytest

from gotd import UsageError, read_trace_csv
from gotd.cli import _build, main, parse_config


REQUIRED = {
    "sphere": {"m": "10", "n": "10", "r": "1", "os": "1"},
    "hyperbolic": {"n": "10", "m": "24", "r-true": "3", "r": "3"},
    "modes": {"n": "32", "p": "3", "L": "50", "rho": "0.5"},
}


def _flags(params):
    return [token for k, v in params.items() for token in (f"--{k}", v)]


class TestParsing:
    def test_sphere_defaults(self):
        cfg, seeds = parse_config(
            ["sphere", "--m", "500", "--n", "600", "--r", "5", "--os", "6", "--seed", "1"]
        )
        assert cfg.experiment == "sphere"
        assert (cfg.m, cfg.n, cfg.r, cfg.os, cfg.seed) == (500, 600, 5, 6.0, 1)
        assert cfg.alpha == 1.0 and cfg.beta == 10.0 and cfg.tol == 1e-10
        assert cfg.max_iter == 2000 and seeds is None

    def test_hyperbolic_defaults(self):
        cfg, _ = parse_config(
            ["hyperbolic", "--n", "60", "--m", "300", "--r-true", "5", "--r", "5"]
        )
        assert cfg.beta == 0.2 and cfg.tail == 0.3 and not cfg.postprocess_map

    def test_modes_beta_default_follows_grid(self, tmp_path):
        cfg, _ = parse_config(["modes", "--n", "32", "--p", "3", "--L", "50", "--rho", "0.5"])
        _, _, beta = _build(cfg)
        assert beta == pytest.approx(50.0**2 / (4 * 32**2))

    def test_negative_beta_rejected(self):
        with pytest.raises(UsageError):
            parse_config(
                ["sphere", "--m", "10", "--n", "10", "--r", "1", "--os", "1", "--beta", "-1"]
            )

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["sphere", "--bogus", "3"])

    def test_missing_parameter_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["sphere", "--m", "10", "--n", "10", "--r", "1"])

    @pytest.mark.parametrize(
        "experiment,key",
        [(e, k) for e, params in REQUIRED.items() for k in params],
    )
    def test_each_required_parameter_missing_or_nonpositive(self, experiment, key):
        args = {k: v for k, v in REQUIRED[experiment].items() if k != key}
        with pytest.raises(UsageError, match="missing parameter"):
            parse_config([experiment, *_flags(args)])
        with pytest.raises(UsageError, match="must be positive"):
            parse_config([experiment, *_flags(args), f"--{key}", "0"])

    def test_postprocess_map_from_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        base = [f"{k} = {v}" for k, v in REQUIRED["hyperbolic"].items()]
        for line, expected in [("postprocess_map = true", True),
                               ("postprocess-map = off", False),
                               ("postprocess_map = false", False)]:
            path.write_text("\n".join(base + [line]) + "\n")
            cfg, _ = parse_config(["hyperbolic", "--config", str(path)])
            assert cfg.postprocess_map is expected
        path.write_text("postprocess_map = maybe\n")
        with pytest.raises(UsageError):
            parse_config(["hyperbolic", "--config", str(path)])

    def test_missing_config_file(self, tmp_path, capsys):
        args = ["sphere", "--config", str(tmp_path / "absent.cfg")]
        with pytest.raises(UsageError):
            parse_config(args)
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err

    def test_config_value_of_wrong_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = abc\nn = 10\nr = 1\nos = 1\n")
        with pytest.raises(UsageError):
            parse_config(["sphere", "--config", str(path)])

    def test_empty_seed_range_rejected(self):
        with pytest.raises(UsageError):
            parse_config(
                ["sphere", "--m", "10", "--n", "10", "--r", "1", "--os", "1",
                 "--seeds", "5..2"]
            )

    def test_seeds_not_a_range_rejected(self):
        with pytest.raises(UsageError, match="expected A..B, got 'abc'"):
            parse_config(
                ["sphere", "--m", "10", "--n", "10", "--r", "1", "--os", "1",
                 "--seeds", "abc"]
            )

    def test_config_comment_only_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# sphere run\n\n   # indented comment\nm = 30\nn = 25\nr = 2\nos = 1.5\n")
        cfg, _ = parse_config(["sphere", "--config", str(path)])
        assert (cfg.m, cfg.n, cfg.r, cfg.os) == (30, 25, 2, 1.5)

    def test_config_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 30\nn 25\n")
        with pytest.raises(UsageError, match=r"run\.cfg:2: expected key=value$"):
            parse_config(["sphere", "--config", str(path)])

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 30\nn = 25 # trailing comment\nr = 2\nos = 1.5\nbeta = 0.5\n")
        cfg, _ = parse_config(["sphere", "--config", str(path), "--beta", "2.0"])
        assert cfg.m == 30 and cfg.n == 25 and cfg.os == 1.5
        assert cfg.beta == 2.0  # flag wins over file

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(UsageError):
            parse_config(["sphere", "--config", str(path)])

    def test_seeds_range(self):
        _, seeds = parse_config(
            ["sphere", "--m", "10", "--n", "10", "--r", "1", "--os", "1",
             "--seeds", "2..4"]
        )
        assert list(seeds) == [2, 3, 4]

    @pytest.mark.parametrize("flag", ["--seed=-1", "--seeds=-1..1"])
    def test_negative_seed_rejected(self, flag):
        # np.random.default_rng(-1) raises a ValueError, which is no GotdError
        with pytest.raises(UsageError, match="seeds must be nonnegative"):
            parse_config(["sphere", "--m", "20", "--n", "18", "--r", "2", "--os", "1.5", flag])

    def test_negative_seed_in_config_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 20\nn = 18\nr = 2\nos = 1.5\nseed = -1\n")
        with pytest.raises(UsageError, match="seeds must be nonnegative"):
            parse_config(["sphere", "--config", str(path)])


class TestRuns:
    def test_sphere_smoke(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["sphere", "--m", "40", "--n", "36", "--r", "2", "--os", "3",
             "--seed", "7", "--beta", "1", "--max-iter", "1500", "--out", str(out)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("experiment=sphere status=converged")
        assert out.exists()
        first = out.read_text().splitlines()[0]
        assert first == "iter,time_s,f,feas_norm,gh_norm,gf_norm,extra"
        assert len(read_trace_csv(out)) >= 2

    def test_budget_exhaustion_exit_code(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["sphere", "--m", "40", "--n", "36", "--r", "2", "--os", "3",
             "--seed", "7", "--beta", "1", "--max-iter", "1", "--tol", "0",
             "--out", str(out)]
        )
        assert code == 2

    def test_empty_sample_exit_code(self, tmp_path, capsys):
        code = main(["sphere", "--m", "5", "--n", "4", "--r", "1", "--os", "0.01",
                     "--out", str(tmp_path / "trace.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_rank_out_of_range_exit_code(self, tmp_path, capsys):
        code = main(["sphere", "--m", "5", "--n", "100", "--r", "6", "--os", "0.01",
                     "--out", str(tmp_path / "trace.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rank r=6") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["hyperbolic", "--n", "3", "--m", "10", "--r-true", "5", "--r", "2"],
         "error: rank r_true=5"),
        (["modes", "--n", "4", "--p", "6", "--L", "10", "--rho", "0.5"],
         "error: column count p=6"),
    ], ids=["hyperbolic", "modes"])
    def test_generator_dimensions_exit_code(self, tmp_path, capsys, argv, message):
        code = main(argv + ["--out", str(tmp_path / "trace.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "nan"), ("--beta", "inf"), ("--tol", "nan"),
    ])
    def test_non_finite_run_parameter_exit_code(self, tmp_path, capsys, flag, value):
        code = main(["sphere", "--m", "40", "--n", "50", "--r", "3", "--os", "3",
                     "--max-iter", "5", flag, value, "--out", str(tmp_path / "trace.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("tail", ["-5", "nan"])
    def test_invalid_tail_exit_code(self, tmp_path, capsys, tail):
        code = main(["hyperbolic", "--n", "10", "--m", "40", "--r-true", "2", "--r", "2",
                     "--tail", tail, "--out", str(tmp_path / "trace.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: tail scale") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sphere", "--m", "20", "--n", "18", "--r", "2", "--os", "inf"],
        ["modes", "--n", "20", "--p", "3", "--L", "50", "--rho", "inf"],
        ["modes", "--n", "20", "--p", "3", "--L", "inf", "--rho", "0.5"],
    ], ids=["os", "rho", "L"])
    def test_non_finite_size_ratio_exit_code(self, tmp_path, capsys, argv):
        # each passes the > 0 check of parse_config; the generator rejects it
        code = main(argv + ["--out", str(tmp_path / "trace.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "is not finite" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["modes", "--n", "20", "--p", "3", "--L", "1e200", "--rho", "0.5"], "error: length 1e+200"),
        (["modes", "--n", "20", "--p", "3", "--L", "1e-300", "--rho", "0.5"], "error: length 1e-300"),
        (["hyperbolic", "--n", "5", "--m", "10", "--r-true", "2", "--r", "2",
          "--tail", "1e200", "--max-iter", "2"], "error: tail scale 1e+200"),
        (["hyperbolic", "--n", "2", "--m", "200", "--r-true", "1", "--r", "1",
          "--tail", "1e153", "--max-iter", "2"], "error: tail scale 1e+153"),
    ], ids=["L-overflow", "L-underflow", "tail-overflow", "tail-gram-overflow"])
    def test_parameter_out_of_float_range_exit_code(self, tmp_path, capsys, argv, message):
        code = main(argv + ["--out", str(tmp_path / "trace.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        code = main(["sphere", "--m", "20", "--n", "18", "--r", "2", "--os", "1.5",
                     "--seed", "-1", "--out", str(tmp_path / "trace.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: seeds must be nonnegative\n"

    def test_usage_error_exit_code(self, capsys):
        assert main(["sphere", "--m", "10"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_aborted_exit_code(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["sphere", "--m", "40", "--n", "36", "--r", "2", "--os", "3",
             "--seed", "7", "--beta", "800", "--max-iter", "300", "--out", str(out)]
        )
        assert code == 1
        assert "aborted" in capsys.readouterr().err

    def test_hyperbolic_with_map_postprocess(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["hyperbolic", "--n", "10", "--m", "24", "--r-true", "3", "--r", "3",
             "--seed", "2", "--max-iter", "800", "--postprocess-map",
             "--out", str(out)]
        )
        assert code in (0, 2)
        line = capsys.readouterr().out.strip()
        assert "map_feas=" in line
        map_feas = float(line.split("map_feas=")[1].split()[0])
        assert map_feas <= 1e-10
        # extra column carries f/f0
        records = read_trace_csv(out)
        assert records[0].extra_metric == pytest.approx(1.0)

    def test_hyperbolic_extra_is_objective_ratio(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["hyperbolic", *_flags(REQUIRED["hyperbolic"]),
                     "--max-iter", "20", "--tol", "0", "--out", str(out)])
        assert code == 2
        records = read_trace_csv(out)
        assert len(records) == 21
        f0 = records[0].f_value
        assert all(rec.extra_metric == rec.f_value / f0 for rec in records)

    def test_modes_smoke(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["modes", "--n", "32", "--p", "3", "--L", "50", "--rho", "0.5",
             "--seed", "0", "--max-iter", "400", "--out", str(out)]
        )
        assert code in (0, 2)
        records = read_trace_csv(out)
        assert records[-1].extra_metric == pytest.approx(1.0 - 48 / 96)

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys):
        out = tmp_path / "absent" / "trace.csv"
        code = main(
            ["sphere", "--m", "40", "--n", "36", "--r", "2", "--os", "3",
             "--beta", "1", "--max-iter", "5", "--out", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no run, so no summary line
        assert captured.err.startswith("error:")

    def test_zero_budget_evaluates_the_start_point(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["sphere", "--m", "40", "--n", "36", "--r", "2", "--os", "3",
             "--beta", "1", "--max-iter", "0", "--out", str(out)]
        )
        assert code == 2
        assert [r.iteration for r in read_trace_csv(out)] == [0]

    def test_build_leaves_no_reference_cycle(self):
        cfg, _ = parse_config(["hyperbolic", *_flags(REQUIRED["hyperbolic"])])
        gc.disable()
        try:
            problem, _, _ = _build(cfg)
            ref = weakref.ref(problem)
            del problem
            assert ref() is None
        finally:
            gc.enable()

    def test_seed_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sphere", "--m", "30", "--n", "26", "--r", "2", "--os", "2",
             "--beta", "1", "--max-iter", "5", "--seeds", "1..2", "--out", str(out)]
        )
        assert code == 2  # budget exhaustion on every seed
        assert (tmp_path / "sweep_seed1.csv").exists()
        assert (tmp_path / "sweep_seed2.csv").exists()

    @pytest.mark.parametrize("out, stem", [("run.v2/trace", "run.v2/trace"), ("./t2", "t2")])
    def test_seed_sweep_strips_only_the_file_extension(self, tmp_path, monkeypatch, out, stem):
        # a dot in a directory name, or a leading ./, is not an extension
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.v2").mkdir()
        code = main(
            ["sphere", "--m", "30", "--n", "26", "--r", "2", "--os", "2",
             "--beta", "1", "--max-iter", "1", "--seeds", "0..1", "--out", out]
        )
        assert code == 2
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
        assert written == [f"{stem}_seed0.csv", f"{stem}_seed1.csv"]

    def test_same_seed_reproduces_trace(self, tmp_path):
        args = ["sphere", "--m", "30", "--n", "26", "--r", "2", "--os", "2",
                "--beta", "1", "--max-iter", "40", "--seed", "3", "--tol", "0"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 2
        assert main(args + ["--out", str(out2)]) == 2

        def strip_time(path):
            lines = path.read_text().splitlines()
            return [",".join(c for i, c in enumerate(l.split(",")) if i != 1)
                    for l in lines]

        assert strip_time(out1) == strip_time(out2)

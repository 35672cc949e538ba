import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rudin_shapiro import roots
from rudin_shapiro.cli import (COMMANDS, build_parser, main, parse_angle,
                               parse_arc, parse_k_range, parse_q_list)
from rudin_shapiro.evaluate import read_grid_dump
from rudin_shapiro.norms import MIN_Q


def artifact_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


def artifact_config(path: Path) -> dict:
    """The configuration embedded in a JSON or CSV artifact."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["config"]
    first = text.splitlines()[0]
    assert first.startswith("# config ")
    return json.loads(first[len("# config "):])


class TestParsing:
    def test_angles(self):
        assert parse_angle("2pi") == pytest.approx(math.tau)
        assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
        assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
        assert parse_angle("0.5") == 0.5
        assert parse_angle("32pi/1024") == pytest.approx(32 * math.pi / 1024)
        assert parse_angle("-pi") == pytest.approx(-math.pi)

    def test_angle_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("two pies")
        for text in ("1e400", "-1e400pi", "1e308pi", "1e308pi/0.5"):
            with pytest.raises(ValueError, match="finite"):
                parse_angle(text)
        for text in ("pi/0", "1/0", "-3pi/0.0", "0/.0"):
            with pytest.raises(ValueError, match="divides by zero"):
                parse_angle(text)

    def test_arc(self):
        arc = parse_arc("0:2pi")
        assert arc.alpha == 0.0
        assert arc.beta == pytest.approx(math.tau)

    def test_k_ranges(self):
        assert parse_k_range("8") == [8]
        assert parse_k_range("1..4") == [1, 2, 3, 4]
        assert parse_k_range("4,6,8") == [4, 6, 8]

    def test_q_list(self):
        assert parse_q_list("0.25,1,2") == [0.25, 1.0, 2.0]
        with pytest.raises(ValueError):
            parse_q_list("0,-1")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["generate", "--nope"]) == 2

    def test_resource_limit_is_exit_3(self, tmp_path, capsys):
        assert main(["roots", "--k", "15", "--out", str(tmp_path)]) == 3

    def test_invalid_arc_is_usage_error(self, tmp_path, capsys):
        assert main(["norm", "--k", "3", "--q", "2", "--arc", "1:0",
                     "--out", str(tmp_path)]) == 2

    def test_sampler_memory_guard_is_exit_3(self, tmp_path, capsys):
        # past 2^24 points a full circle streams sub-grids of stride 4
        # (40000001) or 65536 (10^12), so neither count can be tiled
        for argv in (["norm", "--k", "4", "--q", "2", "--count", "40000001"],
                     ["distribution", "--k", "3", "--count", "1000000000000"]):
            assert main(argv + ["--out", str(tmp_path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("resource limit:") and err.count("\n") == 1
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["norm", "--k", "3", "--q", "2", "--count", "40000001"],
        ["distribution", "--k", "3", "--count", "1000000000000"]],
        ids=["norm", "distribution"])
    @pytest.mark.parametrize("out", ["new", "new/nested"])
    def test_refusal_leaves_no_new_out_directory(self, argv, out, tmp_path,
                                                 capsys):
        assert main(argv + ["--out", str(tmp_path / out)]) == 3
        assert capsys.readouterr().err.startswith("resource limit:")
        assert not list(tmp_path.iterdir())

    def test_full_circle_count_past_cap_needs_its_stride(self, tmp_path,
                                                         capsys):
        # past 2^24 points a full circle streams sub-grids of stride 2,
        # so an odd count is refused before any evaluation
        assert main(["norm", "--k", "3", "--q", "2", "--count", "16777217",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit:") and "stride 2" in err
        assert err.count("\n") == 1 and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["norm", "--k", "4", "--q", "inf"],
        ["norm", "--k", "4", "--q", "2,nan"],
        ["norm", "--k", "5..3", "--q", "2"],
        ["roots", "--k", "3", "--tol", "-1"],
        ["roots", "--k", "3", "--max-iter", "0"],
        ["census", "--k", "3", "--tol", "nan"],
        ["census", "--k", "3", "--eps", "nan"],
        ["generate", "--k", "3", "--threads", "0"],
        ["eval", "--k", "3", "--theta", "0", "--threads", "-3"],
        ["mercer", "--random", "-1"],
        ["mercer", "--random", "5", "--falsify", "-1"],
        ["verify", "lattice_pair", "--k", "3", "--arcs", "-1"],
        ["mercer", "--random", "5", "--degree", "1"],
        ["mercer"],
        ["eval", "--k", "3", "--count", "0"],
        ["eval", "--k", "3", "--count", "1"],
        ["norm", "--k", "3", "--q", "2", "--count", "1"],
        ["saffari", "--k", "3", "--count", "1"],
        ["problem55", "--k", "3", "--count", "1"],
        ["eval", "--k", "3", "--theta", "1e400"],
        ["eval", "--k", "3", "--theta", "1e308pi"],
        ["verify", "level_set", "--k", "4..5", "--arcs", "0"],
        ["verify", "moment_bounds", "--k", "2"],
        ["eval", "--k", "3", "--theta", "pi/0"],
        ["norm", "--k", "3", "--q", "2", "--arc", "0:1/0"],
        ["distribution", "--k", "3", "--bins", "100000000000"],
        ["distribution", "--k", "3", "--count", "64", "--bins", "65"],
        ["eval", "--k", "3", "--theta", "pi/3", "--arc", "0:pi"],
        ["eval", "--k", "3", "--theta", "pi/3", "--count", "99"],
        ["eval", "--k", "3", "--theta", "pi/3", "--no-offset"],
        ["eval", "--k", "3", "--theta", "pi/3", "--dump", "g.bin"],
        ["eval", "--k", "3", "--theta", "pi/3", "--arc", "0:pi", "--count",
         "99", "--no-offset", "--dump", "g.bin"],
        ["verify", "moment_bounds", "--k", "6", "--q", "1e300", "--arcs", "1"],
        ["saffari", "--k", "10", "--q", "250"],
        ["norm", "--k", "4", "--q", "1e-15"],
        ["norm", "--k", "4", "--q", "1e-300"],
    ], ids=["q_inf", "q_nan", "empty_k_range", "roots_tol_negative",
            "roots_max_iter_zero", "census_tol_nan", "census_eps_nan",
            "threads_zero", "threads_negative",
            "mercer_random_negative", "falsify_negative", "arcs_negative",
            "mercer_degree_1", "mercer_no_input", "eval_count_zero",
            "eval_count_one", "norm_count_one", "saffari_count_one",
            "problem55_count_one", "theta_overflow", "theta_pi_overflow",
            "verify_no_arcs", "verify_no_admissible_arc",
            "theta_zero_denominator", "arc_zero_denominator",
            "bins_past_default_count", "bins_past_count", "theta_with_arc",
            "theta_with_count", "theta_with_no_offset", "theta_with_dump",
            "theta_with_every_grid_flag", "moment_q_overflow",
            "saffari_q_overflow", "norm_q_cancels", "norm_q_underflows"])
    def test_bad_numeric_input_is_usage_error(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("q", ["0", "1e-15", "inf"])
    def test_exponent_has_one_refusal(self, q, tmp_path, capsys):
        # refused while parsing --q, before any grid is drawn
        assert main(["norm", "--k", "4", "--q", q,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"invalid configuration: M_q needs a finite exponent q >= "
            f"{MIN_Q:.3g}, got {float(q)}; q -> 0 is the Mahler measure M_0\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        "eval", "norm", "mahler", "distribution", "saffari", "problem55"])
    def test_count_has_one_boundary(self, command, tmp_path, capsys):
        argv = [command, "--k", "3", "--count", "1", "--out", str(tmp_path)]
        if command == "norm":
            argv += ["--q", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "invalid configuration: --count must be >= 2, got 1\n"

    @pytest.mark.parametrize("argv", [
        ["generate", "--k", "4", "--format", "json"],
        ["generate", "--k", "4", "--cache-dir", "x"],
        ["generate", "--k", "4", "--write-cache"],
        ["bench", "--k", "3"],
        ["mahler", "--k", "4", "--exclusion-radius", "0.01"],
    ], ids=["format", "cache_dir", "write_cache", "bench", "exclusion_radius"])
    def test_removed_flags_are_usage_errors(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, out", [
        (["generate", "--k", "3"], "taken.bin"),
        (["generate", "--k", "3"], "taken.bin/sub"),
        (["eval", "--k", "3", "--dump", "sub/g.bin"], "new"),
        (["eval", "--k", "3", "--dump", "../g.bin"], "new"),
        (["eval", "--k", "3", "--dump", ".."], "new"),
        (["eval", "--k", "3", "--dump", "taken_dir"], "."),
    ], ids=["out_is_file", "out_under_file", "dump_nested", "dump_parent",
            "dump_dotdot", "dump_is_dir"])
    def test_unwritable_artifact_path_is_usage_error(self, argv, out, tmp_path,
                                                     capsys):
        (tmp_path / "taken.bin").write_bytes(b"")
        (tmp_path / "taken_dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(argv + ["--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before


class TestSubcommands:
    def test_generate(self, tmp_path, capsys):
        assert main(["generate", "--k", "5", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "generate_k05.json").read_text())
        assert payload["results"]["n"] == 32
        assert payload["results"]["closed_forms_match"] is True
        assert payload["config"]["subcommand"] == "generate"

    def test_eval_point(self, tmp_path, capsys):
        assert main(["eval", "--k", "2", "--theta", "0",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "eval_k02_point.json").read_text())
        assert payload["results"]["p_re"] == pytest.approx(2.0)

    def test_eval_grid_with_dump(self, tmp_path, capsys):
        assert main(["eval", "--k", "3", "--arc", "0:2pi", "--count", "64",
                     "--dump", "grid.bin", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "eval_k03_grid.json").read_text())
        assert payload["results"]["mean_p_squared_over_n"] == \
            pytest.approx(1.0, abs=1e-10)
        assert (tmp_path / "grid.bin").is_file()

    @pytest.mark.parametrize("extra", [
        ["--arc", "0:2pi", "--count", "4096"],
        ["--arc", "0.3:3.3", "--count", "20000", "--no-offset"],
        ["--arc", "0.3:3.3", "--count", "999"],
    ], ids=["fft", "chirp", "recursion"])
    def test_eval_reads_its_own_grid(self, extra, tmp_path, capsys):
        # ids: the full-circle FFT, and chirp-z point sets (the recursion)
        # of two blocks on the lattice and of one block
        # mean |P|^2 and the flatness residual come off the dumped samples
        assert main(["eval", "--k", "8", *extra, "--dump", "grid.bin",
                     "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "eval_k08_grid.json").read_text())
        grid = read_grid_dump(tmp_path / "grid.bin")
        p_sq = np.abs(grid.values_p) ** 2
        assert result["results"]["mean_p_squared"] == float(np.mean(p_sq))
        assert result["results"]["flatness_residual"] == float(np.max(np.abs(
            p_sq + np.abs(grid.values_q) ** 2 - 512.0))) / 512.0

    def test_eval_full_lattice_mode(self, tmp_path, capsys):
        assert main(["eval", "--k", "4", "--arc", "0:2pi", "--count", "16",
                     "--no-offset", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "eval_k04_grid.json").read_text())
        assert payload["config"]["half_offset"] is False

    def test_norm_example_value(self, tmp_path, capsys):
        assert main(["norm", "--k", "3", "--q", "2",
                     "--arc", "0:6.283185307", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2.8284271" in out
        lines = (tmp_path / "norms.csv").read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "k,alpha,beta,q,value,count,rel_step,flagged"

    def test_mahler(self, tmp_path, capsys):
        assert main(["mahler", "--k", "8", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "mahler.csv").is_file()

    def test_roots_and_flags(self, tmp_path, capsys):
        assert main(["roots", "--k", "4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "roots_k04_p.csv").read_text().splitlines()
        assert lines[1] == "re,im,residual,flag"
        assert len(lines) == 2 + 15

    def test_census(self, tmp_path, capsys):
        assert main(["census", "--k", "5", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "census_k05.json").read_text())
        assert len(payload["results"]) == 2
        # the root finder takes no seed: only the header records --seed
        assert payload["config"]["seed"] == 0
        for entry in payload["results"]:
            assert "seed" not in entry
            total = entry["inside_open_disk"] + \
                entry["on_circle_within_eps"] + entry["outside"]
            assert total == 31
            assert entry["real_zeros"] == 1
            assert entry["real_zeros_certified"] == 1

    def test_census_k_range(self, tmp_path, capsys):
        assert main(["census", "--k", "3..5", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["census_k03.json", "census_k04.json", "census_k05.json"]
        for k in (3, 4, 5):
            payload = json.loads((tmp_path / f"census_k{k:02d}.json")
                                 .read_text())
            assert payload["config"]["k"] == k
            p_min, q_min = (entry["min_modulus_away_from_poles"]
                            for entry in payload["results"])
            assert p_min > 0 and q_min > 0
            # |Q(z)| = |P(-z)|, and the excluded zones are symmetric
            # under theta -> theta + pi
            assert q_min == pytest.approx(p_min, rel=1e-9)

    @pytest.mark.parametrize("argv", [
        ["census", "--k", "3", "--tol", "1e-300"],
        ["roots", "--k", "3", "--tol", "1e-300"],
    ], ids=["census", "roots"])
    def test_flagged_roots_fail_the_check(self, tmp_path, capsys, argv):
        # P_3(-1) = Q_3(1) = 0 is hit exactly; the other 6 roots stay flagged
        assert main(argv + ["--out", str(tmp_path)]) == 1
        if argv[0] == "census":
            payload = json.loads((tmp_path / "census_k03.json").read_text())
            assert [entry["flagged_roots"] for entry in payload["results"]] \
                == [6, 6]

    def test_non_finite_root_exits_2(self, tmp_path, capsys, monkeypatch):
        # find_roots flags a NaN root; the census refuses to count it
        find_roots = roots.find_roots

        def nan_first_root(poly, tol):
            rootset = find_roots(poly, tol=tol)
            values = rootset.roots.copy()
            values[0] = complex(math.nan, 0)
            flags = rootset.flags.copy()
            flags[0] = True
            return dataclasses.replace(rootset, roots=values, flags=flags)

        monkeypatch.setattr(roots, "find_roots", nan_first_root)
        assert main(["census", "--k", "3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["invalid configuration: 1 root(s) are not finite; "
                       "refusing to count them into the census bands"]
        assert not (tmp_path / "census_k03.json").exists()

    def test_verify_gated_pass(self, tmp_path, capsys):
        assert main(["verify", "lattice_pair", "--k", "1..6",
                     "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "verify_summary.csv").read_text().splitlines()
        assert len(summary) == 2 + 6
        assert (tmp_path / "verify_lattice_pair_bound.json").is_file()

    def test_verify_moment_bounds_small(self, tmp_path, capsys):
        assert main(["verify", "moment_bounds", "--k", "5,6", "--arcs", "2",
                     "--q", "1,2", "--out", str(tmp_path)]) == 0

    def test_distribution(self, tmp_path, capsys):
        assert main(["distribution", "--k", "8", "--bins", "16",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "distribution_k08.json").read_text())
        assert payload["results"]["sup_distance_to_uniform"] < 0.2
        assert len(payload["results"]["rectangles"]) == 5

    def test_saffari_q2_gate(self, tmp_path, capsys):
        assert main(["saffari", "--k", "2..8", "--q", "2",
                     "--out", str(tmp_path)]) == 0

    def test_mercer_random(self, tmp_path, capsys):
        assert main(["mercer", "--random", "50", "--degree", "32",
                     "--seed", "7", "--falsify", "3",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "mercer.json").read_text())
        assert len(payload["results"]) == 50
        assert all(entry["certified"] for entry in payload["results"])
        assert "falsifier_min_modulus" in payload["results"][0]

    def test_mercer_explicit_coefficients(self, tmp_path, capsys):
        assert main(["mercer", "--coeffs", "1,1,-1",
                     "--out", str(tmp_path)]) == 0

    def test_mercer_inapplicable_input_still_ok(self, tmp_path, capsys):
        # classification is an answer, not a failure
        assert main(["mercer", "--coeffs", "1,1,1,-1",
                     "--out", str(tmp_path)]) == 0

    def test_problem55(self, tmp_path, capsys):
        assert main(["problem55", "--k", "1..4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "problem55.csv").read_text().splitlines()
        assert lines[1].startswith("k,value,ratio_to_sqrt_n")
        assert len(lines) == 2 + 4


class TestDeterminism:
    COMMANDS = [
        ["generate", "--k", "6"],
        ["norm", "--k", "2..5", "--q", "0.5,2"],
        ["mahler", "--k", "6"],
        ["roots", "--k", "5"],
        ["census", "--k", "5"],
        ["verify", "lattice_pair", "--k", "1..5"],
        ["distribution", "--k", "7", "--bins", "8"],
        ["saffari", "--k", "4,6", "--q", "1,2"],
        ["mercer", "--random", "20", "--degree", "16", "--falsify", "2"],
        ["problem55", "--k", "1..3"],
    ]

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    def test_rerun_byte_identical(self, command, tmp_path, capsys):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(command + ["--out", str(first)]) == 0
        assert main(command + ["--out", str(second)]) == 0
        assert artifact_bytes(first) == artifact_bytes(second)
        for path in first.iterdir():
            assert "format" not in artifact_config(path)

    @pytest.mark.parametrize("threads", ["2", "8"])
    def test_thread_count_invisible_in_artifacts(self, threads, tmp_path,
                                                 capsys):
        base = tmp_path / "t1"
        other = tmp_path / f"t{threads}"
        command = ["eval", "--k", "8", "--arc", "0:2pi", "--count", "8192"]
        assert main(command + ["--threads", "1", "--out", str(base)]) == 0
        assert main(command + ["--threads", threads, "--out", str(other)]) == 0
        assert artifact_bytes(base) == artifact_bytes(other)


class TestParserReuse:
    def test_calls_in_one_process_leak_nothing(self, tmp_path, capsys):
        build_parser.cache_clear()
        assert main(["verify", "--bogus"]) == 2
        assert capsys.readouterr().err.startswith("usage: rudin-shapiro")
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: rudin-shapiro [-h]")
        for command in COMMANDS:
            assert main([command, "--help"]) == 0
            assert capsys.readouterr().out.startswith(
                f"usage: rudin-shapiro {command} [-h]")
        runs = [["saffari", "--k", "4", "--q", "1"], ["saffari", "--k", "4"]]
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"reused{i}")]) == 0
        assert build_parser.cache_info().misses == 1
        assert artifact_config(tmp_path / "reused1" / "saffari.csv")["q"] == \
            [1.0, 2.0, 4.0]
        for i, argv in enumerate(runs):
            build_parser.cache_clear()
            assert main(argv + ["--out", str(tmp_path / f"fresh{i}")]) == 0
            assert artifact_bytes(tmp_path / f"fresh{i}") == \
                artifact_bytes(tmp_path / f"reused{i}")

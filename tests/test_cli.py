"""Tests for the command line front end."""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

from maxclass import cli
from maxclass.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, build_parser, main
from maxclass.exceptional import CONSTRUCT_MAX_DEGREE, CONSTRUCT_MAX_Q
from maxclass.search import SEARCH_MAX_LEVELS
from maxclass.sequences import BetaSequence
from maxclass.arith import PrimeField

F3 = PrimeField(3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_theorem_member_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--p", "5", "--c", "2",
                           "--n", "2", "--m", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["params"]["mode"] == "theorem"
        assert payload["depth"] == 79
        assert payload["constituents"]["ell"] == 26
        lengths = [c["length"] for c in payload["constituents"]["constituents"]]
        assert lengths == [26, 25, 25]
        assert len(payload["betas"]) == 77

    def test_report_flag(self, capsys):
        code, out, _ = run(capsys, "construct", "--p", "3", "--c", "2",
                           "--n", "2", "--m", "1", "--report",
                           "--jacobi-depth", "20")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["report"]["ok"] is True
        assert payload["report"]["ideal_ok"] is True
        assert payload["report"]["jacobi_depth"] == 20

    def test_report_too_shallow_to_decide_is_refused(self, capsys):
        # two complete constituents of (3, 1, 2, 1) end at index 4 + 3 = 7
        argv = ["construct", "--p", "3", "--c", "1", "--n", "2", "--m", "1", "--report"]
        code, out, err = run(capsys, *argv, "--depth", "6")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "at least 7" in err
        code, out, _ = run(capsys, *argv, "--depth", "7")
        assert code == EXIT_OK
        assert json.loads(out)["report"]["ok"] is True

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "construct", "--p", "5", "--c", "2",
                           "--n", "2", "--m", "1", "--format", "text")
        assert code == EXIT_OK
        assert "first constituent length: 26" in out
        assert "mode=theorem" in out

    def test_text_report_lines(self, capsys):
        code, out, _ = run(capsys, "construct", "--p", "5", "--c", "2", "--n", "2",
                           "--m", "1", "--report", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[-8:] == ["report: ok"] + [
            f"  {key}_ok: True" for key in ("ordinary", "trailing", "closed_form", "genfunc",
                                            "two_path", "jacobi", "ideal")]

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "construct", "--p", "3", "--c", "2",
                          "--n", "3", "--m", "2")
        _, second, _ = run(capsys, "construct", "--p", "3", "--c", "2",
                           "--n", "3", "--m", "2")
        assert first == second

    def test_nonprime_modulus(self, capsys):
        code, out, err = run(capsys, "construct", "--p", "4", "--c", "2",
                             "--n", "2", "--m", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "not prime" in err

    def test_negative_jacobi_depth_is_usage_error(self, capsys):
        code, out, err = run(capsys, "construct", "--p", "3", "--c", "2",
                             "--n", "2", "--m", "1", "--report",
                             "--jacobi-depth", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "jacobi depth" in err

    @pytest.mark.parametrize("cap", ["-7", "5"])
    def test_jacobi_depth_needs_report(self, capsys, cap):
        # the cap is read only by the report; without it the flag would be dropped
        code, out, err = run(capsys, "construct", "--p", "5", "--c", "2",
                             "--n", "2", "--m", "1", "--jacobi-depth", cap)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --jacobi-depth needs --report\n"

    @pytest.mark.parametrize("n, m, cap", [(2, 1, "0"), (3, 1, "2")])
    def test_jacobi_depth_below_type_is_usage_error(self, capsys, n, m, cap):
        # 0 is not "no cap", and a cap below n would check nothing
        code, out, err = run(capsys, "construct", "--p", "5", "--c", "2",
                             "--n", str(n), "--m", str(m), "--report",
                             "--jacobi-depth", cap)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: jacobi depth must be at least n = {n}, got {cap}\n"

    def test_full_report_at_q343(self, capsys):
        # the default depth 3q + 2n = 1033 runs the ideal check on all of it
        code, out, _ = run(capsys, "construct", "--p", "7", "--c", "3",
                           "--n", "2", "--m", "1", "--report")
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["depth"] == 1033 and report["ideal_ok"] is True

    def test_deep_report_at_small_q(self):
        # q = 3 to depth 30,000 within 20 s: the ideal check reads one
        # coefficient per level, so the report is linear in the depth
        proc = subprocess.run(
            [sys.executable, "-m", "maxclass", "construct", "--p", "3", "--c", "1",
             "--n", "2", "--m", "1", "--depth", "30000", "--report"],
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["report"]["ideal_ok"] is True
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            "c9f7a51108144f5a063f5033d7776cb840918f3210134bbff9547e1c0160b2c6"

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "construct", "--p", "3", "--c", "1",
                           "--n", "2", "--m", "2")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_report_refused_without_closed_forms(self, capsys):
        # 2n > q + m: constructible, but no closed form to report against
        code, _, err = run(capsys, "construct", "--p", "5", "--c", "1",
                           "--n", "4", "--m", "1", "--report")
        assert code == EXIT_USAGE
        assert "closed forms" in err

    def test_q_above_size_guard_is_refused(self, capsys):
        # q = 3^20 would need about 3.5e9 operator entries; refused unbuilt.
        # The benchmark builds q = 3^7, which must stay under the bound.
        # At c = 10^7, q has millions of digits: refused without forming it.
        assert 3 ** 7 <= CONSTRUCT_MAX_Q < 3 ** 20
        for c in ("20", "10000000"):
            code, out, err = run(capsys, "construct", "--p", "3", "--c", c,
                                 "--n", "2", "--m", "1")
            assert code == EXIT_USAGE
            assert out == ""
            assert err.count("\n") == 1 and "CONSTRUCT_MAX_Q" in err

    def test_depth_above_bound_is_refused(self, capsys):
        # every member under CONSTRUCT_MAX_Q may run at its default depth
        # 3q + 2n, which builds to degree 3q + 3n <= 6q
        assert CONSTRUCT_MAX_DEGREE >= 6 * CONSTRUCT_MAX_Q
        code, out, err = run(capsys, "construct", "--p", "3", "--c", "1",
                             "--n", "2", "--m", "1", "--depth", "10000000")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "CONSTRUCT_MAX_DEGREE" in err

    def test_construct_without_report_allows_any_shape(self, capsys):
        code, out, _ = run(capsys, "construct", "--p", "5", "--c", "1",
                           "--n", "4", "--m", "1")
        assert code == EXIT_OK
        assert json.loads(out)["params"]["mode"] == "construction"


class TestVerify:
    def test_file_round_trip(self, capsys, tmp_path, algebra_cache):
        path = tmp_path / "seq.json"
        algebra_cache(3, 2, 2, 1).sequence.truncate(20).to_file(path)
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["jacobi"]["ok"] is True

    def test_tampered_file_fails(self, capsys, tmp_path, algebra_cache):
        seq = algebra_cache(3, 2, 2, 1).sequence.truncate(20)
        data = seq.to_dict()
        data["betas"][10] = (data["betas"][10] + 1) % 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_CHECK_FAILED
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["jacobi"]["failure"]["kind"] == "antisymmetry"

    def test_inline_betas(self, capsys):
        code, out, _ = run(capsys, "verify", "--betas", "1,1,1,1,1,1",
                           "--p", "3", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["constituents"]["ell"] == 4

    # int() alone would read "0_0,1_1" as 0, 11 and the Arabic-Indic "\u0661,\u0662" as 1, 2
    @pytest.mark.parametrize("betas", ["1,,2,0", "1,2,", ",1", "1,x", "0_0,1_1",
                                       "\u0661,\u0662", "+-1", "1 2", "\t1"])
    def test_inline_betas_refuse_a_field_that_is_not_an_integer(self, capsys, betas):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--betas", betas, "--p", "3", "--n", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "not a comma separated integer list" in capsys.readouterr().err

    def test_inline_betas_take_spaces_and_a_sign(self, capsys):
        code, out, _ = run(capsys, "verify", "--betas", " 1, -2", "--p", "3", "--n", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["depth"] == 4 and payload["constituents"]["ell"] == 4

    def test_empty_inline_betas_are_the_empty_prefix(self, capsys):
        code, out, _ = run(capsys, "verify", "--betas", "", "--p", "3", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["depth"] == 2

    def test_text_passing_jacobi_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--betas", "1,1,1,1,1,1", "--p", "3",
                           "--n", "2", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "jacobi: ok (pairs=9 triples=4 depth=8)"

    def test_type_past_a_c_size_passes(self, capsys):
        # n = 2^63 overflows any container sized by n; no level closes here
        code, out, err = run(capsys, "verify", "--p", "3", "--n", str(2**63), "--betas", "1")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["jacobi"] == {"depth": 2**63 + 1, "failure": None, "ok": True,
                                             "pairs_checked": 0, "triples_checked": 0}

    def test_inline_betas_need_modulus_and_type(self, capsys):
        code, _, err = run(capsys, "verify", "--betas", "1,1")
        assert code == EXIT_USAGE
        assert "--betas needs --p and --n" in err

    @pytest.mark.parametrize("extra", [["--p", "7", "--n", "5"], ["--n", "2"]])
    def test_file_refuses_modulus_and_type(self, capsys, tmp_path, extra):
        # the file carries its own p and n; the flags would be dropped
        path = tmp_path / "seq.json"
        BetaSequence(F3, 2, (0, 0, 1, 1)).to_file(path)
        code, out, err = run(capsys, "verify", "--file", str(path), *extra)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --p and --n go with --betas\n"

    def test_modulus_above_bound_refused_at_once(self):
        # a 19-digit prime: trial division to its square root takes minutes
        proc = subprocess.run(
            [sys.executable, "-m", "maxclass", "verify", "--betas", "1",
             "--p", "1000000000000000003", "--n", "2"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: modulus 1000000000000000003 exceeds")
        assert proc.stderr.count("\n") == 1

    def test_binomial_row_past_the_table_limit(self, tmp_path):
        # one ordinary constituent of type 33,000 at a prime above 2^15: its
        # check reads a whole row of (X - 1)^32999, whose digits pass TABLE_LIMIT
        n, p = 33000, 999999937
        binoms = [1]
        for i in range(n - 1):
            binoms.append(binoms[-1] * (n - 1 - i) // (i + 1))
        betas = [(-1) ** i * binoms[i] % p for i in range(n - 1, -1, -1)]
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"p": p, "n": n, "depth": 2 * n, "betas": betas}))
        proc = subprocess.run(
            [sys.executable, "-m", "maxclass", "verify", "--file", str(path)],
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["constituents"]["constituents"][0]["ordinary"] is True
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            "c35a9d748daaf65f47db34a580f695610c5f5e4dbf8b08add6937718566d2f82"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "--file", "/does/not/exist.json")
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("document", [
        [3, 2, 5, [0, 0, 0]],
        {"p": 3, "n": 2, "depth": 5, "betas": None},
        {"p": None, "n": 2, "depth": 3, "betas": [1]},
        {"p": 3, "n": 2, "depth": 3, "betas": [None]},
        {"p": 3, "n": 2, "depth": 3, "betas": [1.5]},
        # raw text, deeper than the JSON parser can recurse
        pytest.param("[" * 100_000, id="nested_100000"),
    ])
    def test_malformed_file_is_usage_error(self, capsys, tmp_path, document):
        path = tmp_path / "bad.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_depth_truncation(self, capsys, tmp_path, algebra_cache):
        path = tmp_path / "seq.json"
        algebra_cache(3, 2, 2, 1).sequence.to_file(path)
        code, out, _ = run(capsys, "verify", "--file", str(path),
                           "--depth", "15")
        assert code == EXIT_OK
        assert json.loads(out)["depth"] == 15

    def test_text_failure_names_the_witness(self, capsys, tmp_path):
        seq = BetaSequence(F3, 2, (0, 0, 1, 1, 0, 0, 0, 0))
        path = tmp_path / "odd.json"
        seq.to_file(path)
        code, out, _ = run(capsys, "verify", "--file", str(path),
                           "--format", "text")
        assert code == EXIT_CHECK_FAILED
        assert "FAILED" in out


class TestClassify:
    def test_json_admissible_keys(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "5", "--n", "3",
                           "--k-max", "40")
        assert code == EXIT_OK
        payload = json.loads(out)
        ks = sorted(int(k) for k in payload["admissible"])
        assert ks == [5, 6, 7, 8, 23, 24, 25, 26, 27]
        assert payload["menu_ok"] and payload["structure_ok"]

    def test_text_matches_fixture_lines(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "classify", "--p", "5", "--n", "3",
                           "--k-max", "130", "--format", "text")
        assert code == EXIT_OK
        body = "".join(line + "\n" for line in out.splitlines()
                       if not line.startswith(("menu:", "structure:")))
        assert body == (fixture_dir / "classify_p5_n3_k130.txt").read_text()

    def test_type_out_of_range(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "5", "--n", "6",
                           "--k-max", "40")
        assert code == EXIT_USAGE
        assert "1 < n < p" in err

    def test_no_exponent_to_test(self, capsys):
        code, out, err = run(capsys, "classify", "--p", "5", "--n", "3",
                             "--k-max", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "k_max >= n + 2" in err


class TestSearch:
    def test_frozen_enumeration(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "3", "--n", "2",
                           "--depth", "12")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["solution_count"] == 9
        assert payload["nodes"] == 167
        assert payload["solutions"][7] == [1] * 10

    def test_seed_and_no_normalize(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "3", "--n", "2",
                           "--depth", "12", "--no-normalize")
        assert code == EXIT_OK
        assert json.loads(out)["solution_count"] == 17
        code, out, _ = run(capsys, "search", "--p", "3", "--n", "2",
                           "--depth", "12", "--seed", "0,0,1,2")
        assert code == EXIT_OK
        assert json.loads(out)["solution_count"] == 3

    @pytest.mark.parametrize("seed", ["0,,1", "0,1,"])
    def test_seed_refuses_an_empty_field(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--p", "3", "--n", "2", "--depth", "12", "--seed", seed])
        assert exc.value.code == EXIT_USAGE
        assert "not a comma separated integer list" in capsys.readouterr().err

    def test_seed_refuses_underscored_digits(self, capsys):
        # int("0_0") is 0, which would pin two entries instead of refusing
        with pytest.raises(SystemExit) as exc:
            main(["search", "--p", "3", "--n", "2", "--depth", "10", "--seed", "0_0,1"])
        assert exc.value.code == EXIT_USAGE
        assert ("argument --seed: not a comma separated integer list: '0_0,1'"
                in capsys.readouterr().err)

    def test_budget_exhaustion_exits_nonzero(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "3", "--n", "2",
                           "--depth", "12", "--budget", "20")
        assert code == EXIT_CHECK_FAILED
        payload = json.loads(out)
        assert payload["exhausted"] is True

    def test_depth_above_bound_is_usage_error(self, capsys):
        # refused before the search starts
        assert SEARCH_MAX_LEVELS >= 5000
        code, out, err = run(capsys, "search", "--p", "3", "--n", "2",
                             "--depth", "100000000", "--budget", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "SEARCH_MAX_LEVELS" in err

    def test_type_past_a_c_size_searches(self, capsys):
        # the bound counts levels, 12 here, so n = 2^63 searches as it verifies
        code, out, err = run(capsys, "search", "--p", "3", "--n", str(2**63),
                             "--depth", str(2**63 + 12))
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["deepest"] == 2**63 + 12

    def test_large_prime_allocates_no_candidate_list(self):
        # a list of all p candidates would need tens of GB at this prime;
        # under a 1 GB address-space limit it fails at once
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "maxclass", "search", "--p", "999999937",
             "--n", "2", "--depth", "8", "--no-normalize", "--budget", "10",
             "--format", "text"],
            capture_output=True, text=True, timeout=60,
            preexec_fn=limit_memory)
        assert proc.returncode == EXIT_CHECK_FAILED
        assert proc.stdout.splitlines()[0] == \
            "solutions: 1 nodes: 11 (budget exhausted)"
        assert proc.stderr == ""

    def test_walk_past_the_recursion_limit_is_one_line(self):
        # the walk takes one stack frame per level, so at the default limit
        # a branch of 1,198 levels is refused in one line, not a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "maxclass", "search", "--p", "5", "--n", "2",
             "--depth", "1200", "--budget", "2000"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "depth 1200" in proc.stderr and "recursion limit 1000" in proc.stderr

    @pytest.mark.parametrize("limit", ["--budget", "--max-solutions"])
    def test_negative_limit_is_usage_error(self, capsys, limit):
        code, out, err = run(capsys, "search", "--p", "3", "--n", "2",
                             "--depth", "8", limit, "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "nonnegative" in err

    def test_text_lists_solutions(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "3", "--n", "2",
                           "--depth", "12", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "solutions: 9 nodes: 167"
        assert "1,1,1,1,1,1,1,1,1,1" in out

    def test_text_truncated_solution_list(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "3", "--n", "2", "--depth", "12",
                           "--max-solutions", "3", "--format", "text")
        assert code == EXIT_CHECK_FAILED
        assert out.splitlines() == ["solutions: 9 nodes: 167 (solution list truncated)",
                                    "0,0,0,0,0,0,0,0,0,0",
                                    "0,0,0,0,0,0,0,0,1,2",
                                    "0,0,0,0,0,0,1,1,0,0"]


class TestParser:
    def test_one_integer_grammar_and_one_subcommand_table(self):
        [subparsers] = [a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        assert sorted(subparsers.choices) == ["classify", "construct", "search", "verify"]
        for name, sub in subparsers.choices.items():
            assert callable(sub.get_default("run")), name
            assert callable(sub.get_default("text")), name
            for action in sub._actions:
                assert action.type is not int, (name, action.dest)

    # int() would read the Arabic-Indic digits as 5 and 3, and 1_0 as 10
    @pytest.mark.parametrize("argv, option", [
        (["classify", "--p", "\u0665", "--n", "3", "--k-max", "10"], "--p"),
        (["classify", "--p", "5", "--n", "3", "--k-max", "1_0"], "--k-max"),
        (["search", "--p", "3", "--n", "2", "--depth", "1_0"], "--depth"),
        (["search", "--p", "3", "--n", "2", "--depth", "10", "--budget", "\u0663"],
         "--budget"),
        (["construct", "--p", "5", "--c", "2", "--n", "\t2", "--m", "1"], "--n"),
        (["verify", "--betas", "1", "--p", "3", "--n", "2", "--depth", "2.0"], "--depth"),
    ])
    def test_integer_options_refuse_what_is_not_ascii_digits(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = [line for line in captured.err.splitlines() if "error:" in line]
        assert f"error: argument {option}: not an integer: " in line

    @pytest.mark.parametrize("argv", [
        ["construct", "--c", "1", "--n", "2", "--m", "1"],
        ["verify", "--betas", "1", "--n", "2"],
        ["classify", "--n", "3", "--k-max", "10"],
        ["search", "--n", "2", "--depth", "5"]])
    def test_every_subcommand_refuses_a_prime_above_the_bound(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--p", "1000000007")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: modulus 1000000007 exceeds the supported bound 1000000000\n"

    def test_file_with_a_prime_above_the_bound_is_refused(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"p": 1000000007, "n": 2, "depth": 3, "betas": [1]}))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: modulus 1000000007 exceeds the supported bound 1000000000\n"

    def test_key_error_is_not_a_usage_error(self, monkeypatch):
        # no handler raises one on bad input, so it is a bug and must show
        def fail(*args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "classify_admissible_k", fail)
        with pytest.raises(KeyError, match="bug"):
            main(["classify", "--p", "5", "--n", "3", "--k-max", "10"])

    def test_integer_options_take_spaces_and_a_sign(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", " 5", "--n", "3", "--k-max", "+60")
        assert code == EXIT_OK
        assert out == run(capsys, "classify", "--p", "5", "--n", "3", "--k-max", "60")[1]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxclass", "verify", "--betas",
             "0,0,0,0", "--p", "3", "--n", "2"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert payload["constituents"]["metabelian_within_depth"] is True

    def test_closed_pipe_ends_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "maxclass", "search", "--p", "3",
                 "--n", "2", "--depth", "8", "--seed", "5,5"],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_CHECK_FAILED
        assert proc.stderr == ""

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxclass"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE

    def test_json_and_text_agree_on_verdict(self, capsys):
        for fmt in ("json", "text"):
            code, _, _ = run(capsys, "verify", "--betas", "0,1,0,0",
                             "--p", "3", "--n", "2", "--format", fmt)
            assert code == EXIT_CHECK_FAILED

import json

import numpy as np
import pytest

from skewrel import cli, serialize
from skewrel.cli import main
from skewrel.counterexamples import cov_variant_triple, re_ordering_triple


def write_problem(path, rho, a, b, label=None):
    doc = serialize.problem_to_wire(rho, a, b, label)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def cov_variant_file(tmp_path):
    rho, a, b = cov_variant_triple()
    return write_problem(tmp_path / "cov.json", rho.matrix, a.matrix, b.matrix, "cov-variant")


@pytest.fixture
def re_ordering_file(tmp_path):
    rho, a, b = re_ordering_triple()
    return write_problem(tmp_path / "re.json", rho.matrix, a.matrix, b.matrix)


class TestCompute:
    def test_report_fields_and_verdicts(self, cov_variant_file, capsys):
        assert main(["compute", cov_variant_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["label"] == "cov-variant"
        assert doc["report"]["U_A"] == pytest.approx(0.5, abs=1e-12)
        assert doc["report"]["cov"][0] == pytest.approx(1.0, abs=1e-12)
        ids = [v["relation_id"] for v in doc["verdicts"]]
        assert ids == ["heisenberg", "schrodinger", "luo", "schrodinger_wy"]
        assert all(v["holds"] for v in doc["verdicts"])

    def test_identity_observables(self, tmp_path, capsys):
        path = write_problem(tmp_path / "id.json", np.diag([0.25, 0.75]), np.eye(2), np.eye(2))
        assert main(["compute", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["V_A"] == 0.0
        assert doc["report"]["V_B"] == 0.0
        for v in doc["verdicts"]:
            assert v["holds"]
            assert v["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_chain_and_wyd_flags(self, re_ordering_file, capsys):
        assert main(["compute", re_ordering_file, "--chain", "--wyd", "0.25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        chain = doc["chain"]
        assert chain["t_corr_sq"] <= chain["t_triangle"] + 1e-9
        assert chain["t_uu"] == pytest.approx(np.sqrt(13.608 * 3.888), abs=1e-9)
        assert doc["wyd"]["0.25"]["A"] > 0

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rho": [[')
        assert main(["compute", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exits_1(self, capsys):
        assert main(["compute", "/nonexistent/problem.json"]) == 1

    def test_invalid_state_exits_2_naming_invariant(self, tmp_path, capsys):
        path = write_problem(tmp_path / "bad.json", np.diag([1.5, -0.5]), np.eye(2), np.eye(2))
        assert main(["compute", path]) == 2
        assert "eigenvalue" in capsys.readouterr().err

    def test_non_hermitian_observable_exits_2(self, tmp_path, capsys):
        doc = {
            "rho": serialize.matrix_to_wire(np.diag([0.5, 0.5])),
            "A": serialize.matrix_to_wire(np.array([[0, 1], [0, 0]])),
            "B": serialize.matrix_to_wire(np.eye(2)),
        }
        path = tmp_path / "nh.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path)]) == 2
        assert "Hermitian" in capsys.readouterr().err

    def test_boolean_entries_exit_2(self, tmp_path, capsys):
        # JSON true/false parse as Python bools, which are ints; they are
        # not numbers on the wire, so [[[true, false]]] must not read as 1+0j
        path = tmp_path / "bools.json"
        path.write_text('{"rho": [[[true, false]]], "A": [[[1, 0]]], "B": [[[1, 0]]]}')
        assert main(["compute", str(path)]) == 2
        assert "rho: entry (0,0) is not an [re, im] pair" in capsys.readouterr().err

    def test_wyd_out_of_range_exits_2(self, cov_variant_file, capsys):
        assert main(["compute", cov_variant_file, "--wyd", "1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_round_trip_is_bit_identical(self, cov_variant_file, capsys, tmp_path):
        main(["compute", cov_variant_file])
        first = capsys.readouterr().out
        echo = tmp_path / "echo.json"
        doc = json.loads(first)
        echo.write_text(json.dumps({k: doc[k] for k in ("rho", "A", "B")}))
        main(["compute", str(echo)])
        second = capsys.readouterr().out
        assert json.loads(second)["report"] == doc["report"]
        assert json.loads(second)["verdicts"] == doc["verdicts"]


class TestCheck:
    def test_false_relation_exits_3(self, cov_variant_file, capsys):
        code = main(["check", cov_variant_file, "--relations", "false_cov_variant"])
        assert code == 3
        out = capsys.readouterr().out
        assert "false_cov_variant" in out and "-0.75" in out and "NO" in out

    def test_re_ordering_exits_3(self, re_ordering_file, capsys):
        code = main(["check", re_ordering_file, "--relations", "false_re_ordering"])
        assert code == 3
        assert "-0.1539" in capsys.readouterr().out

    def test_theorems_exit_0(self, cov_variant_file, capsys):
        assert main(["check", cov_variant_file, "--relations", "schrodinger_wy"]) == 0
        assert main(["check", cov_variant_file]) == 0

    def test_unknown_relation_exits_2(self, cov_variant_file, capsys):
        assert main(["check", cov_variant_file, "--relations", "bogus"]) == 2


class TestReproduce:
    def test_all_cases_pass(self, capsys):
        assert main(["reproduce", "all"]) == 0
        out = capsys.readouterr().out
        body = [line for line in out.splitlines()[1:] if line.strip()]
        assert len(body) == 4
        assert all(line.endswith("pass") for line in body)

    def test_single_case(self, capsys):
        assert main(["reproduce", "remark2"]) == 0
        out = capsys.readouterr().out
        assert "-0.75" in out

    def test_alias(self, capsys):
        assert main(["reproduce", "re-ordering"]) == 0
        assert "-0.1539" in capsys.readouterr().out

    def test_default_is_all(self, capsys):
        assert main(["reproduce"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_unknown_case_exits_2(self, capsys):
        assert main(["reproduce", "remark9"]) == 2


class TestSearch:
    def run_search_cli(self, tmp_path, name, extra=()):
        out = tmp_path / name
        argv = [
            "search", "--objective", "false_cov_variant", "--dim", "2",
            "--samples", "300", "--seed", "42", "--out", str(out),
        ] + list(extra)
        assert main(argv) == 0
        return out.read_bytes()

    def test_witness_file_deterministic_across_runs(self, tmp_path, capsys):
        b1 = self.run_search_cli(tmp_path, "w1.json")
        b2 = self.run_search_cli(tmp_path, "w2.json")
        assert b1 == b2

    def test_witness_file_deterministic_across_threads(self, tmp_path, capsys):
        b1 = self.run_search_cli(tmp_path, "w1.json")
        b4 = self.run_search_cli(tmp_path, "w4.json", ["--threads", "4"])
        assert b1 == b4

    def test_single_sample_deterministic(self, tmp_path, capsys):
        extra = []
        b1 = self.run_search_cli(tmp_path, "s1.json", ["--samples", "1"])
        b2 = self.run_search_cli(tmp_path, "s2.json", ["--samples", "1"])
        assert b1 == b2

    def test_summary_goes_to_stderr(self, tmp_path, capsys):
        self.run_search_cli(tmp_path, "w.json")
        err = capsys.readouterr().err
        assert "best value" in err and "samples/s" in err

    def test_witness_best_value_recorded(self, tmp_path, capsys):
        raw = self.run_search_cli(tmp_path, "w.json")
        doc = json.loads(raw)
        values = [w["objective_value"] for w in doc["witnesses"]]
        assert values == sorted(values)
        assert values[0] <= -0.75 + 1e-12  # injected counterexample

    def test_witness_file_consumable_by_check(self, tmp_path, capsys):
        raw = self.run_search_cli(tmp_path, "w.json")
        capsys.readouterr()
        code = main(["check", str(tmp_path / "w.json"), "--relations", "false_cov_variant"])
        out = capsys.readouterr().out
        assert code == 3  # the injected counterexample fails the false relation
        assert "witness-0" in out

    def test_witness_file_checks_clean_for_theorems(self, tmp_path, capsys):
        self.run_search_cli(tmp_path, "w.json")
        capsys.readouterr()
        assert main(["check", str(tmp_path / "w.json")]) == 0

    def test_sign_witness_note(self, capsys):
        code = main([
            "search", "--objective", "sign_witnesses", "--dim", "3",
            "--samples", "1", "--seed", "7",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["task"]["objective"] == "sign_witnesses_lhs_difference"
        assert "witness" in captured.err  # one sign must be missing

    def test_unknown_objective_exits_2(self, capsys):
        assert main(["search", "--objective", "nonsense"]) == 2

    def test_bad_flag_exits_2(self, capsys):
        assert main(["search", "--objective", "false_cov_variant", "--samples", "0"]) == 2

    def test_rank_k_search(self, tmp_path, capsys):
        out = tmp_path / "rank.json"
        argv = [
            "search", "--objective", "false_cov_variant", "--dim", "3", "--samples", "40",
            "--top", "3", "--state-kind", "rank_k", "--rank", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["task"]["rank"] == 2
        for entry in doc["witnesses"]:
            rho, _, _, _ = serialize.problem_from_wire(entry)
            assert np.count_nonzero(rho.spectral.eigenvalues > 1e-10) <= 2

    def test_rank_k_without_rank_exits_2(self, capsys):
        argv = ["search", "--objective", "false_cov_variant", "--dim", "3", "--state-kind", "rank_k"]
        assert main(argv) == 2
        assert "rank_k requires 1 <= rank <= dim, got None" in capsys.readouterr().err

    def test_rank_absent_from_task_block_unless_given(self, tmp_path, capsys):
        doc = json.loads(self.run_search_cli(tmp_path, "w.json", ["--samples", "5"]))
        assert "rank" not in doc["task"]


class TestParserReuse:
    def test_bad_flag_then_good_calls_match_fresh_parser(self, cov_variant_file, tmp_path, capsys):
        witness = str(tmp_path / "w.json")
        calls = [
            ["compute", cov_variant_file, "--chain", "--wyd", "0.3"],
            ["check", cov_variant_file, "--relations", "false_cov_variant"],
            ["search", "--objective", "re_ordering", "--samples", "50", "--top", "2",
             "--refine", "--refine-steps", "10", "--wyd", "0.5"],
            ["search", "--objective", "re_ordering", "--samples", "50", "--top", "2",
             "--refine", "--refine-steps", "10", "--out", witness],
            ["check", witness, "--relations", "false_re_ordering,schrodinger_wy"],
        ]

        def run(argv):
            code = main(argv)
            out = capsys.readouterr().out
            return code, out, (open(witness, "rb").read() if "--out" in argv else None)

        first = []
        for argv in calls:
            cli._parser.cache_clear()  # as the first call of a process
            first.append(run(argv))
        assert [code for code, _, _ in first] == [0, 3, 2, 0, 3]

        assert main(["compute", "--no-such-flag", cov_variant_file]) == 2
        capsys.readouterr()
        assert [run(argv) for argv in calls] == first

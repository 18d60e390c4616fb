import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewrel import cli, ensembles, serialize
from skewrel.cli import main
from skewrel.errors import ValidationError
from skewrel.relations import RELATION_IDS
from skewrel.counterexamples import cov_variant_triple, re_ordering_triple

import oracles


def write_problem(path, rho, a, b, label=None):
    with open(path, "w", encoding="utf-8") as fh:
        serialize.dump_document(serialize.problem_to_wire(rho, a, b, label), fh)
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
            "rho": oracles.matrix_to_wire(np.diag([0.5, 0.5])),
            "A": oracles.matrix_to_wire(np.array([[0, 1], [0, 0]])),
            "B": oracles.matrix_to_wire(np.eye(2)),
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

    @pytest.mark.parametrize("command", ["compute", "check"])
    def test_integer_too_large_for_a_double_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "big.json"
        path.write_text(
            '{"rho": [[[1, 0]]], "A": [[[1%s, 0]]], "B": [[[1, 0]]]}' % ("0" * 400)
        )
        assert main([command, str(path)]) == 2
        assert "A: entry (0,0) is too large for a double" in capsys.readouterr().err

    def test_overflowing_state_exits_2(self, tmp_path, capsys):
        # the entries are finite, but the state's trace and spectrum are not
        path = write_problem(tmp_path / "huge.json", np.full((2, 2), 1e308), np.eye(2), np.eye(2))
        assert main(["compute", path]) == 2
        assert "unit-trace violation" in capsys.readouterr().err

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

    @pytest.mark.parametrize("witnesses", ["5", "null", '{"rho": 1}', '"w"'])
    def test_witnesses_not_an_array_exits_2(self, tmp_path, capsys, witnesses):
        path = tmp_path / "w.json"
        path.write_text('{"witnesses": %s}' % witnesses)
        assert main(["check", str(path)]) == 2
        assert "witnesses must be an array" in capsys.readouterr().err


HUGE_RHO = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.7]])
HUGE_A = 1e200 * np.array([[1.0, 2.0], [2.0, 3.0]])
HUGE_B = 1e200 * np.array([[2.0, 1j], [-1j, 1.0]])


class TestNonFiniteResults:
    """Observables near 1e200 overflow the functionals: exit 2, name the field, print nothing."""

    @pytest.fixture
    def huge_file(self, tmp_path):
        return write_problem(tmp_path / "huge.json", HUGE_RHO, HUGE_A, HUGE_B)

    @pytest.mark.parametrize("extra", [[], ["--chain", "--wyd", "0.3"]])
    def test_compute_exits_2(self, huge_file, capsys, extra):
        assert main(["compute", huge_file] + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "validation error: report.V_A is not finite" in err

    def test_check_exits_2_not_3(self, huge_file, capsys):
        assert main(["check", huge_file, "--relations", ",".join(RELATION_IDS)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "validation error: heisenberg.lhs is not finite" in err

    def test_check_witness_file_prints_nothing(self, tmp_path, capsys):
        rho, a, b = cov_variant_triple()
        entries = [
            serialize.problem_to_wire(rho.matrix, a.matrix, b.matrix, "fine"),
            serialize.problem_to_wire(HUGE_RHO, HUGE_A, HUGE_B),
        ]
        path = tmp_path / "w.json"
        with open(path, "w", encoding="utf-8") as fh:
            serialize.dump_document({"witnesses": entries}, fh)
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "witness-1: heisenberg.lhs is not finite" in err

    @pytest.mark.parametrize("argv", [["compute"], ["compute", "--chain"], ["check"]])
    def test_overflowing_square_exits_2(self, tmp_path, capsys, argv):
        # a Python float's ** raises OverflowError on 1e200 ** 2, where numpy gives inf
        big = np.diag([0.0, 0.0, 1e200])
        path = write_problem(tmp_path / "ovf.json", np.eye(3) / 3, np.diag([0.0, 0.0, 43.0]), big)
        assert main(argv + [path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "is not finite (inf)" in err

    def test_search_exits_2_and_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        argv = [
            "search", "--objective", "false_cov_variant", "--dim", "3", "--samples", "20",
            "--top", "2", "--scale", "1e200",
        ]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert main(argv + ["--out", str(out)]) == 2
        assert "witnesses[0].objective_value is not finite" in capsys.readouterr().err
        assert not out.exists()


def run_quietly(argv, capsys):
    """main(argv) with every warning recorded: (exit code, stdout, stderr lines, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err.splitlines(), caught


class TestValidatedInputs:
    """Inputs that pass validation give a report or exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [["compute"], ["compute", "--chain"], ["check"]])
    def test_observable_within_tolerance_is_used_as_its_hermitian_part(
        self, tmp_path, capsys, argv
    ):
        # A's defect 8e-11 is within tolerance, and its Hermitian part is 0
        rho = np.array([[0.5, 0.5], [0.5, 0.5]])
        a = np.array([[0.0, 4e-11j], [4e-11j, 0.0]])
        path = write_problem(tmp_path / "a.json", rho, a, np.diag([1.0, -1.0]))
        code, out, err, _ = run_quietly(argv + [path], capsys)
        assert (code, err) == (0, [])
        if argv[0] == "compute":
            doc = json.loads(out)
            assert doc["A"] == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
            assert doc["report"]["mean_A"] == 0.0 and doc["report"]["V_A"] == 0.0

    def test_huge_mean_that_cancels_exits_2(self, tmp_path, capsys):
        # the mean of A cancels to roundoff at 1e200; the chain used to
        # reject it as complex
        a = 1e200 * np.array([[1.0, 2.0], [2.0, -1.0]])
        b = 1e200 * np.array([[0.0, 1j], [-1j, 2.0]])
        path = write_problem(tmp_path / "b.json", HUGE_RHO, a, b)
        for argv in (["compute"], ["compute", "--chain"]):
            code, out, err, caught = run_quietly(argv + [path], capsys)
            assert (code, out) == (2, "")
            assert len(err) == 1 and err[0].startswith("validation error: report.V_A is not finite")
            assert caught == []

    def test_search_overflow_prints_one_line(self, capsys):
        argv = [
            "search", "--objective", "false_cov_variant", "--dim", "3", "--samples", "20",
            "--top", "2", "--scale", "1e200",
        ]
        code, out, err, caught = run_quietly(argv, capsys)
        assert (code, out) == (2, "")
        assert len(err) == 1 and "witnesses[0].objective_value is not finite" in err[0]
        assert caught == []

    @pytest.mark.parametrize("argv", [["compute"], ["compute", "--chain"], ["check"]])
    def test_disagreeing_j_forms_exit_2(self, tmp_path, capsys, argv):
        rho = ensembles.random_density(ensembles.EnsembleSpec(dim=4, seed=1), 2)
        k = ensembles.random_observable(4, 1.0, 3, 0).matrix
        b = ensembles.random_observable(4, 1.0, 5, 0).matrix
        path = write_problem(tmp_path / "c.json", rho.matrix, k + 1e7 * np.eye(4), b)
        code, out, err, _ = run_quietly(argv + [path], capsys)
        assert (code, out) == (2, "")
        assert len(err) == 1 and err[0].startswith("validation error: J forms disagree")


class TestOutputIsJsonIndent2:
    """Every document the CLI writes is json.dumps(doc, indent=2) plus a newline."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "{cov}", "--chain", "--wyd", "0.3", "--wyd", "0.5"],
            ["compute", "{re}"],
            ["search", "--objective", "sign_witnesses", "--dim", "3", "--samples", "30",
             "--top", "3"],
            ["search", "--objective", "re_ordering", "--dim", "8", "--samples", "20", "--top", "2",
             "--refine", "--refine-steps", "5", "--state-kind", "rank_k", "--rank", "3"],
        ],
    )
    def test_stdout_documents(self, cov_variant_file, re_ordering_file, capsys, argv):
        argv = [x.format(cov=cov_variant_file, re=re_ordering_file) for x in argv]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


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
            assert np.count_nonzero(rho.eigenvalues > 1e-10) <= 2

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


# Arbitrary JSON, plus documents shaped like problems and witness files
# whose matrices hold numbers of every kind: small, huge, non-finite, and
# integers too large for a double.
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.floats(),
    st.sampled_from([10**400, -(10**400), 1e308, -1e308, 5e-324]),
)
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def wire_matrices(draw, n):
    entry = st.one_of(st.tuples(NUMBERS, NUMBERS).map(list), JSON)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def hermitian_wire(draw, n):
    vals = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3) | st.floats(-1e200, 1e200)
    m = np.array(draw(st.lists(vals, min_size=n * n, max_size=n * n))).reshape(n, n)
    return oracles.matrix_to_wire(np.triu(m) + np.triu(m, 1).T)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 3))
    states = st.sampled_from(
        [oracles.matrix_to_wire(m) for m in (np.eye(n) / n, np.diag(np.eye(n)[0]))]
    )

    def pick(valid):
        # mostly well-formed matrices, so that documents reach the evaluation
        kind = draw(st.integers(0, 5))
        return draw(valid if kind < 3 else wire_matrices(n) if kind < 5 else JSON)

    doc = {"rho": pick(states), "A": pick(hermitian_wire(n)), "B": pick(hermitian_wire(n))}
    if draw(st.booleans()):
        doc["label"] = draw(st.text(max_size=4) | JSON)
    for key in draw(st.sets(st.sampled_from(["rho", "A", "B"]), max_size=1)):
        del doc[key]
    return doc


DOCUMENTS = st.one_of(
    JSON,
    problems(),
    st.fixed_dictionaries({"witnesses": st.lists(problems() | JSON, max_size=3) | JSON}),
)


class TestWireFuzz:
    """Any JSON document gives a result or a documented exit code, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(problems() | JSON)
    def test_problem_from_wire(self, doc):
        try:
            rho, a, b, _ = serialize.problem_from_wire(doc)
        except ValidationError:
            return
        assert rho.dim == a.dim == b.dim

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DOCUMENTS)
    def test_cli_check_and_compute(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzz-doc.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["check", str(path)]) in (0, 2, 3)
            assert main(["compute", str(path)]) in (0, 2)

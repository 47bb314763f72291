"""The command-line surface: exit codes, byte-identical reports,
output formats, and the stored-graph product pipeline."""

import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from ringgraph import cli
from ringgraph.reports import ReportDocument

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
GOLDEN = ROOT / "perfbench" / "expected" / "cli_stdout.json"
NODAL = str(SESSIONS / "nodal_curve.rg")
PLANES = str(SESSIONS / "two_disjoint_planes.rg")
FOUR_CYCLE = str(SESSIONS / "four_cycle_of_planes.rg")
SURFACE = str(SESSIONS / "surface_with_two_planes_over_a_line.rg")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_computed_is_zero(self, capsys):
        code, out, _ = run(capsys, "dim", "--session", NODAL, "I")
        assert code == 0
        assert json.loads(out)["verdicts"]["dimension"] == 1

    def test_missing_session_file_is_refused(self, capsys):
        code, _, err = run(capsys, "dim", "--session", "/no/such/file.rg", "I")
        assert code == 2
        assert "refused" in err

    def test_non_utf8_files_are_refused(self, tmp_path, capsys):
        bad = tmp_path / "bad.rg"
        bad.write_bytes(b"\xff\xfe{")
        for argv, what in (
            (("dim", "--session", str(bad), "I"), "session"),
            (("product-gamma", str(bad), str(bad)), "graph"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, err
            assert out == ""
            assert f"cannot read {what} file" in err

    def test_session_syntax_error_is_refused(self, tmp_path, capsys):
        bad = tmp_path / "bad.rg"
        bad.write_text("field Q;\nring R = [x, y];\nideal I = (x+*y);\n")
        code, _, err = run(capsys, "dim", "--session", str(bad), "I")
        assert code == 2
        assert "refused" in err
        assert "3:" in err

    def test_unknown_name_is_refused(self, capsys):
        code, _, err = run(capsys, "dim", "--session", NODAL, "NOPE")
        assert code == 2
        assert "refused" in err

    def test_asserted_linear_prime_missing_the_ideal_is_refused(self, tmp_path, capsys):
        session = tmp_path / "linear_prime.rg"
        session.write_text(
            "field Q;\nring A = [x, y];\nideal I = (x, y);\n"
            "ideal P = (x + y);\nassert minprimes I = [P];\n"
        )
        code, out, err = run(capsys, "minprimes", "--session", str(session), "I")
        assert code == 2
        assert out == ""
        assert "prime #0 does not contain the ideal" in err

    def test_non_ascii_digit_is_refused(self, capsys):
        code, out, err = run(capsys, "s2member", "--session", NODAL, "R", "x^\u00b2 / (x + 2*y)")
        assert (code, out) == (2, "")
        assert "unexpected character '\u00b2'" in err

    def test_zerodivisor_denominator_is_refused(self, capsys):
        code, _, err = run(capsys, "s2member", "--session", NODAL, "R", "x / (x - y)")
        assert code == 2
        assert "refused" in err

    @pytest.mark.parametrize(
        "field, defining",
        [("Fp 32003", "x^2 - 1"), ("Q", "x^2 - 100000000000000000000")],
    )
    def test_roots_past_any_scan_split_ring(self, tmp_path, capsys, field, defining):
        """Both rings have two minimal primes, one per root.  The roots lie
        past any scan (p = 32003, and +-10^10 over Q), and the exact root
        finder splits the generator anyway, so the ring is disconnected."""
        session = tmp_path / "reach.rg"
        session.write_text(f"field {field};\nring A = [x, y];\nideal I = ({defining});\nring R = A / I;\n")
        report = run_json(capsys, "connected", "--session", str(session), "R")
        assert report["verdicts"]["connected"] is False
        vertices = {"Fp 32003": [["x + 1"], ["x + 32002"]], "Q": [["x - 10000000000"], ["x + 10000000000"]]}
        assert report["witnesses"]["vertices"] == vertices[field]

    def test_characteristic_two_quadratic_is_one_prime(self, tmp_path, capsys):
        """x^2 + x*y + z is linear in z with coefficient 1, so irreducible;
        the quadratic formula, which divides by 2, must not be tried."""
        session = tmp_path / "gf2.rg"
        session.write_text("field Fp 2;\nring A = [x, y, z];\nideal I = (x^2 + x*y + z);\n")
        report = run_json(capsys, "minprimes", "--session", str(session), "I")
        assert report["verdicts"]["primes"] == [["x^2 + x*y + z"]]
        assert report["provenance"]["primes"] == "computed-split"

    def test_internal_error_is_one(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "_dispatch", boom)
        code, _, err = run(capsys, "dim", "--session", NODAL, "I")
        assert code == 1
        assert "internal error" in err
        assert "RuntimeError" in err

    def test_missing_required_argument_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dim", "I"])
        assert exc.value.code == 2

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the local verbs still read dim == 0 as m-primary on inhomogeneous input",
    )
    @pytest.mark.parametrize("verb", ["punctured", "hl"])
    def test_inhomogeneous_input_is_refused(self, tmp_path, capsys, verb):
        """(x^2 - x, y) has dimension 0 but is not primary to (x, y):
        Q[x, y]/(x^2 - x) is neither graded nor local, so the verbs must
        refuse rather than answer 'empty' or 'nonvanishing'."""
        session = tmp_path / "idempotent.rg"
        session.write_text("field Q;\nring A = [x, y];\nideal K = (x^2 - x);\nring R = A / K;\nideal Y = (y);\n")
        code, _, err = run(capsys, verb, "--session", str(session), "R", "Y")
        assert code == 2, err


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, "gamma", "--session", PLANES, "R")
        _, second, _ = run(capsys, "gamma", "--session", PLANES, "R")
        assert first == second
        assert first.endswith("\n")

    def test_timing_flag_only_touches_timing(self, capsys):
        plain = run_json(capsys, "connected", "--session", NODAL, "R")
        timed = run_json(capsys, "connected", "--session", NODAL, "R", "--timing")
        assert plain["timing_ms"] is None
        assert isinstance(timed["timing_ms"], (int, float))
        timed["timing_ms"] = None
        assert plain == timed


class TestGoldenReports:
    def test_recorded_reports_byte_identical(self, capsys, monkeypatch):
        """Every recorded call, keyed by its space-joined argv, prints
        exactly the recorded stdout.  Only the s2member fraction (the
        last argument) contains spaces."""
        golden = json.loads(GOLDEN.read_text())
        monkeypatch.chdir(ROOT)
        mismatched = []
        for key, expected in golden.items():
            argv = key.split(" ", 4) if key.startswith("s2member ") else key.split(" ")
            code, out, err = run(capsys, *argv)
            if code != 0 or out != expected:
                mismatched.append((key, code, err))
        assert golden and mismatched == []


class TestFormats:
    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "connected", "--session", NODAL, "R", "--format", "text"
        )
        assert code == 0
        assert out.startswith("command: connected\n")
        assert "connected: true" in out

    def test_dot_format_for_graph_commands(self, capsys):
        code, out, _ = run(
            capsys, "gamma", "--session", FOUR_CYCLE, "R", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("graph gamma {")

    def test_dot_refused_elsewhere(self, capsys):
        code, _, err = run(
            capsys, "connected", "--session", NODAL, "R", "--format", "dot"
        )
        assert code == 2
        assert "graph commands" in err


class TestCommands:
    def test_gb_needs_known_order(self, capsys):
        code, _, err = run(capsys, "gb", "--session", NODAL, "I", "degrevlexx")
        assert code == 2
        assert "order" in err

    def test_gb_with_elimination_block(self, capsys):
        doc = run_json(capsys, "gb", "--session", NODAL, "I", "elim:1")
        assert doc["verdicts"]["basis"] == ["x^2 - y^2"]
        assert doc["verdicts"]["is_unit"] is False

    def test_minprimes_prefers_session_assertion(self, capsys):
        doc = run_json(capsys, "minprimes", "--session", NODAL, "I")
        assert doc["verdicts"]["count"] == 2
        assert doc["provenance"]["primes"] == "asserted"

    def test_minprimes_forced_computation(self, capsys):
        doc = run_json(
            capsys, "minprimes", "--session", NODAL, "I", "--strategy", "split"
        )
        assert doc["provenance"]["primes"] == "computed-split"
        assert {tuple(p) for p in doc["verdicts"]["primes"]} == {
            ("x - y",),
            ("x + y",),
        }

    def test_minprimes_asserted_strategy_needs_assertion(self, capsys):
        doc = run_json(
            capsys, "minprimes", "--session", FOUR_CYCLE, "I", "--strategy", "monomial"
        )
        assert doc["verdicts"]["count"] == 4
        code, _, err = run(
            capsys, "minprimes", "--session", FOUR_CYCLE, "I", "--strategy", "asserted"
        )
        assert code == 2
        assert "asserted" in err

    def test_kernel_command(self, tmp_path, capsys):
        session = tmp_path / "cusp.rg"
        session.write_text(
            "field Q;\nring A = [a, b];\nring S = [t];\n"
            "map phi : A -> S { a -> t^2, b -> t^3 };\n"
        )
        doc = run_json(capsys, "kernel", "--session", str(session), "phi")
        assert doc["verdicts"]["kernel"] == ["a^3 - b^2"]

    def test_contract_command(self, capsys):
        doc = run_json(capsys, "contract", "--session", SURFACE, "Q1", "phi")
        assert doc["verdicts"]["contraction"] == ["b", "c", "d", "e"]

    def test_disconnection_command(self, capsys):
        doc = run_json(capsys, "disconnection", "--session", PLANES, "R")
        assert doc["verdicts"]["disconnection_exists"] is True
        assert doc["provenance"]["disconnection_exists"] == "asserted"
        sides = {
            frozenset(doc["witnesses"]["side_a_intersection"]),
            frozenset(doc["witnesses"]["side_b_intersection"]),
        }
        assert sides == {frozenset({"x", "y"}), frozenset({"z", "w"})}

    def test_punctured_command(self, capsys):
        doc = run_json(capsys, "punctured", "--session", FOUR_CYCLE, "R", "I")
        assert doc["verdicts"]["connected"] is True
        assert len(doc["witnesses"]["vertices"]) == 4

    def test_hl_command(self, tmp_path, capsys):
        session = tmp_path / "poly.rg"
        session.write_text(
            "field Q;\nring A = [x, y, z];\nideal Z = (0);\nring R = A / Z;\n"
            "ideal M = (x, y, z);\nideal L = (x, y);\n"
        )
        full = run_json(capsys, "hl", "--session", str(session), "R", "M")
        assert full["verdicts"]["nonvanishing"] is True
        partial = run_json(capsys, "hl", "--session", str(session), "R", "L")
        assert partial["verdicts"]["nonvanishing"] is False

    def test_s2member_command(self, capsys):
        doc = run_json(capsys, "s2member", "--session", PLANES, "R", "x / (x + z)")
        assert doc["verdicts"]["member"] is True
        assert doc["verdicts"]["height"] == "2"

    def test_s2local_command(self, capsys):
        doc = run_json(capsys, "s2local", "--session", PLANES, "R")
        assert doc["verdicts"]["connected"] is False
        assert doc["verdicts"]["status"] == "disconnected"
        doc = run_json(capsys, "s2local", "--session", FOUR_CYCLE, "R")
        assert doc["verdicts"]["connected"] is True

    def test_faltings_smoke(self, capsys):
        doc = run_json(capsys, "faltings", "--trials", "2", "--seed", "11")
        assert doc["verdicts"]["ok"] is True
        assert doc["verdicts"]["passed"] == 2
        assert doc["inputs"]["seed"] == 11

    def test_faltings_rejects_nonpositive_trials(self, capsys):
        code, _, err = run(capsys, "faltings", "--trials", "0", "--seed", "1")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize(
        "bound",
        [
            ("--max-vertices", "2"),
            ("--max-vertices", "13"),
            ("--max-facet-size", "1"),
            ("--max-facet-size", "0"),
        ],
    )
    def test_faltings_refuses_bounds_outside_the_harness_range(self, capsys, bound):
        code, _, err = run(capsys, "faltings", "--trials", "3", "--seed", "1", *bound)
        assert code == 2
        assert err.startswith("refused:")


class TestStoredGraphs:
    def write_gamma(self, capsys, tmp_path, session, name, fmt):
        code, out, _ = run(
            capsys, "gamma", "--session", session, "R", "--format", fmt
        )
        assert code == 0
        target = tmp_path / name
        target.write_text(out)
        return str(target)

    def test_product_of_json_reports(self, tmp_path, capsys):
        g1 = self.write_gamma(capsys, tmp_path, FOUR_CYCLE, "c4.json", "json")
        g2 = self.write_gamma(capsys, tmp_path, NODAL, "k2.json", "json")
        doc = run_json(capsys, "product-gamma", g1, g2)
        assert doc["verdicts"]["vertex_count"] == 8
        assert doc["verdicts"]["edge_count"] == 12
        assert doc["verdicts"]["connected"] is True

    def test_product_of_dot_files(self, tmp_path, capsys):
        g1 = self.write_gamma(capsys, tmp_path, FOUR_CYCLE, "c4.dot", "dot")
        g2 = self.write_gamma(capsys, tmp_path, NODAL, "k2.dot", "dot")
        doc = run_json(capsys, "product-gamma", g1, g2)
        assert doc["verdicts"]["vertex_count"] == 8
        assert doc["verdicts"]["edge_count"] == 12

    def test_disconnected_product(self, tmp_path, capsys):
        g1 = self.write_gamma(capsys, tmp_path, PLANES, "pl.json", "json")
        g2 = self.write_gamma(capsys, tmp_path, NODAL, "k2.json", "json")
        doc = run_json(capsys, "product-gamma", g1, g2)
        assert doc["verdicts"]["connected"] is False

    @pytest.mark.parametrize(
        "name, text",
        [
            ("open_brace.json", "{"),
            ("scalar_fields.json", '{"vertices": 1, "edges": 2}'),
            ("short_edge.json", '{"vertices": ["a", "b"], "edges": [[0]]}'),
            ("float_endpoint.json", '{"vertices": ["a", "b"], "edges": [[0, 1.5]]}'),
            ("bool_endpoint.json", '{"vertices": ["a", "b"], "edges": [[0, true]]}'),
            ("truncated.dot", 'graph g {\n  // json: {"edges": [[0, 1]], "vert\n}\n'),
            ("array.dot", "graph g {\n  // json: [0, 1]\n}\n"),
        ],
    )
    def test_malformed_graph_file_refused(self, tmp_path, capsys, name, text):
        g1 = self.write_gamma(capsys, tmp_path, NODAL, "k2.json", "json")
        (tmp_path / name).write_text(text)
        code, out, err = run(capsys, "product-gamma", g1, str(tmp_path / name))
        assert (code, out) == (2, "")
        assert err.startswith("refused:")

    def test_missing_graph_file_refused(self, tmp_path, capsys):
        g1 = self.write_gamma(capsys, tmp_path, NODAL, "k2.json", "json")
        code, _, err = run(capsys, "product-gamma", g1, str(tmp_path / "gone.json"))
        assert code == 2
        assert "refused" in err


class TestRecordedTextReports:
    def test_text_format_renders_recorded_json(self, capsys, monkeypatch):
        """For every recorded call, ``--format text`` prints exactly the
        text rendering of the recorded JSON report."""
        golden = json.loads(GOLDEN.read_text())
        monkeypatch.chdir(ROOT)
        mismatched = []
        for key, recorded in golden.items():
            argv = key.split(" ", 4) if key.startswith("s2member ") else key.split(" ")
            code, out, err = run(capsys, *argv, "--format", "text")
            expected = ReportDocument(**json.loads(recorded)).to_text()
            if code != 0 or out != expected:
                mismatched.append((key, code, err))
        assert golden and mismatched == []


class TestRecordedDigests:
    """Commands the recorded reports do not cover, pinned by the sha256
    of their stdout."""

    def test_faltings_report(self, capsys):
        code, out, _ = run(capsys, "faltings", "--trials", "3", "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "76ae42203ccf6b9f79d0c5c8f48ba35eebb4b5caa52f5d666a1e3285142a9d05"
        )

    def test_product_gamma_report(self, tmp_path, capsys, monkeypatch):
        golden = json.loads(GOLDEN.read_text())
        (tmp_path / "c4.json").write_text(
            golden["gamma --session sessions/four_cycle_of_planes.rg R"]
        )
        (tmp_path / "k2.json").write_text(golden["gamma --session sessions/nodal_curve.rg R"])
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "product-gamma", "c4.json", "k2.json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ae09fd761b195e72ededabbaed7f6e95d290a14c06a10fb3272a00d9abe850f8"
        )


class TestAssertedFlagProvenance:
    def test_asserted_equidim_taints_graph_verdicts(self, tmp_path, capsys):
        """Q[x,y,z]/(x*y, x*z) is not equidimensional; the graph's
        heights rest on the asserted flag, so every verdict read off
        the graph is asserted."""
        session = tmp_path / "plane_and_line.rg"
        session.write_text(
            "field Q;\nring A = [x, y, z];\nideal I = (x*y, x*z);\n"
            "ring R = A / I;\nassert equidim R;\n"
        )
        for command in ("gamma", "connected", "disconnection"):
            doc = run_json(capsys, command, "--session", str(session), "R")
            assert doc["provenance"] and set(doc["provenance"].values()) == {"asserted"}, command

    def test_contradicted_equidim_assertion_refuses_s2local(self, tmp_path, capsys):
        """s2local computes equidimensionality; the result contradicts
        the session's assertion, so the command refuses."""
        session = tmp_path / "plane_and_line.rg"
        session.write_text(
            "field Q;\nring A = [x, y, z];\nideal I = (x*y, x*z);\n"
            "ring R = A / I;\nassert equidim R;\n"
        )
        code, out, err = run(capsys, "s2local", "--session", str(session), "R")
        assert code == 2
        assert out == ""
        assert "contradicts" in err


class TestAssertionsAcrossRings:
    """(x*y) in Q[x, y] and (u*v) in Q[u, v] have the same exponents and
    coefficients; an assertion on one must not answer for the other."""

    HEADER = (
        "field Q;\nring A = [x, y];\nring B = [u, v];\n"
        "ideal I = (x*y);\nideal J = (u*v);\n"
    )
    ASSERT = "ideal P = (x);\nideal Q = (y);\nassert minprimes I = [P, Q];\n"

    def test_assertion_in_one_ring_does_not_answer_for_another(self, tmp_path, capsys):
        session = tmp_path / "two_rings.rg"
        session.write_text(self.HEADER + self.ASSERT)
        doc = run_json(capsys, "minprimes", "--session", str(session), "J")
        assert doc["verdicts"]["primes"] == [["u"], ["v"]]
        assert "asserted" not in doc["provenance"].values()
        doc = run_json(capsys, "minprimes", "--session", str(session), "I")
        assert doc["verdicts"]["primes"] == [["x"], ["y"]]
        assert set(doc["provenance"].values()) == {"asserted"}

    def test_quotient_of_another_ring_keeps_computed_primes(self, tmp_path, capsys):
        session = tmp_path / "two_rings_quotient.rg"
        session.write_text(self.HEADER + "ring S = B / J;\n" + self.ASSERT)
        doc = run_json(capsys, "gamma", "--session", str(session), "S")
        assert doc["verdicts"]["graph"]["vertices"] == [["v"], ["u"]]
        assert set(doc["provenance"].values()) == {"computed"}


class TestCommandTable:
    def test_every_subcommand_has_a_handler_and_a_readme_row(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli.COMMANDS)
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Commands", 1)[1].split("\n\n", 2)[1]
        named = set()
        for row in table.splitlines()[2:]:
            for span in re.findall(r"`([^`]+)`", row.split("|")[1]):
                named.add(span.split()[0])
        assert named == set(cli.COMMANDS)


class TestHelpText:
    """``--help`` for the top level and every subcommand prints exactly
    the recorded text (tests/cli_help.json, recorded at 80 columns)."""

    def test_help_matches_recording(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        recorded = json.loads((ROOT / "tests" / "cli_help.json").read_text())
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        helps = {"": parser.format_help()}
        helps.update((name, p.format_help()) for name, p in sub.choices.items())
        assert helps == recorded

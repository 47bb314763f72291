"""The session-file grammar: parsing, evaluation, the canonical
printer round trip, and fraction syntax."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringgraph import (
    QQ,
    PrimeField,
    SessionFile,
    SessionSyntaxError,
    parse_fraction,
    parse_polynomial,
    parse_session,
    print_session,
)
from ringgraph.errors import RingGraphError
from ringgraph.session import tokenize

from conftest import SESSIONS


class TestBasicParsing:
    def test_field_must_come_first(self):
        with pytest.raises(SessionSyntaxError):
            parse_session("ring R = [x];")

    def test_field_kinds(self):
        assert parse_session("field Q;").field == QQ
        assert parse_session("field Fp 7;").field == PrimeField(7)
        with pytest.raises(SessionSyntaxError):
            parse_session("field Fp 6;")
        with pytest.raises(SessionSyntaxError):
            parse_session("field R;")

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("field R;", "unknown field 'R'; use Q or Fp <prime>", 7),  # at the name
            ("field Fp 4;", "modulus 4 is not prime", 10),  # at the modulus
        ],
    )
    def test_bad_field_located(self, text, message, column):
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session(text)
        assert exc.value.bare_message == message
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_strong_pseudoprime_modulus_located(self):
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session("field Fp 3215031751;")
        assert exc.value.bare_message == "modulus 3215031751 is not prime"
        assert (exc.value.line, exc.value.column) == (1, 10)

    def test_polynomial_ring(self):
        s = parse_session("field Q;\nring R = [x, y, z];")
        pres = s.presented("R")
        assert pres.ambient.names == ("x", "y", "z")
        assert not pres.defining.canonical_gens()

    def test_ideal_single_generator(self):
        s = parse_session("field Q;\nring R = [x, y];\nideal I = (x*y);")
        a = s.ideal("I")
        assert len(a.gens) == 1
        assert a.gens[0].total_degree() == 2

    def test_ideal_expressions(self):
        s = parse_session(
            "field Q;\nring R = [x, y];\nideal I = (x^2 - 2*y, -x + 1/2*y^3);"
        )
        a = s.ideal("I")
        assert [str(g) for g in a.gens] == ["x^2 - 2*y", "1/2*y^3 - x"]

    def test_division_by_constant_only(self):
        s = parse_session("field Q;\nring R = [x, y];\nideal I = (x/2);")
        assert str(s.ideal("I").gens[0]) == "1/2*x"
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session("field Q;\nring R = [x, y];\nideal I = (x/y);")
        assert (exc.value.line, exc.value.column) == (3, 13)  # the '/'

    def test_comments_and_blank_lines(self):
        text = "# leading comment\nfield Q;\n\nring R = [x];  # trailing\n"
        s = parse_session(text)
        assert s.presented("R").ambient.names == ("x",)

    def test_malformed_expression_located(self):
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session("field Q;\nring R = [x, y];\nideal I = (x+*y);")
        assert "3:" in str(exc.value)

    def test_unknown_variable_located(self):
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session("field Q;\nring R = [x];\nideal I = (q);")
        assert "q" in str(exc.value)
        with pytest.raises(SessionSyntaxError) as exc:  # a map image is read in the target ring
            parse_session("field Q;\nring A = [a];\nring S = [x];\nmap f : A -> S { a -> x*w };")
        assert exc.value.bare_message == "unknown variable 'w' in Q[x]"
        assert (exc.value.line, exc.value.column) == (4, 25)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("field Q;\nring R = [x];\nideal I = (x^\u00b2);", 3, 14),
            ("field Fp \u00b2;", 1, 10),
            ("field Q;\ncomplex D = { {\u00b9} };", 2, 16),
            ("field Q;\nring R = [x];\nideal I = (\u2460*x);", 3, 12),
        ],
    )
    def test_digits_that_are_not_decimal_refused(self, text, line, column):
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session(text)
        assert exc.value.bare_message.startswith("unexpected character")
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_decimal_digits_of_any_script_parse(self):
        s = parse_session("field Q;\nring R = [x];\nideal I = (x^\u0663);")
        assert s.ideal("I").gens[0] == s.presented("R").ambient.var(0) ** 3

    def test_duplicate_names_refused(self):
        with pytest.raises(SessionSyntaxError):
            parse_session("field Q;\nring R = [x];\nring R = [y];")
        with pytest.raises(SessionSyntaxError):
            parse_session(
                "field Q;\nring R = [x];\nideal I = (x);\nideal I = (x^2);"
            )


class TestScanner:
    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("a\tb\r\nc", [("name", "a", 1, 1), ("name", "b", 1, 3), ("name", "c", 2, 1), ("eof", "", 2, 2)]),
            # input ending in a comment ends at the '#'
            ("x  # note", [("name", "x", 1, 1), ("eof", "", 1, 4)]),
            ("x\n# note\n", [("name", "x", 1, 1), ("eof", "", 3, 1)]),
            ("3x", [("int", "3", 1, 1), ("name", "x", 1, 2), ("eof", "", 1, 3)]),
            ("x\u00b2 _x1", [("name", "x\u00b2", 1, 1), ("name", "_x1", 1, 4), ("eof", "", 1, 7)]),
            ("->", [("punct", "->", 1, 1), ("eof", "", 1, 3)]),
            ("a-b", [("name", "a", 1, 1), ("punct", "-", 1, 2), ("name", "b", 1, 3), ("eof", "", 1, 4)]),
            ("", [("eof", "", 1, 1)]),
        ],
    )
    def test_tokens_and_locations(self, text, tokens):
        assert [(t.kind, t.text, t.line, t.column) for t in tokenize(text)] == tokens

    @pytest.mark.parametrize(
        "text, char, line, column",
        [
            ("- >", ">", 1, 3),  # '->' only without a space
            ("x\n \u00bdx", "\u00bd", 2, 2),  # a name cannot start with a numeric
            ("a\u00a0b", "\u00a0", 1, 2),  # no whitespace but space, tab, CR, LF
        ],
    )
    def test_unexpected_characters_located(self, text, char, line, column):
        with pytest.raises(SessionSyntaxError) as exc:
            tokenize(text)
        assert exc.value.bare_message == f"unexpected character {char!r}"
        assert (exc.value.line, exc.value.column) == (line, column)


class TestRingInference:
    def test_earliest_declared_ring_wins(self):
        s = parse_session(
            "field Q;\nring A = [x, y];\nring B = [x, y, z];\nideal I = (x*y);"
        )
        assert s.ideal("I").ring == s.presented("A").ambient

    def test_inference_needs_all_names(self):
        s = parse_session(
            "field Q;\nring A = [x, y];\nring B = [x, y, z];\nideal I = (x*z);"
        )
        assert s.ideal("I").ring == s.presented("B").ambient

    def test_no_ring_matches(self):
        with pytest.raises(SessionSyntaxError):
            parse_session("field Q;\nring A = [x];\nideal I = (x + w);")

    def test_inference_stops_at_the_statement_end(self):
        """The names of a later statement do not move an ideal to a
        larger ring, and a missing ';' is reported as such."""
        s = parse_session("field Q;\nring A = [x];\nring B = [x, y];\nideal I = (x); ideal J = (y);")
        assert s.ideal("I").ring == s.presented("A").ambient
        assert s.ideal("J").ring == s.presented("B").ambient
        with pytest.raises(SessionSyntaxError) as exc:
            parse_session("field Q;\nring A = [x];\nideal I = (x)\nring S = [u];")
        assert exc.value.bare_message == "expected ';', found 'ring'"
        assert (exc.value.line, exc.value.column) == (4, 1)


class TestMapsAndKernels:
    SURFACE = (
        "field Q;\n"
        "ring A = [a, b, c, d, e];\n"
        "ring S = [x, y, z];\n"
        "map phi : A -> S { a -> x, b -> y, c -> y*z, d -> z^2 - x*z, e -> z^3 - x*z^2 };\n"
        "ideal J = kernel(phi);\n"
        "ring R = A / J;\n"
    )

    def test_map_images(self):
        s = parse_session(self.SURFACE)
        phi = s.ring_map("phi")
        assert [str(g) for g in phi.images] == [
            "x",
            "y",
            "y*z",
            "-x*z + z^2",
            "-x*z^2 + z^3",
        ]

    def test_kernel_ideal_and_quotient_certification(self):
        s = parse_session(self.SURFACE)
        j = s.ideal("J")
        assert j.canonical_gens()
        pres = s.presented("R")
        assert pres.defining.equals(j)
        assert pres.reduced == (True, "certified")
        assert pres.min_primes.provenance == "computed-kernel"
        assert pres.equidimensional == (True, "certified")

    def test_kernel_quotient_reuses_the_declared_kernel(self, monkeypatch):
        """The quotient by a declared kernel is certified without a
        fresh elimination: one kernel for the declaration, one for the
        prime certificate's independent recheck."""
        import ringgraph.ideals as ideals_module

        calls = []
        real = ideals_module.contract

        def counting(q, phi):
            calls.append(phi)
            return real(q, phi)

        monkeypatch.setattr(ideals_module, "contract", counting)
        parse_session(self.SURFACE)
        assert len(calls) == 2

    def test_map_source_vars_bound_exactly_once(self):
        with pytest.raises(SessionSyntaxError):
            parse_session(
                "field Q;\nring A = [a, b];\nring S = [x];\n"
                "map phi : A -> S { a -> x };\n"
            )
        with pytest.raises(SessionSyntaxError):
            parse_session(
                "field Q;\nring A = [a];\nring S = [x];\n"
                "map phi : A -> S { a -> x, a -> x^2 };\n"
            )

    def test_contract_form(self):
        s = parse_session(
            self.SURFACE
            + "ideal Q1 = (y, z);\n"
            + "ideal C1 = contract(Q1, phi);\n"
        )
        c1 = s.ideal("C1")
        a_ring = s.presented("A").ambient
        expected = [a_ring.var(i) for i in (1, 2, 3, 4)]
        from ringgraph import Ideal

        assert c1.equals(Ideal(a_ring, tuple(expected)))


class TestComplexDeclarations:
    def test_complex_expands_to_face_ring(self):
        s = parse_session(
            "field Q;\ncomplex D = { {1,2}, {2,3}, {3,4}, {1,4} };\n"
        )
        pres = s.presented("D")
        assert sorted(pres.defining.min_gen_strings()) == ["x1*x3", "x2*x4"]
        assert pres.min_primes is not None

    def test_complex_name_collides_with_ring(self):
        with pytest.raises(SessionSyntaxError):
            parse_session(
                "field Q;\nring D = [x];\ncomplex D = { {1,2} };\n"
            )


class TestAssertions:
    def test_asserted_minprimes_verified(self):
        text = (
            "field Q;\nring R = [x, y];\nideal I = (x*y);\n"
            "ideal P1 = (x);\nideal P2 = (y);\n"
            "assert minprimes I = [P1, P2];\n"
        )
        s = parse_session(text)
        mps = s.asserted_primes_for(s.ideal("I"))
        assert mps is not None
        assert mps.is_asserted()

    def test_wrong_assertion_rejected(self):
        text = (
            "field Q;\nring R = [x, y];\nideal I = (x*y);\n"
            "ideal P1 = (x);\n"
            "assert minprimes I = [P1];\n"
        )
        with pytest.raises(RingGraphError):
            parse_session(text)

    LATE_ASSERTION = (
        "field Q;\nring A = [x, y];\nideal I = (x*y);\nideal P1 = (x);\nideal P2 = (y);\n"
        "ring R = A / I;\nassert reduced R;\n"  # presents R before its primes are asserted
        "assert minprimes I = [P1, P2];\nring R2 = A / I;\n"
    )

    def test_primes_attached_when_the_ring_is_presented(self):
        s = parse_session(self.LATE_ASSERTION)
        asserted = s.asserted_primes_for(s.ideal("I"))
        pres = s.presented("R")
        assert pres.min_primes is asserted
        assert pres.min_primes.provenance == "asserted"
        assert pres.min_primes.ideals() == (s.ideal("P1"), s.ideal("P2"))
        assert s.presented("R") is pres and pres.min_primes is asserted

    def test_ring_declared_after_the_assertion_gets_the_primes(self):
        s = parse_session(self.LATE_ASSERTION)
        assert s.presented("R2").min_primes is s.asserted_primes_for(s.ideal("I"))

    def test_equidim_and_reduced_assertions(self):
        text = (
            "field Q;\nring A = [x, y];\nideal I = (x^3 - y^2);\n"
            "ring R = A / I;\nassert reduced R;\nassert equidim R;\n"
        )
        s = parse_session(text)
        pres = s.presented("R")
        assert pres.reduced == (True, "asserted")
        assert pres.equidimensional == (True, "asserted")


class TestPrinterRoundTrip:
    CASES = [
        "field Q;\nring R = [x, y];\nideal I = (x^2 - y);\n",
        "field Fp 5;\nring R = [u, v];\nideal I = (u*v + 4);\n",
        (
            "field Q;\nring A = [a, b];\nring S = [t];\n"
            "map phi : A -> S { a -> t^2, b -> t^3 };\n"
            "ideal K = kernel(phi);\n"
        ),
        "field Q;\ncomplex D = { {1,2}, {2,3} };\n",
        (
            "field Q;\nring R = [x, y];\nideal I = (x*y);\n"
            "ideal P1 = (x);\nideal P2 = (y);\n"
            "assert minprimes I = [P1, P2];\n"
        ),
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse_fixed_point(self, text):
        first = parse_session(text)
        printed = print_session(first)
        second = parse_session(printed)
        assert first == second
        assert print_session(second) == printed

    def test_session_files_round_trip(
        self,
        surface_session_text,
        four_cycle_session_text,
        planes_session_text,
        nodal_session_text,
    ):
        for text in (
            surface_session_text,
            four_cycle_session_text,
            planes_session_text,
            nodal_session_text,
        ):
            s = parse_session(text)
            assert parse_session(print_session(s)) == s


class TestFractionSyntax:
    SESSION = (
        "field Q;\nring A = [x, y];\nideal I = (x^2 - y^2);\n"
        "ring R = A / I;\nassert reduced R;\n"
    )

    def test_split_at_last_toplevel_slash(self):
        s = parse_session(self.SESSION)
        f = parse_fraction(s, "R", "x + y / x")
        assert str(f.denominator) == "x"
        assert str(f.numerator) == "x + y"

    def test_scalar_division_stays_in_numerator(self):
        s = parse_session(self.SESSION)
        f = parse_fraction(s, "R", "1/2*y / x")
        assert str(f.denominator) == "x"
        assert "1/2" in str(f.numerator) or str(f.numerator).startswith("1/2")

    def test_no_slash_means_denominator_one(self):
        s = parse_session(self.SESSION)
        f = parse_fraction(s, "R", "x*y")
        assert str(f.denominator) == "1"

    def test_parenthesized_numerator(self):
        s = parse_session(self.SESSION)
        f = parse_fraction(s, "R", "(x + y) / x")
        assert str(f.numerator) == "x + y"
        assert str(f.denominator) == "x"


class TestParsePolynomial:
    def test_round_trip_with_polynomial_printer(self):
        s = parse_session("field Q;\nring R = [x, y, z];")
        ring = s.presented("R").ambient
        f = parse_polynomial("x^2*y - 3*z + 1/4", ring)
        assert parse_polynomial(str(f), ring) == f

    def test_power_binds_tighter_than_product(self):
        s = parse_session("field Q;\nring R = [x, y];")
        ring = s.presented("R").ambient
        assert parse_polynomial("2*x^3", ring) == 2 * ring.var(0) ** 3

    def test_unary_minus(self):
        s = parse_session("field Q;\nring R = [x];")
        ring = s.presented("R").ambient
        assert parse_polynomial("-x - -1", ring) == -ring.var(0) + 1


BUNDLED_TOKENS = {
    path.name: [t.text for t in tokenize(path.read_text()) if t.kind != "eof"]
    for path in sorted(SESSIONS.glob("*.rg"))
}
VOCABULARY = sorted({t for tokens in BUNDLED_TOKENS.values() for t in tokens})


def parse_outcome(text: str):
    """A SessionFile or the RingGraphError it raised: what the CLI turns
    into exit 0 or exit 2.  Any other exception escapes (exit 1)."""
    try:
        return parse_session(text)
    except RingGraphError as e:  # SessionSyntaxError is one
        return e


class TestParserFuzz:
    """No input text makes the parser raise outside the error taxonomy."""

    @given(st.text(max_size=200))
    def test_arbitrary_text(self, text):
        assert isinstance(parse_outcome(text), (SessionFile, RingGraphError))

    @given(st.text(max_size=120))
    def test_arbitrary_text_after_a_header(self, text):
        header = "field Q;\nring R = [x, y];\n"
        assert isinstance(parse_outcome(header + text), (SessionFile, RingGraphError))

    @given(st.lists(st.sampled_from(VOCABULARY), max_size=40))
    def test_token_soup(self, tokens):
        text = "field Q; " + " ".join(tokens)
        assert isinstance(parse_outcome(text), (SessionFile, RingGraphError))

    @given(
        st.sampled_from(sorted(BUNDLED_TOKENS)),
        st.lists(
            st.tuples(
                st.sampled_from(["delete", "duplicate", "replace", "swap"]),
                st.integers(min_value=0),
                st.integers(min_value=0),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_token_mutants_of_bundled_sessions(self, name, edits):
        tokens = list(BUNDLED_TOKENS[name])
        for op, i, j in edits:
            i %= len(tokens)
            if op == "delete" and len(tokens) > 1:
                del tokens[i]
            elif op == "duplicate":
                tokens.insert(i, tokens[i])
            elif op == "replace":
                tokens[i] = VOCABULARY[j % len(VOCABULARY)]
            elif op == "swap":
                j %= len(tokens)
                tokens[i], tokens[j] = tokens[j], tokens[i]
        assert isinstance(parse_outcome(" ".join(tokens)), (SessionFile, RingGraphError))

    @given(
        st.sampled_from(sorted(BUNDLED_TOKENS)),
        st.integers(min_value=0),
        st.characters(categories=["No", "Nd"]),
    )
    def test_digit_like_characters_in_bundled_sessions(self, name, at, ch):
        """Characters of the number categories that are not decimal
        digits (superscripts, circled digits) are refused, not crashed on."""
        tokens = list(BUNDLED_TOKENS[name])
        tokens.insert(at % (len(tokens) + 1), ch)
        assert isinstance(parse_outcome(" ".join(tokens)), (SessionFile, RingGraphError))

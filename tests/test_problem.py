from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth.errors import (
    DuplicateKeyError,
    MissingKeyError,
    ProblemStatementError,
    TypeMismatchError,
    UnknownKeyError,
)
from graphsynth.problem import ProblemStatement, parse_problem_statement

# The exemplar statement, with line continuations and multi-line lists.
EXEMPLAR = """\
data_sources_names = ['my_input.txt']
requested_calculations = \\
       ['average value',
        'average value variation']
program_requirements = \\
      ['read input data',
       'calculate quantity',
       'report result']
programming_language = 'Python-3.8'
program_basename = 'hello_analytic'
"""

_CANONICAL_ORDER = (
    "data_source_names",
    "requested_calculations",
    "program_requirements",
    "library_preferences",
    "programming_language",
    "program_basename",
)


def _quote(value: str) -> str:
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"


def serialize_problem_statement(ps: ProblemStatement) -> str:
    """Canonical text form; re-parsing it yields an equal statement."""
    lines = []
    for key in _CANONICAL_ORDER:
        value = getattr(ps, key)
        if key == "library_preferences" and not value:
            continue
        if isinstance(value, tuple):
            lines.append(f"{key} = [{', '.join(_quote(v) for v in value)}]")
        else:
            lines.append(f"{key} = {_quote(value)}")
    return "\n".join(lines) + "\n"


def test_exemplar_statement_parses_to_expected_fields():
    ps = parse_problem_statement(EXEMPLAR)
    assert ps.data_source_names == ("my_input.txt",)
    assert ps.requested_calculations == ("average value", "average value variation")
    assert ps.program_requirements == ("read input data", "calculate quantity", "report result")
    assert ps.programming_language == "Python-3.8"
    assert ps.program_basename == "hello_analytic"
    assert ps.library_preferences == ()


def test_shipped_statement_file_equals_exemplar(statement_text):
    assert parse_problem_statement(statement_text) == parse_problem_statement(EXEMPLAR)


def test_both_data_source_key_spellings_are_accepted():
    singular = EXEMPLAR.replace("data_sources_names", "data_source_names")
    assert parse_problem_statement(singular) == parse_problem_statement(EXEMPLAR)


def test_missing_key_is_named():
    text = EXEMPLAR.replace("programming_language = 'Python-3.8'\n", "")
    with pytest.raises(MissingKeyError) as exc:
        parse_problem_statement(text)
    assert exc.value.key == "programming_language"


def test_unknown_key_is_rejected():
    with pytest.raises(UnknownKeyError) as exc:
        parse_problem_statement(EXEMPLAR + "favourite_colour = 'blue'\n")
    assert exc.value.key == "favourite_colour"
    assert exc.value.line is not None


def test_list_where_scalar_expected():
    text = EXEMPLAR.replace("program_basename = 'hello_analytic'", "program_basename = ['x']")
    with pytest.raises(TypeMismatchError) as exc:
        parse_problem_statement(text)
    assert exc.value.key == "program_basename"


def test_scalar_where_list_expected():
    text = EXEMPLAR.replace("data_sources_names = ['my_input.txt']", "data_sources_names = 'my_input.txt'")
    with pytest.raises(TypeMismatchError):
        parse_problem_statement(text)


def test_duplicate_key_rejected_across_spellings():
    with pytest.raises(DuplicateKeyError):
        parse_problem_statement(EXEMPLAR + "data_source_names = ['again.txt']\n")


def test_empty_list_is_rejected():
    text = EXEMPLAR.replace("['my_input.txt']", "[]")
    # An empty list is not even grammatical here: lists hold at least one string.
    with pytest.raises(ProblemStatementError):
        parse_problem_statement(text)


@pytest.mark.parametrize(
    "bad",
    # Space, '>' and a control character cannot be part of a program graph's IRI.
    ["x/y", "x.y", "", "a\\\\b", "hello analytic", "a>b", "a\x01b", "a\tb", "a\u3000b", *'<>"{}|^`'],
)
def test_basename_constraints(bad):
    text = EXEMPLAR.replace("'hello_analytic'", f"'{bad}'")
    with pytest.raises(ProblemStatementError) as exc:
        parse_problem_statement(text)
    assert exc.value.line == 10  # anchored at the offending key
    assert "program_basename must be non-empty and contain no path separator" in str(exc.value)


@pytest.mark.parametrize("good", ["hello_analytic", "variant", "wb_1_0", "curve_0", "x-y", "na\u00efve"])
def test_basenames_that_can_be_part_of_an_iri_are_accepted(good):
    text = EXEMPLAR.replace("'hello_analytic'", f"'{good}'")
    assert parse_problem_statement(text).program_basename == good


def test_empty_list_value_error_is_anchored_at_its_key():
    text = EXEMPLAR.replace("programming_language = 'Python-3.8'", "programming_language = ''")
    with pytest.raises(ProblemStatementError) as exc:
        parse_problem_statement(text)
    assert exc.value.line == 9


def test_stray_backslash_is_positioned():
    with pytest.raises(ProblemStatementError) as exc:
        parse_problem_statement("program_basename = \\ 'x'")
    assert exc.value.line == 1


def test_unterminated_string_is_positioned():
    with pytest.raises(ProblemStatementError) as exc:
        parse_problem_statement("program_basename = 'open")
    assert exc.value.line == 1


def test_library_preferences_key_is_optional_and_parsed():
    ps = parse_problem_statement(EXEMPLAR + "library_preferences = ['numpy']\n")
    assert ps.library_preferences == ("numpy",)


def test_round_trip_through_canonical_form():
    ps = parse_problem_statement(EXEMPLAR + "library_preferences = ['numpy']\n")
    assert parse_problem_statement(serialize_problem_statement(ps)) == ps


def test_round_trip_with_escaped_quotes():
    ps = ProblemStatement(
        data_source_names=("it's.txt",),
        requested_calculations=("a \\ b",),
        program_requirements=("r",),
        programming_language="Python-3.8",
        program_basename="x",
    )
    assert parse_problem_statement(serialize_problem_statement(ps)) == ps


# Values the canonical form can express: no newlines (strings are single-line).
_values = st.text(alphabet=st.characters(blacklist_characters="\n\r"), min_size=1, max_size=20)
_value_lists = st.lists(_values, min_size=1, max_size=4).map(tuple)
_basenames = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True)


@given(
    sources=_value_lists,
    calculations=_value_lists,
    requirements=_value_lists,
    language=_values,
    basename=_basenames,
    preferences=st.lists(_values, max_size=3).map(tuple),
)
@settings(max_examples=150, deadline=None)
def test_round_trip_property(sources, calculations, requirements, language, basename, preferences):
    ps = ProblemStatement(
        data_source_names=sources,
        requested_calculations=calculations,
        program_requirements=requirements,
        programming_language=language,
        program_basename=basename,
        library_preferences=preferences,
    )
    assert parse_problem_statement(serialize_problem_statement(ps)) == ps


_FUZZ_ALPHABET = string.ascii_letters + string.digits + " \t\n'[]=,\\_-#é"


def test_parser_total_on_fuzzed_inputs():
    rng = random.Random(42)
    for _ in range(1500):
        roll = rng.random()
        if roll < 0.5:
            text = "".join(rng.choices(_FUZZ_ALPHABET, k=rng.randint(0, 60)))
        else:
            chars = list(EXEMPLAR)
            for _ in range(rng.randint(1, 6)):
                index = rng.randrange(len(chars))
                if rng.random() < 0.5:
                    chars[index] = rng.choice(_FUZZ_ALPHABET)
                else:
                    del chars[index]
            text = "".join(chars)
        try:
            parse_problem_statement(text)
        except ProblemStatementError:
            pass

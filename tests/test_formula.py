import itertools

import pytest
from hypothesis import given, settings, strategies as st

from bikripke.errors import FormulaSyntaxError
from bikripke.formula import (
    MAX_NESTING,
    DOWN,
    UP,
    And,
    Atom,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    enumerate_formulas,
    letters,
    modal_depth,
    parse,
    print_formula,
    size,
    subformulas,
    substitute,
)

p, q = Atom("p"), Atom("q")


def test_parse_atom():
    assert parse("p0") == Atom("p0")


def test_parse_dot_two_axiom_shape():
    f = parse("<u>[u]p -> [u]<u>p")
    assert f == Imp(Dia(UP, Box(UP, p)), Box(UP, Dia(UP, p)))


def test_parse_pl_axiom():
    assert parse("[d]p <-> p") == Iff(Box(DOWN, p), p)


def test_parse_monomodal_aliases():
    assert parse("[]p") == parse("[u]p")
    assert parse("<>p") == parse("<u>p")


def test_parse_constants_and_parens():
    assert parse("true") == Top()
    assert parse("false") == Bot()
    assert parse("(p)") == p


def test_precedence_and_associativity():
    assert parse("p & q & r") == And(And(p, q), Atom("r"))
    assert parse("p | q & r") == Or(p, And(q, Atom("r")))
    assert parse("p -> q -> r") == Imp(p, Imp(q, Atom("r")))
    assert parse("p <-> q <-> r") == Iff(Iff(p, q), Atom("r"))
    assert parse("~[u]p") == Not(Box(UP, p))


def test_syntax_error_offset_and_expected():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p -> ")
    assert exc.value.offset == 5
    assert exc.value.expected
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p @ q")
    assert exc.value.offset == 2


def test_nesting_limit():
    assert parse("~" * MAX_NESTING + "p") is not None
    assert parse("(" * MAX_NESTING + "p" + ")" * MAX_NESTING) == p
    too_deep = ["~" * (MAX_NESTING + 1) + "p",
                "~" * 1200 + "p",
                "(" * 1200 + "p" + ")" * 1200,
                "p -> " * 1200 + "p",
                " & ".join(["p"] * 1200)]
    for text in too_deep:
        with pytest.raises(FormulaSyntaxError, match="nests more than"):
            parse(text)


def test_print_atom():
    assert print_formula(Atom("p0")) == "p0"


def test_print_dot_two_shape():
    f = Imp(Dia(UP, Box(UP, p)), Box(UP, Dia(UP, p)))
    assert print_formula(f) == "<u>[u]p -> [u]<u>p"


def test_print_forced_parens():
    assert print_formula(Not(And(p, q))) == "~(p & q)"
    assert print_formula(Imp(Imp(p, q), p)) == "(p -> q) -> p"
    assert print_formula(Iff(p, Iff(q, p))) == "p <-> (q <-> p)"


def test_substitute_rename():
    assert substitute(Box(UP, p), {"p": q}) == Box(UP, q)


def test_substitute_unfolding():
    f = Imp(p, Box(UP, p))
    g = Dia(DOWN, q)
    assert substitute(f, {"p": g}) == Imp(g, Box(UP, g))


def test_substitute_partial_map():
    assert substitute(And(p, q), {"p": Top()}) == And(Top(), q)


def test_letters_and_depth():
    f = parse("<u>[u]p0 -> p1")
    assert letters(f) == {"p0", "p1"}
    assert modal_depth(parse("<d>[d]p")) == 2
    assert modal_depth(p) == 0


def test_subformulas_shared():
    # Distinct subtrees only: the inner <u>p is shared with the consequent.
    f = parse("<u>p -> [u]<u>p")
    assert subformulas(f) == {parse("p"), parse("<u>p"), parse("[u]<u>p"), f}


def test_size():
    assert size(p) == 1
    assert size(parse("<u>[u]p -> [u]<u>p")) == 7


def test_enumerate_stream_start():
    stream = enumerate_formulas(1, 1, {UP})
    assert list(stream) == [Atom("p0"), Top(), Bot()]


def test_enumerate_size_two_items():
    items = list(enumerate_formulas(1, 2, {UP}))
    for f in (Not(Atom("p0")), Box(UP, Atom("p0")), Dia(UP, Atom("p0"))):
        assert f in items
        assert size(f) == 2


def test_enumerate_empty_for_size_zero():
    assert list(enumerate_formulas(1, 0, {UP})) == []


def test_enumerate_no_duplicates_and_size_bound():
    seen = set()
    for f in enumerate_formulas(2, 5, {UP, DOWN}):
        assert f not in seen
        seen.add(f)
        assert size(f) <= 5
    assert len(seen) > 1000


def test_roundtrip_enumerated():
    for k in (1, 2):
        for f in itertools.islice(enumerate_formulas(k, 7, {UP, DOWN}), 4000):
            assert parse(print_formula(f)) == f


_atoms = st.sampled_from([Atom("p0"), Atom("p1"), Atom("q"), Top(), Bot()])
_formula_strategy = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Box, st.sampled_from([UP, DOWN]), sub),
        st.builds(Dia, st.sampled_from([UP, DOWN]), sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=12,
)
_small_subst = st.dictionaries(st.sampled_from(["p0", "p1", "q"]),
                               _formula_strategy, max_size=2)


@settings(max_examples=200, deadline=None)
@given(_formula_strategy)
def test_roundtrip_random_ast(f):
    assert parse(print_formula(f)) == f


@settings(max_examples=60, deadline=None)
@given(_formula_strategy, _small_subst, _small_subst)
def test_substitution_composition(f, s1, s2):
    composed = {l: substitute(g, s2) for l, g in s1.items()}
    for l in s2:
        composed.setdefault(l, s2[l])
    assert substitute(substitute(f, s1), s2) == substitute(f, composed)


@settings(max_examples=60, deadline=None)
@given(_formula_strategy, _small_subst)
def test_substitution_never_shrinks(f, s):
    assert size(substitute(f, s)) >= size(f)

import copy
import gc
import itertools
import pickle
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from bikripke import formula
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
    _orient_to,
    directions,
    enumerate_formulas,
    letters,
    modal_depth,
    parse,
    polarity,
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


# ---------------------------------------------------------------------------
# The recursive-descent parser the precedence loop replaced, kept as the
# reference: parse must return the same node or raise the same error.
# ---------------------------------------------------------------------------

_REF_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<boxu>\[u\]|\[\])
      | (?P<boxd>\[d\])
      | (?P<diau><u>|<>)
      | (?P<diad><d>)
      | (?P<not>~)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<ident>[a-z][a-z0-9]*)
    """,
    re.VERBOSE,
)


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _RefParser:
    def __init__(self, text):
        self.tokens = _ref_tokenize(text)
        self.i = 0
        self.open = 0       # prefix operands, parentheses, '->' operands

    def nest(self):
        self.open += 1
        if self.open > MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nests more than {MAX_NESTING} deep", self.tokens[self.i - 1][2])

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, expected):
        kind, text, pos = self.peek()
        shown = text if kind != "eof" else "end of input"
        raise FormulaSyntaxError(f"unexpected {shown!r}", pos, frozenset(expected))

    def parse(self):
        f = self.iff()
        if self.peek()[0] != "eof":
            self.error({"end of input", "binary operator"})
        return f

    def iff(self):
        f = self.imp()
        while self.peek()[0] == "iff":
            self.take()
            f = Iff(f, self.imp())
        return f

    def imp(self):
        f = self.or_()
        if self.peek()[0] == "imp":
            self.take()
            self.nest()
            f = Imp(f, self.imp())
            self.open -= 1
        return f

    def or_(self):
        f = self.and_()
        while self.peek()[0] == "or":
            self.take()
            f = Or(f, self.and_())
        return f

    def and_(self):
        f = self.unary()
        while self.peek()[0] == "and":
            self.take()
            f = And(f, self.unary())
        return f

    _UNARY = {
        "not": lambda sub: Not(sub),
        "boxu": lambda sub: Box(UP, sub),
        "boxd": lambda sub: Box(DOWN, sub),
        "diau": lambda sub: Dia(UP, sub),
        "diad": lambda sub: Dia(DOWN, sub),
    }

    def unary(self):
        kind = self.peek()[0]
        ctor = self._UNARY.get(kind)
        if ctor is not None:
            self.take()
            self.nest()
            f = ctor(self.unary())
            self.open -= 1
            return f
        return self.atom()

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "ident":
            self.take()
            if text == "true":
                return Top()
            if text == "false":
                return Bot()
            return Atom(text)
        if kind == "lp":
            self.take()
            self.nest()
            f = self.iff()
            if self.peek()[0] != "rp":
                self.error({"')'"})
            self.take()
            self.open -= 1
            return f
        self.error({"'~'", "'[u]'", "'<u>'", "'[d]'", "'<d>'",
                    "'('", "letter", "'true'", "'false'"})


def ref_parse(text):
    f = _RefParser(text).parse()
    if f._depth > MAX_NESTING:
        raise FormulaSyntaxError(f"formula nests more than {MAX_NESTING} deep", 0)
    return f


def _outcome(parser, text):
    """The node parser returns for text, or its error's message, offset and
    expected set."""
    try:
        return parser(text)
    except FormulaSyntaxError as exc:
        return (str(exc), exc.offset, exc.expected)


def _assert_same_as_reference(text):
    got, want = _outcome(parse, text), _outcome(ref_parse, text)
    assert got is want or (type(got) is tuple and got == want), text


_GRAMMAR_TOKENS = ["~", "[u]", "[d]", "<u>", "<d>", "[]", "<>", "&", "|", "->",
                   "<->", "(", ")", "p", "q0", "true", "false"]
_STRAY = ["@", "X", "[", "<", "-", "]", ">"]
_BLANKS = ["", " ", "  ", "\t", "\n"]
_token_soup = st.lists(
    st.tuples(st.sampled_from(_GRAMMAR_TOKENS * 8 + _STRAY), st.sampled_from(_BLANKS)),
    max_size=30,
).map(lambda pairs: "".join(tok + blank for tok, blank in pairs))


@settings(max_examples=3000, deadline=None)
@given(_token_soup, st.sampled_from(_BLANKS))
def test_parse_equals_reference_on_token_soup(text, trailing):
    _assert_same_as_reference(text + trailing)


def test_parse_equals_reference_at_the_nesting_limit():
    for n in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        for text in ["~" * n + "p",
                     "(" * n + "p" + ")" * n,
                     "(" * n + "p" + ")" * (n - 1),
                     "p -> " * n + "p",
                     " & ".join(["p"] * (n + 1)),
                     " <-> ".join(["p"] * (n + 1)),
                     "[u]<d>~" * (n // 3) + "(p -> " * (n % 3) + "p" + ")" * (n % 3),
                     "p -> (" * (n // 2) + "q" + ")" * (n // 2),
                     "~(" * (n // 2) + "p" + ")" * (n // 2) + " @",
                     "~" * n + "p &",
                     "p -> ~" * (n // 2) + "q <-> r -> ~" * (n // 2) + "s"]:
            _assert_same_as_reference(text)
            _assert_same_as_reference(text + " q")


def test_long_runs_of_blanks_lex_in_linear_time():
    # A lexer that skips blanks before each token rescans trailing blanks
    # from every position: seconds at this length.
    blanks = " " * 20_000
    start = time.perf_counter()
    assert parse(blanks + "p" + blanks + "-> q" + blanks) is parse("p -> q")
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p ->" + blanks)
    assert exc.value.offset == 4 + len(blanks)
    assert time.perf_counter() - start < 1.0


def _stack_depth():
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_parse_does_not_recurse():
    texts = ["~" * 100 + "p", "(" * 100 + "p" + ")" * 100, "p -> " * 100 + "p"]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        depths = [parse(text)._depth for text in texts]
    finally:
        sys.setrecursionlimit(limit)
    assert depths == [100, 0, 100]


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


def test_substitute_leaves_no_garbage_cycles():
    f = Imp(p, Box(UP, And(p, Not(q))))
    sigma = {"p": Dia(DOWN, q), "q": Top()}
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            substitute(f, sigma)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_letters_and_depth():
    f = parse("<u>[u]p0 -> p1")
    assert letters(f) == {"p0", "p1"}
    assert modal_depth(parse("<d>[d]p")) == 2
    assert modal_depth(p) == 0


def test_modal_depth_of_deep_and_shared_formulas():
    # Built in code, past the interpreter's recursion limit.
    f = p
    for _ in range(1500):
        f = Box(UP, f)
    assert modal_depth(f) == 1500
    # A tree of about 2^61 nodes over 121 distinct ones: each is visited once.
    g = p
    for _ in range(60):
        g = And(Box(UP, g), g)
    assert modal_depth(g) == 60


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
    assert parse(print_formula(f)) is f


@settings(max_examples=500, deadline=None)
@given(_formula_strategy, st.data())
def test_parse_equals_reference_on_formula_prefixes(f, data):
    tokens = re.findall(r"<->|->|\[.\]|<.>|\w+|\S", print_formula(f))
    blanks = data.draw(st.lists(st.sampled_from(_BLANKS),
                                min_size=len(tokens), max_size=len(tokens)))
    spaced = [tok + blank for tok, blank in zip(tokens, blanks)]
    cut = data.draw(st.integers(0, len(spaced)))
    _assert_same_as_reference("".join(spaced[:cut]))
    _assert_same_as_reference("".join(spaced))


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


def ref_polarity(f, letter: str) -> int:
    """Signs of the letter's occurrences, collected by a walk that carries
    the sign: ~ and the left of -> flip it, both sides of <-> take both."""
    signs, stack = set(), [(f, 1)]
    while stack:
        g, sign = stack.pop()
        if isinstance(g, Atom):
            if g.name == letter:
                signs.add(sign)
        elif isinstance(g, Not):
            stack.append((g.sub, -sign))
        elif isinstance(g, (Box, Dia)):
            stack.append((g.sub, sign))
        elif isinstance(g, Imp):
            stack += [(g.left, -sign), (g.right, sign)]
        elif isinstance(g, Iff):
            stack += [(h, s) for h in (g.left, g.right) for s in (1, -1)]
        elif isinstance(g, (And, Or)):
            stack += [(g.left, sign), (g.right, sign)]
    return signs.pop() if len(signs) == 1 else 0


@settings(max_examples=200, deadline=None)
@given(_formula_strategy, st.sampled_from(["p0", "p1", "q", "r"]))
def test_polarity_equals_reference(f, letter):
    assert polarity(f, letter) == ref_polarity(f, letter)


def test_polarity_visits_each_node_of_an_iff_chain_once(monkeypatch):
    calls = []
    walk = formula._polarities

    def counted(g, letter, sign):
        calls.append(g)
        return walk(g, letter, sign)

    monkeypatch.setattr(formula, "_polarities", counted)
    f = parse(" <-> ".join(["p0"] * 12))
    assert polarity(f, "p0") == 0
    assert len(calls) == 23


# ---------------------------------------------------------------------------
# Interning: one object per formula
# ---------------------------------------------------------------------------

def ref_letters(f) -> frozenset:
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (Not, Box, Dia)):
            stack.append(g.sub)
        elif isinstance(g, (And, Or, Imp, Iff)):
            stack += [g.left, g.right]
    return frozenset(out)


def ref_directions(f) -> frozenset:
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Box, Dia)):
            out.add(g.dir)
        if isinstance(g, (Not, Box, Dia)):
            stack.append(g.sub)
        elif isinstance(g, (And, Or, Imp, Iff)):
            stack += [g.left, g.right]
    return frozenset(out)


def ref_depth(f) -> int:
    deepest, stack = 0, [(f, 0)]
    while stack:
        g, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(g, (Not, Box, Dia)):
            stack.append((g.sub, d + 1))
        elif isinstance(g, (And, Or, Imp, Iff)):
            stack += [(g.left, d + 1), (g.right, d + 1)]
    return deepest


def test_equal_formulas_are_one_object_whatever_builds_them():
    text = "[d](p0 & <d>p1) -> ~<d>p0"
    f = parse(text)
    assert parse(text) is f
    p0, p1 = Atom("p0"), Atom("p1")
    assert Imp(Box(DOWN, And(p0, Dia(DOWN, p1))), Not(Dia(DOWN, p0))) is f
    assert substitute(parse("[d](q & <d>p1) -> ~<d>p0"), {"q": p0}) is f
    up = parse("[u](p0 & <u>p1) -> ~<u>p0")
    assert _orient_to(f, UP) is up
    assert _orient_to(f, UP) is _orient_to(f, UP)
    assert _orient_to(up, DOWN) is f
    assert Top() is Top() and Bot() is Bot() and Top() is not Bot()
    for bad in ("true", "false", "P"):
        with pytest.raises(ValueError):
            Atom(bad)
    with pytest.raises(TypeError):
        Atom(1)
    for g in enumerate_formulas(2, 5, {UP, DOWN}):
        assert parse(print_formula(g)) is g


def test_equality_is_identity():
    stream = list(enumerate_formulas(1, 4, {UP, DOWN}))
    again = list(enumerate_formulas(1, 4, {UP, DOWN}))
    for f, g in zip(stream, again):
        assert f is g
    for f, g in itertools.product(stream[:40], repeat=2):
        assert (f == g) is (f is g)
        assert (f != g) is (f is not g)
    assert Atom("p") != "p" and Top() != True


def test_pickle_and_copy_return_the_interned_node():
    f = parse("<d>[d]p0 -> (p1 <-> true)")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f


@settings(max_examples=200, deadline=None)
@given(_formula_strategy)
def test_node_fields_equal_reference_walks(f):
    assert letters(f) == ref_letters(f)
    assert directions(f) == ref_directions(f)
    assert f._depth == ref_depth(f)


def test_deep_chains_built_in_code_compare_and_hash():
    def chain(depth):
        f = Atom("p")
        for _ in range(depth):
            f = Not(Box(UP, f))
        return f

    a, b = chain(3000), chain(3000)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != chain(2999)
    assert letters(a) == {"p"} and directions(a) == {UP} and a._depth == 6000


def test_table_shrinks_when_formulas_are_dropped():
    gc.collect()
    before = len(formula._nodes)
    kept = [parse(f"[u](x{i} & <d>~x{i}) -> y{i}") for i in range(300)]
    twins = [_orient_to(f, UP) for f in kept]
    assert len(formula._nodes) > before + 300
    del kept, twins
    gc.collect()
    assert len(formula._nodes) == before
    f = Atom("deep")
    for _ in range(50_000):
        f = Not(Box(DOWN, f))
    assert f._depth == 100_000
    del f
    gc.collect()
    assert len(formula._nodes) == before

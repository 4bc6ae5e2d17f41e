"""Bimodal propositional language.

Interned AST constructors, an operator-precedence parser for the ASCII
grammar (one regex lexes the text, one loop over an operator stack builds
the tree, without recursion), a canonical minimal-parenthesis printer,
simultaneous substitution, structural queries, and the canonical
size-lexicographic enumeration used for fragment sweeps.

Grammar (whitespace insensitive)::

    formula := iff
    iff     := imp ("<->" imp)*          (left associative)
    imp     := or ("->" imp)?            (right associative)
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "[u]" unary | "<u>" unary
             | "[d]" unary | "<d>" unary | atom
    atom    := "true" | "false" | IDENT | "(" formula ")"

``[]`` and ``<>`` are accepted as monomodal aliases for ``[u]`` and ``<u>``.
Letter identifiers match ``[a-z][a-z0-9]*``.  Formulas nested more than
MAX_NESTING (100) deep are refused with FormulaSyntaxError.
"""

from __future__ import annotations

import re
import weakref
from enum import Enum
from typing import Iterator, Mapping

from .errors import FormulaSyntaxError, _too_deep


class Direction(Enum):
    """Modal direction: UP looks along the relation, DOWN along its converse."""

    UP = "u"
    DOWN = "d"

    @property
    def converse(self) -> "Direction":
        return Direction.DOWN if self is Direction.UP else Direction.UP


UP = Direction.UP
DOWN = Direction.DOWN


class Formula:
    """Base class of all formula nodes.  Instances are immutable and
    interned: equal formulas are one object, so equality is identity, while
    hashes stay structural, which keeps the order of sets and dicts of
    formulas independent of addresses.  A node computes its letters, its
    direction bits (1 UP, 2 DOWN) and its depth from its children, once; a
    node with a DOWN operator keeps its UP twin once asked (_orient_to)."""

    __slots__ = ("_hash", "_letters", "_dirs", "_depth", "_up", "__weakref__")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Unpickling and copying rebuild the interned node from its text.
        return parse, (print_formula(self),)

    def __repr__(self):
        return f"Formula({print_formula(self)!r})"

    def __str__(self):
        return print_formula(self)


# The live nodes, each under a weak reference, so a node lives only as long
# as formulas in use hold it.  A letter is keyed by its name, ⊤ and ⊥ by -1
# and -2, and a compound node by one int that packs its children's ids (each
# below 2^64) above a 3-bit tag of its class and direction (_TAGS): no tuple
# and no id objects per node.  Child ids identify the children while the node lives, since it
# holds them, and a dying node's reference removes its entry before its
# children go.
_nodes: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    if _nodes.get(ref.key) is ref:      # else a new node took the key
        del _nodes[ref.key]


def _live(key):
    ref = _nodes.get(key)
    return None if ref is None else ref()


def _new(cls, key, h: int, letters: frozenset, dirs: int, depth: int):
    """A fresh node of cls filed under key; the caller sets its fields."""
    f = object.__new__(cls)
    f._hash = h
    f._letters = letters
    f._dirs = dirs
    f._depth = depth
    f._up = None
    ref = _nodes[key] = _Ref(f, _forget)
    ref.key = key
    return f


# A letter identifier, as the constructor checks it and the lexer reads it.
_IDENT = re.compile(r"[a-z][a-z0-9]*")


def _is_letter(name: str) -> bool:
    """Is name a letter identifier, not a constant's keyword?"""
    return _IDENT.fullmatch(name) is not None and name not in ("true", "false")


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        f = _live(name) if type(name) is str else None
        if f is None:
            if not _is_letter(name):
                raise ValueError(f"bad letter identifier: {name!r}")
            f = _new(cls, name, hash(("Atom", name)), frozenset((name,)), 0, 0)
            f.name = name
        return f


class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        return _live(-1) or _new(cls, -1, hash("Top"), frozenset(), 0, 0)


class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        return _live(-2) or _new(cls, -2, hash("Bot"), frozenset(), 0, 0)


class Not(Formula):
    __slots__ = ("sub",)

    def __new__(cls, sub: Formula):
        key = id(sub) << 3
        f = _live(key)
        if f is None:
            f = _new(cls, key, hash(("Not", sub._hash)), sub._letters, sub._dirs,
                     sub._depth + 1)
            f.sub = sub
        return f


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (id(left) << 64 | id(right)) << 3 | _TAGS[cls]
        f = _live(key)
        if f is None:
            l, r = left._letters, right._letters
            f = _new(cls, key, hash((cls.__name__, left._hash, right._hash)),
                     l if r <= l else r if l <= r else l | r,
                     left._dirs | right._dirs, max(left._depth, right._depth) + 1)
            f.left = left
            f.right = right
        return f


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = ("dir", "sub")

    def __new__(cls, dir: Direction, sub: Formula):
        if dir is not UP and dir is not DOWN:
            raise TypeError(f"not a direction: {dir!r}")
        key = id(sub) << 3 | (_TAGS[cls] + (dir is DOWN))
        f = _live(key)
        if f is None:
            f = _new(cls, key, hash((cls.__name__, dir, sub._hash)), sub._letters,
                     sub._dirs | (1 if dir is UP else 2), sub._depth + 1)
            f.dir = dir
            f.sub = sub
        return f


class Box(_Modal):
    __slots__ = ()


class Dia(_Modal):
    __slots__ = ()


# Not's tag is 0, and DOWN adds 1 to a modal tag.  Binary keys are wider
# than unary ones, so their tags may repeat.
_TAGS = {And: 0, Or: 1, Imp: 2, Iff: 3, Box: 1, Dia: 3}


TRUE = Top()
FALSE = Bot()

Substitution = Mapping[str, Formula]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The parser accepts formulas with at most this many operators on any path
# from the root to a leaf, and at most this many parentheses, prefix
# operators and pending '->' operands open at once.  The tree walks of the
# package recurse once per level, so this keeps every one of them far below
# the interpreter's recursion limit.
MAX_NESTING = 100

# The lexer's groups are a symbol, a letter and a stray character; findall
# gives one (symbol, letter, stray) triple per token, with two of them empty.
# Blanks are eaten after a token, not before: findall retries a failed match
# from every position, and a leading \s* would rescan trailing blanks from
# each of them.
_LEX = re.compile(
    r"(?:(<->|->|\[[ud]?\]|<[ud]?>|[~&|()])|(" + _IDENT.pattern + r")|(\S))\s*")

# Operator stack entries are (precedence, constructor, argument): a binary
# operator keeps its left operand, a modal its direction, ~ None and '('
# nothing.  A binary operator first reduces the entries on top whose
# precedence is at least its threshold: its own precedence (left
# associative), one more for '->' (right associative).  Any other token
# after an operand reduces every binary operator down to '(' or the bottom.
_PREFIX = 5
_OPEN = (0, None, None)
_BOTTOM = (-1, None, None)
_OPENERS = {
    "~": (_PREFIX, Not, None),
    "[u]": (_PREFIX, Box, UP), "[]": (_PREFIX, Box, UP), "[d]": (_PREFIX, Box, DOWN),
    "<u>": (_PREFIX, Dia, UP), "<>": (_PREFIX, Dia, UP), "<d>": (_PREFIX, Dia, DOWN),
    "(": _OPEN,
}
_BINARIES = {"<->": (1, 1, Iff), "->": (2, 3, Imp), "|": (3, 3, Or), "&": (4, 4, And)}
_NOT_BINARY = (None, 1, None)
_CONSTANTS = {"true": TRUE, "false": FALSE}
_END = ("", "", "")
_OPERAND = frozenset({"'~'", "'[u]'", "'<u>'", "'[d]'", "'<d>'",
                      "'('", "letter", "'true'", "'false'"})
_CLOSE = frozenset({"')'"})
_AFTER = frozenset({"end of input", "binary operator"})


def parse(text: str) -> Formula:
    """Parse formula text into its unique AST; raises FormulaSyntaxError,
    also for formulas nested deeper than MAX_NESTING."""
    tokens = _LEX.findall(text)
    end = len(tokens)
    tokens.append(_END)
    stack = [_BOTTOM]
    open = i = 0        # prefix operands, parentheses, '->' operands
    while True:
        sym, name, _ = tokens[i]
        i += 1
        if not name:
            entry = _OPENERS.get(sym)
            if entry is None:
                raise _syntax_error(text, i - 1, _OPERAND)
            open += 1
            if open > MAX_NESTING:
                raise _syntax_error(text, i - 1)
            stack.append(entry)
            continue
        f = _CONSTANTS.get(name) or Atom(name)
        while True:         # f is a complete operand
            while stack[-1][0] == _PREFIX:
                _, ctor, d = stack.pop()
                f = Not(f) if d is None else ctor(d, f)
                open -= 1
            sym = tokens[i][0]
            i += 1
            prec, threshold, ctor = _BINARIES.get(sym, _NOT_BINARY)
            while stack[-1][0] >= threshold:
                _, c, left = stack.pop()
                f = c(left, f)
                if c is Imp:
                    open -= 1
            if ctor is not None:
                if ctor is Imp:
                    open += 1
                    if open > MAX_NESTING:
                        raise _syntax_error(text, i - 1)
                stack.append((prec, ctor, f))
                break
            if sym == ")" and stack[-1] is _OPEN:
                stack.pop()
                open -= 1
            elif i > end and stack[-1] is _BOTTOM:
                # Chains of '&', '|' and '<->' deepen the tree without
                # opening anything.
                if f._depth > MAX_NESTING:
                    raise FormulaSyntaxError(
                        f"formula nests more than {MAX_NESTING} deep", 0)
                return f
            else:
                raise _syntax_error(
                    text, i - 1, _CLOSE if stack[-1] is _OPEN else _AFTER)


def _syntax_error(text: str, i: int, expected: frozenset | None = None):
    """The error at token i: past the nesting limit if expected is None,
    else unexpected.  A stray character anywhere in the text comes first,
    as the lexer would have met it before the parser saw any token."""
    found = []
    for m in _LEX.finditer(text):
        sym, name, stray = m.groups()
        if stray:
            return FormulaSyntaxError(f"unexpected character {stray!r}", m.start(3))
        found.append((m.start(m.lastindex), sym or name))
    offset, shown = found[i] if i < len(found) else (len(text), "end of input")
    if expected is None:
        return FormulaSyntaxError(f"formula nests more than {MAX_NESTING} deep", offset)
    return FormulaSyntaxError(f"unexpected {shown!r}", offset, expected)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# Precedence levels, loosest to tightest.
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5

_MODAL_TEXT = {
    (Box, UP): "[u]", (Box, DOWN): "[d]",
    (Dia, UP): "<u>", (Dia, DOWN): "<d>",
}


def _render(f: Formula, min_prec: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Not):
        return "~" + _render(f.sub, _PREC_UNARY)
    if isinstance(f, (Box, Dia)):
        return _MODAL_TEXT[(type(f), f.dir)] + _render(f.sub, _PREC_UNARY)
    if isinstance(f, And):
        s = _render(f.left, _PREC_AND) + " & " + _render(f.right, _PREC_AND + 1)
        prec = _PREC_AND
    elif isinstance(f, Or):
        s = _render(f.left, _PREC_OR) + " | " + _render(f.right, _PREC_OR + 1)
        prec = _PREC_OR
    elif isinstance(f, Imp):
        # Right associative: the right child may be another implication.
        s = _render(f.left, _PREC_IMP + 1) + " -> " + _render(f.right, _PREC_IMP)
        prec = _PREC_IMP
    elif isinstance(f, Iff):
        s = _render(f.left, _PREC_IFF) + " <-> " + _render(f.right, _PREC_IFF + 1)
        prec = _PREC_IFF
    else:  # pragma: no cover
        raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return "(" + s + ")"
    return s


def print_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(print_formula(f)) == f.
    Raises BudgetExceeded for a formula nested past the recursion limit."""
    try:
        return _render(f, _PREC_IFF)
    except RecursionError:
        raise _too_deep() from None


# ---------------------------------------------------------------------------
# Structural queries and substitution
# ---------------------------------------------------------------------------

def letters(f: Formula) -> frozenset[str]:
    """Set of letter identifiers occurring in f."""
    return f._letters


def subformulas(f: Formula) -> frozenset[Formula]:
    """Set of distinct subtrees of f, including f itself."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, (Not, Box, Dia)):
            stack.append(g.sub)
        elif isinstance(g, _Binary):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def modal_depth(f: Formula) -> int:
    """Maximum nesting of Box/Dia operators.  An explicit stack and one
    entry per distinct node: no recursion limit, and a shared subformula is
    visited once."""
    depth: dict[Formula, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in depth:
            stack.pop()
            continue
        if isinstance(g, (Not, Box, Dia)):
            kids = (g.sub,)
        elif isinstance(g, _Binary):
            kids = (g.left, g.right)
        else:
            kids = ()
        todo = [k for k in kids if k not in depth]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        d = max((depth[k] for k in kids), default=0)
        depth[g] = d + 1 if isinstance(g, (Box, Dia)) else d
    return depth[f]


def size(f: Formula) -> int:
    """Number of constructors in f."""
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        if isinstance(g, (Not, Box, Dia)):
            stack.append(g.sub)
        elif isinstance(g, _Binary):
            stack.append(g.left)
            stack.append(g.right)
    return n


_DIRECTION_SETS = (frozenset(), frozenset({UP}), frozenset({DOWN}),
                   frozenset({UP, DOWN}))


def directions(f: Formula) -> frozenset[Direction]:
    """Set of modal directions occurring in f."""
    return _DIRECTION_SETS[f._dirs]


def substitute(f: Formula, s: Substitution) -> Formula:
    """Simultaneous replacement of atoms; unmapped letters map to themselves.
    Raises BudgetExceeded for a formula nested past the recursion limit."""
    memo: dict[Formula, Formula] = {}

    def go(g: Formula) -> Formula:
        hit = memo.get(g)
        if hit is not None:
            return hit
        if isinstance(g, Atom):
            out = s.get(g.name, g)
        elif isinstance(g, (Top, Bot)):
            out = g
        elif isinstance(g, Not):
            out = Not(go(g.sub))
        elif isinstance(g, Box):
            out = Box(g.dir, go(g.sub))
        elif isinstance(g, Dia):
            out = Dia(g.dir, go(g.sub))
        else:
            out = type(g)(go(g.left), go(g.right))
        memo[g] = out
        return out

    try:
        return go(f)
    except RecursionError:
        raise _too_deep() from None
    finally:
        # go refers to itself; without this it and the memo would wait for
        # the cycle collector.
        del go


def _orient_to(f: Formula, d: Direction) -> Formula:
    """Rewrite every modal operator of f to direction d.  A node that turns
    UP keeps its twin, so turning it UP again is one attribute read."""
    if not f._dirs & (2 if d is UP else 1):
        return f
    if d is UP and f._up is not None:
        return f._up
    kind = type(f)
    if kind is Not:
        out = Not(_orient_to(f.sub, d))
    elif kind is Box or kind is Dia:
        out = kind(d, _orient_to(f.sub, d))
    else:
        out = kind(_orient_to(f.left, d), _orient_to(f.right, d))
    if d is UP:
        f._up = out
    return out


def polarity(f: Formula, letter: str) -> int:
    """Polarity of a letter's occurrences in f: 1 all positive, -1 all
    negative, 0 mixed or absent.  Raises BudgetExceeded for a formula nested
    past the recursion limit."""
    try:
        pos, neg = _polarities(f, letter, True)
    except RecursionError:
        raise _too_deep() from None
    if pos and neg:
        return 0
    if pos:
        return 1
    if neg:
        return -1
    return 0


def _polarities(f: Formula, letter: str, sign: bool) -> tuple[bool, bool]:
    if isinstance(f, Atom):
        if f.name != letter:
            return (False, False)
        return (True, False) if sign else (False, True)
    if isinstance(f, (Top, Bot)):
        return (False, False)
    if isinstance(f, Not):
        return _polarities(f.sub, letter, not sign)
    if isinstance(f, (Box, Dia)):
        return _polarities(f.sub, letter, sign)
    if isinstance(f, Imp):
        lp, ln = _polarities(f.left, letter, not sign)
        rp, rn = _polarities(f.right, letter, sign)
        return (lp or rp, ln or rn)
    if isinstance(f, Iff):
        # Both sides occur with both signs.  Flipping a walk's sign only
        # swaps its two answers, so one walk per side finds them.
        lp, ln = _polarities(f.left, letter, sign)
        rp, rn = _polarities(f.right, letter, sign)
        both = lp or ln or rp or rn
        return (both, both)
    lp, ln = _polarities(f.left, letter, sign)
    rp, rn = _polarities(f.right, letter, sign)
    return (lp or rp, ln or rn)


# ---------------------------------------------------------------------------
# Canonical enumeration
# ---------------------------------------------------------------------------

def enumerate_formulas(k: int, max_size: int,
                       dirs: frozenset[Direction] | set[Direction]) -> Iterator[Formula]:
    """Deterministic, duplicate-free stream of all formulas over letters
    p0..p(k-1) built from ~, &, -> and Box/Dia in the given directions, with
    size <= max_size.

    Order is size-lexicographic: sizes ascending; within one size first ~f,
    then [u]f, <u>f, [d]f, <d>f (for the enabled directions, f in stream
    order), then f & g and finally f -> g with the left operand's size
    ascending and operands in stream order.  The stream begins p0, .., ⊤, ⊥.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dir_order = [d for d in (UP, DOWN) if d in dirs]
    levels: list[list[Formula]] = [[]]  # levels[s] = formulas of exact size s

    def build(s: int) -> list[Formula]:
        if s == 1:
            return [Atom(f"p{i}") for i in range(k)] + [TRUE, FALSE]
        out: list[Formula] = []
        prev = levels[s - 1]
        out.extend(Not(g) for g in prev)
        for d in dir_order:
            out.extend(Box(d, g) for g in prev)
            out.extend(Dia(d, g) for g in prev)
        for i in range(1, s - 1):
            for g in levels[i]:
                for h in levels[s - 1 - i]:
                    out.append(And(g, h))
        for i in range(1, s - 1):
            for g in levels[i]:
                for h in levels[s - 1 - i]:
                    out.append(Imp(g, h))
        return out

    for s in range(1, max_size + 1):
        levels.append(build(s))
        yield from levels[s]

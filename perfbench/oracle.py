"""Reference semantics kept apart from the library under test.

Nothing here imports ``bikripke``: formulas are nested tuples, models are
plain successor lists, and every check is a direct, slow, per-world reading
of the Kripke semantics.  The benchmark uses these to verify the library's
answers outside the timed phase.

Formula tuples::

    ("atom", name)  ("top",)  ("bot",)  ("not", a)
    ("and", a, b)  ("or", a, b)  ("imp", a, b)  ("iff", a, b)
    ("box", d, a)  ("dia", d, a)        d is "u" (up) or "d" (down)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

BINARY_TEXT = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


# ---------------------------------------------------------------------------
# Formula tuples
# ---------------------------------------------------------------------------

def to_text(f) -> str:
    """Text in the library's grammar, every binary node parenthesised."""
    op = f[0]
    if op == "atom":
        return f[1]
    if op == "top":
        return "true"
    if op == "bot":
        return "false"
    if op == "not":
        return "~" + to_text(f[1])
    if op == "box":
        return f"[{f[1]}]" + to_text(f[2])
    if op == "dia":
        return f"<{f[1]}>" + to_text(f[2])
    return f"({to_text(f[1])} {BINARY_TEXT[op]} {to_text(f[2])})"


def from_json(x):
    """Nested lists (as JSON stores them) back to hashable tuples."""
    if isinstance(x, list):
        return tuple(from_json(y) for y in x)
    return x


def flip(f, d: str):
    """Rewrite every modal operator to direction d."""
    op = f[0]
    if op in ("atom", "top", "bot"):
        return f
    if op == "not":
        return ("not", flip(f[1], d))
    if op in ("box", "dia"):
        return (op, d, flip(f[2], d))
    return (op, flip(f[1], d), flip(f[2], d))


def rename(f, mapping: dict):
    op = f[0]
    if op == "atom":
        return ("atom", mapping.get(f[1], f[1]))
    if op in ("top", "bot"):
        return f
    if op == "not":
        return ("not", rename(f[1], mapping))
    if op in ("box", "dia"):
        return (op, f[1], rename(f[2], mapping))
    return (op, rename(f[1], mapping), rename(f[2], mapping))


def substitute(f, sigma: dict):
    op = f[0]
    if op == "atom":
        return sigma.get(f[1], f)
    if op in ("top", "bot"):
        return f
    if op == "not":
        return ("not", substitute(f[1], sigma))
    if op in ("box", "dia"):
        return (op, f[1], substitute(f[2], sigma))
    return (op, substitute(f[1], sigma), substitute(f[2], sigma))


def subterms(f) -> set:
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if g[0] == "not":
            stack.append(g[1])
        elif g[0] in ("box", "dia"):
            stack.append(g[2])
        elif g[0] in BINARY_TEXT:
            stack.extend((g[1], g[2]))
    return out


def letters(f) -> list[str]:
    return sorted(g[1] for g in subterms(f) if g[0] == "atom")


def width(f) -> int:
    """Type-space width: distinct letters, boxes and diamonds."""
    return sum(1 for g in subterms(f) if g[0] in ("atom", "box", "dia"))


_LIB_TAGS = {"Atom": "atom", "Top": "top", "Bot": "bot", "Not": "not",
             "And": "and", "Or": "or", "Imp": "imp", "Iff": "iff",
             "Box": "box", "Dia": "dia"}


def from_library(g):
    """Convert a library formula object by its public attributes."""
    tag = _LIB_TAGS[type(g).__name__]
    if tag == "atom":
        return ("atom", g.name)
    if tag in ("top", "bot"):
        return (tag,)
    if tag == "not":
        return ("not", from_library(g.sub))
    if tag in ("box", "dia"):
        return (tag, g.dir.value, from_library(g.sub))
    return (tag, from_library(g.left), from_library(g.right))


# ---------------------------------------------------------------------------
# Models and the per-world evaluator
# ---------------------------------------------------------------------------

@dataclass
class Model:
    """n worlds, up successor sets (down is derived), valuation, point."""

    n: int
    up: list[frozenset]
    val: dict[str, frozenset]
    point: int

    def __post_init__(self):
        down = [set() for _ in range(self.n)]
        for i, succ in enumerate(self.up):
            for j in succ:
                down[j].add(i)
        self.down = [frozenset(s) for s in down]

    def succ(self, d: str) -> list[frozenset]:
        return self.up if d == "u" else self.down


def read_model(text: str) -> Model:
    """Parse the line-oriented frame file format (no closure lines)."""
    n = None
    up: list[set] = []
    val: dict[str, frozenset] = {}
    point = None
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] in ("frame", "end"):
            continue
        if parts[0] == "worlds":
            n = int(parts[1])
            up = [set() for _ in range(n)]
        elif parts[0] == "up":
            up[int(parts[1])].add(int(parts[2]))
        elif parts[0] == "point":
            point = int(parts[1])
        elif parts[0] == "val":
            val[parts[1]] = frozenset(int(x) for x in parts[2:])
        else:
            raise ValueError(f"unexpected frame line: {line!r}")
    if n is None or point is None:
        raise ValueError("frame text lacks worlds or point")
    return Model(n, [frozenset(s) for s in up], val, point)


def evaluator(m: Model, val: dict | None = None):
    """at(f, w): truth of f at world w by direct recursion over successors,
    memoised per (subterm, world) for the evaluator's lifetime."""
    valuation = m.val if val is None else val
    memo: dict[tuple, bool] = {}

    def at(g, v: int) -> bool:
        key = (id(g), v)
        hit = memo.get(key)
        if hit is not None:
            return hit
        op = g[0]
        if op == "atom":
            out = v in valuation.get(g[1], ())
        elif op == "top":
            out = True
        elif op == "bot":
            out = False
        elif op == "not":
            out = not at(g[1], v)
        elif op == "and":
            out = at(g[1], v) and at(g[2], v)
        elif op == "or":
            out = at(g[1], v) or at(g[2], v)
        elif op == "imp":
            out = (not at(g[1], v)) or at(g[2], v)
        elif op == "iff":
            out = at(g[1], v) == at(g[2], v)
        elif op == "box":
            out = all(at(g[2], x) for x in m.succ(g[1])[v])
        else:
            out = any(at(g[2], x) for x in m.succ(g[1])[v])
        memo[key] = out
        return out

    return at


def holds(m: Model, f, w: int, val: dict | None = None) -> bool:
    return evaluator(m, val)(f, w)


# ---------------------------------------------------------------------------
# Frame classes
# ---------------------------------------------------------------------------

def reflexive(succ: list[frozenset]) -> bool:
    return all(w in s for w, s in enumerate(succ))


def transitive(succ: list[frozenset]) -> bool:
    return all(succ[v] <= s for s in succ for v in s)


def directed(succ: list[frozenset]) -> bool:
    """Any two successors of a world share a successor."""
    return all(succ[a] & succ[b]
               for s in succ for a, b in itertools.combinations(s, 2))


def cluster(succ: list[frozenset]) -> bool:
    """Every world sees exactly its equivalence class (S5 frames)."""
    return (reflexive(succ) and transitive(succ)
            and all(w in succ[v] for w, s in enumerate(succ) for v in s))


def in_class(theory: str, m: Model) -> bool:
    if theory == "pl":
        return m.n == 1 and reflexive(m.up)
    if theory == "s5":
        return cluster(m.up)
    rt = reflexive(m.up) and transitive(m.up)
    return rt and (theory == "s4" or directed(m.up))


def cone(succ: list[frozenset], w: int) -> frozenset:
    seen = {w}
    stack = [w]
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Complete validity oracles for PL and S5
# ---------------------------------------------------------------------------

def _collapse(f, row: dict) -> bool:
    op = f[0]
    if op == "atom":
        return row[f[1]]
    if op == "top":
        return True
    if op == "bot":
        return False
    if op == "not":
        return not _collapse(f[1], row)
    if op in ("box", "dia"):
        return _collapse(f[2], row)
    a, b = _collapse(f[1], row), _collapse(f[2], row)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "imp":
        return (not a) or b
    return a == b


def pl_valid(f) -> bool:
    """Truth table on one reflexive world: modalities collapse."""
    ls = letters(f)
    return all(_collapse(f, dict(zip(ls, bits)))
               for bits in itertools.product((False, True), repeat=len(ls)))


def s5_valid(f) -> bool:
    """Colour oracle: a universal model is fixed up to bisimulation by the set
    of letter profiles (colours) it realises, so sweep every non-empty colour
    set.  Worlds are bits of a mask; a modality on a universal model is all or
    nothing."""
    ls = letters(f)
    index: dict = {}
    nodes: list[tuple] = []

    def compile_(g) -> int:
        if g in index:
            return index[g]
        op = g[0]
        if op == "atom":
            node = ("atom", ls.index(g[1]))
        elif op in ("top", "bot"):
            node = (op,)
        elif op == "not":
            node = ("not", compile_(g[1]))
        elif op in ("box", "dia"):
            node = (op, compile_(g[2]))
        else:
            node = (op, compile_(g[1]), compile_(g[2]))
        index[g] = len(nodes)
        nodes.append(node)
        return index[g]

    root = compile_(f)
    ncolours = 1 << len(ls)
    for r in range(1, ncolours + 1):
        full = (1 << r) - 1
        for chosen in itertools.combinations(range(ncolours), r):
            atoms = [sum(1 << i for i, c in enumerate(chosen) if (c >> li) & 1)
                     for li in range(len(ls))]
            vals: list[int] = []
            for node in nodes:
                op = node[0]
                if op == "atom":
                    v = atoms[node[1]]
                elif op == "top":
                    v = full
                elif op == "bot":
                    v = 0
                elif op == "not":
                    v = full ^ vals[node[1]]
                elif op == "box":
                    v = full if vals[node[1]] == full else 0
                elif op == "dia":
                    v = full if vals[node[1]] else 0
                else:
                    a, b = vals[node[1]], vals[node[2]]
                    if op == "and":
                        v = a & b
                    elif op == "or":
                        v = a | b
                    elif op == "imp":
                        v = (full ^ a) | b
                    else:
                        v = full ^ (a ^ b)
                vals.append(v)
            if vals[root] != full:
                return False
    return True


# Two small frames that S4 and S4.2 validity must survive: a two-world chain
# (in both classes) and a fork whose two tops share no successor (S4 only).
CHAIN2 = [frozenset({0, 1}), frozenset({1})]
FORK3 = [frozenset({0, 1, 2}), frozenset({1}), frozenset({2})]


def refutable_on(up: list[frozenset], f) -> bool:
    """Does some valuation of f's letters falsify f at some world of the
    frame?"""
    n = len(up)
    ls = letters(f)
    for bits in itertools.product(range(1 << n), repeat=len(ls)):
        val = {l: frozenset(w for w in range(n) if (b >> w) & 1)
               for l, b in zip(ls, bits)}
        at = evaluator(Model(n, up, val, 0))
        if not all(at(f, w) for w in range(n)):
            return True
    return False


# ---------------------------------------------------------------------------
# Definable sets
# ---------------------------------------------------------------------------

def bisimulation_classes(m: Model) -> list[frozenset]:
    """Coarsest partition stable under letter profiles and one step of either
    direction, by naive refinement."""
    ls = sorted(m.val)
    block = {w: tuple(w in m.val[l] for l in ls) for w in range(m.n)}
    while True:
        sig = {w: (block[w],
                   frozenset(block[v] for v in m.up[w]),
                   frozenset(block[v] for v in m.down[w]))
               for w in range(m.n)}
        if len(set(sig.values())) == len(set(block.values())):
            break
        block = sig
    groups: dict = {}
    for w in range(m.n):
        groups.setdefault(block[w], set()).add(w)
    return [frozenset(g) for g in groups.values()]


def definable(classes: list[frozenset], s: frozenset) -> bool:
    return all(c <= s or not (c & s) for c in classes)


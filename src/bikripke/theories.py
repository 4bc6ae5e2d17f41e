"""The modal theories PL, S4, S4.2, S5: axioms, deciders, classification.

Validity is decided semantically against each theory's finite frame class:

* PL (the logic of a single reflexive point): collapse boxes and diamonds to
  their argument and truth-table the result.
* S5 (total-relation clusters): a universal model's truth values depend only
  on the set of letter profiles ("colors") present, so all models up to
  |sub(f)|+1 worlds are covered by sweeping color subsets.
* S4 (finite reflexive transitive frames) and S4.2 (additionally directed):
  exhaustive elimination over the formula's coherent truth-value types.  A
  surviving type assignment yields a refuting model of the right class; if
  none survives the bounded class cannot refute the formula.  A type's
  successors and requirements depend only on its modal pattern (the values
  of its boxes and diamonds), so types are grouped by pattern and
  eliminated a group at a time.  For S4.2 the elimination is run relative
  to each realisable final-cluster pattern, which forces directedness.
  Up to _COMPACT_ROWS candidate types the columns run over all of them;
  above it they are re-indexed to the coherent ones, so memory stays linear
  in those.

Invalid verdicts carry a countermodel found by the canonical search (frame
size ascending, edge sets lexicographic, valuations lexicographic, points
ascending) so reported countermodels are reproducible byte for byte.  One
search, _search, serves all four theories.  Its one-world stage is PL's
truth table; past one world it sweeps S5's colour subsets or the
reflexive transitive (for S4.2 directed) frames.  PL decides the first
stage for every theory, so it runs first and once per question: a PL
refutation is every theory's countermodel, on the one world the theory
names, and past a PL-valid (or over-budget) table the later stages count
its models into their budget without running them again.

The formula is compiled once to a node list and run with _run.  The search
runs a block of up to _BLOCK models of one n-world frame per _run, as n
slices with one bit per model; the type space runs int columns over its
rows, one bit per type.  The block engine (_index_column, _modal) also
serves semantics' exact sweep, whose block is the a^k assignments of
definable sets on the quotient frame by bisimulation cells.

Every verdict goes through one bounded verdict store keyed by the oriented
formula, so a DOWN formula and its UP twin share one record.  A record holds
per-theory verdict bits, filled only for the theories asked about, and the
chain S4 ⊆ S4.2 ⊆ S5 ⊆ PL settles neighbours for free: validity carries up
the chain, invalidity down it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Optional

from .errors import BudgetExceeded, MixedDirections, SEARCH_BUDGET, _too_deep
from .formula import (
    DOWN,
    UP,
    Atom,
    Bot,
    Box,
    Dia,
    Direction,
    Formula,
    Iff,
    Imp,
    Not,
    Top,
    _orient_to,
    directions,
    letters as formula_letters,
)
from .frame import Frame, PointedModel, cluster, single_point

if TYPE_CHECKING:
    from .semantics import FragmentReport


class Theory(Enum):
    PL = "pl"
    S4 = "s4"
    S4_2 = "s4.2"
    S5 = "s5"


PL, S4, S4_2, S5 = Theory.PL, Theory.S4, Theory.S4_2, Theory.S5

VALID, INVALID, UNKNOWN = "valid", "invalid", "unknown"


@dataclass(frozen=True)
class Verdict:
    status: str
    countermodel: Optional[PointedModel] = None
    reason: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status == VALID

    @property
    def is_invalid(self) -> bool:
        return self.status == INVALID

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN


def axioms(t: Theory, dir: Direction = UP) -> list[Formula]:
    """The theory's axiom list as monomodal formulas in the given direction."""
    p, q = Atom("p0"), Atom("p1")
    b = lambda g: Box(dir, g)
    d = lambda g: Dia(dir, g)
    k = Imp(b(Imp(p, q)), Imp(b(p), b(q)))
    t_ax = Imp(b(p), p)
    four = Imp(b(p), b(b(p)))
    if t is Theory.PL:
        return [Iff(b(p), p)]
    if t is Theory.S4:
        return [k, t_ax, four]
    if t is Theory.S4_2:
        return [k, t_ax, four, Imp(d(b(p)), b(d(p)))]
    return [k, t_ax, four, Imp(d(p), b(d(p)))]


def frame_class_check(t: Theory, frame: Frame) -> bool:
    """Does the frame belong to the theory's finite frame class?"""
    props = frame.props
    if t is Theory.PL:
        return frame.n == 1 and props.reflexive
    if t is Theory.S4:
        return props.reflexive and props.transitive
    if t is Theory.S4_2:
        return props.reflexive and props.transitive and props.up_directed
    # S5: every world's successor set is exactly its connected cluster.
    return all(frame.up_masks[w] == frame.cone_mask(w, UP) ==
               frame.cone_mask(w, DOWN) for w in range(frame.n))


# ---------------------------------------------------------------------------
# Orientation and node compilation
# ---------------------------------------------------------------------------

def orient(f: Formula) -> tuple[Formula, Direction]:
    """Normalise a monomodal formula to UP; raises MixedDirections."""
    dirs = directions(f)
    if len(dirs) > 1:
        raise MixedDirections(f"formula uses both directions: {f}")
    return _orient_to(f, UP), (DOWN if DOWN in dirs else UP)


_Compiled = tuple[list[tuple], int, list[str]]


def _compile(f: Formula) -> _Compiled:
    """Postorder-deduplicated node list; returns (nodes, root index, letters).

    Every node is a triple (op, i, j): ("atom", li, 0) for letter li,
    ("top", 0, 0), ("bot", 0, 0), ("not", i, 0), ("box", i, 0), ("dia", i, 0)
    and ("and" | "or" | "imp" | "iff", i, j) over earlier nodes i and j.
    Direction is erased: callers pass oriented formulas.
    """
    lets = sorted(formula_letters(f))
    lidx = {l: i for i, l in enumerate(lets)}
    nodes: list[tuple] = []
    index: dict[Formula, int] = {}

    def go(g: Formula) -> int:
        hit = index.get(g)
        if hit is not None:
            return hit
        kind = type(g)              # a node's op is its class name
        if kind is Atom:
            node = ("atom", lidx[g.name], 0)
        elif kind is Top or kind is Bot:
            node = (kind.__name__.lower(), 0, 0)
        elif kind is Not or kind is Box or kind is Dia:
            node = (kind.__name__.lower(), go(g.sub), 0)
        else:
            node = (kind.__name__.lower(), go(g.left), go(g.right))
        index[g] = len(nodes)
        nodes.append(node)
        return index[g]

    try:
        return nodes, go(f), lets
    finally:
        del go      # a self-referring closure, as in semantics._evaluate


def _run(nodes: list[tuple], atoms, full, box, dia) -> list:
    """Values of all nodes, in order, on a carrier closed under ^ & |:
    atoms[li] is letter li's value, full the value of ⊤, and box and dia are
    tables of the modal operators indexed by the child's value."""
    vals: list = []
    push = vals.append
    for op, i, j in nodes:      # the most frequent kinds first
        if op == "atom":
            push(atoms[i])
        elif op == "box":
            push(box[vals[i]])
        elif op == "dia":
            push(dia[vals[i]])
        elif op == "not":
            push(full ^ vals[i])
        elif op == "imp":
            push((full ^ vals[i]) | vals[j])
        elif op == "and":
            push(vals[i] & vals[j])
        elif op == "or":
            push(vals[i] | vals[j])
        elif op == "top":
            push(full)
        elif op == "bot":
            push(full ^ full)
        else:
            push(full ^ vals[i] ^ vals[j])
    return vals


# ---------------------------------------------------------------------------
# Blocks of models
# ---------------------------------------------------------------------------

# Models run together in one _run.  A value is an int of n slices of m <=
# _BLOCK bits, one slice per world: bit s of slice w says that world w
# holds in model s of the block.  A power of 2, so a model index's low bits
# repeat from block to block.
_BLOCK = 1 << 10


def _index_column(pos: int, rows: int) -> int:
    """Bit j is bit pos of j, for j < rows, a power of 2 above 2^pos: blocks
    of 2^pos zeros then ones, doubled."""
    half = 1 << pos
    col = ((1 << half) - 1) << half
    span = half << 1
    while span < rows:
        col |= col << span
        span <<= 1
    return col


# The index columns of one block, for the bits below _BLOCK.
_COLUMNS = tuple(_index_column(pos, _BLOCK) for pos in range(_BLOCK.bit_length() - 1))

# _BIT_OF[b] translates a byte to the digit "1" when its bit b is set, else
# "0": runs of 2^b of each.
_BIT_OF = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))

# Bits of box and diamond results a memo keeps before it empties itself.
_MEMO_BITS = 1 << 20


class _Same(dict):
    """Box and diamond on a one-world reflexive frame: the identity."""

    def __missing__(self, x: int) -> int:
        return x


_SAME = _Same()


class _Modal(dict):
    """Box or diamond on blocks of m models of one frame, memoised on the
    argument: slice w of a diamond is the OR of the slices of w's
    successors, and box is its dual, the complement of the diamond of the
    complement, taken slice by slice."""

    def __init__(self, rows: tuple[int, ...], m: int, box: bool):
        super().__init__()
        self.m = m
        self.low = (1 << m) - 1
        self.flip = self.low if box else 0
        self.succ = [[v for v in range(len(rows)) if row >> v & 1]
                     for row in rows]
        self.room = max(1, _MEMO_BITS // (len(rows) * m))

    def __missing__(self, x: int) -> int:
        m, low, flip = self.m, self.low, self.flip
        slices = [x >> w * m & low ^ flip for w in range(len(self.succ))]
        out = 0
        for succ in reversed(self.succ):
            part = 0
            for v in succ:
                part |= slices[v]
            out = out << m | part ^ flip
        if len(self) >= self.room:
            self.clear()
        self[x] = out
        return out


@lru_cache(maxsize=32)
def _modal(rows: tuple[int, ...], m: int) -> tuple[dict, dict]:
    """(box, diamond) on blocks of m models of the frame whose worlds'
    successor masks are rows."""
    if rows == (1,):
        return _SAME, _SAME
    return _Modal(rows, m, True), _Modal(rows, m, False)


@lru_cache(maxsize=128)
def _count_atoms(k: int, n: int, start: int, m: int) -> tuple[int, ...]:
    """The k letters' values on models start..start+m-1 of an n-world frame,
    where model v gives letter i the world mask in bits i*n..i*n+n-1 of v:
    slice w of letter i is the column of bit i*n+w of the model index.
    These are PL's assignments (n = 1) and the search's valuations.  start
    is a multiple of _BLOCK."""
    low = (1 << m) - 1
    atoms = []
    for i in range(k):
        value = 0
        for pos in reversed(range(i * n, i * n + n)):
            if pos < len(_COLUMNS):
                col = _COLUMNS[pos] & low
            else:
                col = low if start >> pos & 1 else 0
            value = value << m | col
        atoms.append(value)
    return tuple(atoms)


@lru_cache(maxsize=128)
def _s5_atoms(k: int, n: int, start: int, m: int) -> tuple[int, ...]:
    """The k letters' values on the n-colour subsets start..start+m-1 of the
    2^k colours, in lexicographic order, world w taking the subset's w-th
    colour: bit s of slice w of letter i is bit i of that colour of subset
    s.  Built from the block's first subset, found by unranking, forward, so
    a block costs its own m subsets wherever it lies in the level."""
    colours: list[int] = []
    for c in itertools.islice(_subsets(1 << k, n, _unrank(1 << k, n, start)), m):
        colours.extend(c)
    width = (k + 7) // 8
    atoms = [0] * k
    for w in reversed(range(n)):
        # Colour w of every subset, little-endian bytes each; letter i is
        # bit i % 8 of byte i // 8, read from the last subset down.
        raw = b"".join([c.to_bytes(width, "little") for c in colours[w::n]])
        for i in range(k):
            digits = raw[i // 8::width].translate(_BIT_OF[i % 8])[::-1]
            atoms[i] = atoms[i] << m | int(digits, 2)
    return tuple(atoms)


def _refute(nodes: list[tuple], root: int, rows: tuple[int, ...], total: int,
            atoms_of, k: int, used: int, budget: int, exceeded: str):
    """Run f on models 0..total-1 of the frame whose worlds' successor masks
    are rows, a block of up to _BLOCK of them per _run; atoms_of(k, n,
    start, m) gives the k letters' values on models start..start+m-1 of an
    n-world frame.

    Returns (used, None) with the models counted into used when none
    refutes f, else (used, block) for the first block with a model that
    does, as (failing worlds, m, atoms) for _countermodel.  A block is cut
    to what remains of the budget; past it, raises
    BudgetExceeded(exceeded)."""
    n = len(rows)
    start = 0
    while start < total:
        m = min(_BLOCK, total - start, budget - used)
        if m <= 0:
            raise BudgetExceeded(exceeded.format(budget))
        box, dia = _modal(rows, m)
        atoms = atoms_of(k, n, start, m)
        full = (1 << n * m) - 1
        fail = full ^ _run(nodes, atoms, full, box, dia)[root]
        if fail:
            return used, (fail, m, atoms)
        used += m
        start += m
    return used, None


# ---------------------------------------------------------------------------
# S5 colour subsets
# ---------------------------------------------------------------------------

def _subsets(pool: int, n: int, first: list[int]):
    """The n-element subsets of range(pool) in lexicographic order from
    `first` on, as itertools.combinations lists them, but without building
    the pool; one list is yielded and updated in place."""
    c = list(first)
    while True:
        yield c
        i = n - 1
        while i >= 0 and c[i] == pool - n + i:
            i -= 1
        if i < 0:
            return
        c[i:] = range(c[i] + 1, c[i] + 1 + n - i)


def _unrank(pool: int, n: int, r: int) -> list[int]:
    """The r-th n-element subset of range(pool) in lexicographic order."""
    c = []
    x = 0
    for rest in range(n - 1, 0, -1):
        # comb(pool - x - 1, rest) subsets have x next, the rest above it.
        while r >= (skip := comb(pool - x - 1, rest)):
            r -= skip
            x += 1
        c.append(x)
        x += 1
    c.append(x + r)
    return c


# ---------------------------------------------------------------------------
# S4 / S4.2 validity by type elimination
# ---------------------------------------------------------------------------

# bin() digits "0"/"1" to the bytes 0/1 that itertools.compress selects by.
_BIT = bytes.maketrans(b"01", b"\0\1")

# Candidate rows up to which the columns stay over all 2^b rows, the
# coherent ones a mask, instead of being re-indexed to the coherent rows.
# Type space plus S4 elimination, re-indexed against not, mean over the
# seed-1 decide-fresh formulas of each width, best of 3 on 2 vCPUs: 0.14
# against 0.08 ms at b = 10, 0.42 against 0.35 ms at 12, but 0.69 against
# 0.82 ms at 13 and 0.98 against 1.48 ms at 14.  A random formula of width
# 16 took 3.0 against 5.1 ms and 0.4 against 4.7 MB traced.
_COMPACT_ROWS = 1 << 12


def _type_space(compiled: _Compiled):
    """The coherent truth-value assignments (types) to the nodes of f,
    grouped by modal pattern.

    A type is a row, and a node's column is an int whose bit j says the node
    holds in row j.  Atoms, boxes and diamonds are free, and the Boolean
    nodes follow from them by _run.  A row is coherent when every box
    implies its child (reflexivity) and every child its diamond.  Above
    _COMPACT_ROWS candidate rows the columns are re-indexed to the coherent
    rows only, so memory grows with them; at or below it the coherent rows
    are the mask ok over all 2^b candidates, and every group lies inside it.

    Returns (groups, root column).  A group is (rows, needs, succ,
    targets): the coherent rows of one modal pattern; a bit per modal node
    that makes a requirement there (a box false or a diamond true), which
    tells the patterns apart; the rows that may follow the pattern's rows
    (boxes persist forward and diamonds backward, so this depends on the
    pattern alone); and for each requirement, the rows that witness it.
    """
    nodes, root, _ = compiled
    # The free nodes become the letters of a Boolean formula over the rows.
    boolean = []
    b = 0
    for nd in nodes:
        if nd[0] in ("atom", "box", "dia"):
            boolean.append(("atom", b, 0))
            b += 1
        else:
            boolean.append(nd)
    if b > 22:
        raise BudgetExceeded(f"type space has 2^{b} candidate rows")
    rows = 1 << b
    full = (1 << rows) - 1
    free = [_index_column(pos, rows) for pos in range(b)]
    cols = _run(boolean, free, full, None, None)
    ok = full
    for k, (op, c, _) in enumerate(nodes):
        if op == "box":
            ok &= ~cols[k] | cols[c]
        elif op == "dia":
            ok &= ~cols[c] | cols[k]
    if rows > _COMPACT_ROWS and ok != full:
        # Keep the coherent rows.  Their numbers, b binary digits each, are
        # laid end to end; free column pos is every b-th digit of that
        # string, read from the last row down.
        kept = itertools.compress(range(rows),
                                  bin(ok)[:1:-1].encode().translate(_BIT))
        digits = "".join(map(format, kept, itertools.repeat(f"0{b}b")))
        free = [int(digits[-1 - pos::-b] or "0", 2) for pos in range(b)]
        ok = full = (1 << len(digits) // b) - 1
        cols = _run(boolean, free, full, None, None)
    # Split the rows on each modal column in turn.  A box true restricts
    # the successors to rows where it is true, and a box false needs a
    # successor where its child is false; a diamond false restricts them to
    # rows where it is false, and a diamond true needs a successor where its
    # child is true.
    groups = [(ok, 0, ok, [])] if ok else []
    bit = 1
    for k, (op, c, _) in enumerate(nodes):
        if op != "box" and op != "dia":
            continue
        col = cols[k]
        parts = []
        for g, needs, succ, targets in groups:
            on, off = g & col, g & ~col
            if op == "box":
                if on:
                    parts.append((on, needs, succ & col, targets))
                if off:
                    parts.append((off, needs | bit, succ, targets + [full ^ cols[c]]))
            else:
                if on:
                    parts.append((on, needs | bit, succ, targets + [cols[c]]))
                if off:
                    parts.append((off, needs, succ & ~col, targets))
        groups = parts
        bit <<= 1
    return groups, cols[root]


def _eliminate(alive: list) -> int:
    """Remove the groups with a requirement that no surviving successor row
    witnesses, until none is left; returns the surviving rows.  Every row of
    a group has the group's requirements and successors, so a group goes as
    a whole."""
    rows = 0
    for grp in alive:
        rows |= grp[0]
    while True:
        kept = []
        for grp in alive:
            g, _, succ, targets = grp
            reach = succ & rows
            for t in targets:
                if not reach & t:
                    rows ^= g
                    break
            else:
                kept.append(grp)
        if len(kept) == len(alive):
            return rows
        alive = kept


def _s4_invalid(space) -> bool:
    """True iff some finite reflexive transitive model refutes f."""
    groups, root = space
    return bool(_eliminate(groups) & ~root)


def _s42_invalid(space) -> bool:
    """True iff some finite reflexive transitive directed model refutes f.

    Every such model has a unique final cluster whose worlds share one modal
    pattern; the elimination is run over the types compatible with each
    realisable pattern (a group), with the pattern's own types as the
    always-available final cluster.
    """
    groups, root = space
    for g, needs, _, targets in groups:
        # Cluster coverage: unforced requirements need witnesses inside it.
        if not all(g & t for t in targets):
            continue
        # The final cluster is seen from everywhere, so a box false there is
        # false everywhere and a diamond true there is true everywhere:
        # eligible types make at least its requirements.
        eligible = [q for q in groups if not needs & ~q[1]]
        if _eliminate(eligible) & ~root:
            return True
    return False


# ---------------------------------------------------------------------------
# The canonical countermodel search: PL, S5, S4 and S4.2
# ---------------------------------------------------------------------------

_MAX_SEARCH_WORLDS = 5


@lru_cache(maxsize=None)
def _rt_frames(n: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """All reflexive transitive frames on n worlds as adjacency-mask rows,
    ascending in the row-major edge bitmap, paired with their cone
    directedness flag.

    Each extends an (n-1)-world one by world n-1: the old worlds it sees
    are closed upward, those that see it closed downward, and each of the
    latter sees all of the former; every such choice is transitive."""
    if n == 1:
        return (((1,), True),)
    old, new = range(n - 1), 1 << (n - 1)
    out = []
    for rows, _ in _rt_frames(n - 1):
        ups = [s for s in range(new) if all(rows[w] & ~s == 0 for w in old if s >> w & 1)]
        downs = [p for p in range(new) if all(p >> w & 1 for w in old if rows[w] & p)]
        for p in downs:
            seen_by_all = new - 1
            for w in old:
                if p >> w & 1:
                    seen_by_all &= rows[w]
            grown = tuple(row | new if p >> w & 1 else row for w, row in enumerate(rows))
            for s in ups:
                if not s & ~seen_by_all:
                    out.append(grown + (s | new,))
    out.sort(key=_edge_bitmap)
    return tuple((rows, Frame(n, rows).props.up_directed) for rows in out)


def _edge_bitmap(rows: tuple[int, ...]) -> int:
    n = len(rows)
    bitmap = 0
    for i, row in enumerate(rows):
        for j in range(n):
            if (row >> j) & 1:
                bitmap |= 1 << (i * n + j)
    return bitmap


def _search(compiled: _Compiled, t: Theory, budget: int, used: int = 0):
    """t's canonical countermodel search: frame size ascending, edge bitmaps
    lexicographic, valuations lexicographic (letter-major masks), points
    ascending.  Its one-world stage is PL's truth table, assignment a giving
    letter i bit i of a.  Past one world come S5's clusters, by colour
    subset, up to |sub(f)|+1 worlds, or the reflexive transitive frames
    (directed for S4.2) up to _MAX_SEARCH_WORLDS; PL has none.

    Returns (rows, block) for the first block with a refuted model, as
    _refute gives it, or None when no model refutes f.  used is 0, or the
    2^k one-world models once PL's truth table has run them or run out of
    budget on them: the search then counts them without running them again.
    Past `budget` models raises BudgetExceeded, in S5's words for S5 and in
    PL's otherwise (the S4/S4.2 callers answer Unknown)."""
    nodes, root, lets = compiled
    k = len(lets)
    exceeded = ("S5 colour sweep exceeds {} models" if t is S5
                else "PL truth table exceeds {} assignments")
    if not used:
        used, block = _refute(nodes, root, (1,), 1 << k, _count_atoms, k, 0,
                              budget, exceeded)
        if block is not None:
            return (1,), block
    elif used > budget:         # even with no stage past one world
        raise BudgetExceeded(exceeded.format(budget))
    if t is S5:
        # A universal model is determined up to duplicate worlds by its set
        # of letter profiles, so sweeping colour subsets in lexicographic
        # order visits the canonical first countermodel of the full search.
        # One node per distinct subformula, so len(nodes) == |sub(f)|.
        for n in range(2, min(len(nodes) + 1, 1 << k) + 1):
            rows = ((1 << n) - 1,) * n
            used, block = _refute(nodes, root, rows, comb(1 << k, n), _s5_atoms, k,
                                  used, budget, exceeded)
            if block is not None:
                return rows, block
    elif t is not PL:
        # Valuation v gives letter i the world mask in bits i*n..i*n+n-1.
        for n in range(2, _MAX_SEARCH_WORLDS + 1):
            for rows, directed in _rt_frames(n):
                if t is S4_2 and not directed:
                    continue
                used, block = _refute(nodes, root, rows, 1 << k * n, _count_atoms, k,
                                      used, budget, exceeded)
                if block is not None:
                    return rows, block
    return None


def _countermodel(t: Theory, lets: list[str], rows: tuple[int, ...], block) -> Verdict:
    """t's countermodel from _search's first refuted block of the frame whose
    successor masks are rows: the block's first refuted model at its lowest
    failing world, on the frame t names."""
    fail, m, atoms = block
    n = len(rows)
    # The model is the lowest bit failing in any slice.  Above bit m the
    # shifts leave parts of higher slices, but some bit below m is set.
    first = 0
    for w in range(n):
        first |= fail >> w * m
    s = (first & -first).bit_length() - 1
    point = 0
    if n == 1:              # most countermodels: the bits themselves
        masks = [a >> s & 1 for a in atoms]
    else:
        while not fail >> point * m + s & 1:
            point += 1
        masks = []
        for a in atoms:
            a >>= s
            mask = 0
            for w in range(n):
                mask |= (a >> w * m & 1) << w
            masks.append(mask)
    frame = single_point() if t is PL else cluster(n) if t is S5 else Frame(n, rows)
    return Verdict(INVALID, countermodel=PointedModel(frame, dict(zip(lets, masks)), point))


# ---------------------------------------------------------------------------
# The verdict store
# ---------------------------------------------------------------------------

_VALID = Verdict(VALID)
_INVALID = Verdict(INVALID)

# S4 ⊆ S4.2 ⊆ S5 ⊆ PL as sets of valid formulas: validity carries rightwards
# along the chain, invalidity leftwards.
_CHAIN = (S4, S4_2, S5, PL)
_KNOWN = {t: 1 << i for i, t in enumerate(_CHAIN)}
_HOLDS = {t: 1 << (4 + i) for i, t in enumerate(_CHAIN)}
_ALL = 0b1111
# (theory, known bit, holds bit) in Theory's order, so that classify's loop
# over each formula reads bits without hashing an Enum.
_BITS = tuple((t, _KNOWN[t], _HOLDS[t]) for t in Theory)

# The deciders in the order they run, each with its known bit and the bits
# of the theories that need it.
# PL and S5 are cheap sweeps, and a refutation there settles everything
# below.  PL's truth table is every search's one-world stage, so every
# theory needs it.  S4.2 is settled, as far as it can be, by S5 (invalid
# there: invalid) and S4 (valid there: valid) before its pattern
# elimination runs.
_PLAN = ((PL, _KNOWN[PL], _ALL),
         (S5, _KNOWN[S5], _KNOWN[S5] | _KNOWN[S4_2]),
         (S4, _KNOWN[S4], _KNOWN[S4] | _KNOWN[S4_2]),
         (S4_2, _KNOWN[S4_2], _KNOWN[S4_2]))

# One store, keyed by oriented formulas only (a DOWN formula is filed under
# its UP twin):
#   g               -> int record: bit _KNOWN[t] says theory t is decided for
#                      g, bit _HOLDS[t] that g is valid there;
#   (g, t, budget)  -> the Verdict carrying t's canonical countermodel, or
#                      Unknown when the search budget ran out.
# It is emptied when a new key would take it past _STORE_LIMIT entries.
_STORE_LIMIT = 1 << 16
_store: dict = {}
_hits = 0
_misses = 0


def verdict_store_stats() -> dict[str, int]:
    """Counters of the verdict store: hits and misses are requests answered
    from it and requests that had to decide something; size counts verdict
    records plus cached countermodel verdicts; the store empties at limit."""
    return {"hits": _hits, "misses": _misses, "size": len(_store),
            "limit": _STORE_LIMIT}


def _put(key, value) -> None:
    if len(_store) >= _STORE_LIMIT and key not in _store:
        _store.clear()
    _store[key] = value


def _learn(rec: int, known: int, valid: bool) -> int:
    """rec with the verdict of the theory whose known bit is `known`, and
    everything the chain infers from it."""
    if valid:
        at_or_above = _ALL & -known
        return rec | at_or_above | at_or_above << 4
    return rec | (known << 1) - 1


def _settle(g: Formula, rec: int, want: int,
            cm_theory: Optional[Theory] = None,
            budget: int = SEARCH_BUDGET) -> tuple[int, Optional[Verdict]]:
    """Decide the theories in the mask `want` that rec leaves open for the
    oriented g, file the record under g and return it.  With cm_theory, also
    return (and file) that theory's countermodel verdict when g is invalid
    there.  PL goes first: its refutation is every theory's countermodel, on
    the one world cm_theory names, and past it S5's sweep and the search
    count its models without running them again.  The compiled nodes and
    the type space are built at most once and dropped on return.
    """
    compiled = _compile(g)
    k = len(compiled[2])
    # The one-world models the searches have counted, as _search's used.
    used = 1 << k if rec & _HOLDS[PL] else 0
    space = found = None
    for t, known, needed_by in _PLAN:
        if not want & needed_by or rec & known:
            continue
        if t is S4 or t is S4_2:
            if space is None:
                space = _type_space(compiled)
            valid = not (_s4_invalid if t is S4 else _s42_invalid)(space)
        else:
            try:
                refuted = _search(compiled, t, budget, used)
            except BudgetExceeded:
                if want & known:
                    raise
                used = 1 << k   # PL out of budget: the later stages raise at once
                continue        # S4.2 is settled without S5 below
            used = 1 << k       # PL valid: the later stages skip its models
            if t is PL or t is cm_theory:
                found = refuted
            valid = refuted is None
        rec = _learn(rec, known, valid)
    _put(g, rec)
    if cm_theory is None or rec & _HOLDS[cm_theory]:
        return rec, None
    if found is None:
        try:
            found = _search(compiled, cm_theory, budget, used)
        except BudgetExceeded:
            if cm_theory is PL or cm_theory is S5:
                raise
    if found is None:           # out of budget, or of frames
        cm = Verdict(UNKNOWN, reason="refutable, but no countermodel within "
                     f"{_MAX_SEARCH_WORLDS} worlds / {budget} models")
    else:
        cm = _countermodel(cm_theory, compiled[2], *found)
    _put((g, cm_theory, budget), cm)
    return rec, cm


# ---------------------------------------------------------------------------
# decide / classify
# ---------------------------------------------------------------------------

def _ask(g: Formula, want: int, cm_theory: Optional[Theory],
         budget: int) -> tuple[int, Optional[Verdict]]:
    """The record of the oriented g with the theories in the mask `want`
    decided, and with cm_theory the countermodel verdict when g is invalid
    there: read from the store when it holds them (a hit), else settled for
    what it lacks (a miss)."""
    global _hits, _misses
    rec = _store.get(g, 0)
    want &= ~rec
    if not want:
        if cm_theory is None or rec & _HOLDS[cm_theory]:
            _hits += 1
            return rec, None
        hit = _store.get((g, cm_theory, budget))
        if hit is not None:
            _hits += 1
            return rec, hit
    _misses += 1
    return _settle(g, rec, want, cm_theory, budget)


def decide(t: Theory, f: Formula, budget: int = SEARCH_BUDGET,
           want_countermodel: bool = True) -> Verdict:
    """Sound and complete validity verdict over the theory's finite frame
    class, with a canonical countermodel on Invalid.  Unknown is returned
    only when a countermodel is requested but not found within the search
    budget or its frames.  The budget also bounds the PL truth table, in
    assignments, and the S5 colour sweep, in colour subsets: past it,
    deciding PL or S5 raises BudgetExceeded, and S4.2 goes without S5's
    shortcut.  A PL refutation answers every theory, with or without a
    countermodel."""
    try:
        g, _ = orient(f)
        rec, cm = _ask(g, _KNOWN[t], t if want_countermodel else None, budget)
    except RecursionError:
        raise _too_deep() from None
    if rec & _HOLDS[t]:
        return _VALID
    return cm if want_countermodel else _INVALID


def is_valid(t: Theory, f: Formula) -> bool:
    """Validity without a countermodel.  No cache of its own: the verdict
    store behind decide answers repeats."""
    return decide(t, f, want_countermodel=False).is_valid


@dataclass
class ClassificationResult:
    matches: set[Theory]
    separators: dict[Theory, Formula]
    compared: int
    excluded: int

    def matches_label(self) -> str:
        return ",".join(sorted(t.value for t in self.matches)) or "none"


def classify(report: FragmentReport) -> ClassificationResult:
    """Compare the fragment against each theory: a theory matches when ml
    membership equals the theory verdict on every enumerated formula whose
    membership was resolved; unresolved formulas are excluded and counted."""
    separators: dict[Theory, Formula] = {}
    matches = set(Theory)
    excluded = 0
    compared = 0
    open_ = _ALL            # theories not yet separated
    for f in report.formulas:
        status = report.status[f]
        if status is None:
            excluded += 1
            continue
        compared += 1
        if not open_:
            continue
        g, _ = orient(f)
        rec, _ = _ask(g, open_, None, SEARCH_BUDGET)
        for t, known, holds in _BITS:
            if open_ & known and bool(rec & holds) != status:
                separators[t] = f
                matches.discard(t)
                open_ &= ~known
    return ClassificationResult(matches, separators, compared, excluded)

"""Kripke model checking and substitution-closed modal fragments.

The extension of a formula is computed bottom-up by one memoised tree walk,
_evaluate, generic in what a value is: int world masks for eval_mask and
closed formulas, bit-sliced ints for the exact sweep.
The definable algebra of a model is the least family of world sets containing
the valuation sets (plus the empty and full sets) closed under complement,
intersection and both box preimages; on a finite model this equals the family
of unions of two-way bisimulation classes, which is how it is computed here.

Membership in the substitution-closed fragment ml(m, f) quantifies the
letters of f over the definable algebra.  When the algebra fits the budget
the quantification is swept exactly on the quotient by those classes, for
all assignments at once: the quotient frame runs as one block of the
deciders' block engine (theories._modal), a model per assignment, so a value
is one Python int with a slice of one bit per assignment for each class, the
Boolean connectives are single int operations, and diamond is the engine's.

Otherwise membership is resolved by certified reasoning: validity over the
frame's class implies membership, and a model-checked refuting substitution
disproves it.  On a reflexive frame a PL-invalid formula is refuted by constant
substitution: each letter becomes ⊤ or ⊥ as in its first failing PL
assignment, since box and diamond of a constant are that constant there.  On
a monomodal formula the theory that governs the point's cone is asked once
for validity, and for a countermodel where a certified control family can
simulate one; the probe substitutions come last.

Every value the routes compute goes through one kind of table (_Table) kept
in the model's context: the sweep's values per letter list, the PL truth
tables, and the world masks of closed formulas and of constant instances.  A
table memoises the formulas evaluated so far, so a formula of the canonical
enumeration, whose children were evaluated just before it, costs one
operation.  All memos are emptied together when their bytes pass a fixed cap
(_POOL_BYTES).  Queries that no route resolves raise BudgetExceeded rather
than guess.

A model's __dict__ holds its context (_MlContext), which owns the definable
algebra, the point's cones, the value tables and the control masks with their
certificates (controls._ControlMasks).  None of these refers back to the
model or to the context, as the routes take the model as an argument, so
reference counting alone frees them with the model.  A frame owns its
diamond tables; the deciders' stores in theories are module-level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Optional, Sequence

from .errors import (ALGEBRA_BUDGET, ASSIGNMENT_BUDGET, SEARCH_BUDGET, BadWorldIndex,
                     BudgetExceeded, InsufficientControls, VerificationFailed,
                     _too_deep)
from .formula import (
    DOWN,
    UP,
    And,
    Atom,
    Bot,
    Box,
    Dia,
    Direction,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Top,
    directions,
    enumerate_formulas,
    letters as formula_letters,
    polarity,
    substitute,
)
from .frame import Frame, PointedModel, WorldSet, _image, _reach
from .theories import S4, S4_2, S5, _index_column, _modal, decide


# ---------------------------------------------------------------------------
# Core evaluation
# ---------------------------------------------------------------------------

def eval_mask(m: PointedModel, f: Formula,
              env: dict[str, int] | None = None) -> int:
    """Extension of f as a bitmask.  env overrides the model valuation."""
    frame = m.frame
    try:
        return _evaluate(f, m.valuation if env is None else env, (1 << frame.n) - 1,
                         partial(_box_mask, frame), partial(_dia_mask, frame))
    except RecursionError:
        raise _too_deep() from None


def _evaluate(f: Formula, atoms: dict, full, box, dia, memo: dict | None = None):
    """Value of f, memoised per subformula, on any carrier closed under
    ^ & |: int world masks, or the exact sweep's bit-sliced ints.  atoms
    maps letters to values (an absent letter is empty), full is the value of
    ⊤, and box(dir, x) and dia(dir, x) are the modal operators on the carrier.
    A memo passed in is kept across calls: afterwards it holds the values of
    f's proper subformulas, and f's own only if it held it before.

    This walk serves formulas evaluated once; theories._run runs a compiled
    formula that is evaluated many times."""
    if memo is None:
        memo = {}
        kept = None
    else:
        kept = memo.get(f)
        if kept is not None:
            return kept
    empty = full ^ full

    def go(g: Formula):
        kind = type(g)
        if kind is Atom:
            return atoms.get(g.name, empty)
        hit = memo.get(g)
        if hit is not None:
            return hit
        if kind is Not:
            out = full ^ go(g.sub)
        elif kind is Box:
            out = box(g.dir, go(g.sub))
        elif kind is Dia:
            out = dia(g.dir, go(g.sub))
        elif kind is And:
            out = go(g.left) & go(g.right)
        elif kind is Or:
            out = go(g.left) | go(g.right)
        elif kind is Imp:
            out = (full ^ go(g.left)) | go(g.right)
        elif kind is Iff:
            out = full ^ go(g.left) ^ go(g.right)
        elif kind is Top:
            out = full
        elif kind is Bot:
            out = empty
        else:  # pragma: no cover
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = out
        return out

    try:
        out = go(f)
    finally:
        # go refers to itself; without this the memo's values would wait for
        # the cycle collector, whose extra passes land in the latency tail.
        del go
    if kept is None:
        memo.pop(f, None)
    return out


# Frames of at most this many worlds compute diamond on world masks from
# byte-sliced tables.  The tables of one direction grow as n^2: 0.56 MB at
# 256 worlds, 5.6 MB at 1,024 and 20 MB at 2,048, so larger frames keep the
# per-world loop.
_DIA_TABLE_WORLDS = 1024


def _box_mask(frame: Frame, dir: Direction, x: int) -> int:
    """Worlds all of whose dir-successors lie in x."""
    full = (1 << frame.n) - 1
    return full ^ _dia_mask(frame, dir, full ^ x)


def _dia_mask(frame: Frame, dir: Direction, y: int) -> int:
    """Worlds with a dir-successor in y."""
    tables = _dia_tables(frame, dir)
    if tables is None:
        return _image(frame.masks(dir.converse), y)
    out = 0
    for table, byte in zip(tables, y.to_bytes(len(tables), "little")):
        if byte:
            out |= table[byte]
    return out


def _union_table(masks: list[int]) -> list[int]:
    """Entry b is the union of masks[i] over the set bits i of b."""
    table = [0]
    for p in masks:             # entries with the next bit set: old ones | p
        table += [t | p for t in table]
    return table


def _dia_tables(frame: Frame, dir: Direction) -> list[list[int]] | None:
    """Diamond tables of the frame along dir, or None above
    _DIA_TABLE_WORLDS worlds.

    Entry [j][b] is the union of the dir-predecessor masks of the worlds
    8j + i for the set bits i of the byte b, so diamond of y is the union of
    the entries its bytes select.  Built on first use, kept in the frame."""
    if frame.n > _DIA_TABLE_WORLDS:
        return None
    cache = frame.__dict__.get("_dia_tables")
    if cache is None:
        cache = frame.__dict__["_dia_tables"] = {}
    tables = cache.get(dir)
    if tables is None:
        preds = frame.masks(dir.converse)
        tables = cache[dir] = [_union_table(preds[j:j + 8])
                               for j in range(0, frame.n, 8)]
    return tables


def eval_formula(m: PointedModel, f: Formula) -> WorldSet:
    """Set of worlds where f holds, by bottom-up extension computation."""
    return WorldSet(m.frame.n, eval_mask(m, f))


def holds_at(m: PointedModel, w: int, f: Formula) -> bool:
    """True iff f holds at world w."""
    if not 0 <= w < m.frame.n:
        raise BadWorldIndex(f"world {w} out of range for {m.frame.n} worlds")
    return (eval_mask(m, f) >> w) & 1 == 1


def valid_on(m: PointedModel, f: Formula) -> bool:
    """True iff f holds at every world of the model."""
    return eval_mask(m, f) == (1 << m.frame.n) - 1


def multiverse_truth(m: PointedModel, f: Formula) -> WorldSet:
    """Worlds from which f holds everywhere reachable by any alternation of
    up and down steps.  Constant per connected component: full or empty."""
    n = m.frame.n
    adj = [up | down for up, down in zip(m.frame.up_masks, m.frame.down_masks)]
    truth = eval_mask(m, f)
    seen = 0
    out = 0
    for w in range(n):
        if (seen >> w) & 1:
            continue
        comp = _reach(adj, 1 << w)
        seen |= comp
        if comp & ~truth == 0:
            out |= comp
    return WorldSet(n, out)


# ---------------------------------------------------------------------------
# Definable algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefinableAlgebra:
    """All world sets definable from the generator letters by Boolean
    operations and the two box preimages, as unions of the model's two-way
    bisimulation cells; listed in ascending mask order."""

    letters: tuple[str, ...]
    cells: tuple[int, ...]
    sets: tuple[WorldSet, ...]

    def __len__(self):
        return len(self.sets)

    def masks(self) -> list[int]:
        return [s.mask for s in self.sets]


def _cells(m: PointedModel, gens: Sequence[str], most: int) -> list[int] | None:
    """Coarsest partition of the worlds that no letter of gens splits and
    that is stable under one step in both directions, as ascending masks; or
    None as soon as there are more than `most` cells.  Naive partition
    refinement (Kanellakis–Smolka 1990), by each cell's preimages, until a
    pass splits nothing; a splitter that has since split is a union of
    current cells, so still sound.  Splitting never merges, so the count is
    checked as it grows, first before the n^2-step converse is read."""
    frame = m.frame
    split = lambda cells, by: [part for c in cells for part in (c & by, c & ~by) if part]
    cells = [(1 << frame.n) - 1]
    for l in gens:
        cells = split(cells, m.valuation.get(l, 0))
    count = 0
    while count < len(cells) <= most:
        count = len(cells)
        for c in list(cells):               # the cells at the pass's start
            cells = split(split(cells, _image(frame.down_masks, c)),
                          _image(frame.up_masks, c))
            if len(cells) > most:
                return None
    return sorted(cells) if count == len(cells) else None


def definable_algebra(m: PointedModel, letters: Iterable[str] | None = None,
                      budget: int = ALGEBRA_BUDGET) -> DefinableAlgebra:
    """Least family containing the generators, closed under complement,
    intersection and both box preimages.  Raises BudgetExceeded when the
    closure has more than `budget` sets, as soon as the cell refinement
    passes that many, so letters alone past it never build the converse.

    Set j is the union of the cells at the set bits of j.  The cells are
    disjoint and ascending, so cell i's highest world lies above every world
    of the cells before it, and the sets already ascend by mask: the exact
    sweep's index columns and its witnesses sets[j] rely on this order."""
    gens = tuple(sorted(letters)) if letters is not None else tuple(m.letters())
    # q cells make 2^q sets: past the budget once q > most.
    most = min(60, budget.bit_length() - 1)
    cells = _cells(m, gens, most)
    if cells is None:
        raise BudgetExceeded(
            f"definable algebra has more than 2^{most} sets, budget is {budget}")
    n = m.frame.n
    return DefinableAlgebra(gens, tuple(cells),
                            tuple(WorldSet(n, mk) for mk in _union_table(cells)))


# ---------------------------------------------------------------------------
# ml membership
# ---------------------------------------------------------------------------

@dataclass
class MlOutcome:
    """Three-valued membership verdict with an optional refuting witness.

    The witness maps letters either to formulas (refuting substitution) or,
    for the exact sweep, to the refuting algebra members themselves."""

    status: Optional[bool]              # True member, False not, None unresolved
    witness: Optional[dict] = None
    how: str = ""


# How a membership settled by a theory's validity is reported.
_VALIDITY_HOW = {S5: "S5 validity on cluster cone",
                 S4_2: "S4.2 validity on directed frame",
                 S4: "S4 validity"}


class _DirInfo:
    """The point's cone along one direction.  theory governs it: S5 on a
    cluster cone, else S4.2 on a directed reflexive transitive frame, S4 on
    a reflexive transitive one, or None.  It is the strongest theory whose
    frame class holds the cone, so it alone settles validity there.
    simulable says its countermodels can be simulated through a control
    family, on a reflexive transitive frame of S5 or S4.2."""

    def __init__(self, m: PointedModel, dir: Direction):
        self.dir = dir
        frame = m.frame
        props = frame.props
        rt = props.reflexive and props.transitive
        directed = props.up_directed if dir is UP else props.down_directed
        cone = frame.cone_mask(m.point, dir)
        # A one-world cone is a reflexive point or a dead end, which sees
        # nothing.
        self.cone_single = cone == (1 << m.point)
        self.dead_end = not frame.masks(dir)[m.point]
        if all(frame.masks(dir)[w] & cone == cone for w in WorldSet(frame.n, cone)):
            self.theory = S5
        elif rt:
            self.theory = S4_2 if directed else S4
        else:
            self.theory = None
        self.simulable = rt and self.theory in (S5, S4_2)


# Bytes a model's value tables may hold: the exact sweep's values with their
# formula memos, the PL truth tables and the constant instances' world masks.
# Past it their memos are emptied together after the walk.  On a 512-set
# algebra of 9 cells a k=1 value takes 576 bytes, and a k=1, size <= 6
# fragment is charged 0.8 MB in all (2.35 MB for both directions); a k=2
# value takes 288 KB.
_POOL_BYTES = 1 << 24

# Bytes charged for one memo entry besides its value: its dict slot, key and
# reference, estimated.
_ENTRY_BYTES = 100


@dataclass
class _Table:
    """Values of formulas on one carrier: the letters' values, ⊤ (full),
    box and dia, the bytes charged for a memo entry, and the memo of the
    formulas evaluated so far, filled by _MlContext.value.  Those entries and
    the letters' values are all the context charges: the sweep's modal
    results live in theories' block engine, which bounds its own memos.

    A context's tables, by key:
    * ("sweep", letters): the exact sweep's values (_sweep_table);
    * ("pl", letters) and ("dead end", letters): PL truth tables, an int with
      a bit per assignment, assignment a giving letter i bit i of a as
      theories._search's one-world stage numbers them; box and diamond are
      the identity, the PL collapse, or ⊤ and ⊥ at a dead end;
    * ("top", letters): world masks with those letters sent to ⊤ and the
      others to ⊥; ("top", ()) serves closed formulas."""

    atoms: dict
    full: int
    box: Callable[[Direction, int], int]
    dia: Callable[[Direction, int], int]
    entry: int
    memo: dict[Formula, int] = field(default_factory=dict)

    @property
    def base(self) -> int:
        """Bytes of the letters' values and ⊤, kept as long as the table."""
        return (len(self.atoms) + 1) * self.entry


def _sweep_table(m: PointedModel, algebra: DefinableAlgebra,
                 letters: tuple[str, ...]) -> _Table:
    """The exact sweep's table for one letter list: a theories block of a^k
    models of the quotient frame, one world per cell, the point's cell first.

    A value is one int of q slices, one per cell, each a^k bits wide: bit j
    of slice s says that assignment j's value contains the slice's cell.  So
    ^ & | are the int operators, and the first assignment failing at the
    point is the lowest clear bit of the lowest slice.  Assignments are
    numbered with the first letter most significant, q bits per letter:
    member x is the union of the cells at the set bits of x (the algebra's
    order), so letter i's slice of cell c is an index column.

    The cells are two-way bisimulation classes, so every world of a cell has
    the same successor cells: diamond is that of the quotient frame's block
    engine (theories._modal), memoised there, and box is the complement of
    the diamond of the complement, so both share that memo."""
    cells = algebra.cells
    q, k = len(cells), len(letters)
    w = len(algebra) ** k
    order = sorted(range(q), key=lambda c: not cells[c] >> m.point & 1)
    full = (1 << q * w) - 1
    atoms = {letter: sum(_index_column(q * (k - 1 - i) + c, w) << s * w
                         for s, c in enumerate(order))
             for i, letter in enumerate(letters)}
    # Row s of the quotient frame: the slices of the cells that a world of
    # cell order[s] sees.
    reps = [(cells[c] & -cells[c]).bit_length() - 1 for c in order]
    up, down = (_modal(tuple(sum(1 << s for s, c in enumerate(order) if succ[r] & cells[c])
                             for r in reps), w)[1]
                for succ in (m.frame.up_masks, m.frame.down_masks))

    def dia(dir: Direction, x: int) -> int:
        return up[x] if dir is UP else down[x]

    def box(dir: Direction, x: int) -> int:
        return full ^ dia(dir, full ^ x)

    # Bytes charged per stored value: at most q a^k bits, and its entry.
    return _Table(atoms, full, box, dia, _ENTRY_BYTES + full.bit_length() // 8)


def _keep(dir: Direction, x: int) -> int:
    """Box and diamond of the PL collapse: the identity."""
    return x


class _MlContext:
    """Per-model memos: the definable algebra (None past its budget), the
    point's cone per direction, the value tables, and the control masks per
    direction (controls._ControlMasks).  It keeps the frame and valuation it
    reads, and nothing in it refers back to the model or to the context.

    The tables persist across queries, so a formula of the canonical
    enumeration reuses the values of its subformulas, computed just before
    it; each is built on first use, after its budget check, and kept by
    file().  held estimates their bytes; past _POOL_BYTES every memo is
    emptied, once the walk that passed it ends, so a walk never loses the
    memo of its own subformulas.  The tables keep their letter values, and
    go too only when those alone pass it."""

    def __init__(self, m: PointedModel):
        self.frame = m.frame
        self.valuation = m.valuation
        self._dirs: dict[Direction, _DirInfo] = {}
        self.tables: dict[tuple[str, tuple[str, ...]], _Table] = {}
        self.held = 0
        self.control_masks: dict[Direction, object] = {}

    @cached_property
    def algebra(self) -> Optional[DefinableAlgebra]:
        try:    # the algebra depends on the frame and valuation, not the point
            return definable_algebra(PointedModel(self.frame, self.valuation, 0))
        except BudgetExceeded:
            return None

    def dir_info(self, m: PointedModel, dir: Direction) -> _DirInfo:
        if dir not in self._dirs:
            self._dirs[dir] = _DirInfo(m, dir)
        return self._dirs[dir]

    def file(self, key: tuple[str, tuple[str, ...]], table: _Table) -> _Table:
        """Keep table under key, charging its letters' values and ⊤."""
        self.tables[key] = table
        self.held += table.base
        return table

    def value(self, table: _Table, f: Formula) -> int:
        """f's value through the table's memo, charging its new entries."""
        memo = table.memo
        before = len(memo)
        try:
            return _evaluate(f, table.atoms, table.full, table.box, table.dia, memo)
        finally:
            self.spend((len(memo) - before) * table.entry)

    def pl_failing(self, f: Formula, letters: tuple[str, ...],
                   dead_end: bool = False) -> int:
        """The assignments to letters that falsify f, as the clear bits of
        its truth table.  Raises BudgetExceeded past SEARCH_BUDGET
        assignments."""
        key = ("dead end" if dead_end else "pl", letters)
        table = self.tables.get(key)
        if table is None:
            rows = 1 << len(letters)
            # The check precedes every column, as theories' truth table
            # counts its assignments against the same budget.
            if rows > SEARCH_BUDGET:
                raise BudgetExceeded(f"PL truth table exceeds {SEARCH_BUDGET} assignments")
            full = (1 << rows) - 1
            atoms = {l: _index_column(i, rows) for i, l in enumerate(letters)}
            if dead_end:
                box, dia = (lambda dir, x: full), (lambda dir, x: 0)
            else:
                box = dia = _keep
            table = self.file(key, _Table(atoms, full, box, dia, _ENTRY_BYTES + rows // 8))
        return self.value(table, f) ^ table.full

    def constant_mask(self, f: Formula, top: tuple[str, ...] = ()) -> int:
        """World mask of f with the letters in top sent to ⊤ and the others
        to ⊥; closed formulas take top = ()."""
        key = ("top", top)
        table = self.tables.get(key)
        if table is None:
            frame = self.frame
            full = (1 << frame.n) - 1
            table = self.file(key, _Table(
                dict.fromkeys(top, full), full, partial(_box_mask, frame),
                partial(_dia_mask, frame), _ENTRY_BYTES + frame.n // 8))
        return self.value(table, f)

    def spend(self, nbytes: int) -> None:
        """Charge nbytes to the tables; past _POOL_BYTES empty their memos.
        The tables keep their letter values unless those alone pass it."""
        self.held += nbytes
        if self.held > _POOL_BYTES:
            self.held = 0
            for table in self.tables.values():
                table.memo.clear()
                self.held += table.base
            if self.held > _POOL_BYTES:
                self.tables.clear()
                self.held = 0


def _ml_context(m: PointedModel) -> _MlContext:
    ctx = m.__dict__.get("_ml_context")
    if ctx is None:
        ctx = _MlContext(m)
        m.__dict__["_ml_context"] = ctx
    return ctx


def _sweep(ctx: _MlContext, m: PointedModel, f: Formula,
           letters: tuple[str, ...]) -> MlOutcome:
    """Exact membership on the quotient by the algebra's cells: every letter
    ranges over the algebra's members as cell masks, all at once."""
    algebra = ctx.algebra
    a, k = len(algebra), len(letters)
    key = ("sweep", letters)
    table = ctx.tables.get(key)
    if table is None:
        # The check precedes the table, so a table's letter list is affordable.
        if a ** k > ASSIGNMENT_BUDGET:
            raise BudgetExceeded(
                f"{a}^{k} assignments exceeds budget {ASSIGNMENT_BUDGET}")
        table = ctx.file(key, _sweep_table(m, algebra, letters))
    low = (1 << a ** k) - 1
    miss = ctx.value(table, f) & low ^ low
    if not miss:
        return MlOutcome(True, how="exact sweep")
    bad = (miss & -miss).bit_length() - 1
    witness = {letter: algebra.sets[bad // a ** (k - 1 - i) % a]
               for i, letter in enumerate(letters)}
    return MlOutcome(False, witness=witness, how="exact sweep")


def ml_status(m: PointedModel, f: Formula) -> MlOutcome:
    """Three-valued ml membership: quantifies letters(f) over the definable
    algebra, exactly when the algebra is within budget, otherwise by sound
    certified reasoning (class validity for membership, verified refuting
    substitutions for non-membership)."""
    try:
        return _ml_status(_ml_context(m), m, f)
    except RecursionError:
        raise _too_deep() from None


def _ml_status(ctx: _MlContext, m: PointedModel, f: Formula) -> MlOutcome:
    if not formula_letters(f):
        return MlOutcome(ctx.constant_mask(f) >> m.point & 1 == 1, how="closed formula")
    letters = tuple(sorted(formula_letters(f)))
    if ctx.algebra is not None:
        try:
            return _sweep(ctx, m, f, letters)
        except BudgetExceeded:
            pass

    # Monotone-implication rule: p -> g with g positive in p holds under
    # every set assignment iff it holds with p := {point}.
    if (len(letters) == 1 and isinstance(f, Imp) and isinstance(f.left, Atom)
            and f.left.name == letters[0] and _positive_only(f.right, letters[0])):
        env = {**m.valuation, letters[0]: 1 << m.point}
        if (eval_mask(m, f.right, env=env) >> m.point) & 1:
            return MlOutcome(True, how="monotone rule")

    # Truth of a d-monomodal formula at the point only involves the point's
    # d-cone, so validity over the cone's frame class settles membership.
    dirs = directions(f)
    info = ctx.dir_info(m, next(iter(dirs), UP)) if len(dirs) <= 1 else None
    if info is not None and info.cone_single:
        # One world: both point-bit values of every letter are realised by
        # algebra members (full and empty), and f's value at the point is its
        # PL collapse, with [d] and <d> the identity on a reflexive point and
        # ⊤ and ⊥ on a dead end; so membership is exactly its validity.
        return MlOutcome(not ctx.pl_failing(f, letters, info.dead_end),
                         how="single-world cone")
    if m.frame.props.reflexive:
        # Reflexive up is reflexive down: the PL collapse of f decides.
        out = _constant_refute(ctx, m, f, letters)
        if out is not None:
            return out
    if info is not None and info.theory is not None:
        verdict = decide(info.theory, f, want_countermodel=info.simulable)
        if verdict.is_valid:
            return MlOutcome(True, how=_VALIDITY_HOW[info.theory])
        # Refutation: simulate the decider's countermodel through the
        # certified control family, verifying the substitution by model check.
        if verdict.countermodel is not None:
            from .controls import _first_certificate, simulate_countermodel
            cert = _first_certificate(m, m.point, info.dir)
            if cert is not None:
                try:
                    sigma = simulate_countermodel(cert, f, verdict.countermodel)
                    return MlOutcome(False, witness=sigma, how="simulated countermodel")
                except (InsufficientControls, VerificationFailed):
                    pass
    # Last resort: small probe substitutions in every direction.
    out = _probe_refute(m, f, letters)
    if out is not None:
        return out
    return MlOutcome(None, how="unresolved")


def _positive_only(g: Formula, p: str) -> bool:
    return polarity(g, p) == 1 or p not in formula_letters(g)


def _constant_refute(ctx: _MlContext, m: PointedModel, f: Formula,
                     letters: tuple[str, ...]) -> Optional[MlOutcome]:
    """Refute a PL-invalid f on a reflexive frame by constant substitution.

    There box and diamond of ⊤ are ⊤ and of ⊥ are ⊥, so a formula built
    from ⊤ and ⊥ takes its PL value at every world, and f fails at the point
    once each letter is replaced by its value in f's first failing PL
    assignment, the canonical one-world countermodel (Hamkins–Löwe 2008).
    Both questions go through the context's memos: the truth table over
    letters, and the world masks with that assignment's true letters sent to
    ⊤, which verify the witness at the point."""
    miss = ctx.pl_failing(f, letters)
    if not miss:
        return None
    a = (miss & -miss).bit_length() - 1
    top = tuple(l for i, l in enumerate(letters) if a >> i & 1)
    if ctx.constant_mask(f, top) >> m.point & 1:
        return None
    sigma = {l: Top() if a >> i & 1 else Bot() for i, l in enumerate(letters)}
    return MlOutcome(False, witness=sigma, how="constant substitution")


def _probe_refute(m: PointedModel, f: Formula,
                  letters: tuple[str, ...]) -> Optional[MlOutcome]:
    probes: list[Formula] = []
    for l in m.letters()[:4]:
        a = Atom(l)
        probes += [a, Not(a)]
        for d in (UP, DOWN):
            probes += [Box(d, a), Not(Box(d, a))]
    probes += [Top(), Bot()]
    if len(probes) ** len(letters) > 4096:
        probes = probes[: max(2, int(4096 ** (1 / len(letters))))]
    # Every assignment of probes to the letters, the last letter fastest.
    for choice in itertools.product(probes, repeat=len(letters)):
        sigma = dict(zip(letters, choice))
        if not (eval_mask(m, substitute(f, sigma)) >> m.point) & 1:
            return MlOutcome(False, witness=sigma, how="probe substitution")
    return None


def ml_member(m: PointedModel, f: Formula) -> bool:
    """True iff every assignment of definable-algebra members to the letters
    of f leaves f true at the point.  Raises BudgetExceeded when neither the
    exact sweep nor certified reasoning resolves the query."""
    out = ml_status(m, f)
    if out.status is None:
        raise BudgetExceeded(f"ml membership unresolved for {f}")
    return out.status


# ---------------------------------------------------------------------------
# Fragment computation
# ---------------------------------------------------------------------------

@dataclass
class FragmentReport:
    """Result of sweeping the canonical enumeration through ml membership."""

    model: PointedModel
    k: int
    max_size: int
    dirs: frozenset[Direction]
    formulas: list[Formula] = field(default_factory=list)
    status: dict[Formula, Optional[bool]] = field(default_factory=dict)
    members: list[Formula] = field(default_factory=list)
    unknown: list[Formula] = field(default_factory=list)

    @property
    def fragment_size(self) -> int:
        return len(self.members)


def ml_fragment(m: PointedModel, k: int, max_size: int,
                dirs: Iterable[Direction]) -> FragmentReport:
    """Filter the canonical enumeration through ml membership.

    Formulas the certified reasoning cannot resolve are recorded as unknown
    and excluded from classification rather than guessed."""
    dirset = frozenset(dirs)
    report = FragmentReport(m, k, max_size, dirset)
    for f in enumerate_formulas(k, max_size, dirset):
        out = ml_status(m, f)
        report.formulas.append(f)
        report.status[f] = out.status
        if out.status is True:
            report.members.append(f)
        elif out.status is None:
            report.unknown.append(f)
    return report

"""Finite bimodal Kripke frames.

Worlds are 0..n-1.  Only the up relation is stored, as one adjacency bitmask
per world; the down relation is always derived as the converse, so the two
can never drift apart.  World sets are dense bitmasks wrapped in WorldSet.

The loops over rows that frames, constructors and callers share are five
helpers: _image (the union of the rows of a set's worlds), _reach
(reachability), _converse, _squash (renumbering onto kept worlds) and
_superset_rows (the subset-lattice rows of powerset and button/switch
frames, built top down in k * 2^k steps).
Each constructor checks WORLD_BUDGET from its arguments before it builds a
row, so an oversized request costs no memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

from .errors import (
    BadWorldIndex,
    BudgetExceeded,
    FrameParseError,
    OverlappingIndexSets,
    WORLD_BUDGET,
)
from .formula import Direction, UP, _is_letter


class WorldSet:
    """Immutable subset of {0..n-1} backed by an int bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if mask < 0 or mask >> n:
            raise BadWorldIndex(f"mask {mask:#x} out of range for {n} worlds")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def of(cls, n: int, worlds: Iterable[int]) -> "WorldSet":
        mask = 0
        for w in worlds:
            if not 0 <= w < n:
                raise BadWorldIndex(f"world {w} out of range for {n} worlds")
            mask |= 1 << w
        return cls(n, mask)

    def __contains__(self, w: int) -> bool:
        return 0 <= w < self.n and (self.mask >> w) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __and__(self, other: "WorldSet") -> "WorldSet":
        return WorldSet(self.n, self.mask & other.mask)

    def __or__(self, other: "WorldSet") -> "WorldSet":
        return WorldSet(self.n, self.mask | other.mask)

    def __invert__(self) -> "WorldSet":
        return WorldSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def __le__(self, other: "WorldSet") -> bool:
        return self.mask & ~other.mask == 0

    def __eq__(self, other):
        return (isinstance(other, WorldSet)
                and self.n == other.n and self.mask == other.mask)

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return f"WorldSet({self.n}, {{{', '.join(map(str, self))}}})"


# Rows are adjacency masks indexed by world: rows[w] holds w's successors.

def _image(rows, mask: int) -> int:
    """Union of rows[w] over the worlds w of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(rows, seed: int) -> int:
    """seed and every world reachable from it along rows."""
    seen = frontier = seed
    while frontier:
        nxt = _image(rows, frontier)
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def _converse(rows) -> tuple[int, ...]:
    """The converse relation's rows: j's row holds i iff rows[i] holds j."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(out)


def _squash(mask: int, keep) -> int:
    """mask renumbered onto the ascending worlds of keep: bit i is keep[i]'s.
    Worlds outside keep are dropped."""
    out = 0
    for i, w in enumerate(keep):
        if mask >> w & 1:
            out |= 1 << i
    return out


def _superset_rows(k: int, block: int = 1, width: int = 1) -> list[int]:
    """Row s, for each subset s of range(k), holds block at bit t * width for
    every superset t of s.  Built top down, row s being its own block ORed
    with the rows of the sets one index larger: k * 2^k steps, not 3^k."""
    full = (1 << k) - 1
    rows = [0] * (1 << k)
    for s in range(full, -1, -1):
        row = block << s * width
        missing = full ^ s
        while missing:
            low = missing & -missing
            row |= rows[s | low]
            missing ^= low
        rows[s] = row
    return rows


@dataclass(frozen=True)
class FrameProperties:
    reflexive: bool
    transitive: bool
    antisymmetric: bool
    up_directed: bool
    down_directed: bool


class Frame:
    """Finite frame: world count n and the up relation as adjacency masks.

    down(i, j) holds iff up(j, i); the converse is computed, never stored.
    The optional name is metadata only and excluded from equality.
    """

    __slots__ = ("n", "up_masks", "name", "__dict__")

    def __init__(self, n: int, up_masks: tuple[int, ...], name: str = "f"):
        if n < 1:
            raise BadWorldIndex("a frame needs at least one world")
        if n > WORLD_BUDGET:
            raise BudgetExceeded(f"{n} worlds exceeds budget {WORLD_BUDGET}")
        if len(up_masks) != n:
            raise BadWorldIndex("adjacency row count differs from world count")
        full = (1 << n) - 1
        for m in up_masks:
            if m & ~full:
                raise BadWorldIndex("adjacency row indexes an invalid world")
        self.n = n
        self.up_masks = tuple(up_masks)
        self.name = name

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return _converse(self.up_masks)

    def masks(self, dir: Direction) -> tuple[int, ...]:
        return self.up_masks if dir is UP else self.down_masks

    def up(self, i: int, j: int) -> bool:
        self._check(i), self._check(j)
        return (self.up_masks[i] >> j) & 1 == 1

    def down(self, i: int, j: int) -> bool:
        return self.up(j, i)

    def successors(self, w: int, dir: Direction = UP) -> WorldSet:
        self._check(w)
        return WorldSet(self.n, self.masks(dir)[w])

    def _check(self, w: int):
        if not 0 <= w < self.n:
            raise BadWorldIndex(f"world {w} out of range for {self.n} worlds")

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n)
                for j in WorldSet(self.n, self.up_masks[i])]

    def cone_mask(self, w: int, dir: Direction = UP) -> int:
        """Reflexive-transitive reachability from w along dir, as a mask."""
        self._check(w)
        return _reach(self.masks(dir), 1 << w)

    @cached_property
    def props(self) -> FrameProperties:
        n = self.n
        up = self.up_masks
        reflexive = all((up[i] >> i) & 1 for i in range(n))
        transitive = all(_image(up, row) & ~row == 0 for row in up)
        down = self.down_masks
        antisymmetric = all(up[i] & down[i] & ~(1 << i) == 0 for i in range(n))
        return FrameProperties(
            reflexive=reflexive,
            transitive=transitive,
            antisymmetric=antisymmetric,
            up_directed=self._cone_directed(UP),
            down_directed=self._cone_directed(Direction.DOWN),
        )

    def _cone_directed(self, dir: Direction) -> bool:
        # For every world w and i, j in its cone, i and j must have a common
        # one-step successor in dir.  The worlds that share one with i are
        # the predecessors of i's successors, so the check fails at i iff
        # the union of the cones that contain i leaves that set.
        n = self.n
        masks, back = self.masks(dir), self.masks(dir.converse)
        together = [0] * n
        for w in range(n):
            cone = m = self.cone_mask(w, dir)
            while m:
                low = m & -m
                together[low.bit_length() - 1] |= cone
                m ^= low
        return all(together[i] & ~_image(back, masks[i]) == 0 for i in range(n))

    def __eq__(self, other):
        return (isinstance(other, Frame)
                and self.n == other.n and self.up_masks == other.up_masks)

    def __hash__(self):
        return hash((self.n, self.up_masks))

    def __repr__(self):
        return f"Frame(n={self.n}, edges={self.edges()!r})"


def properties(f: Frame) -> FrameProperties:
    """Reflexivity, transitivity, antisymmetry and cone directedness flags."""
    return f.props


class PointedModel:
    """A frame with a valuation (letter -> WorldSet) and a designated world.

    Letters absent from the valuation denote the empty set.  A key that is
    not a formula letter raises ValueError, as Atom does.  Valuations are
    stored as masks; compare structurally.
    """

    __slots__ = ("frame", "valuation", "point", "__dict__")

    def __init__(self, frame: Frame, valuation: dict[str, WorldSet] | dict[str, int],
                 point: int):
        frame._check(point)
        val: dict[str, int] = {}
        full = (1 << frame.n) - 1
        for letter, ws in valuation.items():
            if not (isinstance(letter, str) and _is_letter(letter)):
                raise ValueError(f"bad letter identifier: {letter!r}")
            mask = ws.mask if isinstance(ws, WorldSet) else int(ws)
            if mask & ~full:
                raise BadWorldIndex(f"valuation of {letter!r} indexes an invalid world")
            val[letter] = mask
        self.frame = frame
        self.valuation = val
        self.point = point

    @property
    def n(self) -> int:
        return self.frame.n

    def letter_set(self, letter: str) -> WorldSet:
        return WorldSet(self.n, self.valuation.get(letter, 0))

    def letters(self) -> list[str]:
        return sorted(self.valuation)

    def __eq__(self, other):
        return (isinstance(other, PointedModel)
                and self.frame == other.frame
                and self.valuation == other.valuation
                and self.point == other.point)

    def __hash__(self):
        return hash((self.frame, tuple(sorted(self.valuation.items())), self.point))

    def __repr__(self):
        return (f"PointedModel(n={self.n}, point={self.point}, "
                f"letters={self.letters()!r})")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_frame(n: int, edges: list[tuple[int, int]],
               close: set[str] | frozenset[str] = frozenset(),
               name: str = "f") -> Frame:
    """Frame with the listed up edges, then the requested closures applied
    (transitive closure to a fixpoint, then reflexive loops)."""
    bad = close - {"reflexive", "transitive"}
    if bad:
        raise ValueError(f"unknown closure(s): {sorted(bad)}")
    if n < 1:
        raise BadWorldIndex("a frame needs at least one world")
    if n > WORLD_BUDGET:
        raise BudgetExceeded(f"{n} worlds exceeds budget {WORLD_BUDGET}")
    masks = [0] * n
    for i, j in edges:
        if not 0 <= i < n or not 0 <= j < n:
            raise BadWorldIndex(f"edge ({i},{j}) out of range for {n} worlds")
        masks[i] |= 1 << j
    if "transitive" in close:
        masks = [_reach(masks, row) for row in masks]
    if "reflexive" in close:
        for i in range(n):
            masks[i] |= 1 << i
    return Frame(n, tuple(masks), name)


def single_point() -> Frame:
    """One reflexive world."""
    return Frame(1, (1,), "point")


def cluster(c: int) -> Frame:
    """c worlds with the total up relation."""
    if c < 1:
        raise BadWorldIndex("cluster size must be >= 1")
    if c > WORLD_BUDGET:
        raise BudgetExceeded(f"{c} worlds exceeds budget {WORLD_BUDGET}")
    full = (1 << c) - 1
    return Frame(c, tuple(full for _ in range(c)), f"cluster{c}")


def chain(h: int) -> Frame:
    """h worlds linearly ordered, reflexive and transitive."""
    if h < 1:
        raise BadWorldIndex("chain height must be >= 1")
    if h > WORLD_BUDGET:
        raise BudgetExceeded(f"{h} worlds exceeds budget {WORLD_BUDGET}")
    full = (1 << h) - 1
    return Frame(h, tuple((full >> i) << i for i in range(h)), f"chain{h}")


def bs_frame(m: int, n: int) -> tuple[Frame, int]:
    """Button/switch frame: worlds are pairs (A ⊆ {1..m}, t ∈ {0,1}^n),
    (A,t) -> (A',t') iff A ⊆ A'.  Returns the frame and the designated world
    (∅, 0..0).  World id = A_mask * 2^n + t_mask."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    # 2^(m+n) > WORLD_BUDGET, decided on the exponent so that no huge int
    # is built.
    if m + n >= WORLD_BUDGET.bit_length():
        raise BudgetExceeded(f"2^{m}*2^{n} worlds exceeds budget {WORLD_BUDGET}")
    tcount = 1 << n
    # Successors of (A, t): every (A', t') with A ⊆ A'.
    rows = _superset_rows(m, (1 << tcount) - 1, tcount)
    masks = tuple(row for row in rows for _ in range(tcount))
    return Frame(len(masks), masks, f"bs{m}_{n}"), 0


def bs_model(m: int, n: int) -> PointedModel:
    """bs_frame with its natural valuation: letters b1..bm ("i ∈ A") and
    s1..sn (switch bits), pointed at the root (∅, 0..0)."""
    frame, root = bs_frame(m, n)
    tcount = 1 << n
    val: dict[str, int] = {}
    for i in range(1, m + 1):
        mask = 0
        for a in range(1 << m):
            if (a >> (i - 1)) & 1:
                mask |= ((1 << tcount) - 1) << (a * tcount)
        val[f"b{i}"] = mask
    for j in range(1, n + 1):
        mask = 0
        for w in range(frame.n):
            if (w >> (j - 1)) & 1:
                mask |= 1 << w
        val[f"s{j}"] = mask
    return PointedModel(frame, val, root)


def powerset_frame(button_indices: Iterable[int],
                   switch_classes: list[list[int]],
                   point: Iterable[int]) -> PointedModel:
    """Subset-lattice model: worlds are all subsets S of the index universe,
    S -> S' iff S ⊆ S' (down = removing factors).

    Letters: for i in button_indices, b<i> true at S iff i ∉ S; for the j-th
    class (1-based), s<j> true at S iff the least present class element, by
    position within the class, sits at an even position; false when the class
    is disjoint from S.
    """
    buttons = sorted(set(button_indices))
    classes = [list(c) for c in switch_classes]
    seen: set[int] = set(buttons)
    for c in classes:
        for i in c:
            if i in seen:
                raise OverlappingIndexSets(f"index {i} used twice")
            seen.add(i)
    universe = sorted(seen)
    point_set = set(point)
    if not point_set <= seen:
        raise BadWorldIndex(f"point {sorted(point_set)} not within the index universe")
    k = len(universe)
    if 1 << k > WORLD_BUDGET:
        raise BudgetExceeded(f"2^{k} worlds exceeds budget {WORLD_BUDGET}")
    pos = {idx: p for p, idx in enumerate(universe)}
    n_worlds = 1 << k

    frame = Frame(n_worlds, tuple(_superset_rows(k)), f"powerset{k}")

    val: dict[str, int] = {}
    for i in buttons:
        bit = 1 << pos[i]
        val[f"b{i}"] = sum(1 << s for s in range(n_worlds) if not s & bit)
    for j, cls in enumerate(classes, start=1):
        mask = 0
        for s in range(n_worlds):
            least = next((p for p, idx in enumerate(cls) if s & (1 << pos[idx])), None)
            if least is not None and least % 2 == 0:
                mask |= 1 << s
        val[f"s{j}"] = mask

    point_world = sum(1 << pos[i] for i in point_set)
    return PointedModel(frame, val, point_world)


def combo_frame(kind: str, c: int, m: int, n: int) -> PointedModel:
    """Graft a c-world total cluster onto a button/switch frame.

    cluster_below_bs: the bs root is replaced by the cluster K; every K-world
    sees all of K and every remaining bs world.  cluster_above_bs is the order
    dual: the cluster sits above the (reversed) bs structure.  The designated
    world is in the cluster.  Valuation: the bs letters b_i/s_j plus k0..k(c-1)
    marking the individual cluster worlds; b/s letters are false on K.
    """
    if kind not in ("cluster_below_bs", "cluster_above_bs"):
        raise ValueError(f"unknown combo kind: {kind!r}")
    if c < 1:
        raise ValueError("cluster size must be >= 1")
    base = bs_model(m, n)
    bn = base.frame.n
    # bs worlds other than the root, in their original order, then K.
    keep = [w for w in range(bn) if w != base.point]
    total = len(keep) + c
    if total > WORLD_BUDGET:
        raise BudgetExceeded(f"{total} worlds exceeds budget {WORLD_BUDGET}")
    cluster_mask = ((1 << c) - 1) << len(keep)
    # A plain list: with m = n = 0 it is empty, which a Frame refuses.
    bs_rows = [_squash(base.frame.up_masks[w], keep) for w in keep]
    if kind == "cluster_below_bs":
        reach = _squash(base.frame.up_masks[base.point], keep)
        masks = bs_rows + [cluster_mask | reach] * c
    else:
        # Order dual: reverse the bs relation, then everything sees the cluster.
        masks = [row | cluster_mask for row in _converse(bs_rows)] + [cluster_mask] * c
    val = {letter: _squash(mask, keep) for letter, mask in base.valuation.items()}
    for i in range(c):
        val[f"k{i}"] = 1 << len(keep) + i
    frame = Frame(total, tuple(masks), f"combo_{kind}_{c}_{m}_{n}")
    return PointedModel(frame, val, len(keep))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def save(obj: Union[Frame, PointedModel], path: str) -> None:
    """Write the line-oriented text format; load(save(x)) == x."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def dumps(obj: Union[Frame, PointedModel]) -> str:
    frame = obj.frame if isinstance(obj, PointedModel) else obj
    lines = [f"frame {frame.name}", f"worlds {frame.n}"]
    for i, j in frame.edges():
        lines.append(f"up {i} {j}")
    if isinstance(obj, PointedModel):
        lines.append(f"point {obj.point}")
        for letter in sorted(obj.valuation):
            worlds = " ".join(str(w) for w in WorldSet(frame.n, obj.valuation[letter]))
            lines.append(f"val {letter} {worlds}".rstrip())
    lines.append("end")
    return "\n".join(lines) + "\n"


def load(path: str) -> Union[Frame, PointedModel]:
    """Read a frame or pointed model; raises FrameParseError with line number,
    also for a file that is not UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameParseError(f"not UTF-8 text: {exc.reason}",
                              data.count(b"\n", 0, exc.start) + 1) from None
    return loads(text)


def loads(text: str) -> Union[Frame, PointedModel]:
    name = None
    n = None
    edges: list[tuple[int, int]] = []
    close: set[str] = set()
    point = None
    val: dict[str, int] = {}
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise FrameParseError("content after 'end'", lineno)
        parts = line.split()
        kw = parts[0]
        try:
            if kw == "frame":
                if len(parts) != 2:
                    raise FrameParseError("expected: frame <name>", lineno)
                name = parts[1]
            elif kw == "worlds":
                n = int(parts[1])
                if n < 1:
                    raise FrameParseError("world count must be >= 1", lineno)
                if n > WORLD_BUDGET:
                    raise BudgetExceeded(
                        f"line {lineno}: {n} worlds exceeds budget {WORLD_BUDGET}")
            elif kw == "up":
                if n is None:
                    raise FrameParseError("'up' before 'worlds'", lineno)
                i, j = int(parts[1]), int(parts[2])
                if not 0 <= i < n or not 0 <= j < n:
                    raise FrameParseError(f"edge ({i},{j}) out of range", lineno)
                edges.append((i, j))
            elif kw == "closure":
                for c in parts[1:]:
                    if c not in ("reflexive", "transitive"):
                        raise FrameParseError(f"unknown closure {c!r}", lineno)
                    close.add(c)
            elif kw == "point":
                if n is None:
                    raise FrameParseError("'point' before 'worlds'", lineno)
                point = int(parts[1])
                if not 0 <= point < n:
                    raise FrameParseError(f"point {point} out of range", lineno)
            elif kw == "val":
                if n is None:
                    raise FrameParseError("'val' before 'worlds'", lineno)
                letter = parts[1]
                if not _is_letter(letter):
                    raise FrameParseError(f"bad letter identifier {letter!r}", lineno)
                mask = 0
                for tok in parts[2:]:
                    w = int(tok)
                    if not 0 <= w < n:
                        raise FrameParseError(f"world {w} out of range", lineno)
                    mask |= 1 << w
                val[letter] = mask
            elif kw == "end":
                ended = True
            else:
                raise FrameParseError(f"unknown keyword {kw!r}", lineno)
        except (IndexError, ValueError) as exc:
            raise FrameParseError(f"malformed {kw!r} line: {exc}", lineno) from None
    if n is None:
        raise FrameParseError("missing 'worlds' section", 1)
    if not ended:
        raise FrameParseError("missing 'end'", 1)
    frame = make_frame(n, edges, frozenset(close), name or "f")
    if point is None:
        if val:
            raise FrameParseError("'val' lines require a 'point'", 1)
        return frame
    return PointedModel(frame, val, point)

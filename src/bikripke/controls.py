"""Button and switch control statements.

A button (for a direction) is a statement that is necessarily possibly
necessary; it is pushed at a world when its necessitation already holds.  A
switch is a statement that together with its negation stays possible from
every reachable world.  An independent family can drive the pushed-set and
switch pattern to any legal target configuration from any reachable world;
the independence certificate materialises that witness table.

On a finite frame with a dead-end fringe (the empty set of a subset lattice,
the full set at its top) no strict switch exists: the fringe world cannot
toggle anything.  Certificates therefore carry an optional horizon: the
witness table is checked for reachable worlds within that many cover steps
of the point, and the horizon is recorded.  A horizon of None is the strict
reading.  Every substitution produced from a certificate is verified by a
direct model check before it is returned, so a truncated certificate can
never smuggle in an unsound refutation.

The candidates' masks, the horizon scopes and the ladder's certificates are
kept per direction in the model's context, in a _ControlMasks that keeps the
frame and valuation, and a kept family's base is a fresh model on them: none
of it refers back to the model or to its context.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional, Union

from .errors import BudgetExceeded, InsufficientControls, VerificationFailed
from .formula import (
    UP,
    And,
    Atom,
    Bot,
    Box,
    Dia,
    Direction,
    Formula,
    Not,
    Or,
    Top,
    _orient_to,
    enumerate_formulas,
    letters as formula_letters,
    substitute,
)
from .frame import Frame, PointedModel, WorldSet, _squash
from .semantics import _box_mask, _dia_mask, _evaluate, _ml_context, eval_mask, holds_at


def is_button(m: PointedModel, w: int, f: Formula, dir: Direction) -> bool:
    """Necessarily possibly necessary at w, oriented along dir."""
    return holds_at(m, w, Box(dir, Dia(dir, Box(dir, f))))


def is_pushed(m: PointedModel, w: int, f: Formula, dir: Direction) -> bool:
    """The button's necessitation holds at w."""
    return holds_at(m, w, Box(dir, f))


def is_switch(m: PointedModel, w: int, f: Formula, dir: Direction) -> bool:
    """f and ~f are both necessarily possible at w."""
    return holds_at(m, w, Box(dir, And(Dia(dir, f), Dia(dir, Not(f)))))


@dataclass(frozen=True)
class ControlFamily:
    """Buttons and switches for one direction on a base model."""

    direction: Direction
    buttons: tuple[Formula, ...]
    switches: tuple[Formula, ...]
    base: PointedModel
    horizon: Optional[int] = None   # cover-step horizon it was certified at


# Horizons a family search tries in turn: the strict reading first, then
# ever fewer cover steps.
HORIZON_LADDER = (None, 2, 1, 0)


@dataclass
class FailureWitness:
    """Why a family is not independent: either a control condition fails at
    a world, or a target configuration is unrealisable from a world."""

    world: int
    reason: str
    target: Optional[tuple[int, int]] = None   # (button mask, switch pattern)


@dataclass
class IndependenceCertificate:
    """Witness table: for each in-scope reachable world u and each target
    (B' ⊇ pushed(u), switch pattern T), a successor of u realising exactly
    that configuration."""

    family: ControlFamily
    horizon: Optional[int]
    point_pattern: int
    pushed_at: dict[int, int] = field(default_factory=dict)
    pattern_at: dict[int, int] = field(default_factory=dict)
    table: dict[int, dict[tuple[int, int], int]] = field(default_factory=dict)


def _cover_depths(frame: Frame, w: int, dir: Direction) -> dict[int, int]:
    """BFS depth from w of every world it reaches over the cover (transitive
    reduction) edges of the direction's relation."""
    succ = frame.masks(dir)
    pred = frame.masks(dir.converse)
    cone = frame.cone_mask(w, dir)
    depth = {w: 0}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            row = succ[u] & cone & ~(1 << u)
            for v in WorldSet(frame.n, row):
                if v in depth:
                    continue
                mid = succ[u] & pred[v] & ~(1 << u) & ~(1 << v)
                if mid:
                    continue   # not a cover edge
                depth[v] = depth[u] + 1
                nxt.append(v)
        frontier = nxt
    return depth


_COMPOUND_SIZE = 3
_CANDIDATES = 48
# Family shapes (buttons, switches) the certified route tries in turn.
_SHAPES = ((2, 2), (2, 1), (1, 2), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1))


class _ControlMasks:
    """World masks of control formulas on one model along one direction.

    For a formula c they are: where c is a button ([d]<d>[d]c), where it is
    pushed ([d]c), where it is a switch (<d>c & <d>~c), and where it holds.
    None of them depends on the point, so each is computed once and shared
    by every family search and certificate check at any world of the model,
    as are the candidate list, the horizon scopes and the ladder's
    certificates (_first_certificate)."""

    def __init__(self, frame: Frame, valuation: dict[str, int], dir: Direction):
        self.frame = frame
        self.valuation = valuation
        self.dir = dir
        self._masks: dict[Formula, tuple[int, int, int, int]] = {}
        self._scopes: dict[tuple[int, Optional[int]], tuple[list[int], int]] = {}
        self.ladders: dict[tuple, Optional[IndependenceCertificate]] = {}

    def of(self, c: Formula) -> tuple[int, int, int, int]:
        """(button, pushed, switch, truth) masks of c."""
        hit = self._masks.get(c)
        if hit is None:
            frame, d = self.frame, self.dir
            full = (1 << frame.n) - 1
            truth = _evaluate(c, self.valuation, full, partial(_box_mask, frame),
                              partial(_dia_mask, frame))
            pushed = _box_mask(frame, d, truth)
            button = _box_mask(frame, d, _dia_mask(frame, d, pushed))
            switch = _dia_mask(frame, d, truth) & _dia_mask(frame, d, full ^ truth)
            hit = self._masks[c] = (button, pushed, switch, truth)
        return hit

    @cached_property
    def candidates(self) -> list[Formula]:
        """Deterministic candidate stream: valuation letters first, then
        compound shapes from the canonical enumeration up to _COMPOUND_SIZE
        instantiated over the letters, at most _CANDIDATES in all."""
        letters = sorted(self.valuation)
        out: list[Formula] = [Atom(l) for l in letters]
        seen = set(out)
        for shape in enumerate_formulas(1, _COMPOUND_SIZE, {self.dir}):
            if len(out) >= _CANDIDATES:
                break
            if "p0" not in formula_letters(shape):
                continue
            for l in letters:
                cand = substitute(shape, {"p0": Atom(l)})
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
                if len(out) >= _CANDIDATES:
                    break
        return out

    def scope(self, w: int, horizon: Optional[int]) -> tuple[list[int], int]:
        """The worlds a certificate at w checks, ascending, and their mask:
        w's cone, or its worlds within `horizon` cover steps of w."""
        key = (w, horizon)
        hit = self._scopes.get(key)
        if hit is None:
            if horizon is None:
                worlds = sorted(WorldSet(self.frame.n, self.frame.cone_mask(w, self.dir)))
            else:
                depths = _cover_depths(self.frame, w, self.dir)
                worlds = sorted(u for u, d in depths.items() if d <= horizon)
            hit = self._scopes[key] = (worlds, sum(1 << u for u in worlds))
        return hit


def _control_masks(m: PointedModel, dir: Direction) -> _ControlMasks:
    cache = _ml_context(m).control_masks
    masks = cache.get(dir)
    if masks is None:
        masks = cache[dir] = _ControlMasks(m.frame, m.valuation, dir)
    return masks


def check_independent(m: PointedModel, family: ControlFamily,
                      horizon: Optional[int] = None
                      ) -> Union[IndependenceCertificate, FailureWitness]:
    """Exhaustively verify the control conditions and the witness table over
    the reachable cone (restricted to the horizon when one is given)."""
    return _check(_control_masks(m, family.direction), m.point, family, horizon)


def _check(masks: _ControlMasks, point: int, family: ControlFamily,
           horizon: Optional[int]) -> Union[IndependenceCertificate, FailureWitness]:
    """check_independent at the world point, on the model's masks."""
    frame = masks.frame
    dir = family.direction
    scope, scope_mask = masks.scope(point, horizon)
    nb = len(family.buttons)
    ns = len(family.switches)
    if (len(scope) * (1 << nb) * (1 << ns)) > 2 ** 22:
        raise BudgetExceeded("independence table too large")

    for b in family.buttons:
        button, pushed, _, _ = masks.of(b)
        if not (button >> point) & 1:
            return FailureWitness(point, f"not a button: {b}")
        if (pushed >> point) & 1:
            return FailureWitness(point, f"button already pushed: {b}")
    for s in family.switches:
        missing = scope_mask & ~masks.of(s)[2]
        if missing:
            u = (missing & -missing).bit_length() - 1
            return FailureWitness(u, f"not a switch at world {u}: {s}")

    # Configuration classes over the full cone; witnesses may lie anywhere.
    # Class bt | t << nb holds the cone worlds where exactly the buttons in
    # bt are pushed and exactly the switches in t are true.
    controls = ([masks.of(b)[1] for b in family.buttons]
                + [masks.of(s)[3] for s in family.switches])
    classes = [frame.cone_mask(point, dir)]
    for x in controls:
        classes = [c & ~x for c in classes] + [c & x for c in classes]

    def profile(u: int) -> int:
        return sum(1 << i for i, x in enumerate(controls) if (x >> u) & 1)

    succ = frame.masks(dir)
    all_buttons = (1 << nb) - 1
    cert = IndependenceCertificate(
        family, horizon, point_pattern=profile(point) >> nb)
    for u in scope:
        here = profile(u)
        base = here & all_buttons
        cert.pushed_at[u] = base
        cert.pattern_at[u] = here >> nb
        row: dict[tuple[int, int], int] = {}
        extra = all_buttons & ~base
        sub = extra
        targets_b = [base]
        while sub:
            targets_b.append(base | sub)
            sub = (sub - 1) & extra
        for bt in sorted(targets_b):
            for t in range(1 << ns):
                candidates = classes[bt | t << nb] & succ[u]
                if not candidates:
                    return FailureWitness(u, "target unrealisable", (bt, t))
                row[(bt, t)] = (candidates & -candidates).bit_length() - 1
        cert.table[u] = row
    return cert


# ---------------------------------------------------------------------------
# Family search
# ---------------------------------------------------------------------------

def find_family(m: PointedModel, w: int, dir: Direction,
                m_count: int, n_count: int,
                horizon: Optional[int] = None) -> Optional[ControlFamily]:
    """First certified-independent family of the requested shape at world w,
    searching valuation letters first and then small compounds in canonical
    order.  Its base is the model pointed at w."""
    cert = _find_certificate(_control_masks(m, dir), w, m_count, n_count, horizon)
    return cert.family if cert is not None else None


def _find_certificate(masks: _ControlMasks, w: int, m_count: int, n_count: int,
                      horizon: Optional[int]) -> Optional[IndependenceCertificate]:
    """find_family's search on the model's masks, returning the certificate
    of the family found."""
    _, scope_mask = masks.scope(w, horizon)
    cone = masks.frame.cone_mask(w, masks.dir)
    buttons: list[Formula] = []
    switches: list[Formula] = []
    for c in masks.candidates:
        button, pushed, switch, _ = masks.of(c)
        if (button >> w) & 1 and not (pushed >> w) & 1:
            buttons.append(c)
        if switch & scope_mask == scope_mask:
            switches.append(c)
    if len(buttons) < m_count or len(switches) < n_count:
        return None
    # A fresh model, so that a certificate kept in the masks holds no model
    # whose context holds it.
    base = PointedModel(masks.frame, masks.valuation, w)
    for bs in itertools.combinations(buttons[:10], m_count):
        # Two buttons whose pushed sets are nested in the cone can never be
        # pushed one without the other, which the table asks for at w.
        pushed_sets = [masks.of(b)[1] & cone for b in bs]
        if any(a & ~b == 0 or b & ~a == 0
               for a, b in itertools.combinations(pushed_sets, 2)):
            continue
        for ss in itertools.combinations(switches[:10], n_count):
            fam = ControlFamily(masks.dir, tuple(bs), tuple(ss), base, horizon)
            cert = _check(masks, w, fam, horizon)
            if isinstance(cert, IndependenceCertificate):
                return cert
    return None


def _first_certificate(m: PointedModel, w: int, dir: Direction,
                       shapes: tuple[tuple[int, int], ...] = _SHAPES,
                       horizons: tuple[Optional[int], ...] = HORIZON_LADDER
                       ) -> Optional[IndependenceCertificate]:
    """The certificate ladder: the first family found at world w over the
    shapes in turn, each at the horizons in turn, with its certificate; None
    when none certifies.  Every search reads the model's masks, and the
    answer is kept there."""
    masks = _control_masks(m, dir)
    key = (w, shapes, horizons)
    if key not in masks.ladders:
        masks.ladders[key] = next(
            (cert for shape in shapes for horizon in horizons
             if (cert := _find_certificate(masks, w, *shape, horizon)) is not None),
            None)
    return masks.ladders[key]


# ---------------------------------------------------------------------------
# Countermodel simulation
# ---------------------------------------------------------------------------

def _generated_submodel(cm: PointedModel) -> PointedModel:
    """Restrict cm to the up-cone of its point, reindexing worlds."""
    n = cm.frame.n
    cone = cm.frame.cone_mask(cm.point, UP)
    keep = list(WorldSet(n, cone))
    if len(keep) == n:
        return cm
    frame = Frame(len(keep), tuple(_squash(cm.frame.up_masks[w], keep) for w in keep),
                  cm.frame.name)
    val = {l: _squash(mk, keep) for l, mk in cm.valuation.items()}
    return PointedModel(frame, val, keep.index(cm.point))


def _clusters(cm: PointedModel) -> tuple[list[int], list[int], list[list[int]]]:
    """Mutual-reachability clusters: returns (cluster id per world, topological
    order of cluster ids from the root upward, members per cluster)."""
    n = cm.frame.n
    cones = [cm.frame.cone_mask(w, UP) for w in range(n)]
    cluster_of = [-1] * n
    members: list[list[int]] = []
    for w in range(n):
        if cluster_of[w] >= 0:
            continue
        cid = len(members)
        group = [v for v in range(n)
                 if (cones[w] >> v) & 1 and (cones[v] >> w) & 1]
        for v in group:
            cluster_of[v] = cid
        members.append(sorted(group))
    # Larger cones mean lower clusters; the root (point) has the largest.
    order = sorted(range(len(members)),
                   key=lambda c: -bin(cones[members[c][0]]).count("1"))
    return cluster_of, order, members


def simulate_countermodel(cert: IndependenceCertificate, f: Formula,
                          cm: PointedModel) -> dict[str, Formula]:
    """Convert a finite countermodel into a refuting substitution over the
    certificate's controls; the result is verified by a direct model check
    before it is returned.

    cm refutes the up-oriented f at its point on a reflexive, transitive,
    directed frame.  Non-root clusters are encoded by pushed-prefix formulas
    over the buttons (one button per cluster along the chain), worlds within
    a cluster by switch patterns, surjectively so that every reachable
    configuration of the controls reads back as some cm world.
    """
    fam = cert.family
    d = fam.direction
    base = fam.base
    cmg = _generated_submodel(cm)
    fd = _orient_to(f, d)
    f_up = _orient_to(f, UP)
    if holds_at(cmg, cmg.point, f_up):
        raise VerificationFailed("cm does not refute f at its point")

    cluster_of, order, members = _clusters(cmg)
    r = len(order) - 1                      # non-root clusters
    if r > len(fam.buttons):
        raise InsufficientControls(
            f"{r} non-root clusters need {r} buttons, family has {len(fam.buttons)}")
    max_cluster = max(len(ms) for ms in members)
    if max_cluster > 1 << len(fam.switches):
        raise InsufficientControls(
            f"cluster of {max_cluster} worlds needs "
            f"{max(1, (max_cluster - 1).bit_length())} switches, "
            f"family has {len(fam.switches)}")
    # The chain encoding needs a linear cluster order.
    cones = [cmg.frame.cone_mask(w, UP) for w in range(cmg.frame.n)]
    for a, b in itertools.combinations(order, 2):
        wa, wb = members[a][0], members[b][0]
        if not ((cones[wa] >> wb) & 1 or (cones[wb] >> wa) & 1):
            raise InsufficientControls("cluster poset is not a chain")

    level_of = {cid: lvl for lvl, cid in enumerate(order)}

    def pushed_formula(i: int) -> Formula:
        return Box(d, fam.buttons[i])

    def level_formula(lvl: int) -> Formula:
        parts: list[Formula] = [pushed_formula(i) for i in range(lvl)]
        if lvl < r:
            parts.append(Not(pushed_formula(lvl)))
        return _conj(parts)

    ns = len(fam.switches)
    npat = 1 << ns

    def pattern_formula(t: int) -> Formula:
        parts = [fam.switches[j] if (t >> j) & 1 else Not(fam.switches[j])
                 for j in range(ns)]
        return _conj(parts)

    # Assign each world a set of switch patterns, surjectively per cluster;
    # the root world's class contains the point's current pattern.
    patterns_of: dict[int, list[int]] = {}
    for cid, ms in enumerate(members):
        ordered = list(ms)
        if cid == cluster_of[cmg.point]:
            ordered.remove(cmg.point)
            ordered.insert(0, cmg.point)
            offset = cert.point_pattern
        else:
            offset = 0
        for idx, u in enumerate(ordered):
            patterns_of[u] = [t for t in range(npat)
                              if ((t - offset) % npat) % len(ordered) == idx]

    def world_formula(u: int) -> Formula:
        lvl = level_of[cluster_of[u]]
        pats = _disj([pattern_formula(t) for t in patterns_of[u]])
        return And(level_formula(lvl), pats) if ns else level_formula(lvl)

    sigma: dict[str, Formula] = {}
    for p in sorted(formula_letters(f)):
        pm = eval_mask(cmg, Atom(p))
        worlds = [u for u in range(cmg.frame.n) if (pm >> u) & 1]
        sigma[p] = _disj([world_formula(u) for u in worlds])

    instance = substitute(fd, sigma)
    if holds_at(base, base.point, instance):
        raise VerificationFailed(
            f"substitution does not refute {f} at the point")
    return sigma


def _conj(parts: list[Formula]) -> Formula:
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _disj(parts: list[Formula]) -> Formula:
    if not parts:
        return Bot()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out

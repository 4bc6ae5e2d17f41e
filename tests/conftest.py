"""Shared oracles and fixtures.

The oracles here are deliberately independent of the package's computation
paths: truth is evaluated by per-world recursion over explicit successor
lists (no bitmasks), reference searches enumerate raw relation matrices, and
the reference algebra closure applies the four operators to a worklist.
"""

from __future__ import annotations

import itertools
import random

import pytest

from bikripke.formula import (
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
)
from bikripke.frame import Frame, PointedModel


def naive_truth_memo(m: PointedModel, w: int, f, memo=None) -> bool:
    """Reference Kripke truth by per-world recursion with memoisation on
    (subformula, world); semantics identical to naive_truth."""
    if memo is None:
        memo = {}
    key = (id(f), w)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(f, Atom):
        out = bool((m.valuation.get(f.name, 0) >> w) & 1)
    elif isinstance(f, Top):
        out = True
    elif isinstance(f, Bot):
        out = False
    elif isinstance(f, Not):
        out = not naive_truth_memo(m, w, f.sub, memo)
    elif isinstance(f, And):
        out = (naive_truth_memo(m, w, f.left, memo)
               and naive_truth_memo(m, w, f.right, memo))
    elif isinstance(f, Or):
        out = (naive_truth_memo(m, w, f.left, memo)
               or naive_truth_memo(m, w, f.right, memo))
    elif isinstance(f, Imp):
        out = ((not naive_truth_memo(m, w, f.left, memo))
               or naive_truth_memo(m, w, f.right, memo))
    elif isinstance(f, Iff):
        out = (naive_truth_memo(m, w, f.left, memo)
               == naive_truth_memo(m, w, f.right, memo))
    else:
        succs = [v for v in range(m.frame.n)
                 if (f.dir is UP and m.frame.up(w, v))
                 or (f.dir is DOWN and m.frame.up(v, w))]
        if isinstance(f, Box):
            out = all(naive_truth_memo(m, v, f.sub, memo) for v in succs)
        else:
            out = any(naive_truth_memo(m, v, f.sub, memo) for v in succs)
    memo[key] = out
    return out


def naive_truth(m: PointedModel, w: int, f) -> bool:
    """Reference Kripke truth by per-world recursion."""
    if isinstance(f, Atom):
        return bool((m.valuation.get(f.name, 0) >> w) & 1)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not naive_truth(m, w, f.sub)
    if isinstance(f, And):
        return naive_truth(m, w, f.left) and naive_truth(m, w, f.right)
    if isinstance(f, Or):
        return naive_truth(m, w, f.left) or naive_truth(m, w, f.right)
    if isinstance(f, Imp):
        return (not naive_truth(m, w, f.left)) or naive_truth(m, w, f.right)
    if isinstance(f, Iff):
        return naive_truth(m, w, f.left) == naive_truth(m, w, f.right)
    succs = [v for v in range(m.frame.n)
             if (f.dir is UP and m.frame.up(w, v))
             or (f.dir is DOWN and m.frame.up(v, w))]
    if isinstance(f, Box):
        return all(naive_truth(m, v, f.sub) for v in succs)
    return any(naive_truth(m, v, f.sub) for v in succs)


def random_model(rng: random.Random, max_n: int = 8,
                 letters: int = 3, min_n: int = 1) -> PointedModel:
    n = rng.randint(min_n, max_n)
    masks = []
    for _ in range(n):
        row = 0
        for j in range(n):
            if rng.random() < 0.35:
                row |= 1 << j
        masks.append(row)
    frame = Frame(n, tuple(masks))
    val = {f"p{i}": rng.getrandbits(n) for i in range(letters)}
    return PointedModel(frame, val, rng.randrange(n))


def random_formula(rng: random.Random, max_size: int, letters: int = 3,
                   dirs=(UP, DOWN)):
    if max_size <= 1:
        return rng.choice([Atom(f"p{rng.randrange(letters)}"), Top(), Bot()])
    shape = rng.randrange(8)
    if shape == 0:
        return Not(random_formula(rng, max_size - 1, letters, dirs))
    if shape in (1, 2):
        d = rng.choice(dirs)
        ctor = Box if shape == 1 else Dia
        return ctor(d, random_formula(rng, max_size - 1, letters, dirs))
    left_size = rng.randint(1, max_size - 2) if max_size > 2 else 1
    left = random_formula(rng, left_size, letters, dirs)
    right = random_formula(rng, max_size - 1 - left_size, letters, dirs)
    ctor = rng.choice([And, Or, Imp, Iff])
    return ctor(left, right)


def all_universal_models(k: int, max_n: int):
    """Every pointed universal-relation model on <= max_n worlds over letters
    p0..p(k-1): yields (n, color tuple, point)."""
    for n in range(1, max_n + 1):
        for colors in itertools.product(range(1 << k), repeat=n):
            for point in range(n):
                yield n, colors, point


def universal_model(n: int, colors, letters: list[str]) -> PointedModel:
    from bikripke.frame import cluster
    val = {l: sum(1 << w for w, c in enumerate(colors) if (c >> i) & 1)
           for i, l in enumerate(letters)}
    return PointedModel(cluster(n), val, 0)


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xB1C0DE)

"""Seeded inputs for the three workloads.

Everything here is derived from the workload seed alone and imports nothing
from the library, so the same seed gives the same inputs on every version of
the program.
"""

from __future__ import annotations

import random
from collections import Counter

import oracle

THEORIES = ("pl", "s4", "s4.2", "s5")

# Exact query counts per source, so that every seed has the same make-up:
# fresh draws from three sources, then repeats or variants of earlier queries.
# No query log exists to take the shares from; each one is an assumption
# (README.md, "Workloads", gives the reason for each).  decide-fresh is the
# same fresh queries in the same order without the repeat strata, so a gain or
# a cost that depends on repeats shows as a difference between the two.
SOURCES = {"enum2": 3500, "axiom": 2000, "dense3": 2000,
           "verbatim": 1000, "renamed": 800, "flipped": 700}
REPEATS = ("verbatim", "renamed", "flipped")
DECIDE_WORKLOADS = ("decide-mix", "decide-fresh")

# Exact type-space width profile of the axiom and dense3 sources: the natural
# shape of the generators below, capped at 14.  The S4/S4.2 elimination is
# exponential in the width (about 0.05 s per query at 14, 0.2 s at 16, up to
# 24 s at 17-20, and BudgetExceeded above 22), so the cap keeps every query
# answerable (error_ratio 0) and no single query dominates a run.  Fixing the
# profile gives every seed the same costly tail.
WIDTHS = {
    "axiom": {2: 100, 3: 265, 4: 340, 5: 336, 6: 294, 7: 227, 8: 166, 9: 109,
              10: 74, 11: 44, 12: 26, 13: 13, 14: 6},
    "dense3": {2: 25, 3: 125, 4: 295, 5: 410, 6: 420, 7: 340, 8: 205, 9: 110,
               10: 46, 11: 16, 12: 5, 13: 2, 14: 1},
}

FRAGMENT_SIZE = 6
FRAGMENT_JOBS = {
    # model, direction, the theory that side of the paper's result names.
    "fragment-exact": (("thm6", "u", "s4.2"), ("thm6", "d", "s5"),
                       ("thm7", "u", "s5"), ("thm7", "d", "s4.2")),
    "fragment-certified": (("thm4", "d", "s4.2"), ("thm5", "u", "s4.2")),
}

# Fragment sizes of the exact jobs: the exact sweep decides every formula, so
# these are fixed by the models and invariant under world relabelling.
EXACT_FRAGMENT_SIZES = {("thm6", "u"): 3762, ("thm6", "d"): 3774,
                        ("thm7", "u"): 3774, ("thm7", "d"): 3762}

P0, P1 = ("atom", "p0"), ("atom", "p1")


def axioms(theory: str) -> list[tuple]:
    """K, T, 4, .2 and 5 over p0/p1 in the up direction."""
    box = lambda g: ("box", "u", g)
    dia = lambda g: ("dia", "u", g)
    k = ("imp", box(("imp", P0, P1)), ("imp", box(P0), box(P1)))
    t = ("imp", box(P0), P0)
    four = ("imp", box(P0), box(box(P0)))
    if theory == "pl":
        return [("iff", box(P0), P0)]
    if theory == "s4":
        return [k, t, four]
    if theory == "s4.2":
        return [k, t, four, ("imp", dia(box(P0)), box(dia(P0)))]
    return [k, t, four, ("imp", dia(P0), box(dia(P0)))]


def enumerate_formulas(letters: list[str], max_size: int) -> list[tuple]:
    """Every formula over the letters, true and false built from ~, &, -> and
    the up modalities with at most max_size constructors."""
    levels: list[list[tuple]] = [[], [("atom", l) for l in letters] + [("top",), ("bot",)]]
    for s in range(2, max_size + 1):
        prev = levels[s - 1]
        out = [("not", g) for g in prev]
        out += [("box", "u", g) for g in prev]
        out += [("dia", "u", g) for g in prev]
        for op in ("and", "imp"):
            for i in range(1, s - 1):
                out += [(op, g, h) for g in levels[i] for h in levels[s - 1 - i]]
        levels.append(out)
    return [f for level in levels for f in level]


def dense(rng: random.Random, size: int, letters=("p", "q", "r")) -> tuple:
    """Random formula of the given size with about half its nodes modal."""
    if size <= 1:
        return ("atom", rng.choice(letters))
    c = rng.random()
    if c < 0.5:
        return (rng.choice(("box", "dia")), "u", dense(rng, size - 1, letters))
    if c < 0.6 or size < 3:
        return ("not", dense(rng, size - 1, letters))
    left = rng.randint(1, size - 2)
    return (rng.choice(("and", "or", "imp")), dense(rng, left, letters),
            dense(rng, size - 1 - left, letters))


def _by_width(rng: random.Random, source: str) -> list[tuple]:
    """Formulas of one source, drawn until each width bucket is full."""
    need = dict(WIDTHS[source])
    out = []
    schemas = [(t, a) for t in THEORIES for a in axioms(t)]
    while len(out) < sum(WIDTHS[source].values()):
        if source == "dense3":
            f, valid_at = dense(rng, rng.randint(8, 14)), None
        else:
            valid_at, schema = rng.choice(schemas)
            f = oracle.substitute(schema, {"p0": dense(rng, rng.randint(2, 9)),
                                           "p1": dense(rng, rng.randint(2, 9))})
        w = oracle.width(f)
        if need.get(w, 0) > 0:
            need[w] -= 1
            out.append((f, valid_at))
    return out


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def decide_mix(seed: int, workload: str = "decide-mix") -> dict:
    rng = random.Random(seed)
    enum2 = enumerate_formulas(["p0", "p1"], 7)
    fresh = [(rng.choice(enum2), None, "enum2") for _ in range(SOURCES["enum2"])]
    for source in ("axiom", "dense3"):
        fresh += [(f, valid_at, source) for f, valid_at in _by_width(rng, source)]
    # Every source asks each theory equally often, half of it downward.
    by_source: dict = {}
    for item in fresh:
        by_source.setdefault(item[2], []).append(item)
    tagged = []
    for source, items in by_source.items():
        theories = _shuffled(rng, [THEORIES[i % 4] for i in range(len(items))])
        downs = _shuffled(rng, [i % 2 == 1 for i in range(len(items))])
        for (f, valid_at, _), theory, down in zip(items, theories, downs):
            tagged.append(_query(oracle.flip(f, "d") if down else f, theory, source, valid_at))
    tagged = _shuffled(rng, tagged)
    kinds = _shuffled(rng, [k for k in REPEATS for _ in range(SOURCES[k])]
                      + ["fresh"] * len(tagged))
    kinds.remove("fresh")
    kinds.insert(0, "fresh")
    queries: list[dict] = []
    for kind in kinds:
        if kind == "fresh":
            queries.append(tagged.pop())
            continue
        base = rng.choice(queries)
        f = base["ast"]
        if kind == "renamed":
            ls = oracle.letters(f)
            names = rng.sample(["p", "q", "r", "s", "p0", "p1", "p2", "x"], len(ls))
            f = oracle.rename(f, dict(zip(ls, names)))
        elif kind == "flipped":
            f = oracle.flip(f, "d" if _direction(f) == "u" else "u")
        queries.append(_query(f, base["theory"], kind, base["valid_at"]))
    if workload == "decide-fresh":
        queries = [q for q in queries if q["source"] not in REPEATS]
    return {"workload": workload, "seed": seed, "queries": queries}


def _direction(f) -> str:
    return "d" if any(g[0] in ("box", "dia") and g[1] == "d"
                      for g in oracle.subterms(f)) else "u"


def _query(f, theory: str, source: str, valid_at) -> dict:
    # valid_at names the theory whose axiom f instantiates: f is valid there
    # and in every stronger theory, whatever the letters or direction.
    return {"ast": f, "text": oracle.to_text(f), "theory": theory,
            "source": source, "valid_at": valid_at, "width": oracle.width(f)}


def fragment(workload: str, seed: int) -> dict:
    """The paper's fragment jobs in a seeded order, each model with its worlds
    relabelled by a seeded permutation: the work is the same, the bit layout
    differs."""
    rng = random.Random(seed)
    jobs = [{"model": m, "dir": d, "side": side, "k": 1, "size": FRAGMENT_SIZE}
            for m, d, side in FRAGMENT_JOBS[workload]]
    rng.shuffle(jobs)
    relabel = {j["model"]: rng.randrange(1 << 30) for j in jobs}
    return {"workload": workload, "seed": seed, "jobs": jobs, "relabel": relabel}


def make_inputs(workload: str, seed: int) -> dict:
    if workload in DECIDE_WORKLOADS:
        return decide_mix(seed, workload)
    return fragment(workload, seed)


def shape(inputs: dict) -> dict:
    """What the workload is made of, printed next to its metrics."""
    if inputs["workload"] not in DECIDE_WORKLOADS:
        return {"jobs": [f'{j["model"]}/{"up" if j["dir"] == "u" else "down"}'
                         f'/k{j["k"]}/size<={j["size"]}' for j in inputs["jobs"]],
                "formulas_per_job": [len(enumerate_formulas([f"p{i}" for i in range(j["k"])],
                                                            j["size"]))
                                     for j in inputs["jobs"]]}
    qs = inputs["queries"]
    repeats = sum(q["source"] in REPEATS for q in qs)
    return {"queries": len(qs),
            "by_source": dict(sorted(Counter(q["source"] for q in qs).items())),
            "by_theory": dict(sorted(Counter(q["theory"] for q in qs).items())),
            "width_histogram": dict(sorted(Counter(q["width"] for q in qs).items())),
            "repeat_share": round(repeats / len(qs), 4)}

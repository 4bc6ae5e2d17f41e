import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bikripke.errors import SEARCH_BUDGET, BudgetExceeded, MixedDirections
from bikripke.formula import (
    DOWN,
    UP,
    And,
    Atom,
    Box,
    Dia,
    Imp,
    Or,
    enumerate_formulas,
    letters,
    parse,
    subformulas,
)
from bikripke import theories
from bikripke.frame import PointedModel, dumps, single_point
from bikripke.semantics import eval_mask, holds_at, ml_fragment
from bikripke.theories import (
    INVALID,
    PL,
    S4,
    S4_2,
    S5,
    Theory,
    VALID,
    axioms,
    classify,
    decide,
    frame_class_check,
    is_valid,
    verdict_store_stats,
)
from .conftest import (
    all_universal_models,
    naive_truth,
    random_formula,
    universal_model,
)


class TestAxioms:
    def test_s42_includes_dot2(self):
        assert parse("<u>[u]p0 -> [u]<u>p0") in axioms(S4_2)

    def test_pl(self):
        assert axioms(PL) == [parse("[u]p0 <-> p0")]

    def test_s5_omits_dot2(self):
        assert parse("<u>[u]p0 -> [u]<u>p0") not in axioms(S5)
        assert parse("<u>p0 -> [u]<u>p0") in axioms(S5)

    def test_direction_parameter(self):
        assert parse("[d]p0 -> p0") in axioms(S4, DOWN)

    @pytest.mark.parametrize("t", list(Theory))
    def test_axioms_self_valid(self, t):
        for ax in axioms(t):
            assert decide(t, ax, want_countermodel=False).is_valid


class TestDecideExamples:
    def test_dot2_states(self):
        assert decide(S4_2, parse("<u>[u]p -> [u]<u>p")).is_valid
        assert decide(S4, parse("<u>[u]p -> [u]<u>p"),
                      want_countermodel=False).is_invalid

    def test_diamond_box_chain(self):
        v = decide(S4_2, parse("<u>p -> [u]<u>p"))
        assert v.is_invalid
        cm = v.countermodel
        assert cm.frame.n == 2
        # Canonical countermodel: two-world chain, p at the root refutes at
        # the root (p at the top world does not refute this formula).
        assert sorted(cm.frame.edges()) == [(0, 0), (0, 1), (1, 1)]
        assert sorted(cm.letter_set("p")) == [0]
        assert cm.point == 0

    def test_s5_vs_s42_on_b_like(self):
        assert decide(S5, parse("<u>[u]p -> p")).is_valid
        v = decide(S4_2, parse("<u>[u]p -> p"))
        assert v.is_invalid
        assert sorted(v.countermodel.letter_set("p")) == [1]

    def test_mixed_directions(self):
        with pytest.raises(MixedDirections):
            decide(S4, parse("[u]p -> [d]p"))

    def test_down_oriented_accepted(self):
        assert decide(S4_2, parse("<d>[d]p -> [d]<d>p"),
                      want_countermodel=False).is_valid


class TestCountermodelSoundness:
    @pytest.mark.parametrize("t", list(Theory))
    def test_invalid_verdicts_checkable(self, t, rng):
        checked = 0
        for f in enumerate_formulas(2, 5, {UP}):
            if rng.random() > 0.12:
                continue
            v = decide(t, f)
            if v.is_invalid:
                cm = v.countermodel
                assert cm is not None
                assert frame_class_check(t, cm.frame)
                assert not holds_at(cm, cm.point, f)
                checked += 1
        assert checked > 20


class TestBruteForceAgreement:
    def test_s5_exhaustive_small(self):
        # Independent oracle: every universal model up to |sub(f)|+1 worlds,
        # every valuation, evaluated by per-world recursion.
        for f in enumerate_formulas(2, 4, {UP}):
            lets = sorted(letters(f))
            # Cap at 4 worlds to keep the raw enumeration affordable; the
            # acceptance suite runs the full |sub(f)|+1 bound.
            bound = len(subformulas(f)) + 1
            expected = True
            for n, colors, point in all_universal_models(len(lets), min(bound, 4)):
                m = universal_model(n, colors, lets)
                if not naive_truth(m, point, f):
                    expected = False
                    break
            assert decide(S5, f, want_countermodel=False).is_valid == expected

    def test_pl_equals_truth_tables(self):
        for f in enumerate_formulas(2, 5, {UP}):
            lets = sorted(letters(f))
            expected = True
            for bits in range(1 << len(lets)):
                env = {l: (bits >> i) & 1 for i, l in enumerate(lets)}
                if not _collapse_truth(f, env):
                    expected = False
                    break
            assert decide(PL, f, want_countermodel=False).is_valid == expected

    def test_s4_agrees_with_frame_search(self, rng):
        # type elimination vs exhaustive search of all reflexive transitive
        # pointed models with at most 3 worlds: a formula that the search
        # refutes must be invalid, and every small-size invalid formula is
        # refuted within the bound.
        frames = _all_rt_frames(3)
        for f in enumerate_formulas(1, 5, {UP}):
            refuted = _search_refutes(f, frames)
            verdict = decide(S4, f, want_countermodel=False)
            if refuted:
                assert verdict.is_invalid
            if verdict.is_invalid and len(letters(f)) <= 1:
                # at these sizes small countermodels always exist
                assert refuted or _search_refutes(f, _all_rt_frames(4))

    def test_s42_agrees_with_directed_search(self):
        frames = [fr for fr in _all_rt_frames(3) if fr.props.up_directed]
        frames4 = None
        for f in enumerate_formulas(1, 5, {UP}):
            refuted = _search_refutes(f, frames)
            verdict = decide(S4_2, f, want_countermodel=False)
            if refuted:
                assert verdict.is_invalid
            if verdict.is_invalid and not refuted:
                if frames4 is None:
                    frames4 = [fr for fr in _all_rt_frames(4)
                               if fr.props.up_directed]
                assert _search_refutes(f, frames4)


def _collapse_truth(f, env) -> bool:
    from bikripke.formula import And, Bot, Imp, Not, Or, Top
    if isinstance(f, Atom):
        return bool(env.get(f.name, 0))
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not _collapse_truth(f.sub, env)
    if isinstance(f, (Box, Dia)):
        return _collapse_truth(f.sub, env)
    if isinstance(f, And):
        return _collapse_truth(f.left, env) and _collapse_truth(f.right, env)
    if isinstance(f, Or):
        return _collapse_truth(f.left, env) or _collapse_truth(f.right, env)
    if isinstance(f, Imp):
        return (not _collapse_truth(f.left, env)) or _collapse_truth(f.right, env)
    return _collapse_truth(f.left, env) == _collapse_truth(f.right, env)


def _all_rt_frames(n):
    """All reflexive transitive frames on exactly n worlds, generated by raw
    relation enumeration (independent of the package's cached generator)."""
    from bikripke.frame import Frame
    out = []
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for combo in itertools.product([0, 1], repeat=len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for p, bit in zip(pairs, combo) if bit)
        if all((a, d) in rel
               for a, b in rel for c, d in rel if b == c):
            rows = [0] * n
            for i, j in rel:
                rows[i] |= 1 << j
            out.append(Frame(n, tuple(rows)))
    return out


def _search_refutes(f, frames) -> bool:
    lets = sorted(letters(f))
    for frame in frames:
        n = frame.n
        for bits in range(1 << (len(lets) * n)):
            val = {l: (bits >> (i * n)) & ((1 << n) - 1)
                   for i, l in enumerate(lets)}
            m = PointedModel(frame, val, 0)
            mask = eval_mask(m, f)
            if mask != (1 << n) - 1:
                return True
    return False


def _edge_key(rows):
    n = len(rows)
    return sum(1 << (i * n + j) for i in range(n) for j in range(n) if rows[i] >> j & 1)


def _cones_directed(rows):
    """Every two worlds of a cone see a common world (one step suffices on
    a reflexive transitive frame)."""
    n = len(rows)
    return all(rows[i] & rows[j]
               for w in range(n) for i in range(n) for j in range(n)
               if rows[w] >> i & 1 and rows[w] >> j & 1)


class TestSearchFrames:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_frames_equal_brute_force(self, n):
        want = sorted(((fr.up_masks, fr.props.up_directed) for fr in _all_rt_frames(n)),
                      key=lambda item: _edge_key(item[0]))
        assert list(theories._rt_frames(n)) == want

    def test_five_worlds_are_every_preorder_once(self):
        frames = theories._rt_frames(5)
        # 6,942 is the number of labelled preorders on 5 points.
        assert len({rows for rows, _ in frames}) == len(frames) == 6942
        keys = [_edge_key(rows) for rows, _ in frames]
        assert keys == sorted(keys)
        for rows, directed in frames:
            assert all(row >> w & 1 for w, row in enumerate(rows))
            assert all(rows[w] & ~row == 0
                       for row in rows for w in range(5) if row >> w & 1)
            assert directed == _cones_directed(rows)


class TestTheoryOrdering:
    def test_sandwich_on_slice(self):
        for f in itertools.islice(enumerate_formulas(2, 6, {UP}), 0, 3000, 7):
            s4 = is_valid(S4, f)
            s42 = is_valid(S4_2, f)
            s5 = is_valid(S5, f)
            assert not s4 or s42
            assert not s42 or s5

    def test_named_separators(self):
        dot2 = parse("<u>[u]p -> [u]<u>p")
        assert is_valid(S4_2, dot2) and not is_valid(S4, dot2)
        five_b = parse("<u>[u]p -> p")
        assert is_valid(S5, five_b) and not is_valid(S4_2, five_b)

    def test_gap_formulas_against_directed_search(self):
        # Where S4.2 genuinely differs from both neighbours (S5 valid but S4
        # invalid) the cluster-pattern elimination does the real work; a
        # claimed S4.2-valid formula there must have no small directed
        # countermodel.
        frames = [fr for fr in _all_rt_frames(3) if fr.props.up_directed]
        frames += [fr for fr in _all_rt_frames(4) if fr.props.up_directed]
        checked = 0
        for f in enumerate_formulas(2, 6, {UP}):
            if not is_valid(S5, f) or is_valid(S4, f):
                continue
            claimed = is_valid(S4_2, f)
            refuted = _search_refutes(f, frames)
            if claimed:
                assert not refuted, f"false valid: {f}"
            checked += 1
            if checked >= 60:
                break
        assert checked >= 20

    def test_closed_under_substitution(self, rng):
        # Theories are closed under uniform substitution; a type-space bug
        # would typically break this on instances of the .2 axiom.
        from bikripke.formula import substitute
        from .conftest import random_formula
        bases = [parse("<u>[u]p -> [u]<u>p"), parse("[u]p -> p"),
                 parse("[u]p -> [u][u]p"), parse("<u>(p -> [u]p)")]
        for t, base_list in ((S4_2, bases), (S5, bases + [parse("<u>p -> [u]<u>p")])):
            for base in base_list:
                if not is_valid(t, base):
                    continue
                for _ in range(6):
                    g = random_formula(rng, rng.randint(1, 5), letters=2,
                                       dirs=(UP,))
                    inst = substitute(base, {"p": g})
                    assert is_valid(t, inst), (t, base, g)


class TestUnknownVerdict:
    def test_budget_exhaustion_yields_unknown(self):
        f = parse("<u>[u]p -> p")
        v = decide(S4_2, f, budget=1)
        assert v.is_unknown
        assert "countermodel" in v.reason

    def test_default_budget_decides_acceptance_shapes(self):
        for text in ("<u>[u]p -> p", "[u]<u>p -> <u>[u]p",
                     "<u>p0 -> [u](<u>p1 -> <u>p0)"):
            v = decide(S4_2, parse(text))
            assert not v.is_unknown


class TestClassify:
    def test_single_point_matches_pl(self):
        from bikripke.frame import single_point
        from bikripke.semantics import ml_fragment
        m = PointedModel(single_point(), {}, 0)
        cls = classify(ml_fragment(m, 1, 5, {DOWN}))
        assert PL in cls.matches
        assert cls.excluded == 0

    def test_cluster_matches_s5_with_separator(self):
        from bikripke.frame import cluster
        from bikripke.semantics import ml_fragment
        m = PointedModel(cluster(3), {"q0": 1, "q1": 2}, 0)
        cls = classify(ml_fragment(m, 1, 6, {UP}))
        assert S5 in cls.matches
        assert S4_2 in cls.separators

    def test_bs_matches_s42_with_separator(self):
        from bikripke.frame import bs_model
        from bikripke.semantics import ml_fragment
        m = bs_model(2, 2)
        cls = classify(ml_fragment(m, 1, 6, {UP}))
        assert S4_2 in cls.matches
        assert S5 in cls.separators


def _fresh_valid(t, f) -> bool:
    """One theory's verdict straight from its decider: no store, no chain."""
    g, _ = theories.orient(f)
    compiled = theories._compile(g)
    if t is PL or t is S5:
        return theories._search(compiled, t, SEARCH_BUDGET) is None
    space = theories._type_space(compiled)
    return not (theories._s4_invalid if t is S4 else theories._s42_invalid)(space)


@pytest.fixture
def empty_store(monkeypatch):
    monkeypatch.setattr(theories, "_store", {})


class TestVerdictStore:
    def test_twins_share_one_record(self, empty_store):
        for text in ("<u>[u]p -> p", "[u]p", "<u>p0 -> [u](<u>p1 -> <u>p0)"):
            up = parse(text)
            down = parse(text.replace("u>", "d>").replace("[u]", "[d]"))
            for t in Theory:
                v_up = decide(t, up)
                before = verdict_store_stats()
                v_down = decide(t, down)
                after = verdict_store_stats()
                assert v_down.status == v_up.status
                if v_up.is_invalid:
                    assert dumps(v_down.countermodel) == dumps(v_up.countermodel)
                assert after["hits"] == before["hits"] + 1
                assert after["size"] == before["size"]
            assert down not in theories._store
            assert up in theories._store

    def test_mixed_directions_still_raise(self, empty_store):
        f = parse("[u]p -> <d>p")
        for t in Theory:
            with pytest.raises(MixedDirections):
                decide(t, f, want_countermodel=False)
            with pytest.raises(MixedDirections):
                is_valid(t, f)
        frag = ml_fragment(PointedModel(single_point(), {}, 0), 1, 3, {UP, DOWN})
        with pytest.raises(MixedDirections):
            classify(frag)

    def test_clears_at_size_limit(self, empty_store, monkeypatch):
        monkeypatch.setattr(theories, "_STORE_LIMIT", 8)
        sizes = []
        for f in itertools.islice(enumerate_formulas(1, 4, {UP}), 40):
            for t in Theory:
                assert decide(t, f).is_valid == _fresh_valid(t, f)
                sizes.append(verdict_store_stats()["size"])
        assert max(sizes) == 8
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
        assert verdict_store_stats()["limit"] == 8

    def test_matches_fresh_verdicts_on_k1_size5(self, empty_store):
        # Ask the theories in a rotating order so that every chain shortcut
        # fires from every side, and ask the DOWN twin too.
        order = list(Theory)
        for i, f in enumerate(enumerate_formulas(1, 5, {UP})):
            rotated = order[i % 4:] + order[:i % 4]
            for t in rotated:
                assert is_valid(t, f) == _fresh_valid(t, f), (t, f)
        for f in enumerate_formulas(1, 5, {DOWN}):
            for t in order:
                assert is_valid(t, f) == _fresh_valid(t, f), (t, f)

    def test_stats_count_hits_and_misses(self, empty_store):
        f = parse("<u>[u]p -> [u]<u>p")
        before = verdict_store_stats()
        decide(S4_2, f, want_countermodel=False)
        decide(S4_2, f, want_countermodel=False)
        after = verdict_store_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["size"] == 1


def reference_countermodel(t, f):
    """The canonical first countermodel of the UP-oriented f, found by plain
    enumeration and the naive oracle: PL assignments ascending (letter i is
    bit i); S5 universal models by size, colour combination and point; S4
    and S4.2 over theories._rt_frames(n), valuations in lexicographic order
    (letter i's mask is bits i*n .. i*n+n-1) and points ascending."""
    from bikripke.frame import Frame, cluster
    ls = sorted(letters(f))
    k = len(ls)
    if t is PL:
        for assign in range(1 << k):
            m = PointedModel(single_point(),
                             {l: (assign >> i) & 1 for i, l in enumerate(ls)}, 0)
            if not naive_truth(m, 0, f):
                return m
        return None
    if t is S5:
        for n in range(1, min(len(subformulas(f)) + 1, 1 << k) + 1):
            for colors in itertools.combinations(range(1 << k), n):
                val = {l: sum(1 << w for w, c in enumerate(colors) if (c >> i) & 1)
                       for i, l in enumerate(ls)}
                for point in range(n):
                    if not naive_truth(PointedModel(cluster(n), val, point), point, f):
                        return PointedModel(cluster(n), val, point)
        return None
    for n in range(1, theories._MAX_SEARCH_WORLDS + 1):
        for rows, directed in theories._rt_frames(n):
            if t is S4_2 and not directed:
                continue
            for v in range(1 << (k * n)):
                val = {l: (v >> (i * n)) & ((1 << n) - 1) for i, l in enumerate(ls)}
                m = PointedModel(Frame(n, rows), val, 0)
                for point in range(n):
                    if not naive_truth(m, point, f):
                        return PointedModel(Frame(n, rows), val, point)
    return None


class TestCanonicalCountermodels:
    """decide's countermodels equal the reference search's byte for byte."""

    @pytest.mark.parametrize("t", [PL, S5])
    def test_pl_and_s5_two_letters(self, t, empty_store):
        for f in enumerate_formulas(2, 5, {UP}):
            v = decide(t, f)
            ref = reference_countermodel(t, f)
            assert v.is_valid == (ref is None), f
            if ref is not None:
                assert dumps(v.countermodel) == dumps(ref), f

    @pytest.mark.parametrize("text", [
        "[u]p0 | [u]~p0 | [u]p1 | [u]~p1",
        "[u]p0 | [u]~p0 | [u]p1 | [u]~p1 | [u]p2 | [u]~p2",
        "<u>(p0 & ~p1) & <u>(p1 & ~p0) -> <u>(p0 <-> p1)",
    ])
    def test_s5_countermodels_of_several_worlds(self, text, empty_store):
        # Two-colour clusters {00, 11} and {01, 10} both refute the first
        # formula; the lexicographic order picks the first.
        f = parse(text)
        v = decide(S5, f)
        assert v.countermodel.frame.n > 1
        assert dumps(v.countermodel) == dumps(reference_countermodel(S5, f))

    @pytest.mark.parametrize("t", [S4, S4_2])
    def test_s4_and_s42_one_letter(self, t, empty_store):
        for f in enumerate_formulas(1, 5, {UP}):
            v = decide(t, f)
            if v.is_invalid:
                assert dumps(v.countermodel) == dumps(reference_countermodel(t, f)), f

    @pytest.mark.parametrize("t", [S4, S4_2])
    @pytest.mark.parametrize("text, want", [
        ("[u]p0 -> [u]p1",
         "frame f\nworlds 1\nup 0 0\npoint 0\nval p0 0\nval p1\nend\n"),
        ("p0 & p1 & p2 -> <u>~p0",
         "frame f\nworlds 1\nup 0 0\npoint 0\nval p0 0\nval p1 0\nval p2 0\nend\n"),
        ("[d](p1 | q) <-> <d>p0",
         "frame f\nworlds 1\nup 0 0\npoint 0\nval p0 0\nval p1\nval q\nend\n"),
    ])
    def test_pl_refutations_need_no_type_space_or_search(self, t, text, want,
                                                         empty_store, monkeypatch):
        # The first failing PL assignment is the search's first model, on
        # the one-world frame the search names.
        def unused(*args):
            raise AssertionError("a PL refutation settles S4 and S4.2")
        refute = theories._refute

        def one_world(nodes, root, rows, *rest):
            if rows != (1,):
                unused()
            return refute(nodes, root, rows, *rest)
        monkeypatch.setattr(theories, "_type_space", unused)
        monkeypatch.setattr(theories, "_refute", one_world)
        assert dumps(decide(t, parse(text)).countermodel) == want


# [u]p0 & ... & [u]p11 & <u>q0 & ... & <u>q11: refuted by the first PL
# assignment, but its type space has 48 free nodes, past the 22 allowed.
WIDE = parse(" & ".join([f"[u]p{i}" for i in range(12)] +
                        [f"<u>q{i}" for i in range(12)]))


def _answer(t, f, want_countermodel, budget=SEARCH_BUDGET):
    """decide's status, with Unknown read as the invalid verdict it is, or
    the BudgetExceeded text."""
    try:
        v = decide(t, f, budget, want_countermodel)
    except BudgetExceeded as e:
        return str(e)
    return VALID if v.is_valid else INVALID


class TestOneSearch:
    """PL's truth table is every theory's one-world stage: asked first, run
    at most once per question, with or without a countermodel."""

    @pytest.mark.parametrize("t", [S4, S4_2])
    def test_verdict_only_answers_agree_with_countermodel_answers(self, t, monkeypatch):
        for ask in (lambda: decide(t, WIDE).status,
                    lambda: decide(t, WIDE, want_countermodel=False).status,
                    lambda: VALID if is_valid(t, WIDE) else INVALID):
            monkeypatch.setattr(theories, "_store", {})
            assert ask() == INVALID

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 16), st.integers(1, 12))
    def test_verdict_only_status_equals_countermodel_status(self, seed, k, parts):
        # Either call order, each on a fresh store.  Joining parts gives
        # wide formulas too; a small budget makes the sweeps run out on many
        # letters.  Types of at most 14 free nodes, or past the 22 allowed.
        rng = random.Random(seed)
        f = random_formula(rng, 12, letters=k, dirs=(UP,))
        for _ in range(parts - 1):
            f = rng.choice([And, Or, Imp])(f, random_formula(rng, 12, letters=k, dirs=(UP,)))
        width = _width(theories._compile(f))
        assume(width <= 14 or width > 22)
        for t in Theory:
            answers = []
            for order in ((False, True), (True, False)):
                theories._store.clear()
                answers += [_answer(t, f, cm, 2000) for cm in order]
            assert len(set(answers)) == 1, (t, f, answers)

    def test_one_world_models_run_once_per_question(self, empty_store, monkeypatch):
        # PL-valid and S4.2-invalid: PL, S5's shortcut and the S4.2 search
        # each need the two one-world models, which run once.
        blocks = []
        refute = theories._refute

        def spy(nodes, root, rows, *rest):
            blocks.append(rows)
            return refute(nodes, root, rows, *rest)
        monkeypatch.setattr(theories, "_refute", spy)
        assert decide(S4_2, parse("<u>[u]p0 -> p0")).is_invalid
        assert blocks.count((1,)) == 1

    def test_frames_exhausted_means_unknown(self, monkeypatch):
        f = parse("<u>[u]p -> p")
        monkeypatch.setattr(theories, "_MAX_SEARCH_WORLDS", 1)
        monkeypatch.setattr(theories, "_store", {})
        v = decide(S4, f)
        assert v.is_unknown
        assert v.reason.endswith(f"within 1 worlds / {SEARCH_BUDGET} models")
        monkeypatch.setattr(theories, "_MAX_SEARCH_WORLDS", 2)
        monkeypatch.setattr(theories, "_store", {})
        assert decide(S4, f).countermodel.frame.n == 2


class TestResourceBounds:
    def test_s5_first_subset_allocates_no_colour_pool(self):
        import tracemalloc
        from bikripke.formula import And
        f = Atom("x0")
        for i in range(1, 26):
            f = And(f, Atom(f"x{i}"))
        tracemalloc.start()
        try:
            v = decide(S5, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.countermodel.frame.n == 1
        assert v.countermodel.valuation == {f"x{i}": 0 for i in range(26)}
        assert peak < 4 << 20

    def test_s5_sweep_stops_at_the_budget(self, empty_store):
        from bikripke.errors import BudgetExceeded
        # S5-valid, so the sweep would visit all 255 subsets of 8 colours.
        f = parse("[u](s0 & s1 & s2) -> s0")
        with pytest.raises(BudgetExceeded, match="S5 colour sweep"):
            decide(S5, f, budget=100)
        with pytest.raises(BudgetExceeded):
            decide(S5, f, budget=100, want_countermodel=False)
        # S4.2 goes without the S5 shortcut and is settled by elimination.
        assert decide(S4_2, f, budget=100).is_valid
        assert decide(S5, parse("[u](s0 & s1 & s2) -> s1"), budget=255).is_valid

    def test_deep_formula_built_in_code_exceeds_budget(self):
        from bikripke.errors import BudgetExceeded
        from bikripke.formula import Not
        f = Atom("p")
        for _ in range(3000):
            f = Not(Box(UP, f))
        for t in Theory:
            with pytest.raises(BudgetExceeded):
                decide(t, f)

    def test_type_space_memory_is_linear_in_rows(self, empty_store):
        # 13 free nodes and about 6,000 coherent rows: a successor relation
        # over the rows would take tens of MB.
        import tracemalloc
        f = parse("[u]p0 -> (" + " | ".join(f"p{i}" for i in range(1, 12)) + ")")
        compiled = theories._compile(f)
        tracemalloc.start()
        try:
            s4_valid = decide(S4, f, want_countermodel=False).is_valid
            s42_invalid = theories._s42_invalid(theories._type_space(compiled))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not s4_valid and s42_invalid
        assert peak < 8 << 20

    @pytest.mark.parametrize("t", [S4, S4_2])
    def test_pl_refutation_past_the_budget_stays_unknown(self, t, empty_store):
        # The only failing assignment is the 16th: the PL step gives up at
        # 10, and the search, starting at one world, runs out there too.
        f = parse("~(p0 & p1 & p2 & p3)")
        v = decide(t, f, budget=10)
        assert v.is_unknown and "10 models" in v.reason
        assert decide(t, f, budget=16).countermodel.frame.n == 1

    def test_pl_truth_table_stops_at_the_budget(self, empty_store):
        # PL-valid, so the table would visit all 16 assignments.
        f = parse("p0 & p1 & p2 & p3 -> p0")
        with pytest.raises(BudgetExceeded, match="PL truth table exceeds 10"):
            decide(PL, f, budget=10)
        with pytest.raises(BudgetExceeded):
            decide(PL, f, budget=10, want_countermodel=False)
        assert decide(PL, f, budget=16).is_valid


# ---------------------------------------------------------------------------
# Reference type elimination: the r x r successor matrix over NumPy bool
# columns that the integer-mask groups replaced, kept as an oracle.
# ---------------------------------------------------------------------------

def ref_type_space(compiled):
    nodes, root, _ = compiled
    boolean = []
    b = 0
    for nd in nodes:
        if nd[0] in ("atom", "box", "dia"):
            boolean.append(("atom", b, 0))
            b += 1
        else:
            boolean.append(nd)
    rows = 1 << b
    bits = np.arange(rows, dtype=np.uint32)
    cols = theories._run(boolean,
                         [((bits >> pos) & 1).astype(bool) for pos in range(b)],
                         np.ones(rows, dtype=bool), None, None)
    M = np.column_stack(cols)
    boxes = [(i, nd[1]) for i, nd in enumerate(nodes) if nd[0] == "box"]
    dias = [(i, nd[1]) for i, nd in enumerate(nodes) if nd[0] == "dia"]
    ok = np.ones(rows, dtype=bool)
    for i, c in boxes:
        ok &= ~M[:, i] | M[:, c]
    for i, c in dias:
        ok &= ~M[:, c] | M[:, i]
    M = M[ok]
    return M, boxes, dias, root, ref_succ_matrix(M, boxes, dias)


def ref_succ_matrix(M, boxes, dias):
    """succ[t, s]: boxes persist forward, diamonds persist backward."""
    r = M.shape[0]
    succ = np.ones((r, r), dtype=bool)
    for i, _ in boxes:
        col = M[:, i]
        succ &= ~col[:, None] | col[None, :]
    for i, _ in dias:
        col = M[:, i]
        succ &= ~col[None, :] | col[:, None]
    return succ


def ref_eliminate(M, boxes, dias, succ, alive):
    alive = alive.copy()
    while True:
        changed = False
        for reqs, want in ((boxes, False), (dias, True)):
            for i, c in reqs:
                need = alive & (M[:, i] == want)
                if not need.any():
                    continue
                wit = succ @ (alive & (M[:, c] == want))
                kill = need & ~wit
                if kill.any():
                    alive &= ~kill
                    changed = True
        if not changed:
            return alive


def ref_s4_invalid(space) -> bool:
    M, boxes, dias, root, succ = space
    if M.shape[0] == 0:
        return False
    alive = ref_eliminate(M, boxes, dias, succ, np.ones(M.shape[0], dtype=bool))
    return bool((alive & ~M[:, root]).any())


def ref_s42_invalid(space) -> bool:
    M, boxes, dias, root, succ = space
    if M.shape[0] == 0:
        return False
    box_cols = [i for i, _ in boxes]
    dia_cols = [i for i, _ in dias]
    modal_cols = box_cols + dia_cols
    if not modal_cols:
        return bool((~M[:, root]).any())
    for beta in np.unique(M[:, modal_cols], axis=0):
        beta_box = beta[: len(box_cols)]
        beta_dia = beta[len(box_cols):]
        in_w = np.ones(M.shape[0], dtype=bool)
        for pos, i in enumerate(modal_cols):
            in_w &= M[:, i] == beta[pos]
        # Cluster coverage: unforced requirements need witnesses inside it.
        if any(not beta_box[pos] and not (in_w & ~M[:, c]).any()
               for pos, (_, c) in enumerate(boxes)):
            continue
        if any(beta_dia[pos] and not (in_w & M[:, c]).any()
               for pos, (_, c) in enumerate(dias)):
            continue
        eligible = np.ones(M.shape[0], dtype=bool)
        for pos, i in enumerate(box_cols):
            if not beta_box[pos]:
                eligible &= ~M[:, i]
        for pos, i in enumerate(dia_cols):
            if beta_dia[pos]:
                eligible &= M[:, i]
        alive = ref_eliminate(M, boxes, dias, succ, eligible)
        if (alive & ~M[:, root]).any():
            return True
    return False


def _width(compiled) -> int:
    """Free nodes of the type space: atoms, boxes and diamonds."""
    return sum(op in ("atom", "box", "dia") for op, _, _ in compiled[0])


def _both_verdicts(compiled):
    space = theories._type_space(compiled)
    ref = ref_type_space(compiled)
    return ((theories._s4_invalid(space), theories._s42_invalid(space)),
            (ref_s4_invalid(ref), ref_s42_invalid(ref)))


class TestTypeSpaceReference:
    def test_every_two_letter_formula_to_size_5(self):
        for f in enumerate_formulas(2, 5, {UP}):
            got, want = _both_verdicts(theories._compile(f))
            assert got == want, f

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32))
    @example(22)        # width 12, rows not re-indexed: invalid
    @example(56)        # width 12: valid
    @example(4)         # width 13, rows re-indexed: invalid
    @example(146)       # width 13: valid
    @example(46)        # width 15, S4- and S4.2-invalid
    @example(1818)      # width 15, S4- and S4.2-valid
    def test_random_three_letter_formulas_of_width_8_to_16(self, seed):
        f = random_formula(random.Random(seed), 40, letters=3, dirs=(UP,))
        compiled = theories._compile(f)
        assume(8 <= _width(compiled) <= 16)
        got, want = _both_verdicts(compiled)
        assert got == want, f


# ---------------------------------------------------------------------------
# Reference deciders: the per-model loops that the blocks of models
# replaced, one _run per PL assignment, S5 colour subset and searched
# valuation, kept as an oracle.
# ---------------------------------------------------------------------------

def ref_pl_verdict(compiled, budget):
    nodes, root, lets = compiled
    for used, bits in enumerate(itertools.product((0, 1), repeat=len(lets)), 1):
        if used > budget:
            raise BudgetExceeded(f"PL truth table exceeds {budget} assignments")
        atoms = bits[::-1]
        if not theories._run(nodes, atoms, 1, (0, 1), (0, 1))[root]:
            return PointedModel(single_point(), dict(zip(lets, atoms)), 0)
    return None


def ref_s5_verdict(compiled, budget):
    from bikripke.frame import cluster
    nodes, root, lets = compiled
    k = len(lets)
    ncolors = 1 << k
    used = 0
    for n in range(1, min(len(nodes) + 1, ncolors) + 1):
        full = (1 << n) - 1
        box = [0] * full + [full]
        dia = [0] + [full] * full
        for colors in itertools.combinations(range(ncolors), n):
            used += 1
            if used > budget:
                raise BudgetExceeded(f"S5 colour sweep exceeds {budget} models")
            atoms = [0] * k
            for i, c in enumerate(colors):
                for li in range(k):
                    atoms[li] |= ((c >> li) & 1) << i
            res = theories._run(nodes, atoms, full, box, dia)[root]
            if res != full:
                point = ((full ^ res) & -(full ^ res)).bit_length() - 1
                return PointedModel(cluster(n), dict(zip(lets, atoms)), point)
    return None


def ref_search_countermodel(compiled, directed_only, budget):
    from bikripke.frame import Frame
    from bikripke.semantics import _union_table
    nodes, root, lets = compiled
    k = len(lets)
    used = 0
    for n in range(1, theories._MAX_SEARCH_WORLDS + 1):
        for rows, directed in theories._rt_frames(n):
            if directed_only and not directed:
                continue
            full = (1 << n) - 1
            dia = _union_table([sum(((row >> v) & 1) << w for w, row in enumerate(rows))
                                for v in range(n)])
            box = [full ^ d for d in reversed(dia)]
            for v in range(1 << (k * n)):
                used += 1
                if used > budget:
                    return None, True
                masks = [(v >> (i * n)) & full for i in range(k)]
                res = theories._run(nodes, masks, full, box, dia)[root]
                if res != full:
                    point = ((full ^ res) & -(full ^ res)).bit_length() - 1
                    valuation = {lets[i]: masks[i] for i in range(k)}
                    return PointedModel(Frame(n, rows), valuation, point), False
    return None, True


def _dumped(cm):
    return None if cm is None else dumps(cm)


def _or_exceeded(run):
    try:
        return run()
    except BudgetExceeded as e:
        return ("exceeded", str(e))


def _searched(compiled, t, budget, used=0):
    """The one search's countermodel for t, or None when it finds none."""
    found = theories._search(compiled, t, budget, used)
    return None if found is None else \
        theories._countermodel(t, compiled[2], *found).countermodel


def _s4_searched(compiled, t, budget, used=0):
    """(countermodel, exhausted) of an S4 or S4.2 search, dumped: exhausted
    when it ran out of budget or of frames."""
    try:
        cm = _searched(compiled, t, budget, used)
    except BudgetExceeded:
        cm = None
    return _dumped(cm), cm is None


def block_answers(f, budget, search=True):
    """PL and S5 countermodels (None when valid) or BudgetExceeded, and the
    S4 and S4.2 searches' (countermodel, exhausted), all dumped."""
    compiled = theories._compile(theories.orient(f)[0])
    out = [_or_exceeded(lambda: _dumped(_searched(compiled, t, budget)))
           for t in (PL, S5)]
    if search:
        out += [_s4_searched(compiled, t, budget) for t in (S4, S4_2)]
    return out


def ref_answers(f, budget, search=True):
    compiled = theories._compile(theories.orient(f)[0])
    out = [_or_exceeded(lambda: _dumped(ref(compiled, budget)))
           for ref in (ref_pl_verdict, ref_s5_verdict)]
    if search:
        for directed in (False, True):
            cm, spent = ref_search_countermodel(compiled, directed, budget)
            out.append((_dumped(cm), spent))
    return out


class TestBlocksAgainstReference:
    """The block deciders give the per-model loops' verdicts, countermodels
    and budget outcomes."""

    def test_every_two_letter_formula_to_size_5(self):
        for f in enumerate_formulas(2, 5, {UP}):
            assert block_answers(f, SEARCH_BUDGET, False) == \
                ref_answers(f, SEARCH_BUDGET, False), f
        # The searches with a budget small enough for the reference loop.
        for f in itertools.islice(enumerate_formulas(2, 5, {UP}), 0, None, 5):
            assert block_answers(f, 300)[2:] == ref_answers(f, 300)[2:], f

    def test_search_counts_a_pl_valid_formulas_one_world_models(self):
        # One letter: 2 one-world models, then 4 valuations per 2-world
        # frame, so the budgets cut the search at every model up to 40.
        for f in enumerate_formulas(1, 4, {UP}):
            compiled = theories._compile(f)
            if theories._search(compiled, PL, SEARCH_BUDGET) is not None:
                continue
            used = 1 << len(compiled[2])
            for budget in range(1, 41):
                for t in (S4, S4_2):
                    assert _s4_searched(compiled, t, budget, used) == \
                        _s4_searched(compiled, t, budget), f
                assert _or_exceeded(lambda: _dumped(_searched(compiled, S5, budget, used))) \
                    == _or_exceeded(lambda: _dumped(_searched(compiled, S5, budget))), f

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([3, 4]), st.integers(1, 7000))
    @example(65, 4, 7000)   # S5-valid, 22 nodes: level 5 runs out mid-block
    @example(65, 4, 3000)
    def test_random_three_and_four_letter_formulas(self, seed, k, budget):
        # Level 5 of 16 colours spans 5 blocks, past 2,516 smaller subsets.
        f = random_formula(random.Random(seed), 25, letters=k, dirs=(UP,))
        assert block_answers(f, budget) == ref_answers(f, budget), f

    @pytest.mark.parametrize("text", [
        "~(p0 & <u>(p1 & ~p0) & p2 & <u>~p3)",
        "~(p0 & <u>(p1 & ~p0 & ~p2) & <u>(p2 & ~p0 & ~p1) & <u>~p3)",
        "~(p0 & <u>(p1 & ~p0 & <u>(p2 & ~p1 & ~p0)) & [u]~p3)",
    ])
    def test_four_letter_countermodels_of_two_and_three_worlds(self, text):
        # 256 valuations per 2-world frame, 4,096 (four blocks) per 3-world one.
        f = parse(text)
        got = block_answers(f, SEARCH_BUDGET)
        assert got == ref_answers(f, SEARCH_BUDGET)
        for cm, _ in got[2:]:
            assert "worlds 2" in cm or "worlds 3" in cm

    @pytest.mark.parametrize("text", [
        "b -> a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8 | a9",   # PL: fails at 1,024
        "[u](s0 & s1 & s2 & s3) -> s0",                          # S5 level 4 cut
        "~(p0 & <u>(p1 & ~p0 & ~p2) & <u>(p2 & ~p0 & ~p1) & <u>~p3)",
    ])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_budgets_at_a_block_edge(self, text, delta):
        budget = theories._BLOCK + delta
        f = parse(text)
        assert block_answers(f, budget) == ref_answers(f, budget)

    @pytest.mark.parametrize("budget", [254, 255])
    def test_s5_budget_at_the_last_subset(self, budget):
        # S5-valid with 3 letters: all 255 colour subsets are swept.
        f = parse("[u](s0 & s1 & s2) -> s0")
        got = block_answers(f, budget, False)
        assert got == ref_answers(f, budget, False)
        assert (got[1] is None) == (budget == 255)


class TestBlockCaches:
    def test_retain_little_after_exhausting_budgets(self, empty_store):
        import tracemalloc
        caches = (theories._count_atoms, theories._s5_atoms, theories._modal)
        for cache in caches:
            cache.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="S5 colour sweep"):
                decide(S5, parse("[u](p0 & p1 & p2 & p3 & p4) -> p0"))
            f = parse(" & ".join(f"x{i:02}" for i in range(20)) + " -> x00")
            assert decide(PL, f, budget=1 << 20).is_valid
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(cache.cache_info().currsize for cache in caches)
        assert retained < 8 << 20

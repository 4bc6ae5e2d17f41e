import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bikripke import semantics
from bikripke.errors import BadWorldIndex, BudgetExceeded
from bikripke.formula import (DOWN, UP, Bot, Box, Top, enumerate_formulas, letters, parse,
                              substitute)
from bikripke.frame import (Frame, PointedModel, WorldSet, chain, cluster, combo_frame,
                            make_frame, powerset_frame, single_point)
from bikripke.semantics import (
    definable_algebra,
    eval_formula,
    eval_mask,
    holds_at,
    ml_fragment,
    ml_member,
    ml_status,
    multiverse_truth,
    valid_on,
)
from .conftest import naive_truth, naive_truth_memo, random_formula, random_model


def chain2_model(p_worlds=(1,)):
    return PointedModel(chain(2), {"p": sum(1 << w for w in p_worlds)}, 0)


class TestEval:
    def test_single_point_pl(self):
        m = PointedModel(single_point(), {"p": 1}, 0)
        assert valid_on(m, parse("[u]p <-> p"))
        assert valid_on(m, parse("[d]p <-> <d>p"))

    def test_chain_diamond(self):
        m = chain2_model()
        assert sorted(eval_formula(m, parse("<u>p"))) == [0, 1]

    def test_converse_axioms_forced(self, rng):
        for _ in range(40):
            m = random_model(rng)
            assert valid_on(m, parse("p0 -> [u]<d>p0"))
            assert valid_on(m, parse("p0 -> [d]<u>p0"))

    def test_holds_at(self):
        m = chain2_model()
        assert holds_at(m, 1, parse("<u>p"))
        assert holds_at(m, 0, parse("true"))
        with pytest.raises(BadWorldIndex):
            holds_at(m, 5, parse("p"))

    def test_cluster_diamond_stability(self, rng):
        for _ in range(10):
            val = {"p": rng.getrandbits(3)}
            m = PointedModel(cluster(3), val, 0)
            assert valid_on(m, parse("<u>p -> [u]<u>p"))

    def test_agrees_with_naive_oracle(self, rng):
        for _ in range(80):
            m = random_model(rng, max_n=7)
            for _ in range(6):
                f = random_formula(rng, rng.randint(1, 9))
                mask = eval_mask(m, f)
                for w in range(m.frame.n):
                    assert bool((mask >> w) & 1) == naive_truth(m, w, f)

    def test_agrees_with_naive_oracle_on_table_frames(self):
        # 17-40 worlds: box and diamond go through the diamond tables.
        rng = random.Random(17)
        for _ in range(12):
            m = random_model(rng, max_n=40, min_n=17)
            for _ in range(6):
                f = random_formula(rng, rng.randint(1, 9))
                mask = eval_mask(m, f)
                memo = {}
                for w in range(m.frame.n):
                    assert bool((mask >> w) & 1) == naive_truth_memo(m, w, f, memo)
            assert "_dia_tables" in m.frame.__dict__


def naive_closure(m, letters):
    """Reference least-fixpoint closure under complement, intersection and
    both box preimages, by plain worklist iteration."""
    n = m.frame.n
    full = (1 << n) - 1

    def box(dir_up: bool, x):
        out = 0
        for w in range(n):
            succs = [v for v in range(n)
                     if (dir_up and m.frame.up(w, v))
                     or (not dir_up and m.frame.up(v, w))]
            if all((x >> v) & 1 for v in succs):
                out |= 1 << w
        return out

    sets = {0, full}
    sets.update(m.valuation.get(l, 0) for l in letters)
    while True:
        new = set()
        for x in sets:
            new.add(full ^ x)
            new.add(box(True, x))
            new.add(box(False, x))
            for y in sets:
                new.add(x & y)
        if new <= sets:
            return sorted(sets)
        sets |= new


class TestDefinableAlgebra:
    def test_single_point(self):
        m = PointedModel(single_point(), {"p": 1}, 0)
        assert definable_algebra(m).masks() == [0, 1]

    def test_chain2(self):
        m = chain2_model()
        assert definable_algebra(m).masks() == [0, 1, 2, 3]

    def test_cluster2_no_letters(self):
        m = PointedModel(cluster(2), {}, 0)
        assert definable_algebra(m).masks() == [0, 3]

    def test_matches_naive_closure(self, rng):
        for _ in range(30):
            m = random_model(rng, max_n=5, letters=2)
            assert definable_algebra(m).masks() == naive_closure(m, m.letters())

    def test_budget(self):
        m = powerset_frame([0, 1], [[2, 3, 4], [5, 6, 7]], range(8))
        with pytest.raises(BudgetExceeded):
            definable_algebra(m)

    def test_over_budget_stops_refining(self):
        # 256 cells from the letters alone are past 2^16 sets before the
        # first refinement round, which visits all 4,096^2 edges.
        n = 4096
        val = {f"p{i}": sum(1 << w for w in range(n) if w >> i & 1) for i in range(8)}
        m = PointedModel(cluster(n), val, 0)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"more than 2\^16 sets"):
            definable_algebra(m)
        assert time.perf_counter() - start < 1.0

    def test_contains_generators_and_bounds(self, rng):
        for _ in range(10):
            m = random_model(rng, max_n=5, letters=2)
            alg = definable_algebra(m)
            masks = set(alg.masks())
            assert 0 in masks and (1 << m.frame.n) - 1 in masks
            for l in m.letters():
                assert m.valuation[l] in masks


class TestMlMember:
    def test_single_point_pl(self):
        m = PointedModel(single_point(), {"p": 1}, 0)
        assert ml_member(m, parse("[d]p <-> p"))

    def test_pushed_below_button(self):
        m = powerset_frame([0], [], [0])
        assert not ml_member(m, parse("<d>[d]b0 -> b0"))

    def test_four_axiom_on_rt_models(self, rng):
        for _ in range(10):
            c = rng.randint(1, 3)
            m = PointedModel(cluster(c), {"p": rng.getrandbits(c)}, 0)
            assert ml_member(m, parse("[u]p -> [u][u]p"))

    def test_invariant_under_unused_quantified_letter(self):
        # Quantifying a letter that does not occur cannot change membership.
        m = chain2_model()
        alg = definable_algebra(m).masks()
        f = parse("[u]p -> p")
        expected = ml_member(m, f)
        swept = all(
            (eval_mask(m, f, env={"p": x, "zz": y}) >> m.point) & 1
            for x in alg for y in alg)
        assert swept == expected

    def test_closed_under_substitution(self):
        m = chain2_model()
        f = parse("[u]p -> p")
        assert ml_member(m, f)
        for text in ("[d]p", "<u>p & p", "~p", "true"):
            inst = substitute(f, {"p": parse(text)})
            assert ml_member(m, inst)

    def test_witness_is_verified(self):
        m = powerset_frame([0], [], [0])
        out = ml_status(m, parse("<d>[d]b0 -> b0"))
        assert out.status is False

    def test_letters_outside_valuation_are_quantified(self):
        # Quantification ranges over the algebra regardless of whether the
        # formula's letters appear in the valuation.
        m = chain2_model()
        assert ml_member(m, parse("[u]zz -> zz"))
        assert not ml_member(m, parse("zz -> [u]zz"))


class TestMlFragment:
    def test_single_point_down_is_pl(self):
        from bikripke.theories import PL, is_valid
        m = PointedModel(single_point(), {}, 0)
        frag = ml_fragment(m, 1, 5, {DOWN})
        assert not frag.unknown
        for f in frag.formulas:
            assert frag.status[f] == is_valid(PL, f)

    def test_cluster3_up_is_s5(self):
        # The letters must separate the cluster's worlds: the algebra of a
        # letterless cluster is {empty, full} and its fragment exceeds S5.
        from bikripke.theories import S5, is_valid
        m = PointedModel(cluster(3), {"q0": 0b001, "q1": 0b010}, 0)
        frag = ml_fragment(m, 1, 6, {UP})
        assert not frag.unknown
        for f in frag.formulas:
            assert frag.status[f] == is_valid(S5, f)

    def test_bs22_up_contains_s42_excludes_s5_axiom(self):
        from bikripke.frame import bs_model
        from bikripke.theories import S4_2, is_valid
        m = bs_model(2, 2)
        frag = ml_fragment(m, 1, 6, {UP})
        assert not frag.unknown
        for f in frag.formulas:
            if is_valid(S4_2, f):
                assert frag.status[f] is True
        assert frag.status[parse("<u>[u]p0 -> p0")] is False


class TestMultiverseTruth:
    def test_top_on_connected(self):
        m = chain2_model()
        assert sorted(multiverse_truth(m, parse("true"))) == [0, 1]

    def test_chain_p_empty(self):
        m = chain2_model()
        assert sorted(multiverse_truth(m, parse("p"))) == []

    def test_two_components(self):
        m = PointedModel(make_frame(2, [], {"reflexive"}), {"p": 0b01}, 0)
        assert sorted(multiverse_truth(m, parse("p"))) == [0]

    def test_constant_on_components(self, rng):
        for _ in range(25):
            m = random_model(rng, max_n=7)
            f = random_formula(rng, rng.randint(1, 7))
            mask = multiverse_truth(m, f).mask
            n = m.frame.n
            adj = [m.frame.up_masks[w] | m.frame.down_masks[w] | (1 << w)
                   for w in range(n)]
            for w in range(n):
                comp = 1 << w
                frontier = comp
                while frontier:
                    nxt = 0
                    mm = frontier
                    while mm:
                        low = mm & -mm
                        nxt |= adj[low.bit_length() - 1]
                        mm ^= low
                    frontier = nxt & ~comp
                    comp |= nxt
                inside = mask & comp
                assert inside == 0 or inside == comp


def box_vector(succ_masks, x: np.ndarray) -> np.ndarray:
    """Loop reference: box of each world-set mask in x (at most 64 worlds),
    given the successor masks."""
    out = np.zeros(x.shape, dtype=np.uint64)
    for w, mask in enumerate(succ_masks):
        sm = np.uint64(mask)
        out |= ((x & sm) == sm).astype(np.uint64) << np.uint64(w)
    return out


def sweep_plain(m, f):
    """World-level reference of the exact sweep: every assignment of algebra
    members to the letters of f, in ascending order, model-checked one by one;
    returns (status, witness)."""
    masks = definable_algebra(m).masks()
    ls = sorted(letters(f))
    for combo in itertools.product(range(len(masks)), repeat=len(ls)):
        env = {l: masks[i] for l, i in zip(ls, combo)}
        if not (eval_mask(m, f, env=env) >> m.point) & 1:
            return False, {l: WorldSet(m.frame.n, x) for l, x in env.items()}
    return True, None


def bisimilar_copies(base: PointedModel, copies: int, r: random.Random) -> PointedModel:
    """copies disjoint copies of base, where each edge w -> v of base links
    the copies of w to the copies of v by a random permutation plus random
    extra links.  Forgetting the copy index is then a bounded morphism in
    both directions, so the two-way bisimulation cells are base's."""
    n = base.frame.n
    rows = [0] * (n * copies)
    for w in range(n):
        for v in range(n):
            if base.frame.up(w, v):
                perm = r.sample(range(copies), copies)
                for i in range(copies):
                    for j in range(copies):
                        if j == perm[i] or r.random() < 0.2:
                            rows[i * n + w] |= 1 << (j * n + v)
    spread = lambda mask: sum(((mask >> w) & 1) << (i * n + w)
                              for i in range(copies) for w in range(n))
    return PointedModel(Frame(n * copies, tuple(rows)),
                        {l: spread(x) for l, x in base.valuation.items()},
                        r.randrange(copies) * n + base.point)


@st.composite
def _model_and_cells(draw):
    n = draw(st.integers(1, 16))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    val = {"p0": draw(st.integers(0, (1 << n) - 1))}
    return PointedModel(Frame(n, rows), val, 0)


class TestCellTables:
    @settings(max_examples=60, deadline=None)
    @given(_model_and_cells(), st.sampled_from([UP, DOWN]))
    def test_tables_equal_loop(self, m, d):
        # p0 ranges over every member, so its value holds every cell set.
        ctx = semantics._MlContext(m)
        algebra = ctx.algebra
        table = semantics._sweep_table(m, algebra, ("p0",))
        cells = sorted(algebra.cells, key=lambda cell: not cell >> m.point & 1)
        w = len(algebra)

        def value(worlds):
            """The sweep value whose assignment i holds worlds[i], a union of
            cells: one slice per cell, bit i of a slice for assignment i."""
            return sum(int("".join("1" if mask & cell else "0" for mask in reversed(worlds)), 2)
                       << s * w for s, cell in enumerate(cells))

        x = table.atoms["p0"]
        members = algebra.masks()
        assert x == value(members)
        assert table.full == value([(1 << m.frame.n) - 1] * w)
        assert table.box(d, x) == value([semantics._box_mask(m.frame, d, y) for y in members])
        assert table.dia(d, x) == value([semantics._dia_mask(m.frame, d, y) for y in members])

    def test_sweep_same_as_world_level_loop(self):
        # The old world-level sweep: letters range over algebra members as
        # world masks, assignments numbered with the first letter most
        # significant, and box is the per-world loop.
        m = combo_frame("cluster_below_bs", 2, 2, 1)
        algebra = definable_algebra(m)
        a = len(algebra)
        full = np.uint64((1 << m.frame.n) - 1)
        vec = np.array(algebra.masks(), dtype=np.uint64)
        columns = {1: [vec], 2: [np.repeat(vec, a), np.tile(vec, a)]}
        box = lambda d, x: box_vector(m.frame.masks(d), x)
        dia = lambda d, x: full ^ box(d, full ^ x)
        memos = {}
        for k, size in ((1, 5), (2, 4)):
            for f in ml_fragment(m, k, size, {UP, DOWN}).formulas:
                ls = tuple(sorted(letters(f)))
                if not ls:
                    continue
                res = semantics._evaluate(f, dict(zip(ls, columns[len(ls)])), full, box, dia,
                                          memos.setdefault(ls, {}))
                ok = (res >> np.uint64(m.point)) & np.uint64(1)
                out = ml_status(m, f)
                assert (out.status, out.how) == (bool(ok.all()), "exact sweep"), f
                if not ok.all():
                    bad = int(np.argmin(ok))
                    digits = divmod(bad, a) if len(ls) == 2 else (bad,)
                    assert out.witness == {l: algebra.sets[x] for l, x in zip(ls, digits)}, f


class TestQuotientSweep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(17, 100))
    @example(1, 60)
    @example(2, 70)
    @example(3, 100)
    def test_bisimilar_copies_equal_world_reference(self, seed, worlds):
        r = random.Random(seed)
        base = random_model(r, max_n=8, letters=2)
        m = bisimilar_copies(base, max(2, worlds // base.frame.n), r)
        algebra = semantics._ml_context(m).algebra
        assert algebra is not None and len(algebra.cells) <= 8
        for _ in range(6):
            f = random_formula(r, 7, letters=1)
            if not letters(f):
                continue
            out = ml_status(m, f)
            assert out.how == "exact sweep"
            assert (out.status, out.witness) == sweep_plain(m, f), f


def loop_box(frame, d, x):
    """Reference box: a world is in it iff all its d-successors are in x."""
    out = 0
    for w, succ in enumerate(frame.masks(d)):
        if succ & ~x == 0:
            out |= 1 << w
    return out


def loop_dia(frame, d, y):
    """Reference diamond: a world is in it iff some d-successor is in y."""
    return sum(1 << w for w, succ in enumerate(frame.masks(d)) if succ & y)


class TestDiamondTables:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2 ** 32),
           st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]), st.sampled_from([UP, DOWN]))
    @example(1, 5, 1.0, UP)
    @example(2, 6, 0.5, DOWN)
    @example(9, 7, 0.5, UP)
    @example(16, 8, 0.1, DOWN)
    @example(17, 1, 0.1, UP)
    @example(63, 2, 0.1, DOWN)
    @example(65, 3, 0.5, UP)
    @example(256, 4, 0.01, DOWN)
    def test_tables_equal_loop(self, n, seed, density, d):
        r = random.Random(seed)
        rows = tuple(sum(1 << j for j in range(n) if r.random() < density)
                     for _ in range(n))
        frame = Frame(n, rows)
        full = (1 << n) - 1
        xs = [0, full] + [r.getrandbits(n) for _ in range(8)]
        for x in xs:
            assert semantics._box_mask(frame, d, x) == loop_box(frame, d, x)
            assert semantics._dia_mask(frame, d, x) == loop_dia(frame, d, x)
        tables = frame.__dict__["_dia_tables"][d]
        assert len(tables) == (n + 7) // 8

    def test_frame_above_cap_evaluates_without_tables(self):
        n = semantics._DIA_TABLE_WORLDS + 1
        r = random.Random(7)
        rows = tuple((1 << w) | (1 << r.randrange(n)) | (1 << (w + 1) % n)
                     for w in range(n))
        m = PointedModel(Frame(n, rows), {f"p{i}": r.getrandbits(n)
                                          for i in range(3)}, 0)
        for d in (UP, DOWN):
            for text in ("[{0}]p0", "<{0}>p1", "[{0}]<{0}>(p0 | ~p2)"):
                f = parse(text.format(d.value))
                ref = loop_box if isinstance(f, Box) else loop_dia
                assert eval_mask(m, f) == ref(m.frame, d, eval_mask(m, f.sub))
        for _ in range(10):
            f = random_formula(r, r.randint(1, 6))
            mask = eval_mask(m, f)
            memo = {}
            for w in r.sample(range(n), 8):
                assert bool((mask >> w) & 1) == naive_truth_memo(m, w, f, memo)
        assert "_dia_tables" not in m.frame.__dict__

    def test_thm4_fragment_same_without_tables(self, monkeypatch):
        from bikripke.cli import thm4_model

        def run():
            m = thm4_model()
            frag = ml_fragment(m, 1, 4, {DOWN})
            return [(f, ml_status(m, f).status, ml_status(m, f).witness)
                    for f in frag.formulas]

        with_tables = run()
        monkeypatch.setattr(semantics, "_DIA_TABLE_WORLDS", 0)
        assert run() == with_tables


class TestRepeatedMlStatus:
    """No ml_status outcome is kept: a repeated call recomputes it from the
    model's tables, in any order, and must give the same answer."""

    @pytest.mark.parametrize("route, dirs", [("exact", {UP, DOWN}), ("certified", {UP})],
                             ids=["exact", "certified"])
    def test_repeated_calls_same_answers(self, route, dirs):
        from bikripke.cli import thm5_model
        m = combo_frame("cluster_below_bs", 2, 2, 1) if route == "exact" else thm5_model()
        frag = ml_fragment(m, 1, 5, dirs)

        def answers(formulas):
            return [(f, out.status, out.how, out.witness)
                    for f in formulas for out in [ml_status(m, f)]]

        first = answers(frag.formulas)
        assert [status for _, status, _, _ in first] == \
            [frag.status[f] for f in frag.formulas]
        assert answers(frag.formulas) == first
        assert answers(frag.formulas[::-1]) == first[::-1]


class TestSweepPool:
    """The exact sweep keeps its values across queries, within a byte cap."""

    @staticmethod
    def answers(k, size):
        m = combo_frame("cluster_below_bs", 2, 2, 1)
        frag = ml_fragment(m, k, size, {UP, DOWN})
        return [(f, frag.status[f], ml_status(m, f).how, ml_status(m, f).witness)
                for f in frag.formulas]

    @pytest.mark.parametrize("k, size", [(1, 5), (2, 4)])
    def test_tiny_cap_same_answers(self, monkeypatch, k, size):
        default = self.answers(k, size)
        assert any(how == "exact sweep" for _, _, how, _ in default)
        monkeypatch.setattr(semantics, "_POOL_BYTES", 1)
        assert self.answers(k, size) == default

    def test_retained_memory_bounded_by_cap(self, monkeypatch):
        import tracemalloc

        def retained(size):
            tracemalloc.start()
            try:
                m = combo_frame("cluster_below_bs", 2, 2, 1)
                ml_fragment(m, 2, size, {UP, DOWN})
                held = semantics._ml_context(m).held
                return tracemalloc.get_traced_memory()[0], held
            finally:
                tracemalloc.stop()

        bound = semantics._POOL_BYTES + (4 << 20)
        current, held = retained(4)
        assert held <= semantics._POOL_BYTES
        assert current < bound
        # Without the cap a larger fragment keeps more than the bound.
        monkeypatch.setattr(semantics, "_POOL_BYTES", 1 << 40)
        assert retained(5)[0] > bound

    def test_pool_charges_exactly_its_memos(self, monkeypatch):
        # Uncapped, nothing is emptied, so held is the sum of the tables'
        # charges: their letter values and ⊤, and one entry per memo value.
        monkeypatch.setattr(semantics, "_POOL_BYTES", 1 << 40)
        m = combo_frame("cluster_below_bs", 2, 2, 1)
        ml_fragment(m, 2, 4, {UP, DOWN})
        ctx = semantics._ml_context(m)
        assert ("sweep", ("p0", "p1")) in ctx.tables
        assert ctx.held == sum(table.base + len(table.memo) * table.entry
                               for table in ctx.tables.values())

    def test_emptying_keeps_the_letter_values(self, monkeypatch):
        # The k=2, size <= 5 fragment passes the default cap several times.
        def answers():
            m = combo_frame("cluster_below_bs", 2, 2, 1)
            frag = ml_fragment(m, 2, 5, {UP})
            return [(f, frag.status[f], ml_status(m, f).witness)
                    for f in frag.formulas]

        builds = []
        build = semantics._sweep_table

        def counted(m, algebra, letters):
            builds.append(letters)
            return build(m, algebra, letters)

        monkeypatch.setattr(semantics, "_sweep_table", counted)
        spends = []
        spend = semantics._MlContext.spend

        def emptied(ctx, nbytes):
            before = ctx.held
            spend(ctx, nbytes)
            spends.append(ctx.held < before + nbytes)

        monkeypatch.setattr(semantics._MlContext, "spend", emptied)
        default = answers()
        assert any(spends)
        assert len(builds) == len(set(builds))
        monkeypatch.setattr(semantics, "_POOL_BYTES", 1 << 40)
        assert answers() == default

    def test_closed_formulas_share_one_memo(self):
        m = combo_frame("cluster_below_bs", 2, 2, 1)
        ctx = semantics._ml_context(m)
        f = parse("<u>[u]true -> [d]false")
        assert ml_status(m, f).how == "closed formula"
        closed = ctx.tables[("top", ())].memo
        # Proper subformulas stay; the root does not.
        assert parse("<u>[u]true") in closed and f not in closed
        for g in closed:
            assert closed[g] == eval_mask(m, g)


def reflexive_model(r: random.Random, transitive: bool) -> PointedModel:
    """A random model with every world reflexive, closed transitively on
    request."""
    m = random_model(r, max_n=6, letters=2)
    rows = [mask | 1 << w for w, mask in enumerate(m.frame.up_masks)]
    while transitive:
        wider = [row for row in rows]
        for w, row in enumerate(rows):
            for v in range(len(rows)):
                if (row >> v) & 1:
                    wider[w] |= rows[v]
        if wider == rows:
            break
        rows = wider
    return PointedModel(Frame(len(rows), tuple(rows)), m.valuation, m.point)


def pl_valid(f) -> bool:
    """Truth-table validity on one reflexive point, by the naive oracle."""
    ls = sorted(letters(f))
    return all(
        naive_truth_memo(PointedModel(single_point(),
                                      {l: (a >> i) & 1 for i, l in enumerate(ls)}, 0),
                         0, f)
        for a in range(1 << len(ls)))


class TestConstantSubstitution:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.booleans(),
           st.sampled_from([(UP,), (DOWN,), (UP, DOWN)]))
    def test_certified_routes_agree_with_sweep(self, seed, transitive, dirs):
        r = random.Random(seed)
        m = reflexive_model(r, transitive)
        exact = PointedModel(m.frame, m.valuation, m.point)
        semantics._ml_context(m).algebra = None   # certified routes only
        for _ in range(8):
            f = random_formula(r, 7, letters=2, dirs=dirs)
            out = ml_status(m, f)
            if out.how == "constant substitution":
                assert out.status is False
                assert not pl_valid(f)
                assert set(out.witness) == letters(f)
                assert all(g in (Top(), Bot()) for g in out.witness.values())
                assert not naive_truth_memo(m, m.point, substitute(f, out.witness))
            if out.status is not None:
                assert out.status == ml_status(exact, f).status

    @pytest.mark.parametrize("text", ["[u]p0 & <d>p1", "<d>[u]p0 -> [d]p0 & p1"])
    def test_bimodal_on_lattice_over_budget(self, text):
        from bikripke.cli import thm5_model
        m = thm5_model()
        assert m.frame.props.reflexive
        assert semantics._ml_context(m).algebra is None
        f = parse(text)
        out = ml_status(m, f)
        assert (out.status, out.how) == (False, "constant substitution")
        assert not naive_truth_memo(m, m.point, substitute(f, out.witness))

    def test_pl_valid_formula_is_not_refuted_by_constants(self):
        from bikripke.cli import thm5_model
        out = ml_status(thm5_model(), parse("[u]p0 -> [u][u]p0"))
        assert out.status is True


def reference_constant_refute(ctx, m, f, letters):
    """The constant-substitution route as the deciders answer it: the
    canonical PL countermodel of f's UP twin from decide, then one eval_mask
    of f with its letters sent to full and empty sets."""
    from bikripke.formula import _orient_to
    from bikripke.theories import PL, decide
    v = decide(PL, _orient_to(f, UP))
    if v.is_valid:
        return None
    full = (1 << m.frame.n) - 1
    valuation = v.countermodel.valuation
    env = {l: full if x else 0 for l, x in valuation.items()}
    if (eval_mask(m, f, env=env) >> m.point) & 1:
        return None
    return semantics.MlOutcome(False, witness={l: Top() if x else Bot()
                                               for l, x in valuation.items()},
                               how="constant substitution")


class TestPlTables:
    """Constant substitution and single-world cones read the per-model PL
    truth tables and constant-instance masks, and answer as the deciders'
    canonical PL countermodels and validity verdicts do."""

    JOBS = [(name, k, size, dirs) for name in ("thm4_model", "thm5_model")
            for k, size in ((1, 6), (2, 4)) for dirs in ((UP,), (DOWN,))]
    JOBS += [(name, 1, 4, (UP, DOWN)) for name in ("thm4_model", "thm5_model")]

    @staticmethod
    def outcomes(name, k, size, dirs):
        from bikripke import cli
        m = getattr(cli, name)()
        frag = ml_fragment(m, k, size, dirs)
        return [(f, ml_status(m, f).status, ml_status(m, f).how, ml_status(m, f).witness)
                for f in frag.formulas]

    @pytest.mark.parametrize("name, k, size, dirs", JOBS)
    def test_same_answers_as_decider_route(self, monkeypatch, name, k, size, dirs):
        from bikripke.theories import PL, is_valid
        new = self.outcomes(name, k, size, dirs)
        hows = {how for _, _, how, _ in new}
        assert "constant substitution" in hows or "single-world cone" in hows
        for f, status, how, _ in new:
            if how == "single-world cone":
                assert status == is_valid(PL, f), f
        monkeypatch.setattr(semantics, "_POOL_BYTES", 1)
        assert self.outcomes(name, k, size, dirs) == new
        monkeypatch.undo()
        monkeypatch.setattr(semantics, "_constant_refute", reference_constant_refute)
        assert self.outcomes(name, k, size, dirs) == new

    def test_budget_checked_before_any_table(self):
        import tracemalloc
        from bikripke.cli import thm5_model
        m = thm5_model()
        f = parse(" & ".join(f"p{i}" for i in range(19)) + " -> p0")
        ctx = semantics._ml_context(m)
        assert ctx.algebra is None and m.frame.props.reflexive
        ctx.dir_info(m, UP)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as err:
                ml_status(m, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "PL truth table exceeds 500000 assignments"
        # One value of the table takes 2^19 bits, 64 KB.
        assert peak < (1 << 19) // 8
        assert not ctx.tables


def dead_end_chain(n: int) -> PointedModel:
    """The irreflexive chain i -> i+1 pointed at its last world, which sees
    nothing."""
    rows = tuple(1 << (i + 1) if i + 1 < n else 0 for i in range(n))
    return PointedModel(Frame(n, rows), {}, n - 1)


class TestSingleWorldCone:
    def test_dead_end_of_long_chain(self):
        m = dead_end_chain(70)
        assert semantics._ml_context(m).algebra is None
        # p0 := empty refutes the first; the second holds under every
        # substitution, as <u> is false at a dead end.
        assert ml_status(m, parse("[u]p0 -> p0")).status is False
        assert ml_status(m, parse("<u>true -> p0")).status is True
        assert ml_status(m, parse("[u]false & ~<u>p0")).status is True
        assert ml_status(m, parse("[d]p0 -> p0")).status is not True

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from([(UP,), (DOWN,), (UP, DOWN)]))
    @example(252, (UP,))     # a point that sees nothing, in both directions
    @example(252, (DOWN,))
    def test_certified_routes_agree_with_sweep_on_any_frame(self, seed, dirs):
        r = random.Random(seed)
        m = random_model(r, max_n=4, letters=2)
        exact = PointedModel(m.frame, m.valuation, m.point)
        semantics._ml_context(m).algebra = None   # certified routes only
        for _ in range(8):
            f = random_formula(r, 7, letters=2, dirs=dirs)
            out = ml_status(m, f)
            if out.status is not None:
                want = ml_status(exact, f)
                assert want.how in ("exact sweep", "closed formula")
                assert out.status == want.status, (f, out.how)


def reference_family_cert(ctx, m, d):
    """The certificate the old route simulated through: find_family's first
    family on the ladder, certified a second time by check_independent."""
    from bikripke.controls import check_independent, find_family
    certs = ctx.__dict__.setdefault("reference_certs", {})
    if d not in certs:
        certs[d] = None
        shapes = ((2, 2), (2, 1), (1, 2), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1))
        for shape, horizon in itertools.product(shapes, (None, 2, 1, 0)):
            fam = find_family(m, m.point, d, *shape, horizon=horizon)
            if fam is not None:
                certs[d] = check_independent(m, fam, horizon=fam.horizon)
                break
    return certs[d]


def reference_monomodal(ctx, m, f, ls, d):
    """The old monomodal branch: is_valid for S5, S4.2 and S4 in turn, then
    decide for the countermodel to simulate."""
    from bikripke.controls import simulate_countermodel
    from bikripke.errors import InsufficientControls, VerificationFailed
    from bikripke.theories import S4, S4_2, S5, decide, is_valid
    frame = m.frame
    props = frame.props
    rt = props.reflexive and props.transitive
    directed = props.up_directed if d is UP else props.down_directed
    cone = frame.cone_mask(m.point, d)
    cone_cluster = all(frame.masks(d)[w] & cone == cone for w in WorldSet(frame.n, cone))
    if cone == 1 << m.point:
        return semantics.MlOutcome(not ctx.pl_failing(f, ls, not frame.masks(d)[m.point]),
                                   how="single-world cone")
    if props.reflexive:
        out = semantics._constant_refute(ctx, m, f, ls)
        if out is not None:
            return out
    if cone_cluster and is_valid(S5, f):
        return semantics.MlOutcome(True, how="S5 validity on cluster cone")
    if rt and directed and is_valid(S4_2, f):
        return semantics.MlOutcome(True, how="S4.2 validity on directed frame")
    if rt and is_valid(S4, f):
        return semantics.MlOutcome(True, how="S4 validity")
    if rt and (cone_cluster or directed):
        verdict = decide(S5 if cone_cluster else S4_2, f)
        if verdict.is_invalid and verdict.countermodel is not None:
            cert = reference_family_cert(ctx, m, d)
            if cert is not None:
                try:
                    sigma = simulate_countermodel(cert, f, verdict.countermodel)
                    return semantics.MlOutcome(False, witness=sigma,
                                               how="simulated countermodel")
                except (InsufficientControls, VerificationFailed):
                    pass
    return semantics.MlOutcome(None, how="unresolved")


def reference_ml_status(m, f):
    """ml_status's routes as they stood before the certified route asked one
    theory once: a monomodal branch of its own, and constant substitution
    called from both branches."""
    from bikripke.formula import Atom, Imp, directions
    ctx = semantics._ml_context(m)
    if not letters(f):
        return semantics.MlOutcome(ctx.constant_mask(f) >> m.point & 1 == 1,
                                   how="closed formula")
    ls = tuple(sorted(letters(f)))
    if ctx.algebra is not None:
        try:
            return semantics._sweep(ctx, m, f, ls)
        except BudgetExceeded:
            pass
    if (len(ls) == 1 and isinstance(f, Imp) and isinstance(f.left, Atom)
            and f.left.name == ls[0] and semantics._positive_only(f.right, ls[0])):
        env = dict(m.valuation)
        env[ls[0]] = 1 << m.point
        if (eval_mask(m, f.right, env=env) >> m.point) & 1:
            return semantics.MlOutcome(True, how="monotone rule")
    dirs = directions(f)
    if len(dirs) <= 1:
        out = reference_monomodal(ctx, m, f, ls, next(iter(dirs)) if dirs else UP)
        if out.status is not None:
            return out
    elif m.frame.props.reflexive:
        out = semantics._constant_refute(ctx, m, f, ls)
        if out is not None:
            return out
    out = semantics._probe_refute(m, f, ls)
    if out is not None:
        return out
    return semantics.MlOutcome(None, how="unresolved")


def same_as_reference(m, formulas):
    """(status, how, witness) of ml_status on m against the reference route
    on a copy of m, whose context is its own."""
    ref = PointedModel(m.frame, m.valuation, m.point)
    semantics._ml_context(ref).algebra = semantics._ml_context(m).algebra
    for f in formulas:
        got, want = ml_status(m, f), reference_ml_status(ref, f)
        assert (got.status, got.how, got.witness) == (want.status, want.how, want.witness), f


class TestOneCertifiedRoute:
    """The certified route asks the governing theory once, and answers as the
    route it replaced, kept above as reference_ml_status."""

    @pytest.mark.parametrize("name, d, route", [
        ("thm4_model", UP, "single-world cone"),
        ("thm4_model", DOWN, "simulated countermodel"),
        ("thm5_model", UP, "simulated countermodel"),
        ("thm5_model", DOWN, "simulated countermodel")])
    def test_lattice_fragments_equal_reference(self, name, d, route):
        from bikripke import cli
        hows = set()
        for k, size in ((1, 6), (2, 4)):
            m = getattr(cli, name)()
            formulas = list(enumerate_formulas(k, size, {d}))
            same_as_reference(m, formulas)
            hows |= {ml_status(m, f).how for f in formulas}
        assert route in hows

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(["any", "reflexive", "preorder"]),
           st.sampled_from([(UP,), (DOWN,), (UP, DOWN)]))
    def test_small_models_equal_reference(self, seed, kind, dirs):
        r = random.Random(seed)
        if kind == "any":
            m = random_model(r, max_n=6, letters=2)
        else:
            m = reflexive_model(r, transitive=kind == "preorder")
        semantics._ml_context(m).algebra = None   # certified routes only
        same_as_reference(m, [random_formula(r, 7, letters=2, dirs=dirs)
                              for _ in range(8)])

    @pytest.mark.parametrize("text", ["<u>p0 -> [u]p0", "[u](<u>p0 -> p0)",
                                      "~(<u>~p0 & p0)"])
    def test_simulated_countermodel_compiles_once(self, monkeypatch, text):
        from bikripke import theories
        from bikripke.cli import thm5_model
        compiled = []
        compile_ = theories._compile
        monkeypatch.setattr(theories, "_compile",
                            lambda g: compiled.append(g) or compile_(g))
        f = parse(text)
        monkeypatch.setattr(theories, "_store", {})
        want = reference_ml_status(thm5_model(), f)
        assert len(compiled) == 2       # is_valid, then decide for the countermodel
        del compiled[:]
        monkeypatch.setattr(theories, "_store", {})
        got = ml_status(thm5_model(), f)
        assert len(compiled) == 1
        assert got.how == "simulated countermodel"
        assert (got.status, got.how, got.witness) == (want.status, want.how, want.witness)


def route_work(route):
    """(a fresh model, its formulas) whose ml_status answers take route."""
    from bikripke import cli
    if route == "exact sweep":
        return (combo_frame("cluster_below_bs", 2, 2, 1),
                list(enumerate_formulas(2, 4, {UP, DOWN})))
    if route == "simulated countermodel":
        return cli.thm5_model(), list(enumerate_formulas(1, 5, {UP}))
    if route == "single-world cone":
        return cli.thm4_model(), list(enumerate_formulas(1, 5, {UP}))
    return cli.thm4_model(), [parse(t) for t in ("<u>[u]true -> [d]false", "[d]<u>true",
                                                  "~<d>[u]false | [u]<d>true")]


class TestContextFreed:
    """A model's context holds nothing that refers back to the model or to
    the context, so reference counting alone frees it with the model: with
    the cycle collector off, it is gone at `del m`."""

    ROUTES = ["exact sweep", "simulated countermodel", "single-world cone",
              "closed formula"]

    @pytest.mark.parametrize("route", ROUTES)
    def test_freed_at_del_without_collector(self, route):
        import gc
        import weakref
        gc.disable()
        try:
            m, formulas = route_work(route)
            assert route in {ml_status(m, f).how for f in formulas}
            ctx = semantics._ml_context(m)
            kept = [weakref.ref(ctx)]
            if route == "simulated countermodel":
                masks = ctx.control_masks[UP]
                cert = next(c for c in masks.ladders.values() if c is not None)
                assert cert.family.base is not m
                kept += [weakref.ref(masks), weakref.ref(cert)]
                del masks, cert
            del m, ctx
            assert all(ref() is None for ref in kept)
        finally:
            gc.enable()

    @pytest.mark.parametrize("route", ROUTES)
    def test_memory_back_to_baseline(self, route):
        import gc
        import tracemalloc
        from bikripke import theories

        def run(formulas):
            m = route_work(route)[0]
            for f in formulas:
                ml_status(m, f)
            return semantics._ml_context(m).held

        def empty_module_stores():
            theories._store.clear()
            for store in (theories._modal, theories._count_atoms, theories._s5_atoms):
                store.cache_clear()

        # The formulas stay alive, and the module-level stores (the verdict
        # store and the block engine's memos) are emptied at both ends, so
        # what a run leaves behind is the model's.
        formulas = route_work(route)[1]
        run(formulas)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            empty_module_stores()
            before = tracemalloc.get_traced_memory()[0]
            held = run(formulas)
            empty_module_stores()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held > 0
        assert after - before < 256 << 10, (after - before, held)


def _deep_formula(depth: int):
    from bikripke.formula import Atom, Not
    f = Atom("p0")
    for _ in range(depth):
        f = Not(Box(UP, f))
    return f


class TestDeepFormulas:
    """Formulas built in code can nest past the recursion limit; the entry
    points report that as a budget, not as a RecursionError."""

    def test_eval_mask(self):
        m = chain2_model()
        with pytest.raises(BudgetExceeded):
            eval_mask(m, _deep_formula(3000))
        with pytest.raises(BudgetExceeded):
            eval_formula(m, _deep_formula(3000))

    def test_ml_status(self):
        m = chain2_model()
        with pytest.raises(BudgetExceeded):
            ml_status(m, _deep_formula(3000))
        with pytest.raises(BudgetExceeded):
            ml_member(m, _deep_formula(3000))
        assert ml_status(m, _deep_formula(3)).status is not None

    def test_print_substitute_polarity(self):
        from bikripke.formula import polarity, print_formula
        f = _deep_formula(3000)
        for show in (print_formula, str, repr):
            with pytest.raises(BudgetExceeded):
                show(f)
        with pytest.raises(BudgetExceeded):
            substitute(f, {"p0": Top()})
        with pytest.raises(BudgetExceeded):
            polarity(f, "p0")
        g = _deep_formula(3)
        assert str(g) == "~[u]~[u]~[u]p0"
        assert substitute(g, {"p0": Top()}) == parse("~[u]~[u]~[u]true")
        assert polarity(g, "p0") == -1

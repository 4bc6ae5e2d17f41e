import itertools
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from bikripke import frame as frame_module
from bikripke.errors import (
    BadWorldIndex,
    BudgetExceeded,
    FrameParseError,
    OverlappingIndexSets,
)
from bikripke.formula import DOWN, UP
from bikripke.frame import (
    Frame,
    PointedModel,
    WorldSet,
    bs_frame,
    bs_model,
    chain,
    cluster,
    combo_frame,
    load,
    loads,
    make_frame,
    powerset_frame,
    properties,
    dumps,
    save,
    single_point,
)
from .conftest import random_model


class TestWorldSet:
    def test_ops(self):
        a = WorldSet.of(5, [0, 2])
        b = WorldSet.of(5, [2, 3])
        assert sorted(a & b) == [2]
        assert sorted(a | b) == [0, 2, 3]
        assert sorted(~a) == [1, 3, 4]
        assert len(a) == 2
        assert 2 in a and 1 not in a
        assert a <= (a | b)

    def test_bad_index(self):
        with pytest.raises(BadWorldIndex):
            WorldSet.of(3, [3])


class TestConstructors:
    def test_make_frame_single_reflexive(self):
        f = make_frame(1, [], {"reflexive"})
        assert f == single_point()

    def test_make_frame_closure(self):
        f = make_frame(2, [(0, 1)], {"reflexive", "transitive"})
        assert f == chain(2)
        g = make_frame(3, [(0, 1), (1, 2)], {"transitive"})
        assert g.up(0, 2)

    def test_make_frame_bad_edge(self):
        with pytest.raises(BadWorldIndex):
            make_frame(2, [(0, 5)])

    def test_cluster_chain(self):
        assert cluster(1) == single_point()
        assert len(cluster(3).edges()) == 9
        assert sorted(chain(2).edges()) == [(0, 0), (0, 1), (1, 1)]
        assert chain(3).props.antisymmetric
        assert not cluster(2).props.antisymmetric

    def test_bs_frame(self):
        f0, r0 = bs_frame(0, 0)
        assert f0 == single_point() and r0 == 0
        f1, _ = bs_frame(1, 0)
        assert f1 == chain(2)
        f2, root = bs_frame(1, 1)
        assert f2.n == 4
        assert len(f2.successors(root)) == 4
        props = f2.props
        assert props.reflexive and props.transitive
        assert props.up_directed and props.down_directed

    def test_bs_budget(self):
        with pytest.raises(BudgetExceeded):
            bs_frame(10, 10)

    def test_make_frame_budget_before_allocation(self):
        with pytest.raises(BudgetExceeded):
            make_frame(100_000_000_000, [])

    def test_powerset_letters(self):
        m = powerset_frame([0], [], [0])
        # b0 is true exactly where index 0 is absent: the empty set, world 0.
        assert sorted(m.letter_set("b0")) == [0]
        m2 = powerset_frame([], [[1, 2]], [1, 2])
        # s1 true at {1,2} (least present at class position 0) and at {1};
        # false at {2} (position 1) and at the empty set by convention.
        assert sorted(m2.letter_set("s1")) == [1, 3]

    def test_powerset_directed(self):
        m = powerset_frame([0], [[1, 2]], [0, 1, 2])
        props = m.frame.props
        assert props.up_directed and props.down_directed
        assert m.frame.n == 8

    @pytest.mark.parametrize("frame", [
        bs_frame(2, 2)[0],
        bs_frame(0, 2)[0],
        powerset_frame([0, 1], [[2, 3]], [0, 1]).frame,
        powerset_frame([], [[0, 1, 2]], []).frame,
    ])
    def test_bs_and_powerset_class_flags(self, frame):
        props = frame.props
        assert props.reflexive and props.transitive
        assert props.up_directed and props.down_directed

    def test_powerset_overlap(self):
        with pytest.raises(OverlappingIndexSets):
            powerset_frame([0], [[0, 1]], [0])

    @pytest.mark.parametrize("build", [
        lambda: PointedModel(single_point(), {"X": 1}, 0),
        lambda: PointedModel(single_point(), {"true": 1}, 0),
        lambda: powerset_frame([-1], [], []),     # letter b-1
    ], ids=["upper", "keyword", "negative-button"])
    def test_valuation_keys_are_letters(self, build):
        # Every later Atom(letter), as in the control and probe searches,
        # would raise; the constructor refuses the key as Atom does.
        with pytest.raises(ValueError, match="bad letter identifier"):
            build()

    def test_powerset_down_cone_is_subset_lattice(self):
        # The down-cone of the point, ordered by up, is the subset lattice
        # of the point (tested for point sizes <= 4).
        for k in range(1, 5):
            idx = list(range(k))
            m = powerset_frame(idx, [], idx)
            cone = sorted(WorldSet(m.frame.n, m.frame.cone_mask(m.point, DOWN)))
            assert len(cone) == 1 << k
            for a, b in itertools.product(cone, repeat=2):
                assert m.frame.up(a, b) == (a & b == a)

    def test_combo_below_c1_is_bs(self):
        m = combo_frame("cluster_below_bs", 1, 1, 0)
        base = bs_model(1, 0)
        assert m.frame.n == base.frame.n
        assert m.frame.props.reflexive and m.frame.props.transitive

    def test_combo_below_counts(self):
        m = combo_frame("cluster_below_bs", 2, 1, 0)
        # bs(1,0) has 2 worlds; the root is replaced by a 2-cluster.
        assert m.frame.n == 3
        assert m.letter_set("k0") != m.letter_set("k1")

    def test_combo_above_cones(self):
        m = combo_frame("cluster_above_bs", 2, 1, 0)
        up_cone = m.frame.cone_mask(m.point, UP)
        down_cone = m.frame.cone_mask(m.point, DOWN)
        assert down_cone == (1 << m.frame.n) - 1
        assert bin(up_cone).count("1") == 2

    def test_combo_props(self):
        for kind in ("cluster_below_bs", "cluster_above_bs"):
            m = combo_frame(kind, 2, 2, 1)
            props = m.frame.props
            assert props.reflexive and props.transitive
            assert props.up_directed and props.down_directed


class TestConverseCoherence:
    def test_random_frames(self, rng):
        for _ in range(60):
            m = random_model(rng, max_n=10)
            f = m.frame
            for i in range(f.n):
                for j in range(f.n):
                    assert f.down(i, j) == f.up(j, i)

    def test_directedness_fork(self):
        fork = make_frame(3, [(0, 1), (0, 2)], {"reflexive", "transitive"})
        assert not fork.props.up_directed

    def test_single_point_all_flags(self):
        props = properties(single_point())
        assert props.reflexive and props.transitive and props.antisymmetric
        assert props.up_directed and props.down_directed


def pairwise_antisymmetric(f: Frame) -> bool:
    """Reference: no two distinct worlds see each other."""
    return not any(f.up(i, j) and f.up(j, i)
                   for i in range(f.n) for j in range(f.n) if i != j)


def pairwise_directed(f: Frame, d) -> bool:
    """Reference: any two worlds of one d-cone share a d-successor."""
    for w in range(f.n):
        cone = list(WorldSet(f.n, f.cone_mask(w, d)))
        for i, j in itertools.combinations_with_replacement(cone, 2):
            if f.masks(d)[i] & f.masks(d)[j] == 0:
                return False
    return True


@st.composite
def small_frames(draw):
    n = draw(st.integers(1, 7))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    closure = draw(st.sampled_from([set(), {"reflexive"}, {"reflexive", "transitive"}]))
    return make_frame(n, [(i, j) for i in range(n) for j in range(n)
                          if (rows[i] >> j) & 1], closure)


class TestPropsByBitOperations:
    @settings(max_examples=300, deadline=None)
    @given(small_frames())
    @example(make_frame(3, [(0, 1), (0, 2)], {"reflexive", "transitive"}))
    @example(make_frame(3, [(1, 0), (2, 0)], {"reflexive", "transitive"}))
    @example(chain(4))
    @example(cluster(3))
    @example(single_point())
    def test_flags_equal_pairwise_definitions(self, f):
        props = f.props
        assert props.antisymmetric == pairwise_antisymmetric(f)
        assert props.up_directed == pairwise_directed(f, UP)
        assert props.down_directed == pairwise_directed(f, DOWN)


# ---------------------------------------------------------------------------
# Reference constructors: one loop per world set, supersets enumerated per
# set (3^k steps), as the frames were first built.  The library's must
# build the same rows, names, valuations and points.
# ---------------------------------------------------------------------------

def ref_down_masks(f: Frame) -> tuple[int, ...]:
    down = [0] * f.n
    for i in range(f.n):
        for j in range(f.n):
            if (f.up_masks[i] >> j) & 1:
                down[j] |= 1 << i
    return tuple(down)


def ref_cone_mask(f: Frame, w: int, d) -> int:
    masks = f.up_masks if d is UP else ref_down_masks(f)
    seen = frontier = 1 << w
    while frontier:
        nxt = 0
        for v in range(f.n):
            if (frontier >> v) & 1:
                nxt |= masks[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def ref_transitive(f: Frame) -> bool:
    up = f.up_masks
    return not any((up[i] >> j) & 1 and (up[j] >> k) & 1 and not (up[i] >> k) & 1
                   for i in range(f.n) for j in range(f.n) for k in range(f.n))


def ref_make_frame(n, edges, close=frozenset(), name="f") -> Frame:
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
    if "transitive" in close:
        changed = True
        while changed:
            changed = False
            for i in range(n):
                reach = masks[i]
                for j in range(n):
                    if (masks[i] >> j) & 1:
                        reach |= masks[j]
                if reach != masks[i]:
                    masks[i] = reach
                    changed = True
    if "reflexive" in close:
        for i in range(n):
            masks[i] |= 1 << i
    return Frame(n, tuple(masks), name)


def ref_cluster(c: int) -> Frame:
    full = (1 << c) - 1
    return Frame(c, tuple(full for _ in range(c)), f"cluster{c}")


def ref_chain(h: int) -> Frame:
    full = (1 << h) - 1
    return Frame(h, tuple((full >> i) << i for i in range(h)), f"chain{h}")


def _ref_supersets(k: int, s: int) -> list[int]:
    rest = ((1 << k) - 1) & ~s
    sups = [s]
    sub = rest
    while sub:
        sups.append(s | sub)
        sub = (sub - 1) & rest
    return sups


def ref_bs_frame(m: int, n: int) -> tuple[Frame, int]:
    tcount = 1 << n
    tfull = (1 << tcount) - 1
    masks = []
    for a in range(1 << m):
        row = 0
        for a2 in _ref_supersets(m, a):
            row |= tfull << (a2 * tcount)
        masks.extend([row] * tcount)
    return Frame(len(masks), tuple(masks), f"bs{m}_{n}"), 0


def ref_bs_model(m: int, n: int) -> PointedModel:
    frame, root = ref_bs_frame(m, n)
    tcount = 1 << n
    val = {}
    for i in range(1, m + 1):
        val[f"b{i}"] = sum(((1 << tcount) - 1) << (a * tcount)
                           for a in range(1 << m) if (a >> (i - 1)) & 1)
    for j in range(1, n + 1):
        val[f"s{j}"] = sum(1 << w for w in range(frame.n) if (w >> (j - 1)) & 1)
    return PointedModel(frame, val, root)


def ref_powerset_frame(buttons, classes, point) -> PointedModel:
    buttons = sorted(set(buttons))
    universe = sorted(set(buttons).union(*map(set, classes)))
    pos = {idx: p for p, idx in enumerate(universe)}
    k = len(universe)
    n_worlds = 1 << k
    rows = tuple(sum(1 << t for t in _ref_supersets(k, s)) for s in range(n_worlds))
    val = {f"b{i}": sum(1 << s for s in range(n_worlds) if not s & (1 << pos[i]))
           for i in buttons}
    for j, cls in enumerate(classes, start=1):
        mask = 0
        for s in range(n_worlds):
            least = next((p for p, idx in enumerate(cls) if s & (1 << pos[idx])), None)
            if least is not None and least % 2 == 0:
                mask |= 1 << s
        val[f"s{j}"] = mask
    return PointedModel(Frame(n_worlds, rows, f"powerset{k}"), val,
                        sum(1 << pos[i] for i in set(point)))


def ref_combo_frame(kind: str, c: int, m: int, n: int) -> PointedModel:
    base = ref_bs_model(m, n)
    keep = [w for w in range(base.frame.n) if w != base.point]
    remap = {w: i for i, w in enumerate(keep)}
    total = len(keep) + c
    cluster_ids = list(range(len(keep), total))
    cluster_mask = sum(1 << w for w in cluster_ids)

    def squash(mask):
        return sum(1 << remap[w] for w in keep if (mask >> w) & 1)

    bs_rows = [squash(base.frame.up_masks[w]) for w in keep]
    masks = [0] * total
    if kind == "cluster_below_bs":
        reach = squash(base.frame.up_masks[base.point])
        masks[:len(keep)] = bs_rows
        for w in cluster_ids:
            masks[w] = cluster_mask | reach
    else:
        for i in range(len(keep)):
            masks[i] = cluster_mask | sum(1 << j for j in range(len(keep))
                                          if (bs_rows[j] >> i) & 1)
        for w in cluster_ids:
            masks[w] = cluster_mask
    val = {letter: squash(mask) for letter, mask in base.valuation.items()}
    for i, w in enumerate(cluster_ids):
        val[f"k{i}"] = 1 << w
    return PointedModel(Frame(total, tuple(masks), f"combo_{kind}_{c}_{m}_{n}"),
                        val, cluster_ids[0])


def assert_same_frame(got: Frame, want: Frame):
    assert (got.n, got.up_masks, got.name) == (want.n, want.up_masks, want.name)
    assert got.down_masks == ref_down_masks(want)


def assert_same_model(got: PointedModel, want: PointedModel):
    assert_same_frame(got.frame, want.frame)
    assert (got.valuation, got.point) == (want.valuation, want.point)
    assert dumps(got) == dumps(want)


_partitions = st.integers(0, 8).flatmap(lambda k: st.tuples(
    st.permutations(range(k)), st.lists(st.integers(0, k), min_size=3, max_size=3),
    st.sets(st.integers(0, max(k - 1, 0)), max_size=k)))


class TestConstructorsEqualReference:
    @pytest.mark.parametrize("size", range(1, 30))
    def test_chain_and_cluster(self, size):
        assert_same_frame(chain(size), ref_chain(size))
        assert_same_frame(cluster(size), ref_cluster(size))

    @pytest.mark.parametrize("m, n", itertools.product(range(6), range(4)))
    def test_bs(self, m, n):
        (got, root), (want, want_root) = bs_frame(m, n), ref_bs_frame(m, n)
        assert_same_frame(got, want)
        assert root == want_root
        assert_same_model(bs_model(m, n), ref_bs_model(m, n))

    @pytest.mark.parametrize("kind", ["cluster_below_bs", "cluster_above_bs"])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_combo(self, kind, c):
        for m, n in itertools.product(range(6), range(4)):
            assert_same_model(combo_frame(kind, c, m, n), ref_combo_frame(kind, c, m, n))

    @settings(max_examples=60, deadline=None)
    @given(_partitions)
    @example(((), [0, 0, 0], set()))
    @example((tuple(range(8)), [2, 3, 3], {0, 1, 2, 3, 4, 5, 6, 7}))
    def test_powerset(self, shape):
        # Indices in a drawn order, cut into buttons and up to three classes.
        order, cuts, point = shape
        lo, *bounds = sorted(cuts)
        parts = [list(order[a:b]) for a, b in zip([lo] + bounds, bounds + [len(order)])]
        args = (list(order[:lo]), [p for p in parts if p], point & set(order))
        assert_same_model(powerset_frame(*args), ref_powerset_frame(*args))

    @pytest.mark.parametrize("point", [range(8), [0, 1, 3, 4, 6, 7]])
    def test_thm4_thm5_models(self, point):
        args = ([0, 1], [[2, 3, 4], [5, 6, 7]], point)
        assert_same_model(powerset_frame(*args), ref_powerset_frame(*args))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=3 * n))))
    def test_make_frame_props_and_cones(self, drawn):
        n, edges = drawn
        for close in ({"reflexive"}, {"transitive"}, {"reflexive", "transitive"}, set()):
            got, want = make_frame(n, edges, close), ref_make_frame(n, edges, close)
            assert_same_frame(got, want)
            props = got.props
            assert props.reflexive == all((want.up_masks[i] >> i) & 1 for i in range(n))
            assert props.transitive == ref_transitive(want)
            assert props.antisymmetric == pairwise_antisymmetric(want)
            assert props.up_directed == pairwise_directed(want, UP)
            assert props.down_directed == pairwise_directed(want, DOWN)
            for d in (UP, DOWN):
                assert [got.cone_mask(w, d) for w in range(n)] == \
                    [ref_cone_mask(want, w, d) for w in range(n)]

    def test_powerset_k14_within_a_second(self):
        # Top-down superset rows: k 2^k steps.  Enumerating each set's
        # supersets (3^14 steps) took over 2 s.
        start = time.perf_counter()
        m = powerset_frame(range(14), [], [])
        assert time.perf_counter() - start < 1.0
        assert m.frame.up_masks[0] == (1 << (1 << 14)) - 1


class TestBudgetBeforeBuilding:
    """Each constructor checks WORLD_BUDGET from its arguments before it
    builds a row: with the budget at 1,000, building first peaked at 51.6 MB
    (chain), 78.1 MB (cluster) and 25.4 MB (bs_frame)."""

    @pytest.mark.parametrize("build", [lambda: chain(20_000), lambda: cluster(10 ** 7),
                                       lambda: bs_frame(10 ** 8, 0)],
                             ids=["chain", "cluster", "bs_frame"])
    def test_traced_peak_under_1mb(self, monkeypatch, build):
        monkeypatch.setattr(frame_module, "WORLD_BUDGET", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bs_budget_edge(self, monkeypatch):
        monkeypatch.setattr(frame_module, "WORLD_BUDGET", 1000)
        assert bs_frame(5, 4)[0].n == 512
        with pytest.raises(BudgetExceeded):
            bs_frame(5, 5)


class TestFileFormat:
    def test_save_single_point(self, tmp_path):
        path = tmp_path / "sp.frame"
        save(single_point(), str(path))
        text = path.read_text()
        assert "worlds 1" in text
        assert "up 0 0" in text

    def test_roundtrip_frame(self, tmp_path):
        f = make_frame(3, [(0, 1), (1, 2)], {"reflexive", "transitive"})
        path = tmp_path / "f.frame"
        save(f, str(path))
        assert load(str(path)) == f

    def test_roundtrip_powerset_model(self, tmp_path):
        m = powerset_frame([0], [[1, 2]], [0, 1, 2])
        path = tmp_path / "m.frame"
        save(m, str(path))
        assert load(str(path)) == m

    def test_roundtrip_random_models(self, rng, tmp_path):
        for i in range(25):
            m = random_model(rng, max_n=9)
            path = tmp_path / f"r{i}.frame"
            save(m, str(path))
            assert load(str(path)) == m

    def test_bad_world_reference(self):
        with pytest.raises(FrameParseError) as exc:
            loads("frame f\nworlds 3\nup 0 5\nend\n")
        assert exc.value.line == 3

    def test_closure_directive(self):
        m = loads("frame f\nworlds 2\nup 0 1\nclosure reflexive transitive\n"
                  "point 0\nend\n")
        assert m.frame == chain(2)

    def test_comments_and_blanks(self):
        f = loads("# header\nframe f\n\nworlds 1\nup 0 0  # loop\nend\n")
        assert f == single_point()

    def test_world_budget_checked_while_reading(self):
        with pytest.raises(BudgetExceeded):
            loads("frame f\nworlds 100000000000\nup 0 0\nend\n")

    def test_missing_end(self):
        with pytest.raises(FrameParseError):
            loads("frame f\nworlds 1\nup 0 0\n")

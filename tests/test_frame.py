import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from bikripke.errors import (
    BadWorldIndex,
    BudgetExceeded,
    FrameParseError,
    OverlappingIndexSets,
)
from bikripke.formula import DOWN, UP
from bikripke.frame import (
    Frame,
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

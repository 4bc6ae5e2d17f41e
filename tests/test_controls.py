import itertools

import pytest

from bikripke.controls import (
    ControlFamily,
    FailureWitness,
    IndependenceCertificate,
    check_independent,
    find_family,
    is_button,
    is_pushed,
    is_switch,
    simulate_countermodel,
)
from bikripke.errors import InsufficientControls, VerificationFailed
from bikripke.formula import (
    DOWN,
    UP,
    Atom,
    Box,
    Dia,
    Imp,
    Not,
    Top,
    parse,
    substitute,
)
from bikripke.cli import corpus, thm4_model, thm5_model
from bikripke.frame import (
    PointedModel,
    WorldSet,
    bs_model,
    chain,
    cluster,
    combo_frame,
    powerset_frame,
)
from bikripke.controls import _control_masks, _first_certificate
from bikripke.formula import And
from bikripke.semantics import eval_mask, holds_at
from bikripke.theories import S4_2, S5, decide


def thm4_style_model():
    return powerset_frame([0, 1], [[2, 3, 4], [5, 6, 7]], range(8))


class TestPredicates:
    def test_powerset_down_button(self):
        m = powerset_frame([0], [[1, 2]], [0, 1, 2])
        b0 = Atom("b0")
        assert is_button(m, m.point, b0, DOWN)
        assert not is_pushed(m, m.point, b0, DOWN)
        # below the world where the factor is gone the button is pushed
        ground = m.point & ~1  # remove index 0 (bit position 0)
        assert is_pushed(m, ground, b0, DOWN)

    def test_top_is_pushed_button(self):
        m = bs_model(1, 1)
        assert is_button(m, 0, Top(), UP)
        assert is_pushed(m, 0, Top(), UP)

    def test_switch_on_cluster(self):
        m = PointedModel(cluster(3), {"p": 0b010}, 0)
        assert is_switch(m, 0, Atom("p"), UP)

    def test_parity_letter_not_strict_switch_on_lattice(self):
        # The subset lattice has a bottom world where nothing can change,
        # so no formula is a switch under the strict reading.
        m = thm4_style_model()
        assert not is_switch(m, m.point, Atom("s1"), DOWN)

    def test_bs_switch_bits_are_strict_switches(self):
        m = bs_model(1, 1)
        assert is_switch(m, 0, Atom("s1"), UP)
        assert is_button(m, 0, Atom("b1"), UP)
        assert not is_pushed(m, 0, Atom("b1"), UP)


class TestCertificates:
    @pytest.mark.parametrize("mb,ns", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_bs_families_certify_strict(self, mb, ns):
        m = bs_model(mb, ns)
        fam = ControlFamily(UP,
                            tuple(Atom(f"b{i}") for i in range(1, mb + 1)),
                            tuple(Atom(f"s{j}") for j in range(1, ns + 1)),
                            m)
        cert = check_independent(m, fam)
        assert isinstance(cert, IndependenceCertificate)
        assert len(cert.table) == m.frame.n

    def test_chain_single_button(self):
        m = PointedModel(chain(2), {"p": 0b10}, 0)
        fam = ControlFamily(UP, (Atom("p"),), (), m)
        cert = check_independent(m, fam)
        assert isinstance(cert, IndependenceCertificate)

    def test_bs_button_is_not_switch(self):
        m = bs_model(1, 0)
        fam = ControlFamily(UP, (), (Atom("b1"),), m)
        witness = check_independent(m, fam)
        assert isinstance(witness, FailureWitness)
        assert "not a switch" in witness.reason

    def test_lattice_needs_horizon(self):
        m = thm4_style_model()
        fam = ControlFamily(DOWN, (Atom("b0"), Atom("b1")), (Atom("s1"),), m)
        strict = check_independent(m, fam)
        assert isinstance(strict, FailureWitness)
        cert = check_independent(m, fam, horizon=1)
        assert isinstance(cert, IndependenceCertificate)

    def test_certificate_entries_recheck(self):
        m = bs_model(2, 1)
        fam = ControlFamily(UP, (Atom("b1"), Atom("b2")), (Atom("s1"),), m)
        cert = check_independent(m, fam)
        assert isinstance(cert, IndependenceCertificate)
        pushed_sets = [eval_mask(m, Box(UP, b)) for b in fam.buttons]
        switch_sets = [eval_mask(m, s) for s in fam.switches]
        for u, row in cert.table.items():
            for (bt, t), w in row.items():
                assert m.frame.up(u, w)
                assert all(((pm >> w) & 1) == ((bt >> i) & 1)
                           for i, pm in enumerate(pushed_sets))
                assert all(((sm >> w) & 1) == ((t >> j) & 1)
                           for j, sm in enumerate(switch_sets))


class TestFindFamily:
    def test_powerset_letters_found(self):
        m = powerset_frame([0, 1], [[2, 3, 4]], range(5))
        fam = find_family(m, m.point, DOWN, 2, 1, horizon=1)
        assert fam is not None
        assert set(fam.buttons) == {Atom("b0"), Atom("b1")}
        assert fam.switches == (Atom("s1"),)

    def test_single_point_no_button(self):
        from bikripke.frame import single_point
        m = PointedModel(single_point(), {"p": 1}, 0)
        assert find_family(m, 0, UP, 1, 0) is None

    def test_cluster_switch_only(self):
        m = PointedModel(cluster(3), {"p": 0b010}, 0)
        fam = find_family(m, 0, UP, 0, 1)
        assert fam is not None
        assert fam.switches == (Atom("p"),)

    def test_persistence_downward_on_powersets(self):
        # An upward family certified at S stays certified at every subset of
        # S (upward S4.2 machinery is downwards necessary).
        m = powerset_frame([0, 1], [[2, 3]], [0, 1, 2, 3])
        fam = find_family(m, m.point, UP, 1, 1)
        assert fam is None  # the lattice top kills strict upward switches
        # switch-free upward button families do persist
        for point_mask in range(m.frame.n):
            sub = PointedModel(m.frame, m.valuation, point_mask)
            buttons = [Atom(l) for l in ("b0", "b1")
                       if is_button(sub, point_mask, Not(Atom(l)), UP)
                       and not is_pushed(sub, point_mask, Not(Atom(l)), UP)]
            fam2 = ControlFamily(UP, tuple(Not(b) for b in
                                           (Atom("b0"), Atom("b1"))
                                           if not is_pushed(sub, point_mask,
                                                            Not(b), UP)), (), sub)
            cert = check_independent(sub, fam2)
            assert isinstance(cert, IndependenceCertificate)


class TestSimulate:
    def _cert(self, m, dir, nb, ns, horizon=None):
        fam = find_family(m, m.point, dir, nb, ns, horizon=horizon)
        assert fam is not None
        cert = check_independent(m, fam, horizon=horizon)
        assert isinstance(cert, IndependenceCertificate)
        return cert

    def test_five_axiom_via_buttons(self):
        m = bs_model(1, 0)
        cert = self._cert(m, UP, 1, 0)
        f = parse("<u>[u]p -> p")
        cm = decide(S4_2, f).countermodel
        sigma = simulate_countermodel(cert, f, cm)
        inst = substitute(f, sigma)
        assert not holds_at(m, m.point, inst)

    def test_b_axiom_on_powerset_down(self):
        m = powerset_frame([0], [], [0])
        fam = ControlFamily(DOWN, (Atom("b0"),), (), m)
        cert = check_independent(m, fam)
        assert isinstance(cert, IndependenceCertificate)
        f = parse("<u>p -> [u]<u>p")
        cm = decide(S4_2, f).countermodel
        sigma = simulate_countermodel(cert, f, cm)
        inst = substitute(parse("<d>p -> [d]<d>p"), sigma)
        assert not holds_at(m, m.point, inst)

    def test_switch_only_covers_s5_refutations(self):
        m = PointedModel(cluster(4), {"q0": 0b0011, "q1": 0b0101}, 0)
        cert = self._cert(m, UP, 0, 2)
        for text in ("[u]p0 -> [u][u]p0 & p1", "<u>p0 -> p0",
                     "~[u]p0 -> [u]~[u]p0", "[u](p0 -> p1) -> ([u]p0 -> p1)"):
            f = parse(text)
            v = decide(S5, f)
            if not v.is_invalid:
                continue
            sigma = simulate_countermodel(cert, f, v.countermodel)
            assert not holds_at(m, m.point, substitute(f, sigma))

    def test_insufficient_controls(self):
        m = bs_model(1, 0)
        cert = self._cert(m, UP, 1, 0)
        # box p or box not-p fails only on a two-world cluster, which needs
        # a switch the family does not have
        f = parse("~[u]p -> [u]~p")
        v = decide(S5, f)
        assert v.is_invalid
        with pytest.raises(InsufficientControls):
            simulate_countermodel(cert, f, v.countermodel)

    def test_verification_failure_on_dead_end_artifact(self):
        # McKinsey-style formulas hold at every point of a finite lattice
        # under every substitution (the bottom world is a dead end), so the
        # simulation must refuse them rather than return an unsound witness.
        m = thm4_style_model()
        fam = find_family(m, m.point, DOWN, 2, 1, horizon=1)
        cert = check_independent(m, fam, horizon=1)
        f = parse("[u]<u>p -> <u>[u]p")
        cm = decide(S4_2, f).countermodel
        with pytest.raises(VerificationFailed):
            simulate_countermodel(cert, f, cm)


class TestMixedButtons:
    def test_factor_letters_yield_mixed_buttons(self):
        m = thm4_style_model()
        # At the full point every button letter is an unpushed down button
        # whose negation is a pushed up button; at the empty point the dual
        # holds.  At intermediate points the split drives the impossibility.
        mid = PointedModel(m.frame, m.valuation, 0b00000001)
        b0, b1 = Atom("b0"), Atom("b1")
        assert is_button(mid, mid.point, b0, DOWN)
        assert not is_pushed(mid, mid.point, b0, DOWN)
        assert is_button(mid, mid.point, Not(b1), UP)
        assert not is_pushed(mid, mid.point, Not(b1), UP)

    def test_no_point_has_both_five_instances(self):
        m = thm4_style_model()
        for w in range(m.frame.n):
            for l in ("b0", "b1"):
                f = Atom(l)
                down_ok = holds_at(m, w, Imp(Dia(DOWN, Box(DOWN, f)), f))
                up_ok = holds_at(m, w, Imp(Dia(UP, Box(UP, Not(f))), Not(f)))
                assert not (down_ok and up_ok)


# -- Reference family search ---------------------------------------------------
# The search as it was written before it shared masks: every candidate and
# every family re-evaluated by model checks, the configuration classes built
# world by world.  The shared-mask search must return what this returns.

def _ref_cover_depths(m, dir):
    n = m.frame.n
    succ = m.frame.masks(dir)
    pred = m.frame.masks(dir.converse)
    cone = m.frame.cone_mask(m.point, dir)
    depth = {m.point: 0}
    frontier = [m.point]
    while frontier:
        nxt = []
        for u in frontier:
            for v in WorldSet(n, succ[u] & cone & ~(1 << u)):
                if v in depth or succ[u] & pred[v] & ~(1 << u) & ~(1 << v):
                    continue
                depth[v] = depth[u] + 1
                nxt.append(v)
        frontier = nxt
    return depth


def _ref_scope(m, dir, horizon):
    if horizon is None:
        return sorted(WorldSet(m.frame.n, m.frame.cone_mask(m.point, dir)))
    return sorted(u for u, d in _ref_cover_depths(m, dir).items() if d <= horizon)


def _ref_check_independent(m, family, horizon=None):
    dir = family.direction
    n = m.frame.n
    point = m.point
    scope = _ref_scope(m, dir, horizon)
    nb, ns = len(family.buttons), len(family.switches)
    for b in family.buttons:
        if not is_button(m, point, b, dir):
            return FailureWitness(point, f"not a button: {b}")
        if is_pushed(m, point, b, dir):
            return FailureWitness(point, f"button already pushed: {b}")
    for s in family.switches:
        sm = eval_mask(m, And(Dia(dir, s), Dia(dir, Not(s))))
        for u in scope:
            if not (sm >> u) & 1:
                return FailureWitness(u, f"not a switch at world {u}: {s}")
    pushed_sets = [eval_mask(m, Box(dir, b)) for b in family.buttons]
    switch_sets = [eval_mask(m, s) for s in family.switches]

    def pushed(u):
        return sum(1 << i for i, pm in enumerate(pushed_sets) if (pm >> u) & 1)

    def pattern(u):
        return sum(1 << j for j, sm in enumerate(switch_sets) if (sm >> u) & 1)

    config = {}
    for u in WorldSet(n, m.frame.cone_mask(point, dir)):
        config[(pushed(u), pattern(u))] = config.get((pushed(u), pattern(u)), 0) | 1 << u
    succ = m.frame.masks(dir)
    cert = IndependenceCertificate(family, horizon, point_pattern=pattern(point))
    all_buttons = (1 << nb) - 1
    for u in scope:
        cert.pushed_at[u] = pushed(u)
        cert.pattern_at[u] = pattern(u)
        row = {}
        base = pushed(u)
        extra = all_buttons & ~base
        targets_b = [base | sub for sub in range(extra + 1) if sub & ~extra == 0]
        for bt in sorted(targets_b):
            for t in range(1 << ns):
                candidates = config.get((bt, t), 0) & succ[u]
                if not candidates:
                    return FailureWitness(u, "target unrealisable", (bt, t))
                row[(bt, t)] = (candidates & -candidates).bit_length() - 1
        cert.table[u] = row
    return cert


def _ref_find_family(m, w, dir, m_count, n_count, horizon=None):
    cands = _control_masks(m, dir).candidates
    base = PointedModel(m.frame, m.valuation, w) if w != m.point else m
    scope = _ref_scope(base, dir, horizon)
    buttons = [c for c in cands
               if is_button(m, w, c, dir) and not is_pushed(m, w, c, dir)]
    switches = [c for c in cands
                if all(holds_at(m, u, And(Dia(dir, c), Dia(dir, Not(c))))
                       for u in scope)]
    if len(buttons) < m_count or len(switches) < n_count:
        return None
    for bs in itertools.combinations(buttons[:10], m_count):
        for ss in itertools.combinations(switches[:10], n_count):
            fam = ControlFamily(dir, tuple(bs), tuple(ss), base, horizon)
            if isinstance(_ref_check_independent(base, fam, horizon),
                          IndependenceCertificate):
                return fam
    return None


_LADDER = [(shape, horizon)
           for shape in ((2, 2), (2, 1), (1, 2), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1))
           for horizon in (None, 2, 1, 0)]


def _same_outcome(got, want):
    """Families, certificates and failure witnesses compared field by field."""
    if isinstance(want, FailureWitness):
        return got == want
    if isinstance(want, ControlFamily):
        return (isinstance(got, ControlFamily)
                and (got.direction, got.buttons, got.switches, got.base, got.horizon)
                == (want.direction, want.buttons, want.switches, want.base,
                    want.horizon))
    return (isinstance(got, IndependenceCertificate)
            and _same_outcome(got.family, want.family)
            and (got.horizon, got.point_pattern, got.pushed_at, got.pattern_at,
                 got.table)
            == (want.horizon, want.point_pattern, want.pushed_at, want.pattern_at,
                want.table))


class TestSharedMaskSearch:
    @pytest.mark.parametrize("name,dir", [
        ("thm4", DOWN), ("thm5", UP),
        ("thm6", UP), ("thm6", DOWN), ("thm7", UP), ("thm7", DOWN)])
    def test_ladder_equals_reference(self, name, dir):
        m = {"thm4": thm4_model, "thm5": thm5_model,
             "thm6": lambda: combo_frame("cluster_below_bs", 2, 2, 1),
             "thm7": lambda: combo_frame("cluster_above_bs", 2, 2, 1)}[name]()
        first = None
        for (nb, ns), horizon in _LADDER:
            want = _ref_find_family(m, m.point, dir, nb, ns, horizon)
            got = find_family(m, m.point, dir, nb, ns, horizon=horizon)
            if want is None:
                assert got is None
                continue
            assert _same_outcome(got, want)
            want_cert = _ref_check_independent(m, want, horizon)
            assert _same_outcome(check_independent(m, got, horizon), want_cert)
            if first is None:
                first = want_cert
        # The certificate ml_status refutes with is the ladder's first one.
        got_cert = _first_certificate(m, m.point, dir)
        assert (got_cert is None) == (first is None)
        if first is not None:
            assert _same_outcome(got_cert, first)

    def test_failure_witnesses_equal_reference(self):
        # Every family of two buttons and one switch from the first candidates,
        # at every horizon: the same certificate or the same failure.
        m = thm4_model()
        cands = _control_masks(m, DOWN).candidates[:6]
        for horizon in (None, 1):
            for bs in itertools.combinations(cands, 2):
                for s in cands:
                    fam = ControlFamily(DOWN, bs, (s,), m, horizon)
                    assert _same_outcome(check_independent(m, fam, horizon),
                                         _ref_check_independent(m, fam, horizon))

    def test_corpus_equals_reference(self):
        for name, m in corpus():
            for dir in (UP, DOWN):
                for w in sorted({m.point, m.frame.n - 1}):
                    for (nb, ns), horizon in ((1, 1), None), ((2, 1), 1), ((0, 2), None):
                        want = _ref_find_family(m, w, dir, nb, ns, horizon)
                        got = find_family(m, w, dir, nb, ns, horizon=horizon)
                        assert (got is None) == (want is None), name
                        if want is not None:
                            assert _same_outcome(got, want), name

    def test_searches_at_other_worlds_share_the_models_masks(self, monkeypatch):
        # One set of masks per (model, direction), whatever world a search
        # starts from; a family's base is the model pointed at that world.
        from bikripke import controls
        built = []
        masks_class = controls._ControlMasks

        def counted(*args):
            built.append(args)
            return masks_class(*args)

        monkeypatch.setattr(controls, "_ControlMasks", counted)
        m = thm4_model()
        for w in (m.point, m.point - 1):
            fam = find_family(m, w, DOWN, 1, 0, horizon=1)
            assert fam is not None and fam.base == PointedModel(m.frame, m.valuation, w)
        assert len(built) == 1

"""Command-line surface: one binary with subcommands.

Exit codes: 0 success (decide: Valid; check: holds), 1 decide Invalid /
check fails, 2 decide Unknown, 3 usage or syntax error, 4 budget exhausted,
5 experiment assertion failure, 6 internal error (a bug; never a verdict).

Reports are plain key=value lines, byte-deterministic for fixed inputs and
budgets except the final elapsed_ms line.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from typing import Optional, Sequence

from .errors import (
    BikripkeError,
    BudgetExceeded,
    FormulaSyntaxError,
    FrameParseError,
    MixedDirections,
    SEARCH_BUDGET,
    WORLD_BUDGET,
)
from .formula import (
    DOWN,
    UP,
    Atom,
    Box,
    Dia,
    Direction,
    Imp,
    Not,
    parse,
    print_formula,
)
from .frame import (
    Frame,
    PointedModel,
    bs_model,
    chain,
    cluster,
    combo_frame,
    dumps,
    load,
    powerset_frame,
    save,
    single_point,
)
from .semantics import eval_mask, holds_at, ml_fragment
from .theories import PL, S4, S4_2, S5, Theory, classify, decide, is_valid
from .controls import (
    HORIZON_LADDER,
    ControlFamily,
    _first_certificate,
    is_button,
    is_pushed,
)

_THEORIES = {"pl": PL, "s4": S4, "s4.2": S4_2, "s5": S5}
_DIRS = {"up": UP, "down": DOWN}


class Report:
    """Ordered key=value lines; elapsed_ms is appended last."""

    def __init__(self):
        self.lines: list[tuple[str, str]] = []
        self._start = time.monotonic()

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def render(self) -> str:
        ms = int(round((time.monotonic() - self._start) * 1000))
        body = [f"{k}={v}" for k, v in self.lines]
        body.append(f"elapsed_ms={ms}")
        return "\n".join(body) + "\n"

    def emit(self, out_path: Optional[str]) -> None:
        text = self.render()
        sys.stdout.write(text)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _at_least(low: int):
    """argparse type of an integer option that is at least low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="bikripke",
                 description="Bimodal Kripke logic with converse modalities.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("formula")

    p = sub.add_parser("print", help="alias of parse: canonical round trip")
    p.add_argument("formula")

    p = sub.add_parser("decide", help="decide validity over a modal theory")
    p.add_argument("--theory", choices=sorted(_THEORIES), required=True)
    p.add_argument("--budget", type=_at_least(0), default=SEARCH_BUDGET,
                   help=f"search budget in evaluated models (default {SEARCH_BUDGET}) "
                        "of the S4/S4.2 countermodel search over frames of up to 5 "
                        "worlds (the default decides every two-letter formula of "
                        "size <= 7 without Unknown), of the PL truth table, in "
                        "assignments, and of the S5 colour sweep, in colour "
                        "subsets (past it, PL and S5 exit 4)")
    p.add_argument("formula")

    p = sub.add_parser("check", help="model check a formula at a file's point")
    p.add_argument("--frame", required=True)
    p.add_argument("formula")

    p = sub.add_parser("ml", help="substitution-closed fragment of a model")
    p.add_argument("--frame", required=True)
    p.add_argument("--direction", choices=["up", "down", "both"], required=True)
    p.add_argument("--letters", type=_at_least(1), default=1)
    p.add_argument("--size", type=_at_least(1), default=5)
    p.add_argument("--out")

    p = sub.add_parser("controls", help="search for an independent control family")
    p.add_argument("--frame", required=True)
    p.add_argument("--direction", choices=["up", "down"], required=True)
    p.add_argument("--buttons", type=_at_least(0), required=True)
    p.add_argument("--switches", type=_at_least(0), required=True)
    p.add_argument("--horizon", type=_at_least(0), default=None,
                   help="cover-step horizon for the independence table "
                        "(default: strict, the whole reachable cone)")

    p = sub.add_parser("gen", help="generate a frame or pointed model file")
    p.add_argument("--kind", choices=["point", "cluster", "chain", "bs",
                                      "powerset", "combo"], required=True)
    p.add_argument("--size", type=_at_least(1), default=2, help="cluster size")
    p.add_argument("--height", type=_at_least(1), default=2, help="chain height")
    p.add_argument("--buttons", type=_at_least(0), default=1)
    p.add_argument("--switches", type=_at_least(0), default=1)
    p.add_argument("--classes", default="",
                   help="powerset switch classes as comma/colon list, e.g. 3:3")
    p.add_argument("--point", default=None,
                   help="powerset point: 'full', 'empty' or comma list of indices")
    p.add_argument("--variant", choices=["below", "above"], default="below")
    p.add_argument("--cluster", type=_at_least(1), default=2, help="combo cluster size")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("experiment", help="run a named experiment suite")
    p.add_argument("name", choices=["thm4", "thm5", "thm6", "thm7", "thm8"])
    p.add_argument("--out")
    return ap


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def thm4_model() -> PointedModel:
    """Powerset frame with 2 button indices and 2 parity classes of 3,
    pointed at the full index set."""
    return powerset_frame([0, 1], [[2, 3, 4], [5, 6, 7]], range(8))


def thm5_model() -> PointedModel:
    """The thm4 frame pointed mid-lattice so that both directions carry
    certified controls: the first element of each parity class is absent."""
    return powerset_frame([0, 1], [[2, 3, 4], [5, 6, 7]], [0, 1, 3, 4, 6, 7])


def _fragment_block(rep: Report, m: PointedModel, direction: Direction,
                    k: int, max_size: int):
    frag = ml_fragment(m, k, max_size, {direction})
    cls = classify(frag)
    rep.add("direction", direction.name.lower())
    rep.add("fragment_size", frag.fragment_size)
    rep.add("fragment_unknown", len(frag.unknown))
    rep.add("matches", cls.matches_label())
    for t in sorted(cls.separators, key=lambda t: t.value):
        rep.add(f"separator.{t.value}", print_formula(cls.separators[t]))
    return frag, cls


def _controls_block(rep: Report, m: PointedModel, direction: Direction,
                    buttons: int, switches: int,
                    horizons=HORIZON_LADDER) -> Optional[ControlFamily]:
    """The first family found at the horizons in turn, as report lines."""
    cert = _first_certificate(m, m.point, direction, ((buttons, switches),), horizons)
    # Lines land inside the current direction= block of the report.
    if cert is None:
        rep.add("controls.buttons", "none")
        rep.add("controls.switches", "none")
        return None
    fam = cert.family
    rep.add("controls.buttons",
            ";".join(print_formula(b) for b in fam.buttons) or "-")
    rep.add("controls.switches",
            ";".join(print_formula(s) for s in fam.switches) or "-")
    rep.add("controls.horizon", "strict" if fam.horizon is None else fam.horizon)
    return fam


def _check(rep: Report, failures: list[str], name: str, ok: bool) -> None:
    rep.add(f"check.{name}", "pass" if ok else "FAIL")
    if not ok:
        failures.append(name)


def experiment_thm4(out: Optional[str] = None) -> tuple[Report, bool]:
    """Powerset-frame ground fragment: the down fragment at the full point
    classifies as S4.2 (axioms valid, S5 separated by buttons)."""
    rep = Report()
    failures: list[str] = []
    m = thm4_model()
    rep.add("experiment", "thm4")
    rep.add("frame", m.frame.name)
    rep.add("point", m.point)
    props = m.frame.props
    _check(rep, failures, "down_directed", props.down_directed)
    frag, cls = _fragment_block(rep, m, DOWN, 1, 7)
    missing = [f for f in frag.formulas
               if is_valid(S4_2, f) and frag.status[f] is not True]
    _check(rep, failures, "contains_s42_valid", not missing)
    five = parse("<d>[d]p0 -> p0")
    _check(rep, failures, "excludes_s5_axiom", frag.status.get(five) is False)
    _check(rep, failures, "classifies_s42", S4_2 in cls.matches)
    _check(rep, failures, "s5_separated", S5 in cls.separators)
    fam = _controls_block(rep, m, DOWN, 2, 1, horizons=(1,))
    _check(rep, failures, "controls_found", fam is not None)
    rep.emit(out)
    return rep, not failures


def experiment_thm5(out: Optional[str] = None) -> tuple[Report, bool]:
    """Both monomodal fragments of the powerset frame classify as S4.2 at a
    mid-lattice point."""
    rep = Report()
    failures: list[str] = []
    m = thm5_model()
    rep.add("experiment", "thm5")
    rep.add("frame", m.frame.name)
    rep.add("point", m.point)
    props = m.frame.props
    _check(rep, failures, "up_directed", props.up_directed)
    _check(rep, failures, "down_directed", props.down_directed)
    for direction in (UP, DOWN):
        frag, cls = _fragment_block(rep, m, direction, 1, 7)
        name = direction.name.lower()
        _check(rep, failures, f"{name}_classifies_s42", S4_2 in cls.matches)
        _check(rep, failures, f"{name}_s5_separated", S5 in cls.separators)
        _controls_block(rep, m, direction, 2, 1)
    rep.emit(out)
    return rep, not failures


def _combo_experiment(name: str, kind: str, expect_up: Theory,
                      expect_down: Theory, out: Optional[str]) -> tuple[Report, bool]:
    rep = Report()
    failures: list[str] = []
    m = combo_frame(kind, 2, 2, 1)
    rep.add("experiment", name)
    rep.add("frame", m.frame.name)
    rep.add("point", m.point)
    for direction, expect in ((UP, expect_up), (DOWN, expect_down)):
        frag, cls = _fragment_block(rep, m, direction, 1, 7)
        dname = direction.name.lower()
        _check(rep, failures, f"{dname}_classifies_{expect.value}",
               cls.matches == {expect})
        _check(rep, failures, f"{dname}_no_unknown", not frag.unknown)
        _controls_block(rep, m, direction,
                        2 if expect is S4_2 else 0, 1)
    rep.emit(out)
    return rep, not failures


def experiment_thm6(out: Optional[str] = None) -> tuple[Report, bool]:
    """Cluster grafted below a button/switch frame: upward fragment S4.2,
    downward fragment S5 at the cluster point."""
    return _combo_experiment("thm6", "cluster_below_bs", S4_2, S5, out)


def experiment_thm7(out: Optional[str] = None) -> tuple[Report, bool]:
    """Order dual: cluster above the structure; upward fragment S5,
    downward fragment S4.2."""
    return _combo_experiment("thm7", "cluster_above_bs", S5, S4_2, out)


def corpus() -> list[tuple[str, PointedModel]]:
    """Deterministic model corpus covering every constructor shape."""
    out: list[tuple[str, PointedModel]] = []
    out.append(("single_point", PointedModel(single_point(), {"p": 1}, 0)))
    for c in range(1, 7):
        val = {"q0": sum(1 << w for w in range(c) if w % 2 == 0),
               "q1": sum(1 << w for w in range(c) if w < (c + 1) // 2)}
        out.append((f"cluster{c}", PointedModel(cluster(c), val, 0)))
    for h in range(1, 8):
        out.append((f"chain{h}",
                    PointedModel(chain(h), {"p": 1 << (h - 1)}, 0)))
    for mb in range(4):
        for ns in range(3):
            model = bs_model(mb, ns)
            out.append((f"bs{mb}_{ns}", model))
    powersets = [
        ([0], [], [0]),
        ([0], [], []),
        ([0, 1], [], [0, 1]),
        ([0, 1], [], [0]),
        ([], [[0, 1]], [0, 1]),
        ([], [[0, 1, 2]], [0, 1, 2]),
        ([], [[0, 1, 2]], []),
        ([0], [[1, 2]], [0, 1, 2]),
        ([0], [[1, 2]], [1]),
        ([0], [[1, 2, 3]], [0, 1, 2, 3]),
        ([0, 1], [[2, 3]], [0, 1, 2, 3]),
        ([0, 1], [[2, 3]], [1, 2]),
        ([0, 1], [[2, 3, 4]], [0, 1, 2, 3, 4]),
        ([0, 1], [[2, 3, 4]], [0, 2, 3]),
    ]
    for i, (bs_, classes, point) in enumerate(powersets):
        out.append((f"powerset{i}", powerset_frame(bs_, classes, point)))
    for kind in ("cluster_below_bs", "cluster_above_bs"):
        for c in (1, 2):
            for mb, ns in ((1, 0), (1, 1), (2, 1)):
                out.append((f"combo_{kind[8:13]}_{c}_{mb}_{ns}",
                            combo_frame(kind, c, mb, ns)))
    return out


def _five_axiom_fails(m: PointedModel, w: int, d: Direction) -> bool:
    """Is some substitution instance of the 5 axiom refuted at w along d?
    Probes the valuation letters and their negations; also treats a
    one-world cone as separated (its logic is PL, not S5)."""
    cone = m.frame.cone_mask(w, d)
    if cone == 1 << w:
        return True
    for l in m.letters():
        for g in (Atom(l), Not(Atom(l))):
            inst = Imp(Dia(d, Box(d, g)), g)
            if not (eval_mask(m, inst) >> w) & 1:
                return True
    return False


def experiment_thm8(out: Optional[str] = None) -> tuple[Report, bool]:
    """Mixed-button impossibility sweep over the generated corpus: no model
    point carries an unpushed down button whose negation is an unpushed up
    button while both 5-axiom instances hold, and no powerset point has both
    an up-S5 and a down-S5 fragment."""
    rep = Report()
    failures: list[str] = []
    models = corpus()
    rep.add("experiment", "thm8")
    rep.add("corpus_size", len(models))
    mixed_violations = 0
    pairs_checked = 0
    for name, m in models:
        n = m.frame.n
        candidates = [Atom(l) for l in m.letters()]
        candidates += [Not(c) for c in candidates]
        for w in range(n):
            for f in candidates:
                down_btn = (is_button(m, w, f, DOWN)
                            and not is_pushed(m, w, f, DOWN))
                up_btn = (is_button(m, w, Not(f), UP)
                          and not is_pushed(m, w, Not(f), UP))
                if not (down_btn and up_btn):
                    continue
                pairs_checked += 1
                inst_down = Imp(Dia(DOWN, Box(DOWN, f)), f)
                inst_up = Imp(Dia(UP, Box(UP, Not(f))), Not(f))
                if holds_at(m, w, inst_down) and holds_at(m, w, inst_up):
                    mixed_violations += 1
    rep.add("mixed_button_pairs", pairs_checked)
    rep.add("mixed_button_violations", mixed_violations)
    _check(rep, failures, "mixed_button_impossibility", mixed_violations == 0)

    double_s5 = 0
    points_checked = 0
    for name, m in models:
        if not m.frame.name.startswith("powerset"):
            continue
        for w in range(m.frame.n):
            points_checked += 1
            if not (_five_axiom_fails(m, w, UP) or _five_axiom_fails(m, w, DOWN)):
                double_s5 += 1
    rep.add("powerset_points", points_checked)
    rep.add("double_s5_points", double_s5)
    _check(rep, failures, "no_double_s5", double_s5 == 0)
    rep.emit(out)
    return rep, not failures


_EXPERIMENTS = {
    "thm4": experiment_thm4,
    "thm5": experiment_thm5,
    "thm6": experiment_thm6,
    "thm7": experiment_thm7,
    "thm8": experiment_thm8,
}


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    f = parse(args.formula)
    sys.stdout.write(print_formula(f) + "\n")
    return 0


def _cmd_decide(args) -> int:
    f = parse(args.formula)
    verdict = decide(_THEORIES[args.theory], f, budget=args.budget)
    if verdict.is_valid:
        sys.stdout.write("valid\n")
        return 0
    if verdict.is_invalid:
        sys.stdout.write("invalid\n")
        sys.stdout.write(dumps(verdict.countermodel))
        return 1
    sys.stdout.write(f"unknown: {verdict.reason}\n")
    return 2


def _load_model(path: str) -> PointedModel:
    """The model saved at path; a bare frame is a usage error."""
    model = load(path)
    if isinstance(model, Frame):
        raise _UsageError(f"{path} has no designated point")
    return model


def _cmd_check(args) -> int:
    model = _load_model(args.frame)
    f = parse(args.formula)
    ok = holds_at(model, model.point, f)
    sys.stdout.write("holds\n" if ok else "fails\n")
    return 0 if ok else 1


def _cmd_ml(args) -> int:
    model = _load_model(args.frame)
    dirs = [UP, DOWN] if args.direction == "both" else [_DIRS[args.direction]]
    rep = Report()
    rep.add("frame", model.frame.name)
    rep.add("point", model.point)
    for d in dirs:
        _fragment_block(rep, model, d, args.letters, args.size)
    rep.emit(args.out)
    return 0


def _cmd_controls(args) -> int:
    model = _load_model(args.frame)
    cert = _first_certificate(model, model.point, _DIRS[args.direction],
                              ((args.buttons, args.switches),), (args.horizon,))
    if cert is None:
        sys.stdout.write("none\n")
        return 0
    fam = cert.family
    rep = Report()
    rep.add("direction", args.direction)
    rep.add("buttons", ";".join(print_formula(b) for b in fam.buttons) or "-")
    rep.add("switches", ";".join(print_formula(s) for s in fam.switches) or "-")
    rep.add("certificate", "ok")
    rep.add("certificate.worlds", len(cert.table))
    rep.add("certificate.horizon", "strict" if cert.horizon is None else cert.horizon)
    rep.emit(None)
    return 0


def _int_list(option: str, spec: str) -> list[int]:
    """The integers >= 0 of a comma, colon or blank separated list."""
    tokens = spec.replace(":", " ").replace(",", " ").split()
    try:
        if all(tok.isdecimal() for tok in tokens):
            return [int(tok) for tok in tokens]
    except ValueError:      # more digits than int() converts
        pass
    raise _UsageError(f"{option} wants integers >= 0, got {spec!r}")


def _parse_point(spec: Optional[str], universe: list[int]) -> list[int]:
    if spec is None or spec == "full":
        return list(universe)
    if spec == "empty":
        return []
    return _int_list("--point", spec)


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "point":
        obj = PointedModel(single_point(), {}, 0)
    elif kind == "cluster":
        obj = PointedModel(cluster(args.size), {}, 0)
    elif kind == "chain":
        obj = PointedModel(chain(args.height), {}, 0)
    elif kind == "bs":
        obj = bs_model(args.buttons, args.switches)
    elif kind == "powerset":
        sizes = _int_list("--classes", args.classes)
        # Each index doubles the worlds: check the budget before the index
        # lists are built.
        k = args.buttons + sum(sizes)
        if k > WORLD_BUDGET.bit_length() - 1:
            raise BudgetExceeded(f"2^{k} worlds exceeds budget {WORLD_BUDGET}")
        buttons = list(range(args.buttons))
        classes = []
        nxt = args.buttons
        for s in sizes:
            classes.append(list(range(nxt, nxt + s)))
            nxt += s
        universe = buttons + [i for c in classes for i in c]
        obj = powerset_frame(buttons, classes, _parse_point(args.point, universe))
    else:
        kind_name = "cluster_below_bs" if args.variant == "below" else "cluster_above_bs"
        obj = combo_frame(kind_name, args.cluster, args.buttons, args.switches)
    save(obj, args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def _cmd_experiment(args) -> int:
    _, ok = _EXPERIMENTS[args.name](args.out)
    return 0 if ok else 5


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command in ("parse", "print"):
            return _cmd_parse(args)
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "ml":
            return _cmd_ml(args)
        if args.command == "controls":
            return _cmd_controls(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_experiment(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 3
    except (FormulaSyntaxError, FrameParseError, MixedDirections, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 4
    except BikripkeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return 6


if __name__ == "__main__":
    sys.exit(main())

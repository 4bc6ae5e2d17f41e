import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bikripke.cli import main
from bikripke.errors import WORLD_BUDGET
from bikripke.frame import load, loads
from bikripke.semantics import holds_at


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


_MODEL_TEXT = """frame f
worlds 3
up 0 1
up 1 2
closure reflexive transitive
point 0
val p0 1 2
val p1 0
end
"""


class TestParseCommand:
    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "parse", "<u>[u]p->[u]<u>p")
        assert code == 0
        assert out.strip() == "<u>[u]p -> [u]<u>p"

    def test_syntax_error_exit_3(self, capsys):
        code, _, err = run(capsys, "parse", "p -> ")
        assert code == 3
        assert "offset" in err


    @pytest.mark.parametrize("argv, err", [
        (["decide", "--theory", "s4", "p -> "],
         b"error: unexpected 'end of input' at offset 5 (expected '(', '<d>', "
         b"'<u>', '[d]', '[u]', 'false', 'true', '~', letter)\n"),
        (["parse", "p @ q"], b"error: unexpected character '@' at offset 2\n"),
        (["parse", "(p"], b"error: unexpected 'end of input' at offset 2 (expected ')')\n"),
        (["parse", "p q"],
         b"error: unexpected 'q' at offset 2 (expected binary operator, end of input)\n"),
        (["parse", "~" * 101 + "p"], b"error: formula nests more than 100 deep at offset 100\n"),
    ])
    def test_syntax_error_output_is_pinned(self, argv, err):
        proc = subprocess.run([sys.executable, "-m", "bikripke.cli", *argv],
                              capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", err)


class TestDecideCommand:
    def test_valid_exit_0(self, capsys):
        code, out, _ = run(capsys, "decide", "--theory", "s4.2",
                           "<u>[u]p -> [u]<u>p")
        assert code == 0
        assert out.strip() == "valid"

    def test_invalid_exit_1_with_reloadable_countermodel(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decide", "--theory", "s4.2",
                           "<u>[u]p -> p")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "invalid"
        cm = loads("\n".join(lines[1:]) + "\n")
        from bikripke.formula import parse
        assert not holds_at(cm, cm.point, parse("<u>[u]p -> p"))

    def test_unknown_exit_2_on_tiny_budget(self, capsys):
        code, out, _ = run(capsys, "decide", "--theory", "s4.2",
                           "--budget", "1", "<u>[u]p -> p")
        assert code == 2
        assert out.startswith("unknown")


    def test_s5_past_budget_exit_4(self, capsys):
        code, out, err = run(capsys, "decide", "--theory", "s5",
                             "--budget", "100", "[u](r0 & r1 & r2) -> r0")
        assert code == 4
        assert out == "" and "S5 colour sweep exceeds 100" in err

    def test_pl_past_budget_exit_4(self, capsys):
        code, out, err = run(capsys, "decide", "--theory", "pl",
                             "--budget", "10", "p0 & p1 & p2 & p3 -> p0")
        assert code == 4
        assert out == "" and "PL truth table exceeds 10" in err


class TestExitCodes:
    def test_deep_nesting_is_a_syntax_error(self, capsys):
        code, out, err = run(capsys, "decide", "--theory", "s4", "~" * 1200 + "p")
        assert code == 3
        assert out == "" and "nests more than" in err

    def test_huge_frame_file_exceeds_budget(self, capsys, tmp_path):
        path = tmp_path / "huge.frame"
        path.write_text("worlds 100000000000\npoint 0\nend\n")
        code, out, err = run(capsys, "check", "--frame", str(path), "p")
        assert code == 4
        assert out == "" and "budget" in err

    @pytest.mark.parametrize("argv, frame", [
        (["gen", "--kind", "powerset", "--classes", "a"], None),
        (["gen", "--kind", "powerset", "--point", "1,x"], None),
        (["gen", "--kind", "bs", "--buttons", "-1"], None),
        (["gen", "--kind", "combo", "--buttons", "-1"], None),
        (["gen", "--kind", "combo", "--cluster", "0"], None),
        (["ml", "--direction", "up", "--letters", "0"], _MODEL_TEXT),
        (["controls", "--direction", "up", "--buttons", "-1", "--switches", "0"], _MODEL_TEXT),
        (["controls", "--direction", "up", "--buttons", "0", "--switches", "-1"], _MODEL_TEXT),
        (["controls", "--direction", "up", "--buttons", "1", "--switches", "0"],
         _MODEL_TEXT.replace("val p0", "val Q")),
        (["controls", "--direction", "up", "--buttons", "1", "--switches", "0"],
         _MODEL_TEXT.replace("val p1", "val true")),
    ])
    def test_bad_input_is_a_usage_error(self, capsys, tmp_path, argv, frame):
        if frame is None:
            argv = argv + ["-o", str(tmp_path / "g.frame")]
        else:
            (tmp_path / "m.frame").write_text(frame)
            argv = argv + ["--frame", str(tmp_path / "m.frame")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith(("usage error: ", "error: "))

    def test_powerset_budget_checked_before_the_index_lists(self, capsys, tmp_path):
        import tracemalloc
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "gen", "--kind", "powerset", "--classes", "300000",
                                 "-o", str(tmp_path / "g.frame"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "") and "worlds exceeds budget" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        ["--kind", "chain", "--height", "100000"],
        ["--kind", "cluster", "--size", "100000000"],
        ["--kind", "bs", "--buttons", "1000000000"],
        ["--kind", "combo", "--buttons", "1000000000"],
    ], ids=["chain", "cluster", "bs", "combo"])
    def test_constructor_budget_checked_before_building(self, capsys, tmp_path, argv):
        import tracemalloc
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "gen", *argv, "-o", str(tmp_path / "g.frame"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "") and "worlds exceeds budget" in err
        assert peak < 1 << 20

    def test_internal_error_has_its_own_code(self, capsys, monkeypatch):
        from bikripke import cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_parse", broken)
        code, out, err = run(capsys, "parse", "p")
        assert code == 6
        assert "internal error: RuntimeError: boom" in err


# Formula text over two letters, both directions and every connective; some
# of it mixes directions, which the deciders refuse.
_formula_text = st.recursive(
    st.sampled_from(["p0", "p1", "true", "false"]),
    lambda sub: st.one_of(
        st.builds(lambda op, f: op + f, st.sampled_from(["~", "[u]", "<u>", "[d]", "<d>"]), sub),
        st.builds(lambda f, op, g: f"({f} {op} {g})", sub,
                  st.sampled_from(["&", "|", "->", "<->"]), sub)),
    max_leaves=8)

@st.composite
def _broken_frame_file(draw, letters=st.none()) -> bytes:
    """A model file whose letters may be renamed to what `letters` draws, with
    lines dropped, repeated, cut, replaced or inserted, possibly followed by
    raw bytes that need not be UTF-8."""
    text = _MODEL_TEXT
    for old in ("p0", "p1"):
        new = draw(letters)
        if new is not None:
            text = text.replace(f"val {old} ", f"val {new} ")
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "cut", "replace", "insert"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif edit == "replace":
            words = lines[i].split() or [""]
            j = draw(st.integers(0, len(words) - 1))
            words[j] = draw(st.one_of(st.integers(-2, 2 ** 70).map(str), st.text(max_size=6)))
            lines[i] = " ".join(words)
        else:
            lines.insert(i, draw(st.text(max_size=20)))
    data = "\n".join(lines).encode("utf-8", "surrogatepass")
    return draw(st.one_of(st.just(data), st.binary(max_size=60).map(lambda b: data + b)))


class TestFuzzMain:
    """Whatever the input, main ends with a documented exit code (0-4) and
    never reports an internal error."""

    @staticmethod
    def run(capsys, *argv) -> int:
        try:
            code = main(list(argv))
        except SystemExit as exc:           # --help and the like
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3, 4), (argv, code, err)
        assert "internal error" not in err, (argv, err)
        return code

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.text(), _formula_text))
    @example("-h")
    @example("(" * 200 + "p" + ")" * 200)
    def test_parse(self, capsys, text):
        self.run(capsys, "parse", text)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["pl", "s4", "s4.2", "s5"]), st.one_of(st.text(), _formula_text))
    @example("s4", "[u]p0 -> [u][u]p0")
    @example("s5", "<u>p0 & <d>p1")
    def test_decide(self, capsys, theory, text):
        self.run(capsys, "decide", "--theory", theory, "--budget", "1000", text)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_broken_frame_file(), _formula_text)
    @example(_MODEL_TEXT.encode(), "[u]p0")
    @example(b"worlds 1\nval p0 0\npoint 0\nend\n\xff", "p0")
    def test_check(self, capsys, tmp_path, data, text):
        path = tmp_path / "model.txt"
        path.write_bytes(data)
        self.run(capsys, "check", "--frame", str(path), text)


# Every integer option's lower bound and the values below it.  Larger values
# only grow the generated frames and fragments.
_SMALL = st.integers(-2, 4)
# gen's options also take values past the world budget, which must exit 4
# before anything is built.  Between the two ranges lie frames near the
# budget, slow to build and save, so no draw falls there: with at most two
# small exponents m + n stays at most 8.
_EXPONENT = st.one_of(_SMALL, st.integers(WORLD_BUDGET.bit_length(), 10 ** 12))
_WORLDS = st.one_of(_SMALL, st.integers(WORLD_BUDGET + 1, 10 ** 12))
_int_text = st.lists(st.integers(-1, 3), max_size=3).map(lambda xs: ",".join(map(str, xs)))


@st.composite
def _gen_options(draw) -> list[str]:
    argv = ["--kind", draw(st.sampled_from(["point", "cluster", "chain", "bs",
                                            "powerset", "combo"]))]
    for option, values in (("--size", _WORLDS), ("--height", _WORLDS), ("--buttons", _EXPONENT),
                           ("--switches", _EXPONENT), ("--cluster", _WORLDS)):
        if draw(st.booleans()):
            argv += [option, str(draw(values))]
    for option in ("--classes", "--point"):
        if draw(st.booleans()):
            argv += [option, draw(st.one_of(st.text(max_size=6), _int_text,
                                            st.sampled_from(["full", "empty"])))]
    return argv


class TestFuzzOptions:
    """gen, ml and controls, with every integer option drawn and the model
    file's letters renamed to arbitrary text: a documented exit code (0-4)
    and never an internal error."""

    run = staticmethod(TestFuzzMain.run)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_gen_options())
    @example(["--kind", "powerset", "--classes", "a"])
    @example(["--kind", "powerset", "--point", "1,x"])
    @example(["--kind", "powerset", "--point", "9" * 5000])
    @example(["--kind", "bs", "--buttons", "-1"])
    @example(["--kind", "combo", "--buttons", "-1"])
    @example(["--kind", "combo", "--cluster", "0"])
    @example(["--kind", "chain", "--height", "100000"])
    @example(["--kind", "cluster", "--size", "100000000"])
    @example(["--kind", "bs", "--buttons", "1000000000"])
    def test_gen(self, capsys, tmp_path, argv):
        self.run(capsys, "gen", *argv, "-o", str(tmp_path / "g.frame"))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_broken_frame_file(st.text(max_size=4)), st.sampled_from(["up", "down", "both"]),
           st.integers(-2, 2), _SMALL)
    @example(_MODEL_TEXT.encode(), "up", 0, 3)
    def test_ml(self, capsys, tmp_path, data, direction, k, size):
        path = tmp_path / "model.txt"
        path.write_bytes(data)
        self.run(capsys, "ml", "--frame", str(path), "--direction", direction,
                 "--letters", str(k), "--size", str(size))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_broken_frame_file(st.text(max_size=4)), st.sampled_from(["up", "down"]),
           _SMALL, _SMALL, st.one_of(st.none(), _SMALL))
    @example(_MODEL_TEXT.encode(), "up", -1, 0, None)
    @example(_MODEL_TEXT.encode(), "up", 0, -1, None)
    @example(_MODEL_TEXT.replace("val p0", "val Q").encode(), "up", 1, 0, None)
    @example(_MODEL_TEXT.replace("val p1", "val true").encode(), "down", 1, 0, None)
    def test_controls(self, capsys, tmp_path, data, direction, buttons, switches, horizon):
        path = tmp_path / "model.txt"
        path.write_bytes(data)
        argv = ["controls", "--frame", str(path), "--direction", direction,
                "--buttons", str(buttons), "--switches", str(switches)]
        if horizon is not None:
            argv += ["--horizon", str(horizon)]
        self.run(capsys, *argv)


class TestCheckCommand:
    def test_check(self, capsys, tmp_path):
        path = tmp_path / "m.frame"
        run(capsys, "gen", "--kind", "bs", "--buttons", "1", "--switches", "1",
            "-o", str(path))
        code, out, _ = run(capsys, "check", "--frame", str(path), "~[u]b1")
        assert code == 0 and out.strip() == "holds"
        code, out, _ = run(capsys, "check", "--frame", str(path), "[u]b1")
        assert code == 1 and out.strip() == "fails"


class TestGenCommand:
    @pytest.mark.parametrize("args,worlds", [
        (("--kind", "point"), 1),
        (("--kind", "cluster", "--size", "3"), 3),
        (("--kind", "chain", "--height", "4"), 4),
        (("--kind", "bs", "--buttons", "2", "--switches", "1"), 8),
        (("--kind", "powerset", "--buttons", "1", "--classes", "2",
          "--point", "full"), 8),
        (("--kind", "combo", "--variant", "below", "--cluster", "2",
          "--buttons", "1", "--switches", "0"), 3),
    ])
    def test_kinds(self, capsys, tmp_path, args, worlds):
        path = tmp_path / "g.frame"
        code, _, _ = run(capsys, *args, "gen", "-o", str(path)) \
            if False else run(capsys, "gen", *args, "-o", str(path))
        assert code == 0
        obj = load(str(path))
        frame = obj.frame if hasattr(obj, "frame") else obj
        assert frame.n == worlds


class TestMlCommand:
    def test_single_point_down(self, capsys, tmp_path):
        path = tmp_path / "sp.frame"
        run(capsys, "gen", "--kind", "point", "-o", str(path))
        code, out, _ = run(capsys, "ml", "--frame", str(path),
                           "--direction", "down", "--letters", "1",
                           "--size", "4")
        assert code == 0
        body = dict(line.split("=", 1) for line in out.splitlines()
                    if "=" in line)
        assert "pl" in body["matches"].split(",")


class TestControlsCommand:
    def test_bs_family(self, capsys, tmp_path):
        path = tmp_path / "bs.frame"
        run(capsys, "gen", "--kind", "bs", "--buttons", "2", "--switches", "1",
            "-o", str(path))
        code, out, _ = run(capsys, "controls", "--frame", str(path),
                           "--direction", "up", "--buttons", "2",
                           "--switches", "1")
        assert code == 0
        assert "b1;b2" in out and "s1" in out and "certificate=ok" in out


class TestExperimentCommand:
    def test_thm8(self, capsys, tmp_path):
        out_path = tmp_path / "thm8.report"
        code, out, _ = run(capsys, "experiment", "thm8", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert "mixed_button_violations=0" in text
        assert "double_s5_points=0" in text
        assert text.splitlines()[-1].startswith("elapsed_ms=")

    def test_reports_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "experiment", "thm8", "--out", str(a))
        run(capsys, "experiment", "thm8", "--out", str(b))
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("elapsed_ms=")]
        assert strip(a) == strip(b)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bikripke.cli", "decide", "--theory", "s5",
         "<u>p -> [u]<u>p"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "valid"


def test_library_runs_without_numpy():
    code = ("import sys, bikripke\n"
            "from bikripke.semantics import ml_status\n"
            "m = bikripke.combo_frame('cluster_below_bs', 2, 2, 1)\n"
            "frag = bikripke.ml_fragment(m, 1, 3, {bikripke.UP})\n"
            "assert any(ml_status(m, f).how == 'exact sweep' for f in frag.formulas)\n"
            "print(sorted(name for name in sys.modules if name.startswith('numpy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

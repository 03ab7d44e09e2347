import pathlib
import random
import shlex

from basilica.cli import main
from basilica.element import equal, generator, parse_element, reduce
from basilica.render import render_diagram, render_element
from basilica.diagram import base_diagram
from basilica.words import random_element

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.strip()


def test_eval_half_rotation(capsys):
    assert run(capsys, "eval", "--word", "d", "--angle", "0") == (0, "1/2")


def test_recognize_rejects_third_rotation(capsys):
    code, out = run(capsys, "recognize", "--pl", "0:1/3")
    assert code == 2
    assert out == "REJECT ArcNotPreserved {1/3,2/3}"


def test_reduce_identity_is_fixed(capsys):
    text = "[.,.,.,. ; .,.,.,. ; 0]"
    assert run(capsys, "reduce", "--element", text) == (0, text)


def test_parse_errors_exit_one(capsys):
    assert run(capsys, "reduce", "--element", "[junk]")[0] == 1
    assert run(capsys, "eval", "--word", "q", "--angle", "0")[0] == 1
    assert run(capsys, "eval", "--word", "d", "--angle", "1/5")[0] == 1


def test_compose_invert_word_pipeline(capsys):
    _, a = run(capsys, "word", "--word", "a b")
    _, ainv = run(capsys, "invert", "--element", a)
    code, out = run(capsys, "compose", "--element", a, "--element", ainv)
    assert code == 0
    assert parse_element(out) == reduce(parse_element("[.,.,.,. ; .,.,.,. ; 0]"))


def test_decompose_roundtrip_via_cli(capsys):
    _, e = run(capsys, "word", "--word", "g b' a")
    code, word = run(capsys, "decompose", "--element", e)
    assert code == 0
    _, back = run(capsys, "word", "--word", word)
    assert equal(parse_element(back), parse_element(e))


def test_tau_verbs(capsys):
    _, b = run(capsys, "word", "--word", "b")
    code, tp = run(capsys, "tau", "--element", b)
    assert (code, tp) == (0, "[.,(.,.) ; (.,.),. ; 0]")
    code, back = run(capsys, "tau", "--inverse", "--treepair", tp)
    assert code == 0
    assert equal(parse_element(back), generator("beta"))
    code, _ = run(capsys, "tau", "--element", "[.,(.,.,.),.,. ; .,.,.,(.,.,.) ; 5]")
    assert code == 2


def test_gap_and_abelianize(capsys):
    assert run(capsys, "abelianize", "--word", "a b a")[1] == "0"
    assert run(capsys, "abelianize", "--word", "a")[1] == "1"
    code, word = run(capsys, "gap", "--gap", "behind {5/12,7/12}")
    assert code == 0 and word
    code, img = run(capsys, "gap", "--gap", "central", "--word", "a")
    assert (code, img) == (0, "behind {1/6,5/6}")
    assert run(capsys, "gap", "--gap", "behind {1/6,1/3}")[0] == 2
    assert run(capsys, "gap", "--gap", "behind {1/6,1/3}") == (
        2, "REJECT NotAnArc {1/6,1/3}"
    )


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_malformed_input_exits_one(capsys):
    for argv in [
        ["recognize", "--pl", "1/6:1/6,1/6:1/3"],
        ["tau", "--treepair", "[.,.;(.,.),.;0]", "--inverse"],
        ["random", "--seed", "1", "--length", "-3"],
        ["tau"],
        ["render"],
        ["reduce", "--bogus", "x"],
    ]:
        assert exit_code(argv) == 1, argv
        err = capsys.readouterr().err
        assert err and "Traceback" not in err, argv


def test_malformed_angle_keeps_message(capsys):
    for angle, message in [
        ("1/0", "denominator must be positive"),
        ("1/-3", "denominator must be positive"),
        ("x/3", "bad angle 'x/3'"),
        ("1/2/3", "bad angle '1/2/3'"),
        ("1/5", "denominator 5"),
    ]:
        assert exit_code(["eval", "--word", "a", f"--angle={angle}"]) == 1, angle
        assert capsys.readouterr().err == f"error: {message}\n", angle


def test_deep_nesting_exits_zero(capsys):
    n = 1500
    tree = "(" * n + ".,.,.)" + ",.,.)" * (n - 1)  # ternary, nested in child 0
    forest = tree + ",.,.,."
    vine = ".," + "(.," * (n - 1) + "(.,.)" + ")" * (n - 1)  # binary right vine
    code, out = run(capsys, "reduce", "--element", f"[{forest} ; {forest} ; 0]")
    assert (code, out) == (0, "[.,.,.,. ; .,.,.,. ; 0]")
    code, out = run(capsys, "render", "--diagram", forest)
    assert code == 0 and out.count('<path class="arc"') == n + 2
    code, out = run(capsys, "tau", "--treepair", f"[{vine} ; {vine} ; 1]", "--inverse")
    # each binary node becomes a ternary one: n + 2 leaves become 2n + 4
    assert code == 0 and out.count(".") == 2 * (2 * n + 4)
    assert "Traceback" not in capsys.readouterr().err


def test_parse_errors_are_short(capsys):
    junk = "x" * 100_000
    n = 1500  # middle vines in tree 1 that part at the bottom: a deep witness
    v, w = ("(.," * (n - 1) + bottom + ",.)" * (n - 1) for bottom in ("((.,.,.),.,.)", "(.,(.,.,.),.)"))
    for argv in [
        ["reduce", "--element", f"[.,{v},.,. ; .,{w},.,. ; 0]"],
        ["reduce", "--element", junk],
        ["tau", "--inverse", "--treepair", f"[{junk}]"],
        ["reduce", "--element", f"[.,.,.,. ; .,.,.,. ; {junk}]"],
        ["render", "--diagram", ".,.,.,(" + ".," * 100_000 + ".)"],
        ["random", "--seed", junk, "--length", "1"],
    ]:
        assert exit_code(argv) == 1, argv[:2]
        err = capsys.readouterr().err
        assert 0 < len(err.encode()) < 300, argv[:2]


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("tb ")]
    assert len(lines) == 14
    monkeypatch.chdir(tmp_path)  # render --out writes its file here
    for line in lines:
        comment = line.partition("#")[2].strip()
        code = exit_code(shlex.split(line, comments=True)[1:])
        out = capsys.readouterr().out.strip()
        if comment.startswith("exit 2: "):
            assert (code, out) == (2, comment[len("exit 2: "):]), line
        else:
            assert code == 0, line
            if comment.startswith("-> "):
                assert out == comment[len("-> "):], line


def test_golden_random_element(capsys):
    golden = (DATA / "random_seed42_len8.txt").read_text().strip()
    assert run(capsys, "random", "--seed", "42", "--length", "8") == (0, golden)


def test_random_corpus_roundtrips():
    from basilica.membership import recognize

    rng = random.Random(61)
    for _ in range(20):
        e = reduce(random_element(rng.randrange(10 ** 6), rng.randrange(9)))
        assert recognize(e.to_pl()) == e


def test_render_base_diagram_counts():
    svg = render_diagram(base_diagram())
    assert svg.count('<path class="arc"') == 2
    assert svg.count('<circle class="boundary"') == 1
    assert svg.count('<circle class="dot"') == 0


def test_render_element_panels():
    svg = render_element(generator("alpha"))
    assert svg.count('<circle class="boundary"') == 2
    assert svg.count('<path class="arc"') == 6  # three arcs per panel
    assert svg.count('<circle class="dot"') == 2


def test_render_is_deterministic(capsys):
    one = render_element(generator("gamma"))
    two = render_element(generator("gamma"))
    assert one == two
    code, out = run(capsys, "render", "--diagram", ".,.,.,.")
    assert code == 0 and out.startswith("<svg")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code = main(["render", "--diagram", ".,.,.,.", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == render_diagram(base_diagram())

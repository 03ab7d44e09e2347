"""The workloads: seeded inputs, the operations of each round, the check of
every result, and the end-to-end metrics.

Every operation has a kind.  Each end-to-end metric is read from the
operations of one kind, so every workload reports every metric: its own
kinds come from inputs made from ``--seed``, at volume; the other kinds
come from a few fixed sentinel inputs, the same for every seed, spread over
the rounds.  A workload object is built by ``WORKLOADS[name](kernel, seed)``;
building it is the set-up (inputs plus a warm-up).  Every round holds the
same number of operations and of known faults, so the share of failed
operations does not depend on how many rounds a run completes; the first
``cover`` rounds run every input at least once.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction

import checks

KERNEL_MODULES = (
    "errors", "circle", "lamination", "diagram", "element",
    "membership", "thompson", "words", "render", "cli",
)
LETTERS = ("a", "a'", "b", "b'", "g", "g'", "d")
T_LETTERS = ("B", "B'", "G", "G'", "D")
IDENTITY = "[.,.,.,. ; .,.,.,. ; 0]"
SLOW = ("b", "b'")
# rotation(1/3)∘x for these x rejects only after the refinement loop has
# run to its depth bound: 1.7-3.5 s for g and g', more than 8 s for the rest
HOPELESS = ("g", "g'", "b b", "b g", "g b", "b' g")
LIMIT_S = 0.25
# decompose time grows steeply with nesting: one 24-leaf element nested 9
# deep ran for more than four minutes, while with nesting 5 or less no
# input of four seeds took more than 0.4 s
MAX_NESTING = 5


class Kernel:
    """The basilica modules, freshly imported from one source tree."""

    def __init__(self, src):
        for name in [m for m in sys.modules if m == "basilica" or m.startswith("basilica.")]:
            del sys.modules[name]
        self.src = os.path.realpath(src)
        for name in KERNEL_MODULES:
            module = importlib.import_module(f"basilica.{name}")
            if not os.path.realpath(module.__file__).startswith(self.src + os.sep):
                raise ImportError(f"basilica.{name} was not loaded from {self.src}")
            setattr(self, name, module)


class Op:
    """One timed call plus the check of its outcome.

    ``check(value, error)`` gets the return value or the exception raised;
    ``size(value)`` optionally records a number about the result.
    ``limit`` is a per-operation time limit in seconds.  A ``known_fault``
    fails on every input because of a named fault in the kernel.  With
    ``repeat`` above 1 the call is made that many times back to back and the
    fastest counts, so that the first call warms the caches a preceding
    operation of another kind has cooled.
    """

    __slots__ = ("kind", "key", "call", "check", "size", "limit", "known_fault", "repeat")

    def __init__(self, kind, key, call, check, size=None, limit=None, known_fault=False):
        self.repeat = 1
        self.kind = kind
        self.key = key
        self.call = call
        self.check = check
        self.size = size
        self.limit = limit
        self.known_fault = known_fault


# -- inputs ------------------------------------------------------------------

def random_word(rng, length, letters=LETTERS):
    return [rng.choice(letters) for _ in range(length)]


def nesting(e) -> int:
    """Depth of the deepest leaf of the element's domain and range forests."""
    depth = deepest = 0
    for ch in str(e):
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def band(k, rng, targets, max_nesting=None):
    """One element per leaf-count target: the first prefix of a random word
    whose element has exactly that many leaves (and nests no deeper than
    ``max_nesting``)."""
    letters = {letter: k.words.eval_word([letter]) for letter in LETTERS}
    out = []
    for target in targets:
        e, length = k.element.identity(), 0
        while e.leaf_count() != target or max_nesting and nesting(e) > max_nesting:
            if length > 2 * target:
                e, length = k.element.identity(), 0
            e = k.element.compose(e, letters[rng.choice(LETTERS)])
            length += 1
        out.append(e)
    return out


def rist_pair(k, rng, lengths):
    """(f, g, f∘g, tau f, tau g) for two rigid-stabilizer elements made from
    random words in Thompson's T."""
    th = k.thompson
    f, g = (th.tau_inverse(th.word_to_tp(random_word(rng, n, T_LETTERS))) for n in lengths)
    return f, g, k.element.compose(f, g), th.tau(f), th.tau(g)


def slope_map(k, rng):
    """A map with a slope 3/2 * 2^j: h after e, h of slopes 3/2 and 1/2."""
    ci = k.circle
    r = Fraction(rng.randrange(12), 12)
    h = ci.PLCircleMap([(0, r), (Fraction(1, 2), r + Fraction(3, 4))])
    return ci.pl_compose(h, k.words.eval_word(random_word(rng, 10)).to_pl())


def dyadic_map(k, rng):
    """A map of Thompson's T: power-of-two slopes, dyadic breakpoints, and
    dyadic points are never arc endpoints."""
    th = k.thompson
    while True:
        pl = th.tp_to_pl(th.word_to_tp(random_word(rng, 8, T_LETTERS)))
        if not pl.is_rotation():
            return pl


def third_after(k, word):
    """rotation(1/3) after the element of the word: it breaks {1/3, 2/3}."""
    ci = k.circle
    return ci.pl_compose(ci.rotation(Fraction(1, 3)), k.words.eval_word(word.split()).to_pl())


# -- operations and their checks -----------------------------------------------

def compose_op(k, key, f, g):
    return Op("compose", key, lambda: k.element.compose(f, g),
              lambda h, err: checks.composes_to(
                  checks.element_map(h), checks.element_map(f), checks.element_map(g)))


def tp_compose_op(k, key, tf, tg):
    return Op("tp_compose", key, lambda: k.thompson.tp_compose(tf, tg),
              lambda t, err: checks.composes_to(
                  checks.treepair_map(t), checks.treepair_map(tf), checks.treepair_map(tg)))


def accept_op(k, kind, key, e, pl):
    """recognize on the map of a member: the reduced element comes back."""
    return Op(kind, key, lambda: k.membership.recognize(pl),
              lambda r, err: str(r) == str(e)
              and checks.same_map(checks.element_map(r), checks.table_map(pl)))


def _reject_op(k, kind, key, pl, code, witness_ok, **flags):
    def check(value, error):
        return getattr(error, "code", None) == code and witness_ok(error.witness)
    return Op(kind, key, lambda: k.membership.recognize(pl), check, **flags)


def slope_op(k, key, pl):
    return _reject_op(k, "reject", key, pl, "SlopeNotPowerOfTwo",
                      lambda w: w in checks.table_map(pl).slopes() and not checks.is_pow2(w))


def dyadic_op(k, key, pl):
    return _reject_op(k, "reject", key, pl, "BreakpointNotArcEndpoint",
                      lambda w: checks.frac(w) in checks.table_map(pl).points()
                      and not checks.is_endpoint(checks.frac(w)))


def slow_op(k, key, pl):
    return _reject_op(k, "reject", key, pl, "ArcNotPreserved",
                      lambda w: str(w) == "{1/3,2/3}"
                      and checks.arc_not_preserved(checks.table_map(pl), w))


def hopeless_op(k, key, pl):
    return _reject_op(k, "hopeless", key, pl, "ArcNotPreserved",
                      lambda w: checks.arc_not_preserved(checks.table_map(pl), w),
                      limit=LIMIT_S, known_fault=True)


def decompose_op(k, key, e):
    """decompose; the word multiplies back to e and its a-parity is e's
    abelianization."""
    wd = k.words
    parity = wd.abelianize(e)
    return Op("decompose", key, lambda: wd.decompose(e),
              lambda word, err: checks.a_parity(word) == parity and checks.same_map(
                  checks.element_map(wd.eval_word(word)), checks.element_map(e)),
              size=len)


ENTRY = "import sys; from basilica.cli import main; sys.exit(main())"


class Tb:
    """Runs ``tb`` as a fresh interpreter, or through ``main()`` in this
    process when ``in_process`` is set (the traced run)."""

    def __init__(self, k):
        self.k = k
        self.in_process = False
        self.env = dict(os.environ, PYTHONPATH=k.src)

    def __call__(self, argv):
        """(exit code, stdout, stderr) of one call."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.k.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = 1
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=self.env,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr


def call_op(tb, key, argv, check, prev=None, known_fault=False):
    """One ``tb`` call.  ``argv`` may be a function of the outputs of earlier
    calls of the round, which are kept in ``prev`` under their key;
    ``check(code, stdout, prev)`` runs after the exit-code contract."""
    def call():
        code, out, err = tb(argv(prev) if callable(argv) else argv)
        if code == 0 and prev is not None:
            prev[key] = out.strip()
        return code, out, err

    def run_check(value, error):
        code, out, err = value
        return code in (0, 1, 2) and "Traceback" not in err and check(code, out, prev)

    return Op("call", key, call, run_check, known_fault=known_fault)


# -- sentinels -----------------------------------------------------------------

def repeated(ops, times):
    for op in ops:
        op.repeat = times
    return ops


def sentinel_ops(k, skip, tb):
    """Fixed inputs, the same for every seed, for the kinds not in ``skip``;
    every round runs all of them.  Cheap ones repeat back to back, so that
    the first call warms the caches a preceding operation of another kind
    has cooled."""
    rng = random.Random("sentinel")
    small, large = band(k, rng, (20, 24, 28)), band(k, rng, (80,))
    ops = {
        "compose": repeated([compose_op(k, ("sentinel", i), *(
            k.words.eval_word(random_word(rng, n)) for n in (8 * i + 8, 8 * i + 12)))
            for i in range(4)], 5),
        "tp_compose": repeated([tp_compose_op(k, ("sentinel", i),
                                              *rist_pair(k, rng, (6 * i + 6, 6 * i + 8))[3:])
                                for i in range(4)], 5),
        "small": repeated([accept_op(k, "small", ("sentinel", i), e, e.to_pl())
                           for i, e in enumerate(small)], 2),
        "large": [accept_op(k, "large", "sentinel", large[0], large[0].to_pl())],
        "reject": repeated([slope_op(k, ("sentinel", "slope"), slope_map(k, rng)),
                            dyadic_op(k, ("sentinel", "dyadic"), dyadic_map(k, rng))], 3)
        + [slow_op(k, ("sentinel", x), third_after(k, x)) for x in SLOW],
        "decompose": repeated([decompose_op(k, ("sentinel", i), e) for i, e in enumerate(
            band(k, rng, (16, 18, 20, 22, 24) * 2, MAX_NESTING))], 2),
        "call": cli_calls(k, tb, rng),
    }
    return [op for kind, kind_ops in ops.items() if kind not in skip for op in kind_ops]


class Workload:
    """The operations of its own ``KINDS`` (``own_round``), then all the
    sentinels, in every round."""

    KINDS: tuple = ()
    cover = 4

    def __init__(self, k):
        self.k = k
        self.tb = Tb(k)
        self.sentinels = sentinel_ops(k, self.KINDS, self.tb)
        self.tb(["word", "--word", "a"])

    def round(self, r):
        return self.own_round(r) + self.sentinels


# -- arith -------------------------------------------------------------------

class Arith(Workload):
    """compose / inverse / reduce on T_B elements; tau and tp_compose on the
    rigid stabilizer of the central gap.  Each round is one pass over both
    corpora."""

    KINDS = ("compose", "tp_compose")
    PAIRS = 80
    LENGTHS = (4, 8, 12, 16, 20, 24, 28, 32, 36, 40)
    RIST_PAIRS = 40
    RIST_LENGTHS = (4, 8, 12, 16, 20, 24)
    EXPANSIONS = 3

    def __init__(self, k, seed):
        super().__init__(k)
        rng = random.Random(f"arith/{seed}")
        el, th, wd = k.element, k.thompson, k.words
        n, m = len(self.LENGTHS), len(self.RIST_LENGTHS)
        self.ops = []
        for i in range(self.PAIRS):
            f = wd.eval_word(random_word(rng, self.LENGTHS[i % n]))
            g = wd.eval_word(random_word(rng, self.LENGTHS[(i // n + i) % n]))
            f_inv, unreduced = el.inverse(f), f
            for _ in range(self.EXPANSIONS):
                unreduced = el.expand_pair(unreduced, rng.randrange(unreduced.leaf_count()))
            self.ops += [
                compose_op(k, i, f, g),
                Op("inverse", i, lambda f=f: el.inverse(f),
                   lambda h, err, f=f: checks.composes_to(
                       checks.IDENTITY_MAP, checks.element_map(h), checks.element_map(f))),
                Op("cancel", i, lambda f=f, f_inv=f_inv: el.compose(f, f_inv),
                   lambda h, err: str(h) == IDENTITY),
                Op("reduce", i, lambda u=unreduced: el.reduce(u),
                   lambda h, err, f=f: str(h) == str(f)
                   and checks.same_map(checks.element_map(h), checks.element_map(f))),
            ]
        for j in range(self.RIST_PAIRS):
            f, g, fg, tf, tg = rist_pair(
                k, rng, (self.RIST_LENGTHS[j % m], self.RIST_LENGTHS[(j // m + j) % m]))
            for side, x in (("f", f), ("g", g)):
                self.ops.append(Op("tau", (j, side), lambda x=x: th.tau(x),
                                   lambda t, err, x=x: str(th.tau_inverse(t)) == str(x)))
            product = tp_compose_op(k, j, tf, tg)
            self.ops.append(Op("tau", (j, "fg"), lambda fg=fg: th.tau(fg), product.check))
            self.ops.append(product)
        for op in self.ops[::8]:
            op.call()

    def own_round(self, r):
        return self.ops


# -- membership --------------------------------------------------------------

class Membership(Workload):
    """``recognize`` on accepted maps in two leaf bands and on rejected maps.

    Per round: one large-band map, eight small-band maps, two fast
    rejections (a slope that is not a power of two, a breakpoint that is no
    arc endpoint), one slow rejection rotation(1/3)∘x for x in b, b', and
    one rotation(1/3)∘w that rejects only after the refinement has run to
    its depth bound (a known fault, cut at a time limit).  Over the eight
    rounds of a cover every large map runs once, every small map two or
    three times.  At a fixed leaf count the time of a large map still
    varies by a seventh from map to map, hence eight of them.
    """

    KINDS = ("small", "large", "reject")
    SMALL = (20, 22, 24, 26, 28, 30) * 4
    LARGE = (80,) * 8
    SMALL_PER_ROUND = 8
    FAST = 6
    cover = len(LARGE)

    def __init__(self, k, seed):
        super().__init__(k)
        rng = random.Random(f"membership/{seed}")
        self.small = [accept_op(k, "small", i, e, e.to_pl())
                      for i, e in enumerate(band(k, rng, self.SMALL))]
        self.large = [accept_op(k, "large", i, e, e.to_pl())
                      for i, e in enumerate(band(k, rng, self.LARGE))]
        self.fast = [op for i in range(self.FAST)
                     for op in (slope_op(k, ("slope", i), slope_map(k, rng)),
                                dyadic_op(k, ("dyadic", i), dyadic_map(k, rng)))]
        self.slow = [slow_op(k, ("slow", x), third_after(k, x)) for x in SLOW]
        self.hopeless = [hopeless_op(k, x, third_after(k, x)) for x in HOPELESS]
        self.small[0].call()

    def own_round(self, r):
        s = self.SMALL_PER_ROUND
        return ([self.large[r % len(self.large)]]
                + [self.small[(r * s + j) % len(self.small)] for j in range(s)]
                + [self.fast[(2 * r + j) % len(self.fast)] for j in range(2)]
                + [self.slow[r % len(self.slow)], self.hopeless[r % len(self.hopeless)]])


# -- tb calls ------------------------------------------------------------------

def cli_calls(k, tb, rng):
    """Sequential ``tb`` calls covering every verb on inputs from short random
    words; the last three are documented faults and fail on every run."""
    el, th, wd = k.element, k.thompson, k.words
    w1, w2 = random_word(rng, rng.randint(3, 6)), random_word(rng, rng.randint(3, 6))
    e1, e2 = wd.eval_word(w1), wd.eval_word(w2)
    unreduced = str(el.expand_pair(e2, rng.randrange(e2.leaf_count())))
    rist = str(th.tau_inverse(th.word_to_tp(random_word(rng, 6, T_LETTERS))))
    angle = Fraction(rng.randrange(1, 24), 24)
    seed_arg, length_arg = str(rng.randrange(1000)), str(rng.randint(3, 8))
    p1, p2, e2_pl = checks.element_map(e1), checks.element_map(e2), str(e2.to_pl())
    e1, e2 = str(e1), str(e2)
    word, word_inv = " ".join(w1), " ".join(wd.invert_word(w1))
    angle_text = f"{angle.numerator}/{angle.denominator}"

    def succeeded(code, out, prev):
        return code == 0

    def text_is(expected):
        return lambda code, out, prev: code == 0 and out.strip() == expected

    def angle_is(expected):
        return lambda code, out, prev: code == 0 and checks.frac(out) == expected

    def element_is(test):
        return lambda code, out, prev: code == 0 and test(checks.element_map(out))

    calls = [
        ("word", ["word", "--word", word], text_is(e1)),
        ("decompose", ["decompose", "--element", e1], succeeded),
        ("word2", lambda prev: ["word", "--word", prev["decompose"]], text_is(e1)),
        ("reduce", ["reduce", "--element", unreduced], text_is(e2)),
        ("compose", ["compose", "--element", e1, "--element", e2],
         element_is(lambda f: checks.composes_to(f, p1, p2))),
        ("invert", ["invert", "--element", e2],
         element_is(lambda f: checks.composes_to(checks.IDENTITY_MAP, f, p2))),
        ("eval", ["eval", "--word", "d", "--angle", angle_text],
         angle_is(checks.mod1(angle + Fraction(1, 2)))),
        ("eval2", ["eval", "--element", e1, "--angle", angle_text], angle_is(p1(angle))),
        ("recognize", ["recognize", "--pl", e2_pl], element_is(lambda f: checks.same_map(f, p2))),
        ("reject", ["recognize", "--pl", str(third_after(k, "a"))],
         lambda code, out, prev: code == 2 and out.strip() == "REJECT ArcNotPreserved {1/3,2/3}"),
        ("tau", ["tau", "--element", rist], succeeded),
        ("tau_inverse", lambda prev: ["tau", "--treepair", prev["tau"], "--inverse"], text_is(rist)),
        # on the rigid stabilizer the boundary action is tau itself
        ("boundary", ["tau", "--element", rist, "--boundary"],
         lambda code, out, prev: code == 0 and out.strip() == prev.get("tau")),
        ("abelianize", ["abelianize", "--word", word], text_is(str(checks.a_parity(w1)))),
        ("gap", ["gap", "--gap", "central", "--word", word], succeeded),
        ("gap_back", lambda prev: ["gap", "--gap", prev["gap"], "--word", word_inv],
         text_is("central")),
        ("random", ["random", "--seed", seed_arg, "--length", length_arg],
         lambda code, out, prev: code == 0
         and str(el.reduce(el.parse_element(out))) == out.strip()),
        ("render", ["render", "--element", e1],
         lambda code, out, prev: code == 0
         and out.count('<path class="arc"') == sum(checks.element_arc_counts(e1))),
    ]
    faults = [
        # documented in the README, rejected by the parser
        ("tau_word", ["tau", "--word", "b g"],
         lambda code, out, prev: code == 0 or out.startswith("REJECT NotInRist")),
        ("render_word", ["render", "--word", "a"],
         lambda code, out, prev: code == 0 and "<svg" in out),
        # a malformed PL map must exit 1 with a message, not a traceback
        ("malformed", ["recognize", "--pl", "1/6:1/6,1/6:1/3"],
         lambda code, out, prev: code == 1),
    ]
    prev: dict = {}
    return ([call_op(tb, key, argv, check, prev) for key, argv, check in calls]
            + [call_op(tb, key, argv, check, prev, known_fault=True) for key, argv, check in faults])


# -- metrics -----------------------------------------------------------------

def fastest(log, kind) -> dict:
    """Fastest time of each input of one kind, over the rounds that ran it.

    Other tenants of the machine slow single calls by up to a third for
    seconds at a time; the minimum over repeats is what stays put."""
    times: dict = {}
    for rec in log:
        if rec.kind == kind and rec.ok:
            times[rec.key] = min(rec.seconds, times.get(rec.key, rec.seconds))
    return times


def rate(log, kind) -> float:
    """Inputs of one kind per second, each input at its fastest."""
    times = fastest(log, kind)
    return len(times) / sum(times.values())


def median_ms(log, kind) -> float:
    return 1000 * statistics.median(fastest(log, kind).values())


def metrics(log) -> dict:
    """name -> (value, unit) of the end-to-end metrics read from the log."""
    letters = {rec.key: rec.size for rec in log if rec.kind == "decompose" and rec.ok}
    return {
        "compose_per_s": (rate(log, "compose"), "1/s"),
        "tp_compose_per_s": (rate(log, "tp_compose"), "1/s"),
        "recognize_ms.small": (median_ms(log, "small"), "ms"),
        "recognize_ms.large": (median_ms(log, "large"), "ms"),
        "rejects_per_s": (rate(log, "reject"), "1/s"),
        "decompose_per_s": (1000 / median_ms(log, "decompose"), "1/s"),
        "decompose_letters": (statistics.mean(letters.values()), "letters"),
        "cli_ms": (median_ms(log, "call"), "ms"),
    }


WORKLOADS = {"arith": Arith, "membership": Membership}

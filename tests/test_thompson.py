import random
from fractions import Fraction

import pytest

from basilica.diagram import forest_expand
from basilica.element import compose, equal, generator, identity, inverse, reduce
from basilica.errors import NotInRist, NotInStab
from basilica.thompson import (
    TreePair,
    boundary_action,
    factor_t,
    free_reduce,
    parse_treepair,
    rotation_treepair,
    t_transporter,
    tau,
    tau_inverse,
    tp_compose,
    tp_equal,
    tp_identity,
    tp_inverse,
    tp_reduce,
    tp_to_pl,
    word_to_tp,
)

RIST_GENS = ["beta", "gamma", "delta"]


def random_rist(rng, length):
    e = identity()
    for _ in range(length):
        name = rng.choice(RIST_GENS)
        g = generator(name)
        if rng.random() < 0.4:
            g = inverse(g)
        e = compose(e, g)
    return e


def tp_eval(t, x):
    return tp_to_pl(t).eval_fraction(Fraction(x))


def random_treepair(rng, length):
    t = tp_identity()
    for _ in range(length):
        t = tp_compose(t, word_to_tp([rng.choice(["B", "G", "D", "B'", "G'"])]))
    return t


def test_tau_of_generators():
    assert tau(generator("beta")) == parse_treepair("[.,(.,.) ; (.,.),. ; 0]")
    assert tau(generator("gamma")) == parse_treepair(
        "[(.,(.,.)),. ; ((.,.),.),. ; 0]"
    )
    # half rotation
    assert tau(generator("delta")) == parse_treepair("[.,. ; .,. ; 1]")


def test_tau_rejects_non_rist():
    with pytest.raises(NotInRist):
        tau(generator("alpha"))


def test_tau_is_a_homomorphism():
    rng = random.Random(41)
    for _ in range(40):
        a = random_rist(rng, rng.randrange(1, 5))
        b = random_rist(rng, rng.randrange(1, 5))
        assert tp_equal(tau(compose(a, b)), tp_compose(tau(a), tau(b)))


def test_tau_inverse_roundtrip():
    rng = random.Random(42)
    for _ in range(30):
        e = reduce(random_rist(rng, rng.randrange(1, 6)))
        assert equal(tau_inverse(tau(e)), e)
    for _ in range(15):
        t = tp_reduce(random_treepair(rng, rng.randrange(1, 6)))
        assert tau(tau_inverse(t)) == t


def test_boundary_action_extends_tau():
    rng = random.Random(43)
    for _ in range(20):
        e = random_rist(rng, rng.randrange(1, 5))
        assert tp_equal(boundary_action(e), tau(e))
    with pytest.raises(NotInStab):
        boundary_action(generator("alpha"))


def test_boundary_action_is_a_homomorphism_on_stab():
    rng = random.Random(44)
    alpha = generator("alpha")
    for _ in range(15):
        # conjugates of rist elements by alpha^2-free stab words stay in stab
        a = random_rist(rng, rng.randrange(1, 4))
        b = random_rist(rng, rng.randrange(1, 4))
        assert tp_equal(
            boundary_action(compose(a, b)),
            tp_compose(boundary_action(a), boundary_action(b)),
        )


def test_treepair_group_axioms():
    rng = random.Random(45)
    for _ in range(25):
        s = random_treepair(rng, rng.randrange(1, 5))
        t = random_treepair(rng, rng.randrange(1, 5))
        u = random_treepair(rng, rng.randrange(1, 5))
        assert tp_equal(tp_compose(tp_compose(s, t), u), tp_compose(s, tp_compose(t, u)))
        assert tp_compose(s, tp_inverse(s)) == tp_identity()


def test_rotation_treepair():
    t = rotation_treepair(Fraction(3, 8))
    for k in range(8):
        assert tp_eval(t, Fraction(k, 8)) == Fraction((k + 3) % 8, 8)
    assert rotation_treepair(Fraction(0)) == tp_identity()
    with pytest.raises(ValueError):
        rotation_treepair(Fraction(1, 3))


def test_transporter_moves_the_point():
    # the smallest forest cut at p = k/2^a and at q = l/2^b
    rng = random.Random(46)
    for _ in range(60):
        a, b = rng.randrange(9), rng.randrange(9)
        p = Fraction(rng.randrange(2 ** a), 2 ** a)
        q = Fraction(rng.randrange(2 ** b), 2 ** b)
        t = t_transporter(p, q)
        assert tp_eval(t, p) == q
        assert t.leaf_count() <= a + b + 2
    with pytest.raises(ValueError):
        t_transporter(Fraction(1, 3), Fraction(1, 2))


def test_factor_t_roundtrip():
    rng = random.Random(47)
    for _ in range(40):
        t = random_treepair(rng, rng.randrange(0, 7))
        word = factor_t(t)
        assert tp_equal(word_to_tp(word), t)
        assert free_reduce(word) == word
        assert len(word) <= 6 * t.leaf_count()
    assert factor_t(tp_identity()) == []


def test_expand_treepair_preserves_map():
    rng = random.Random(50)
    wrapped = 0
    for _ in range(40):
        t = tp_reduce(random_treepair(rng, rng.randrange(1, 6)))
        blown = t
        for _ in range(rng.randrange(1, 5)):
            m, offset = blown.leaf_count(), blown.offset
            i = rng.randrange(m)
            u = (i + offset) % m
            wrapped += i + offset >= m
            blown = TreePair(
                forest_expand(blown.domain, i, 2),
                forest_expand(blown.range, u, 2),
                offset + (u < offset),
            )
        assert blown.leaf_count() > t.leaf_count()
        assert tp_to_pl(blown) == tp_to_pl(t)
        assert tp_reduce(blown) == t
        # tp_compose reduces what it returns, even from unreduced inputs
        for product in (tp_compose(blown, blown), tp_compose(t, blown)):
            assert tp_reduce(product) == product
    assert wrapped


def test_treepair_to_pl_is_faithful():
    rng = random.Random(48)
    for _ in range(20):
        s = random_treepair(rng, rng.randrange(1, 5))
        t = random_treepair(rng, rng.randrange(1, 5))
        if tp_to_pl(s) == tp_to_pl(t):
            assert tp_equal(s, t)


def test_serialization_roundtrip():
    rng = random.Random(49)
    for _ in range(15):
        t = random_treepair(rng, rng.randrange(6))
        assert parse_treepair(str(t)) == t
        assert hash(parse_treepair(str(t))) == hash(t)
        for other in (identity(), (*t.forests, t.offset), str(t)):
            assert (t == other) is False and (other == t) is False
    assert repr(tp_identity()) == "TreePair([.,. ; .,. ; 0])"

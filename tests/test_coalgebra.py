"""Wedge monomials, Koszul signs, and the reduced coproduct."""
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

import cumalg as cm
from cumalg.algebra import LinearCombination
from cumalg.coalgebra import (
    _sort_sign,
    _split_table,
    as_monomial,
    repetition_pattern,
    splits,
)
from cumalg.oracles import _rearrangement_sign

from conftest import random_selement, split_rows


def bubble_sign(degrees, perm):
    """Koszul sign by explicit adjacent transpositions (independent oracle)."""
    order = sorted(range(len(perm)), key=lambda i: perm[i])
    arrangement = list(range(len(perm)))
    sign = 1
    for pos, want in enumerate(order):
        j = arrangement.index(want)
        while j > pos:
            left, right = arrangement[j - 1], arrangement[j]
            if degrees[left] % 2 and degrees[right] % 2:
                sign = -sign
            arrangement[j - 1], arrangement[j] = right, left
            j -= 1
    return sign


def test_koszul_sign_basics():
    assert cm.koszul_sign((1, 1), (1, 0)) == -1
    assert cm.koszul_sign((0, 0), (1, 0)) == 1
    assert cm.koszul_sign((1, 0, 1), (2, 1, 0)) == -1
    assert cm.koszul_sign((1, 1, 1), (0, 1, 2)) == 1


@pytest.mark.parametrize("seed", range(10))
def test_koszul_sign_matches_transposition_count(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(2, 5)
        degrees = tuple(rng.randint(-2, 3) for _ in range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        assert cm.koszul_sign(degrees, tuple(perm)) == bubble_sign(degrees, perm)


@pytest.mark.parametrize("seed", range(5))
def test_rearrangement_sign_matches_transposition_count(seed):
    """Listing a word's factors block by block, for 2 or 3 blocks of sorted
    positions, picks up the sign of the adjacent swaps that do it."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(2, 7)
        degrees = tuple(rng.choice((-1, 0, 1, 2, 3)) for _ in range(n))
        k = rng.randint(2, min(3, n))
        labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(labels)
        blocks = [tuple(p for p in range(n) if labels[p] == b) for b in range(k)]
        order = [p for block in blocks for p in block]
        perm = [order.index(p) for p in range(n)]
        w = cm.WedgeMonomial(tuple(range(n)), degrees)
        assert _rearrangement_sign(w, blocks) == bubble_sign(degrees, perm)


def test_koszul_sign_is_multiplicative():
    rng = random.Random(3)
    degrees = (1, 0, 1, 1)
    for _ in range(30):
        p = list(range(4))
        q = list(range(4))
        rng.shuffle(p)
        rng.shuffle(q)
        composed = tuple(q[p[i]] for i in range(4))
        after_p = tuple(degrees[i] for i in sorted(range(4), key=lambda i: p[i]))
        assert cm.koszul_sign(degrees, composed) == cm.koszul_sign(
            degrees, tuple(p)
        ) * cm.koszul_sign(after_p, tuple(q))


def test_normalize_sorts_with_sign(e2):
    ab = cm.normalize_monomial(e2, (1, 0))
    assert ab == (cm.monomial(e2, (0, 1)), -1)
    ag = cm.normalize_monomial(e2, (2, 0))
    assert ag == (cm.monomial(e2, (0, 2)), 1)


def test_normalize_kills_odd_repeats(e2):
    assert cm.normalize_monomial(e2, (0, 0)) is None
    assert cm.normalize_monomial(e2, (1, 2, 1)) is None
    assert cm.normalize_monomial(e2, (2, 2)) is not None


def test_normalize_respects_arbitrary_permutations(e2):
    """Reordering input factors must only ever change the Koszul sign."""
    import itertools

    for mono in cm.monomials_up_to(e2, 4):
        base = cm.normalize_monomial(e2, mono.indices)
        assert base == (mono, 1)
        for perm in itertools.permutations(range(mono.weight)):
            shuffled = tuple(mono.indices[i] for i in perm)
            got = cm.normalize_monomial(e2, shuffled)
            assert got is not None
            # shuffled slot i holds the factor whose sorted slot is perm[i]
            degrees = tuple(mono.factor_degrees[i] for i in perm)
            expected_sign = cm.koszul_sign(degrees, perm)
            assert got == (mono, expected_sign)


def test_canonical_monomial_counts(e2, p8):
    # even generators repeat freely, odd ones cannot
    assert len(cm.canonical_monomials(p8, 2)) == 36
    assert [m.names(e2) for m in cm.canonical_monomials(e2, 2)] == [
        ["a", "b"], ["a", "g"], ["b", "g"], ["g", "g"]
    ]


def test_monomial_degree_and_weight(e2):
    m = cm.monomial(e2, (0, 1, 2))
    assert m.weight == 3
    assert m.degree == 4


def test_wedge_monomials_survive_copies_and_pickles(e2):
    m = cm.monomial(e2, (0, 1, 2, 2))
    for copied in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(copied) is cm.WedgeMonomial
        assert copied == m and hash(copied) == hash(m)
        assert (copied.indices, copied.factor_degrees) == ((0, 1, 2, 2), (1, 1, 2, 2))
        assert (copied.weight, copied.degree) == (4, 6)
        assert copied.part((1, 3)) == cm.monomial(e2, (1, 2))
        assert repr(copied) == "w(0,1,2,2)"
    again = cm.normalize_monomial(e2, (2, 1, 0, 2))[0]
    assert again == m and hash(again) == hash(m)
    assert len({m, again, cm.monomial(e2, (0, 1, 2))}) == 2


def test_wedge_is_graded_commutative(e2):
    cap = 5
    for u in cm.monomials_up_to(e2, 2):
        for v in cm.monomials_up_to(e2, 2):
            x = cm.SElement(e2, cap, {u: 1})
            y = cm.SElement(e2, cap, {v: 1})
            sign = (-1) ** (u.degree * v.degree)
            assert cm.wedge(x, y) == sign * cm.wedge(y, x)


def test_wedge_of_odd_generator_with_itself_vanishes(e2):
    a = cm.SElement.from_vector(e2.generator(0), 4)
    assert cm.wedge(a, a).is_zero()


def test_wedge_past_the_cap_is_refused(e2):
    g = cm.SElement.from_vector(e2.generator(2), 2)
    gg = cm.wedge(g, g)
    assert not gg.is_zero()
    with pytest.raises(cm.ValidationError):
        cm.wedge(gg, g)


def test_coproduct_of_weight_one_vanishes(e2):
    for mono in cm.canonical_monomials(e2, 1):
        assert cm.coproduct(mono).is_zero()


def test_coproduct_of_a_wedge_pair(e2):
    a_b = cm.monomial(e2, (0, 1))
    pairs = cm.coproduct(a_b).terms
    a, b = cm.monomial(e2, (0,)), cm.monomial(e2, (1,))
    assert pairs == {(a, b): Fraction(1), (b, a): Fraction(-1)}


def test_coproduct_term_count_on_even_triple(p8):
    w = cm.monomial(p8, (0, 1, 2))
    assert len(cm.coproduct(w)) == 6


def signed_flip(pairs):
    """The graded flip l⊗r -> (-1)^(|l||r|) r⊗l of a sum of monomial pairs."""
    out = LinearCombination()
    for (l, r), c in pairs.terms.items():
        out.add_term((r, l), cm.parity_sign(l.degree, r.degree) * c)
    return out


def test_coproduct_is_cocommutative(e2, p8):
    for basis in (e2, p8):
        for mono in cm.monomials_up_to(basis, 4):
            dw = cm.coproduct(mono)
            assert signed_flip(dw) == dw


def test_coproduct_is_coassociative(e2):
    """Both nested expansions must agree with the three-fold splitting."""
    for mono in cm.monomials_up_to(e2, 5):
        if mono.weight < 3:
            continue
        left, right = {}, {}
        for (l, r), c in cm.coproduct(mono).terms.items():
            for (l1, l2), c1 in cm.coproduct(l).terms.items():
                key = (l1, l2, r)
                left[key] = left.get(key, 0) + c * c1
            for (r1, r2), c1 in cm.coproduct(r).terms.items():
                key = (l, r1, r2)
                right[key] = right.get(key, 0) + c * c1
        direct = {parts: c for c, parts in cm.iterated_coproduct(mono, 3)}
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right == direct


def test_iterated_coproduct_edge_orders(p8):
    w = cm.monomial(p8, (0, 1, 2))
    assert cm.iterated_coproduct(w, 1) == [(Fraction(1), (w,))]
    parts = cm.iterated_coproduct(w, 3)
    assert len(parts) == 6
    assert all(c == 1 for c, _ in parts)
    with pytest.raises(cm.ValidationError):
        cm.iterated_coproduct(w, 4)


def test_iterated_coproduct_signs_on_odd_factors(e2):
    w = cm.monomial(e2, (0, 1))
    a, b = cm.monomial(e2, (0,)), cm.monomial(e2, (1,))
    assert cm.iterated_coproduct(w, 2) == [
        (Fraction(1), (a, b)), (Fraction(-1), (b, a))
    ]


def test_coproduct_respects_weight_filtration(p8):
    for mono in cm.monomials_up_to(p8, 4):
        for (l, r) in cm.coproduct(mono).terms:
            assert l.weight + r.weight == mono.weight
            assert l.weight >= 1 and r.weight >= 1


def test_selement_round_trip_and_order(e2):
    rng = random.Random(11)
    v = random_selement(rng, e2, 4, density=0.5)
    doc = v.to_doc()
    names = [tuple(t["monomial"]) for t in doc]
    assert names == sorted(names, key=lambda n: (len(n), n))


def test_selement_rejects_terms_past_cap(e2):
    g = cm.monomial(e2, (2, 2))
    with pytest.raises(cm.ValidationError):
        cm.SElement(e2, 1, {g: Fraction(1)})


def test_set_partition_counts():
    # Bell numbers
    assert [len(cm.set_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    for part in cm.set_partitions(4):
        seen = sorted(i for block in part for i in block)
        assert seen == [0, 1, 2, 3]
        assert list(part) == sorted(part, key=min)
        assert all(list(b) == sorted(b) for b in part)


def test_repetition_pattern_counts_runs_of_equal_indices():
    assert repetition_pattern((0, 0, 1, 2, 2, 2)) == (2, 1, 3)
    assert repetition_pattern((4,)) == (1,)


def even_word(pattern):
    """An all-even word with the given repetition pattern."""
    indices = tuple(k for k, m in enumerate(pattern) for _ in range(m))
    return cm.WedgeMonomial(indices, (0,) * len(indices))


@pytest.mark.parametrize(
    "pattern", [(1,), (4,), (2, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1), (3, 2), (6,)]
)
def test_first_blocks_count_every_block_that_holds_the_first_factor(pattern):
    n = sum(pattern)
    starts = [sum(pattern[:k]) for k in range(len(pattern))]
    table = splits(even_word(pattern))
    positions = tuple(range(n))
    blocks = [(take(positions), leave(positions), first)
              for _, first, take, leave in table if first]
    # with the whole word, 2^(n-1) subsets hold position 0
    assert sum(first for _, _, first in blocks) + 1 == 2 ** (n - 1)
    # and with the empty block and the whole word, 2^n subsets in all
    assert sum(coeff for coeff, _, _, _ in table) + 2 == 2 ** n
    for block, rest, _ in blocks:
        assert block[0] == 0 and rest
        assert sorted(block + rest) == list(range(n))
        # each run contributes a prefix of its positions
        for start, m in zip(starts, pattern):
            taken = [p for p in block if start <= p < start + m]
            assert taken == list(range(start, start + len(taken)))


def test_first_blocks_of_one_repeated_factor_are_binomial():
    for n in range(1, 9):
        table = splits(even_word((n,)))
        positions = tuple(range(n))
        firsts = {len(take(positions)): first for _, first, take, _ in table}
        assert firsts == {k: math.comb(n - 1, k - 1) for k in range(1, n)}
        coeffs = {len(take(positions)): coeff for coeff, _, take, _ in table}
        assert coeffs == {k: math.comb(n, k) for k in range(1, n)}


def word_shapes(max_weight):
    """Every (repetition pattern, factor parities) of a word up to
    `max_weight` in which no odd factor repeats."""
    for n in range(1, max_weight + 1):
        for cuts in itertools.product((False, True), repeat=n - 1):
            pattern, run = [], 1
            for cut in cuts:
                if cut:
                    pattern.append(run)
                    run = 1
                else:
                    run += 1
            pattern.append(run)
            singles = [k for k, m in enumerate(pattern) if m == 1]
            for odd in itertools.product((0, 1), repeat=len(singles)):
                odd_runs = {k for k, o in zip(singles, odd) if o}
                parities = tuple(
                    int(k in odd_runs) for k, m in enumerate(pattern) for _ in range(m)
                )
                yield tuple(pattern), parities


def test_split_signs_equal_the_sort_sign():
    """The one-pass block-before-rest sign of `_split_table` equals the
    Koszul sign of sorting the listed positions, for every shape up to
    weight 7."""
    for pattern, parities in word_shapes(7):
        starts = list(itertools.accumulate(pattern, initial=0))
        positions = tuple(range(len(parities)))
        for coeff, _, take, leave in _split_table(pattern, parities):
            block = take(positions)
            order = block + leave(positions)
            counts = [sum(s <= p < s + m for p in block) for s, m in zip(starts, pattern)]
            multiplicity = math.prod(math.comb(m, c) for m, c in zip(pattern, counts))
            assert coeff == _sort_sign(order, [parities[p] for p in order]) * multiplicity


def test_split_memo_keeps_every_word_shape_apart(monkeypatch):
    """Every word shape up to weight 6 goes through one memo, and each gets
    the table of its own repetition pattern and parities: no two shapes
    share a memo key."""
    monkeypatch.setattr(cm.coalgebra, "_coproduct_memo", {})
    for pattern, parities in word_shapes(6):
        indices = tuple(k for k, m in enumerate(pattern) for _ in range(m))
        got = splits(cm.WedgeMonomial(indices, parities))
        assert split_rows(got, len(indices)) == split_rows(
            _split_table(pattern, parities), len(indices)), (pattern, parities)


def test_split_getters_pick_the_block_and_the_rest():
    """Each row's getters give the monomials `part` gives, one-position
    blocks and rests included, on random words whose even factors repeat up
    to three times and whose odd factors appear once."""
    rng = random.Random(7)
    single = set()
    for weight in range(1, 8):
        for _ in range(40):
            indices, degrees, k = [], [], 0
            while len(indices) < weight:
                degree = rng.choice((-1, 0, 1, 2, 3))
                times = 1 if degree % 2 else rng.randint(1, min(3, weight - len(indices)))
                indices += [k] * times
                degrees += [degree] * times
                k += 1
            w = cm.WedgeMonomial(tuple(indices), tuple(degrees))
            positions = tuple(range(weight))
            for _, _, take, leave in splits(w):
                block, rest = take(positions), leave(positions)
                assert as_monomial((take(w[0]), take(w[1]))) == w.part(block)
                assert as_monomial((leave(w[0]), leave(w[1]))) == w.part(rest)
                single.update(len(part) for part in (block, rest) if len(part) == 1)
    assert single == {1}

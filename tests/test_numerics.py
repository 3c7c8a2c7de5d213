"""The integer (mantissa, exponent) arithmetic of the alternating character
series against mpmath's libmp: each operation formed exactly, then rounded once.
Also the series' shared zeta_m table against per-class embedding, the
screened truncation search against the unscreened one, and the cached
truncation plans against the uncached search."""
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpc_mul, mpf_add, mpf_mul, mpf_neg, mpf_pos, mpf_pow_int, round_nearest

from qeuler.characters import _zeta_embedded, enumerate_characters
from qeuler.cli import main
from qeuler.cyclotomic import cyc_embed
from qeuler.errors import ConvergenceDomain, QEulerError
from qeuler.numerics import _add, _cmul, _round, _truncation_plan, choose_truncation, tail_bound

precs = st.integers(64, 400)
exps = st.integers(-2000, 2000)


def exact(pair):
    return from_man_exp(*pair)


def rounded_once(x, prec):
    """An exact raw mpf rounded to prec bits, to nearest with ties to even."""
    return mpf_pos(x, prec, round_nearest)


def assert_rounded(pair, prec):
    """A rounded pair has at most prec bits, or is +-2^prec after a carry."""
    assert abs(pair[0]).bit_length() <= prec or abs(pair[0]) == 1 << prec


@st.composite
def mantissas(draw, prec):
    """Signed mantissas up to 3 prec bits: arbitrary ones, exact ties at prec bits
    and all-ones runs, whose rounding carries to a power of two."""
    kind = draw(st.sampled_from(["any", "tie", "ones"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "any":
        return sign * draw(st.integers(0, 2 ** (3 * prec)))
    n = draw(st.integers(1, 2 * prec))
    if kind == "tie":
        k = draw(st.integers(2 ** (prec - 1), 2**prec - 1))  # exactly prec bits, either parity
        return sign * ((k << n) | (1 << (n - 1)))
    return sign * ((1 << (prec + n)) - 1)


@st.composite
def operands(draw, count):
    prec = draw(precs)
    return prec, [(draw(mantissas(prec)), draw(exps)) for _ in range(count)]


class TestRound:
    @settings(max_examples=400, deadline=None)
    @given(operands(1))
    def test_matches_from_man_exp(self, case):
        prec, [(man, exp)] = case
        got = _round(man, exp, prec)
        assert_rounded(got, prec)
        assert exact(got) == from_man_exp(man, exp, prec, round_nearest)

    @pytest.mark.parametrize("man,want", [(0b1010_1, 0b1010), (0b1011_1, 0b1100), (0b1010_11, 0b1011),
                                          (-0b1010_1, -0b1010), (-0b1011_1, -0b1100), (0b1111_1, 0b10000),
                                          (-0b1111_11, -0b10000), (0b1011_0, 0b1011)])
    def test_ties_go_to_even_and_carries_reach_a_power_of_two(self, man, want):
        # four bits kept; the result's exponent rises by the bits dropped
        got = _round(man, 0, 4)
        assert got[0] * 2 ** got[1] == want * 2 ** (man.bit_length() - 4)


# Operands where mpf_add and mpc_mul round differently from the exact result (see below)
STICKY_SUM = (64, [((2**65 - 1) * (2**70 - 1), 158), ((2**102 - 1) * (2**64 + 1), 57)])
STICKY_PRODUCTS = [(64, [(2**65 - 1, 0), (2**102 - 1, 0), (2**70 - 1, 158), (-(2**64) - 1, 57)]),
                   (64, [(1 - 2**65, 0), (1 - 2**102, 0), (-(2**64) - 1, 57), (1 - 2**70, 158)])]


class TestPairArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(operands(2), st.booleans())
    @example((64, [(3, 5), (-3, 5)]), False)
    @example((64, [(2**70 - 1, -3), (1 - 2**70, -3)]), True)
    def test_add_of_rounded_operands_matches_mpf_add(self, case, cancel):
        prec, [(am, ae), (bm, be)] = case
        am, ae = _round(am, ae, prec)
        bm, be = (-am, ae) if cancel else _round(bm, be, prec)  # b = -a cancels to zero
        got = _add(am, ae, bm, be, prec)
        assert_rounded(got, prec)
        assert exact(got) == mpf_add(from_man_exp(am, ae), from_man_exp(bm, be), prec, round_nearest)

    @settings(max_examples=300, deadline=None)
    @given(operands(2), st.booleans())
    # the top of 2^135 - 2^70 - 2^65 + 1 rounds down alone and up with the 2^65-sized
    # addend, which sits 70 bits lower and 101 bits lower at its lowest bit: the exact
    # sum rounds up, while mpf_add lets the addend count as a sticky bit and rounds down
    @example(STICKY_SUM, False)
    @example((64, [(3 * 2**200, 0), (-(2**99), -150)]), True)
    def test_add_of_wide_operands_matches_mpf_add(self, case, cancel):
        prec, [(am, ae), (bm, be)] = case
        if cancel:
            bm, be = -am, ae
        got = _add(am, ae, bm, be, prec)
        assert_rounded(got, prec)
        x, y = from_man_exp(am, ae), from_man_exp(bm, be)
        assert exact(got) == rounded_once(mpf_add(x, y, 0), prec)
        if case == STICKY_SUM and not cancel:
            assert exact(got) != mpf_add(x, y, prec, round_nearest)

    @settings(max_examples=300, deadline=None)
    @given(operands(2))
    def test_product_matches_mpf_mul(self, case):
        prec, [(am, ae), (bm, be)] = case
        got = _round(am * bm, ae + be, prec)
        assert exact(got) == mpf_mul(from_man_exp(am, ae), from_man_exp(bm, be), prec, round_nearest)

    @settings(max_examples=300, deadline=None)
    @given(operands(4), st.booleans())
    # each part adds the two products of the wide-operand example above
    @example(STICKY_PRODUCTS[0], False)
    @example(STICKY_PRODUCTS[1], False)
    def test_complex_product_matches_mpc_mul(self, case, cancel):
        prec, [a, b, c, d] = case
        if cancel:  # (a + bi)(b + ai): the real part a b - b a cancels to zero
            c, d = b, a
        got = _cmul((*a, *b), (*c, *d), prec)
        a, b, c, d = map(exact, (a, b, c, d))
        want = (rounded_once(mpf_add(mpf_mul(a, c), mpf_neg(mpf_mul(b, d)), 0), prec),
                rounded_once(mpf_add(mpf_mul(a, d), mpf_mul(b, c), 0), prec))
        assert (exact(got[:2]), exact(got[2:])) == want
        if case in STICKY_PRODUCTS and not cancel:
            assert (exact(got[:2]), exact(got[2:])) != mpc_mul((a, b), (c, d), prec, round_nearest)

    @settings(max_examples=200, deadline=None)
    @given(precs, st.integers(-(2**150), 2**150), st.integers(-50, 50), st.integers(0, 40))
    @example(128, 3**90, 0, 12)  # 143 bits: a 12th power takes mpmath's rounding-on-the-way branch
    @example(128, -(2**40), 3, 30)  # odd part 1: exact at any n
    # (2^252 + 1)^4 = 2^1008 + 2^758 + ... lies above a tie at 250 bits and rounds up,
    # but mpf_pow_int truncates the low terms on the way and rounds the tie to even,
    # down to 2^1008
    @example(250, 2**252 + 1, 0, 4)
    def test_power_matches_mpf_pow_int(self, prec, man, exp, n):
        got = _round(man**n, exp * n, prec)
        assert exact(got) == rounded_once(from_man_exp(man**n, exp * n), prec)
        if (prec, man, exp, n) == (250, 2**252 + 1, 0, 4):
            assert exact(got) != mpf_pow_int(from_man_exp(man, exp), n, prec, round_nearest)


class TestChooseTruncation:
    def test_too_close_to_one_is_a_domain_error(self):
        # 64 doublings of M stop short of the 2^124 / 10^-21 terms this q needs
        with mp.workprec(192):
            with pytest.raises(ConvergenceDomain, match="too close to 1") as info:
                choose_truncation(0, Fraction(10**21 + 1, 10**21), 124)
        assert isinstance(info.value, QEulerError)


def unscreened_truncation(growth, q, eps_exp):
    """``choose_truncation``'s doubling search with ``tail_bound`` at every doubling:
    (M, bound), or None where 64 doublings certify no tail."""
    eps = mp.mpf(2) ** (-eps_exp)
    M = max(16, 2 * int(growth) + 2)
    for _ in range(64):
        bound = tail_bound(M, growth, q)
        if bound is not None and bound < eps:
            return M, bound
        M *= 2
    return None


NAMED_Q = [Fraction(2**40 + 1, 2**40), Fraction(13, 12), Fraction(2), Fraction(10**200 + 1, 7),
           Fraction(10**21 + 1, 10**21), Fraction(3, 2), Fraction(7, 2), Fraction(11, 10),
           Fraction(21, 20), Fraction(2**64 + 1, 2**64), Fraction(1001, 1000), Fraction(2**80)]
growths = st.one_of(st.integers(0, 2**11), st.floats(0, 2**11).map(mp.mpf))
qs = st.one_of(st.sampled_from(NAMED_Q),
               st.builds(lambda a, b: Fraction(a + b, b), st.integers(1, 10**12), st.integers(1, 10**30)))


@st.composite
def screen_edges(draw):
    """q = 2^k at growth 0 with eps_exp one to three below (M+1) k for a doubling M: the
    first M that certifies, where (M+1) log2 q exceeds eps_exp by at most 3."""
    k = draw(st.integers(1, 36))
    M = 16 * 2 ** draw(st.integers(0, 5))
    eps_exp = (M + 1) * k - draw(st.integers(1, 3))
    assume(60 <= eps_exp <= 600)
    return 0, Fraction(2**k), eps_exp


class TestScreenedTruncation:
    """The screen skips only doublings that ``tail_bound`` cannot certify."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.tuples(growths, qs, st.integers(60, 600)), screen_edges()))
    @example((0, Fraction(2**40 + 1, 2**40), 600))
    @example((2**11, Fraction(2**40 + 1, 2**40), 60))
    @example((3, Fraction(13, 12), 124))
    @example((0, Fraction(10**200 + 1, 7), 600))
    @example((2**11, Fraction(10**200 + 1, 7), 60))
    @example((0, Fraction(10**21 + 1, 10**21), 124))
    @example((0, Fraction(2), 66))  # at M = 64, (M+1) log2 q is eps_exp - 1: the screen's edge
    @example((0, Fraction(4), 131))  # and here 2 (M+1) is eps_exp - 1
    @example((0, Fraction(2**20), 339))  # M = 16 certifies with (M+1) log2 q = eps_exp + 1
    @example((0, Fraction(2**5), 324))  # and M = 64 likewise
    def test_matches_the_unscreened_search(self, case):
        growth, q, eps_exp = case
        with mp.workprec(eps_exp + 68):  # the callers' bits + 64, with eps_exp = bits - 4
            want = unscreened_truncation(growth, q, eps_exp)
            if want is None:
                with pytest.raises(ConvergenceDomain, match="too close to 1"):
                    choose_truncation(growth, q, eps_exp)
                return
            M, bound = choose_truncation(growth, q, eps_exp)
        assert (M, bound._mpf_) == (want[0], want[1]._mpf_)


class TestTruncationPlanCache:
    """One plan per (growth, q, eps_exp, mp.prec), the uncached search's to the bit."""

    @staticmethod
    def uncached(growth, q, eps_exp):
        return _truncation_plan.__wrapped__(growth, Fraction(q), eps_exp, mp.prec)

    @pytest.mark.parametrize("growth,q", [(0, Fraction(3)), (4, Fraction(5, 2)), (30, Fraction(11, 10)),
                                          (mp.mpf(81) / 2, Fraction(7, 2)), (2**11, Fraction(21, 20))])
    def test_a_cached_plan_is_the_search_at_the_calls_precision(self, growth, q):
        _truncation_plan.cache_clear()
        bounds = {}
        # one target at two precisions, a second target, and a repeat that reads the cache
        for prec, eps_exp in [(192, 124), (320, 124), (320, 252), (192, 124)]:
            with mp.workprec(prec):
                M, bound = choose_truncation(growth, q, eps_exp)
                want, plain = self.uncached(growth, q, eps_exp), unscreened_truncation(growth, q, eps_exp)
                assert (M, bound._mpf_) == (want[0], want[1]._mpf_) == (plain[0], plain[1]._mpf_)
                bounds[prec, eps_exp] = bound._mpf_
        assert bounds[192, 124] != bounds[320, 124]  # the bound is rounded at the call's precision
        assert _truncation_plan.cache_info()[:2] == (1, 3)  # hits, misses

    def test_int_and_mpf_growth_share_a_plan(self):
        _truncation_plan.cache_clear()
        with mp.workprec(192):
            by_int = choose_truncation(5, Fraction(3, 2), 124)
            by_mpf = choose_truncation(mp.mpf(5), Fraction(3, 2), 124)
            want = self.uncached(mp.mpf(5), Fraction(3, 2), 124)
        assert (by_int[0], by_int[1]._mpf_) == (by_mpf[0], by_mpf[1]._mpf_) == (want[0], want[1]._mpf_)
        assert _truncation_plan.cache_info()[:2] == (1, 1)

    def test_a_domain_error_is_raised_on_every_call(self):
        _truncation_plan.cache_clear()
        with mp.workprec(192):
            for _ in range(3):
                with pytest.raises(ConvergenceDomain, match="too close to 1"):
                    choose_truncation(0, Fraction(10**21 + 1, 10**21), 124)
        assert _truncation_plan.cache_info()[:2] == (0, 3) and _truncation_plan.cache_info().currsize == 0

    def test_a_series_grid_searches_once_per_n_q_and_bits(self, capsys):
        # six characters mod 7, n = 0..3, q = 2 and 7/2, at 96 and 128 bits: the suite's engine per (modulus, q)
        # reads each plan once for all six characters
        _truncation_plan.cache_clear()
        for bits in ("96", "128"):
            assert main(["verify", "suite", "--name", "eq13-series", "--modulus", "7", "--max-n", "3",
                         "--q", "2,7/2", "--bits", bits]) == 0
        capsys.readouterr()
        assert _truncation_plan.cache_info()[:2] == (0, 4 * 2 * 2)


class TestSharedZetaTable:
    @pytest.mark.parametrize("bits", [64, 128, 192, 320])
    def test_table_entries_are_the_per_class_embeddings(self, bits):
        for d in range(1, 22, 2):
            for chi in enumerate_characters(d):
                table = _zeta_embedded(chi.order, bits)
                for a, j in enumerate(chi.zeta_exponents()):
                    if j is not None:
                        assert table[j]._mpc_ == cyc_embed(chi(a), bits)._mpc_

    def test_a_repeated_suite_call_misses_no_entry(self, capsys):
        argv = ["verify", "suite", "--name", "interpolation", "--modulus", "7", "--max-n", "2",
                "--q", "2,7/2", "--bits", "96"]
        assert main(argv) == 0
        before = _zeta_embedded.cache_info()
        assert main(argv) == 0
        after = _zeta_embedded.cache_info()
        capsys.readouterr()
        assert after.misses == before.misses and after.hits > before.hits

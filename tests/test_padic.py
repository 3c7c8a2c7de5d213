"""Fixed-precision p-adic residues and root-of-unity embeddings."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qeuler import numtheory
from qeuler.characters import enumerate_characters
from qeuler.cyclotomic import CycElem
from qeuler.errors import CharacterOrderUnsupported, NonCoprimeDenominator
from qeuler.numtheory import divisors, is_prime, primitive_root
from qeuler.padic import PadicResidue, embed_cyclotomic, padic_unit_root, valuation
from qeuler.padic_verify import corollary4_probe

primes = st.sampled_from([3, 5, 7])
precisions = st.integers(1, 8)


def coprime_fraction(draw, p):
    num = draw(st.integers(-200, 200))
    den = draw(st.integers(1, 200).filter(lambda d: d % p != 0))
    return Fraction(num, den)


@st.composite
def embeddings(draw):
    p = draw(primes)
    k = draw(precisions)
    a = coprime_fraction(draw, p)
    b = coprime_fraction(draw, p)
    return p, k, a, b


class TestPadicResidue:
    def test_spot_embedding(self):
        assert PadicResidue.from_rational(Fraction(-1, 7), 5, 3).residue == 107

    def test_rejects_p_denominator(self):
        with pytest.raises(NonCoprimeDenominator):
            PadicResidue.from_rational(Fraction(1, 10), 5, 2)

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            PadicResidue(2, 3, 1)

    def test_valuation(self):
        assert PadicResidue(5, 3, 50).valuation() == 2
        assert PadicResidue(5, 3, 0).valuation() == 3
        assert PadicResidue(5, 3, 3).valuation() == 0

    @settings(max_examples=80)
    @given(embeddings())
    def test_embedding_is_ring_homomorphism(self, case):
        p, k, a, b = case
        pk = p**k
        def emb(x):
            return PadicResidue.from_rational(x, p, k).residue
        assert emb(a + b) == (emb(a) + emb(b)) % pk
        assert emb(a * b) == emb(a) * emb(b) % pk
        assert emb(a - b) == (emb(a) - emb(b)) % pk


class TestOneResidueMap:
    @pytest.mark.parametrize("p,k", [(3, 4), (5, 3), (7, 2), (13, 3)])
    @pytest.mark.parametrize("value", [0, 1, -7, 12, 250])
    def test_int_fraction_and_cyclotomic_agree(self, p, k, value):
        # a rational is one coefficient, at order 1 and at every order m | p - 1
        residue = embed_cyclotomic(value, p, k)
        assert residue == value % p**k
        assert embed_cyclotomic(Fraction(value), p, k) == residue
        for m in divisors(p - 1):
            assert embed_cyclotomic(CycElem.from_rational(value, m), p, k) == residue, m

    @pytest.mark.parametrize("p,k,value", [(5, 3, Fraction(-1, 7)), (7, 2, Fraction(22, 3)),
                                           (3, 5, Fraction(1, 2))])
    def test_fraction_and_cyclotomic_agree(self, p, k, value):
        residue = embed_cyclotomic(value, p, k)
        assert residue * value.denominator % p**k == value.numerator % p**k
        assert PadicResidue.from_rational(value, p, k).residue == residue
        for m in divisors(p - 1):
            assert embed_cyclotomic(CycElem.from_rational(value, m), p, k) == residue, m

    def test_non_coprime_message_is_the_same_for_both_inputs(self):
        messages = []
        for value in (Fraction(1, 10), CycElem.from_rational(Fraction(1, 10), 4)):
            with pytest.raises(NonCoprimeDenominator) as exc:
                embed_cyclotomic(value, 5, 2)
            messages.append(str(exc.value))
        assert messages == ["denominator of 1/10 is divisible by 5"] * 2

    def test_valuation_caps_at_the_precision(self):
        assert valuation(0, 5, 3) == 3
        assert valuation(125, 5, 3) == 3
        assert valuation(-125 * 7, 5, 3) == 3

    def test_valuation_reduces_first(self):
        # -25 = 100 and 25 + 2 * 125 = 275 mod 125
        assert valuation(-25, 5, 3) == 2
        assert valuation(25 + 2 * 125, 5, 3) == 2
        assert valuation(-1, 5, 3) == 0
        assert valuation(3 + 125, 5, 3) == 0

    @pytest.mark.parametrize("p,k", [(3, 6), (5, 4), (7, 3)])
    def test_valuation_of_p_power_times_unit(self, p, k):
        for j in range(k):
            for unit in (1, 2, p - 1, p + 1, -1):
                assert valuation(p**j * unit, p, k) == j, (j, unit)
                assert PadicResidue(p, k, p**j * unit).valuation() == j


def newton_unit_root(prime: int, precision: int, order: int) -> int:
    """The root of x^order - 1 mod p^precision congruent to g^((p-1)/order),
    lifted from mod p by Newton iteration."""
    root = pow(primitive_root(prime), (prime - 1) // order, prime)
    modulus, pk = prime, prime**precision
    while modulus < pk:
        modulus = min(modulus * modulus, pk)
        deriv_inv = pow(order * pow(root, order - 1, modulus) % modulus, -1, modulus)
        root = (root - (pow(root, order, modulus) - 1) * deriv_inv) % modulus
    return root


class TestUnitRoots:
    def test_teichmueller_lift_is_the_newton_lift(self):
        cases = [(p, k, m) for p in range(3, 100) if is_prime(p)
                 for m in divisors(p - 1) for k in range(1, 11)]
        assert len(cases) == 1590
        for p, k, m in cases:
            assert padic_unit_root(p, k, m) == newton_unit_root(p, k, m), (p, k, m)

    @pytest.mark.parametrize("p,k,m", [(5, 3, 4), (7, 2, 6), (7, 4, 3), (13, 3, 4)])
    def test_exact_order(self, p, k, m):
        root = padic_unit_root(p, k, m)
        pk = p**k
        assert pow(root, m, pk) == 1
        for e in range(1, m):
            assert pow(root, e, pk) != 1

    def test_the_primitive_root_search_runs_once_per_root(self, monkeypatch):
        # every probe embeds chi's values; the root behind them is searched for once
        chi = enumerate_characters(7)[3]  # quadratic, built before counting
        padic_unit_root.cache_clear()
        calls, order = [], numtheory.multiplicative_order
        monkeypatch.setattr(numtheory, "multiplicative_order", lambda a, n: calls.append((a, n)) or order(a, n))
        reports = {corollary4_probe(2, chi, 7, 8, 4, [2, 3]) for _ in range(50)}
        assert len(reports) == 1
        assert calls == [(2, 7), (3, 7)]  # the smallest primitive root mod 7 is 3

    def test_unsupported_order(self):
        with pytest.raises(CharacterOrderUnsupported):
            padic_unit_root(5, 2, 3)

    def test_embed_cyclotomic_is_multiplicative(self):
        z = CycElem(4, (0, 1))
        a = 2 * z + 1
        b = z**3 - 3
        p, k = 5, 3
        pk = p**k
        assert embed_cyclotomic(a * b, p, k) == (
            embed_cyclotomic(a, p, k) * embed_cyclotomic(b, p, k) % pk)

    def test_embed_quadratic(self):
        z = CycElem(2, (0, 1))
        assert embed_cyclotomic(z, 7, 2) == 48

    def test_embed_refuses_bad_order(self):
        with pytest.raises(CharacterOrderUnsupported,
                           match=r"cannot embed Q\(zeta_5\) into residues mod 7\^2"):
            embed_cyclotomic(CycElem(5, (0, 1)), 7, 2)

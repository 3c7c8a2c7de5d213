"""Fixed-precision p-adic residues and root-of-unity embeddings."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qeuler.cyclotomic import CycElem
from qeuler.errors import CharacterOrderUnsupported, NonCoprimeDenominator
from qeuler.numtheory import divisors, is_prime, primitive_root
from qeuler.padic import PadicResidue, embed_cyclotomic, padic_unit_root

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

    def test_inverse(self):
        r = PadicResidue(7, 2, 10)
        assert (r * r.inverse()).residue == 1

    @settings(max_examples=80)
    @given(embeddings())
    def test_embedding_is_ring_homomorphism(self, case):
        p, k, a, b = case
        def emb(x):
            return PadicResidue.from_rational(x, p, k)
        assert emb(a + b).residue == (emb(a) + emb(b)).residue
        assert emb(a * b).residue == (emb(a) * emb(b)).residue
        assert emb(a - b).residue == (emb(a) - emb(b)).residue


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

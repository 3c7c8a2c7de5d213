"""q-integers and the rational sample stream."""
from fractions import Fraction

import pytest

from qeuler.errors import QisOne
from qeuler.qnumbers import q_number, q_samples


class TestQNumber:
    def test_two_q(self):
        assert q_number(2, 3) == 4

    def test_fermionic_bracket(self):
        assert q_number(3, Fraction(-1, 2)) == Fraction(3, 4)

    def test_zero(self):
        assert q_number(0, Fraction(5, 7)) == 0

    def test_refuses_one(self):
        with pytest.raises(QisOne):
            q_number(4, 1)

    def test_sum_form(self):
        q = Fraction(7, 3)
        assert q_number(5, q) == sum(q**j for j in range(5))


def test_q_samples_prefix_and_distinct():
    samples = q_samples(30)
    assert samples[:6] == [Fraction(2), Fraction(3), Fraction(4), Fraction(5, 2),
                           Fraction(7, 2), Fraction(7, 3)]
    assert len(set(samples)) == 30
    assert all(s > 1 for s in samples)

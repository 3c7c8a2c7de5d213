"""Domain errors raised by the exact kernels and verifiers."""


class QEulerError(ValueError):
    """Base class for all domain errors in this package."""


class ZeroConstantTerm(QEulerError):
    """Series division by a series whose constant term vanishes."""


class QisOne(QEulerError):
    """q-integer requested at Q = 1; the caller must use the limit value."""


class PoleAtOne(QEulerError):
    """Generating-function evaluation at the excluded point x = 1."""


class PoleAtMinusOne(QEulerError):
    """Evaluation at q = -1, where 1 + q vanishes."""


class PoleQ(QEulerError):
    """q hits an excluded value of the character-kernel recurrence."""


class EvenModulus(QEulerError):
    """Character machinery only supports odd moduli."""


class ConvergenceDomain(QEulerError):
    """Series evaluation requested outside its convergence domain (q <= 1)."""


class DegenerateSample(QEulerError):
    """A q sample hits an excluded value of the identity under test."""


class ParityMismatch(QEulerError):
    """Shift parity contradicts the chosen integral equation."""


class NonUnitNormalizer(QEulerError):
    """The q-integer normalizer of a truncated integral is not a p-adic unit."""


class BadCongruence(QEulerError):
    """Truncated integrals require q = 1 (mod p)."""


class NonCoprimeDenominator(QEulerError):
    """A rational with p in its denominator cannot embed into residues mod p^k."""


class CharacterOrderUnsupported(QEulerError):
    """Character values cannot be embedded mod p^k (order not dividing p-1)."""


class DomainError(QEulerError):
    """Argument outside the domain of a numeric check (e.g. Re(s) <= 0)."""

"""Exception hierarchy shared by all opclass modules."""

from __future__ import annotations


class OpclassError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(OpclassError):
    """Operands have incompatible or invalid dimensions."""


class NotHermitian(OpclassError):
    """A matrix required to be Hermitian fails the equality tolerance."""


class NotPSD(OpclassError):
    """A matrix required to be positive semidefinite has a negative eigenvalue
    beyond tolerance."""


class EmptySubspace(OpclassError):
    """An operation received a zero-dimensional subspace where a nonzero one
    is required."""


class InvalidPencil(OpclassError):
    """A pencil specification violates its invariants."""


class OracleDisagreement(OpclassError):
    """The pencil and sphere oracles returned decisively opposite statuses.

    This signals a bug in one of the oracles and is never silently resolved.
    """


class HypothesisViolated(OpclassError):
    """A decomposition precondition predicate failed on the given input."""


class NonCommutingProjection(OpclassError):
    """A spectral projection fails to commute with the operator beyond
    tolerance, signalling numerical breakdown or a false precondition."""


class DecompositionError(OpclassError):
    """A decomposition postcondition failed beyond tolerance."""


class NotNilpotentIndex2(OpclassError):
    """Input to the index-2 canonical form does not square to zero."""


class ZeroOperator(OpclassError):
    """Input is the zero matrix where a nonzero one is required."""


class InvalidRRForm(OpclassError):
    """Blocks fail the square-root-of-normal form invariants."""


class InvalidIndex(OpclassError):
    """Requested nilpotency index is out of range."""


class NonCoprime(OpclassError):
    """Exponents passed to the coprime-power suite are not coprime."""


class UnknownTheorem(OpclassError):
    """Requested theorem id is not registered with the harness."""


class ParseError(OpclassError):
    """A matrix file is malformed or not square."""


class InvalidSpec(OpclassError):
    """A generator specification is malformed."""


class UsageError(OpclassError):
    """A command line does not parse: an unknown command or option, a
    missing argument, or a value of the wrong type."""

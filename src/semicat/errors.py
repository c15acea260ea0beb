"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to catch has its own class,
named after the condition it reports. All of them derive from
:class:`SemicatError`, so ``except SemicatError`` catches anything this
package raises on bad input (as opposed to genuine bugs, which surface as
the usual builtins).
"""

from __future__ import annotations

__all__ = [
    "SemicatError",
    "TagMismatch",
    "NoInvolution",
    "ElementOutsideCarrier",
    "KeyNotMultiset",
    "NotAdditive",
    "NotCommutative",
    "NotIdempotent",
    "CarrierMismatch",
    "MonoidMismatch",
    "DimensionMismatch",
    "IndexOutOfRange",
    "MalformedTerm",
    "MonadMismatch",
    "NotAMonoidMap",
    "NotASemiringMap",
    "UnknownSuite",
    "UnknownSemiring",
    "SizeLimitExceeded",
    "FormatError",
]


class SemicatError(Exception):
    """Base class for all input errors raised by this package."""


class TagMismatch(SemicatError):
    """Values from different semirings were mixed in one operation."""


class NoInvolution(SemicatError):
    """A star/involution was requested but the structure has none."""


class ElementOutsideCarrier(SemicatError):
    """An element was used with a carrier or map that does not contain it."""


class KeyNotMultiset(SemicatError):
    """Flattening a multiset of multisets met a key that is not a multiset."""


class NotAdditive(SemicatError):
    """An additive-monad operation was requested on a non-additive monad."""


class NotCommutative(SemicatError):
    """A commutative-monad operation was requested on a non-commutative monad."""


class NotIdempotent(SemicatError):
    """An operation that needs 1 + 1 = 1 was requested on a semiring without it."""


class CarrierMismatch(SemicatError):
    """Two values that must live over the same carrier do not."""


class MonoidMismatch(SemicatError):
    """A value is not an element of the declared monoid."""


class DimensionMismatch(SemicatError):
    """Matrix or Kleisli-map shapes do not line up."""


class IndexOutOfRange(SemicatError):
    """A coordinate index fell outside its declared range."""


class MalformedTerm(SemicatError):
    """A free-theory term violates its shape invariants."""


class MonadMismatch(SemicatError):
    """Two Kleisli maps over different monads were combined."""


class NotAMonoidMap(SemicatError):
    """A claimed monoid homomorphism failed its preservation checks."""


class NotASemiringMap(SemicatError):
    """A claimed semiring homomorphism failed its preservation checks."""


class UnknownSuite(SemicatError):
    """A law-suite configuration names a suite or monad that does not exist."""


class UnknownSemiring(SemicatError):
    """A semiring (or monoid) name is not in the registry."""


class SizeLimitExceeded(SemicatError):
    """An input asks for more than the command's documented cap allows."""


class FormatError(SemicatError):
    """A text input (scalar, matrix file, graph file) failed to parse."""

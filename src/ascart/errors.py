"""Exception hierarchy for ascart.

Every error that invalid input raises, from a spec file, a command-line
argument or a CurveSpec as it is built, derives from AscartError, so
callers (and the CLI, exit 2) can tell invalid input from genuine bugs
(exit 3).  A bare ValueError is a bug, or a call that breaks an API's
contract, such as rows of elements for a CartierMatrix.  Mathematical
*mismatches* (a verification that fails) are not exceptions; they are
reported in result objects and exit codes.
"""


class AscartError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(AscartError):
    """The requested field characteristic is not a prime number."""


class IrreducibleDenominatorFactor(AscartError):
    """A denominator does not split into linear factors over the field.

    Carries the degree of the offending cofactor; the caller must enlarge
    the coefficient field before retrying.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(
            f"denominator has an irreducible factor of degree {degree} > 1; "
            "enlarge the coefficient field"
        )


class PoleOrderDivisibleByP(AscartError):
    """A pole order is divisible by the characteristic p."""


class ZeroLeadingCoefficient(AscartError):
    """The top coefficient of a pole's principal part vanishes."""


class ForeignElement(AscartError):
    """A coefficient or location of a curve lies in another field."""


class DuplicatePoleLocation(AscartError):
    """Two poles share the same location."""


class MissingInfinitePole(AscartError):
    """The first pole is not at infinity.

    The substitution x -> e + 1/x moves a pole e of f to infinity with its
    order; rewrite f in the new x and rebuild the curve.
    """


class ConditionNotSatisfied(AscartError):
    """An operation requires p = 1 (mod L) and the curve does not satisfy it."""


class NotInSpan(AscartError):
    """A differential produced a monomial outside the regular basis.

    This never happens on valid input; it signals an implementation bug.
    """


class NotInH(AscartError):
    """The given basis form does not belong to the pivot subset H."""


class DNotCoprime(AscartError):
    """The monomial exponent d is divisible by p."""


class InconsistentCounts(AscartError):
    """Point counts do not come from any curve (non-integral L-coefficients)."""


class NotShrinkable(AscartError):
    """A Newton polygon multiplicity is not divisible by p - 1."""


class FieldTooSmall(AscartError):
    """The coefficient field has too few elements for the requested draw."""


class FieldTooLarge(AscartError, ValueError):
    """The requested field exceeds the element cap of exhaustive procedures."""


class SeriesTooLarge(AscartError, ValueError):
    """A Cartier matrix too large to build: over the cap on its g^2 * k digits."""


class InvalidInput(AscartError, ValueError):
    """A value outside its domain that no other class names: a field degree
    below 1, a sweep's sample count below 1 or pole orders that are not
    integers of at least 1, or a spec file that is not UTF-8."""


class ParseError(AscartError):
    """A curve-spec file is malformed."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")

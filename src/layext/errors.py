"""Exception hierarchy shared across the library."""


class LayextError(Exception):
    """Base class for every error raised by layext."""


class InconsistentRelations(LayextError):
    """Declared monomial relations contradict each other or the numeric values."""


class Reducible(LayextError):
    """The candidate minimal polynomial factors over the rationals."""


class DegreeTooLarge(LayextError):
    """The factoriser (and so the irreducibility test) is complete up to degree 31 and refuses larger ones."""


class NoPositiveRoot(LayextError):
    """The candidate minimal polynomial has no positive real root."""


class IntervalNotIsolating(LayextError):
    """The given interval does not isolate exactly one positive root."""


class AllPositiveCoefficients(LayextError):
    """A single-signed annihilating polynomial would collapse the extension to a field."""


class TrivialExtension(LayextError):
    """The generator already lies in the base semifield (degree-one polynomial)."""


class GeneratorMismatch(LayextError):
    """Arithmetic mixed elements built over different algebraic generators."""


class ZeroElement(LayextError):
    """The zero element of the extension is not invertible."""


class ValueNotInBase(LayextError):
    """A pure-layer extension requires the scalar's value to lie in the base value group."""


class LayerNotInBase(LayextError):
    """A pure-value extension requires the scalar's layer to lie in the base sort part."""


class DescriptorMismatch(LayextError):
    """Inputs of a uniform-extension operation do not fit together.

    Raised when evaluation meets a symbolic scalar value, when `extend_sort`
    would take a second sort extension step, and when free layers in
    different symbols are added.
    """


class ParseError(LayextError):
    """Malformed input file or JSON document."""


class ResultTooLarge(LayextError):
    """A number in a result is longer than the interpreter will write as decimal text."""

"""Exception hierarchy shared by the whole package."""


class SpbwError(Exception):
    """Base class for all errors raised by this package."""


class HypothesisError(SpbwError):
    """A commutation or shape hypothesis required by an operation fails."""


class CompatibilityError(SpbwError):
    """A differential calculus is incompatible with a defining relation."""

    def __init__(self, message, relation=None, residual=None):
        super().__init__(message)
        self.relation = relation
        self.residual = residual


class NotAVolumeFormError(SpbwError):
    """The candidate top form does not induce a relation-respecting
    invertible twist."""


class UnsupportedPresentationError(SpbwError):
    """The presentation falls outside what an operation supports
    (e.g. a relation that is not filtration compatible)."""


class ConfigError(SpbwError):
    """A command was run against a document missing required blocks, or a
    pipeline stage was requested without its prerequisite certificate."""


class MapError(SpbwError, ValueError):
    """The images given for an endomorphism break a defining relation, or a
    claimed inverse does not undo it.  Also a ``ValueError``, which is what
    these checks raised before they had a class of their own."""

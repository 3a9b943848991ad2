"""Exception types raised across the package.

Every failure mode that callers are expected to handle derives from
:class:`KgsqueezeError`, so the command line (and any embedding
application) can catch one base class and map it to a data error.
"""


class KgsqueezeError(Exception):
    """Base class for all kgsqueeze errors."""


class UnknownEntityError(KgsqueezeError):
    """An entity reference cannot be resolved against the entity table,
    or the table itself is invalid (duplicate id, empty surface)."""


class SelfLoopError(KgsqueezeError):
    """A quadruple candidate has identical head and tail."""


class BadDistributionError(KgsqueezeError):
    """A confidence distribution is unusable: a value outside [0, 1], an
    unknown relation label, a total mass outside the accepted band, or
    an invalid relation set.  A wrong type is a SchemaViolationError."""


class EmptyGraphError(KgsqueezeError):
    """A graph or selection operation received no quadruples to work with."""


class MalformedDocumentError(KgsqueezeError):
    """Input bytes are not a syntactically valid document, or a string
    holds a lone surrogate, which no UTF-8 document can carry."""


class SchemaViolationError(KgsqueezeError):
    """A document has the wrong shape or a selection header makes no
    SelectionConfig, or ``build_graph`` got a value of a type no document
    could carry, with the same message for a document's value."""


class SelectionMismatchError(KgsqueezeError):
    """A selection document does not correspond to the graph it is applied to."""


class InvalidPhiError(KgsqueezeError):
    """The accuracy/completeness weight phi is not an int or a float in
    [0, 1] (a bool is neither)."""


class MissingSeedError(KgsqueezeError):
    """The random strategy was invoked without a seed."""

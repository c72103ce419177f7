"""Exception types shared across the package.

Everything user-facing raises a subclass of :class:`KmatchError` so the
command line front end can map failures to exit codes uniformly: input
problems exit with 2, exhausted search budgets with 3 under ``--strict``.
"""

from __future__ import annotations


class KmatchError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(KmatchError):
    """A parameter is outside its documented range (e.g. cycle on 2 vertices)."""


class ParseError(KmatchError):
    """A graph or matching document could not be parsed."""


class InvariantViolation(KmatchError):
    """A structural invariant is broken. In input data: a loop, duplicate
    edge, dangling endpoint or repeated vertex label. In the library: a
    solver answer, search leaf or construction that breaks what it must
    satisfy (e.g. a point off the 0-or-k degree condition)."""


class SizeLimitExceeded(KmatchError):
    """An exhaustive operation was requested above its hard size bound."""


class InvalidK(KmatchError):
    """k must be a positive integer; k = 0 in particular is rejected."""


class EdgeNotInHost(KmatchError):
    """A matching references an edge that the host graph does not have."""


class EdgeNotInFactor(KmatchError):
    """A factor matching references an edge missing from that factor."""


class UnsupportedKind(KmatchError):
    """The operation is undefined for this product kind (e.g. the ast
    flavor or construction on the cartesian product)."""


class ScenarioError(KmatchError):
    """A bundled scenario failed to execute; wraps the underlying error."""


class CorpusError(KmatchError):
    """A corpus directory or generator spec could not be used."""

"""Exception types shared across the package.

Every error raised on bad input derives from SftkitError so callers (and the
CLI) can distinguish "the computation says no" from "the question was
malformed".
"""

from __future__ import annotations


class SftkitError(Exception):
    """Base class for all package-specific errors."""


class InvalidMatrix(SftkitError):
    """Matrix input violates a structural requirement (shape, integrality, sign)."""


class ShapeError(SftkitError):
    """Operand dimensions are incompatible."""


class BadPartition(SftkitError):
    """Edge partition does not exactly cover the required edge sets."""


class NotAFactorization(SftkitError):
    """Matrices fail the product identity they were claimed to satisfy."""


class InvalidWitness(SftkitError):
    """Witness data is structurally unusable (shapes, signs, missing fields)."""


class HasSinks(SftkitError):
    """Operation requires a graph without sinks."""


class NotIrreducible(SftkitError):
    """Matrix (or graph) is not irreducible where irreducibility is required."""


class NotIrreducibleNontrivial(SftkitError):
    """Flow-equivalence decision needs both graphs irreducible and not a single cycle."""


class UnknownGenerator(SftkitError):
    """Term expression mentions a vertex or edge absent from the graph."""


class SinkVertex(SftkitError):
    """Operation needs a vertex that emits at least one edge."""


class UndecidedError(SftkitError):
    """A semi-decision procedure ran out of its configured bound."""


class ParseError(SftkitError):
    """Malformed textual or JSON input."""

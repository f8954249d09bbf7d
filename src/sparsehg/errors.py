"""Exception types with stable machine-readable codes.

Every domain error carries a ``code`` string that the command line
front end prints on the first line of its report (``ERROR <code>``),
so the codes here form part of the public interface and must not be
renamed casually.
"""

from __future__ import annotations


class SparseHGError(Exception):
    """Base class for all domain errors raised by this package.
    ``witness``, when given, is a vertex set that shows the error."""

    code = "Error"

    def __init__(self, message: str = "", witness=None):
        super().__init__(message or self.code)
        self.witness = witness


class ParseError(SparseHGError):
    """Malformed input text. ``line`` is the 1-based offending line."""

    code = "ParseError"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None:
            return f"line {self.line}: {base}"
        return base


class DuplicateVertexInEdge(ParseError):
    code = "DuplicateVertexInEdge"


class UndeclaredVertex(ParseError):
    code = "UndeclaredVertex"


class DuplicateLabel(ParseError):
    code = "DuplicateLabel"


class NotKSparse(SparseHGError):
    """The input violates k-sparsity; ``witness`` is a violating vertex set."""

    code = "NotKSparse"


class NotSparseDistribution(SparseHGError):
    """The distribution violates its sparsity bound; ``witness`` violates it."""

    code = "NotSparseDistribution"


class RankTooSmall(SparseHGError):
    code = "RankTooSmall"


class NoHomomorphism(SparseHGError):
    code = "NoHomomorphism"


class MalformedPartition(SparseHGError):
    code = "MalformedPartition"


class Disconnected(SparseHGError):
    code = "Disconnected"


class NoHyperpath(SparseHGError):
    code = "NoHyperpath"


class ClassOverflow(SparseHGError):
    code = "ClassOverflow"


class MalformedTree(SparseHGError):
    code = "MalformedTree"


class NotATreeNode(SparseHGError):
    code = "NotATreeNode"


class CapExceeded(SparseHGError):
    code = "CapExceeded"


class InvalidFlow(SparseHGError):
    code = "InvalidFlow"


class NotAGraph(SparseHGError):
    """A hypergraph was used where a simple loop-free graph is required."""

    code = "NotAGraph"

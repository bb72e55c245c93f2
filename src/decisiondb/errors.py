"""Exception hierarchy shared across the package.

Everything raised on purpose derives from DecisionDBError so callers can
catch one base class at the CLI boundary.
"""

from __future__ import annotations


class DecisionDBError(Exception):
    """Base class for all errors raised by this package."""


class CanonicalizationError(DecisionDBError):
    """A value cannot be represented in, or decoded from, the canonical wire form."""


class IdentifierFormatError(DecisionDBError):
    """An identifier string does not match ``<prefix>_<16 lowercase hex>``."""


class StoreOpenError(DecisionDBError):
    """A store cannot be opened or read: it fails an integrity check on
    open, is locked, holds an interrupted write, or a blob read fails."""


class IntegrityError(DecisionDBError):
    """A record's stored identifier does not match its recomputed identifier."""


class ReferentialError(DecisionDBError):
    """A record references an identifier or blob that is not in the store."""


class BlobCorruptionError(DecisionDBError):
    """Stored blob bytes no longer hash to their address."""


class ValidationError(DecisionDBError):
    """An argument is structurally well formed but semantically invalid."""


class ExtractionError(DecisionDBError):
    """A policy's hash-source path does not resolve inside a raw output."""


class DeterminismError(DecisionDBError):
    """A representation factory produced different bytes for the same inputs."""


class PlanNotFoundError(DecisionDBError):
    """No persisted sweep plan exists for the given plan identifier."""


class BrokenChainError(DecisionDBError):
    """A link in a decision's provenance chain is missing from the store or does not decode."""


class InvalidComparisonError(DecisionDBError):
    """Map entries differ in parameters other than the axis being compared."""


class EngineFailure(DecisionDBError):
    """The engine could not produce an output for a representation.

    Sweeps record the run with status ``failed`` and carry on.
    """


class UnreachableError(EngineFailure):
    """No route exists between the queried endpoints."""


class SweepExecutionError(DecisionDBError):
    """One or more grid points failed during sweep execution.

    Carries the entries that did complete and the failed points, so a
    caller can inspect partial progress.
    """

    def __init__(self, message: str, entries=None, failures=None):
        super().__init__(message)
        self.entries = list(entries or [])
        self.failures = list(failures or [])

"""Exception hierarchy shared by all cmtori modules.

Exit codes used by the CLI: 0 success, 2 usage, 3 invalid datum/group,
4 fast path unavailable, 5 budget, 6 search range (63-bit overflow or
the p-sieve's memory bound).
"""


class CmtoriError(Exception):
    """Base class; carries a machine-readable error code and context."""

    code = 1

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context

    def payload(self):
        return {
            "error": {
                "code": self.code,
                "message": str(self),
                "context": {k: v for k, v in sorted(self.context.items())},
            }
        }


class ConstructionError(CmtoriError):
    """A group or datum violates a structural invariant."""

    code = 3


class DatumError(CmtoriError):
    """A norm-torus datum is malformed or inconsistent."""

    code = 3


class FastPathUnavailableError(CmtoriError):
    """The transfer fast path does not apply; the cohomology oracle does."""

    code = 4


class BudgetExceededError(CmtoriError):
    """A cohomology computation would exceed the configured size budget."""

    code = 5


class SearchRangeError(CmtoriError):
    """A prime-search value left the supported 64-bit range, or a search
    range would need a p-sieve above its memory bound."""

    code = 6


class InternalCheckError(CmtoriError):
    """An internal consistency assertion failed; indicates a bug."""

    code = 1

"""Exception hierarchy shared across the package.

InputError subclasses signal bad or oversized input (CLI exit code 2);
CheckError subclasses signal a failed verification (CLI exit code 1).
"""


class LinremError(Exception):
    pass


class InputError(LinremError):
    pass


class CheckError(LinremError):
    pass


class NonPrimeModulus(InputError):
    pass


class ParseError(InputError):
    """Malformed system file; message carries the 1-based line number."""


class RankDeficient(InputError):
    pass


class EmptyW(InputError):
    """The hypergraph encoding has no support column for some row.

    Raised for a normalized row with exactly one nonzero free-block
    entry, and for a system whose reduction leaves no equation. Counting,
    solving and removal take these systems as they are.
    """


class NoFreeColumns(InputError):
    """A normalized row has no nonzero entry among the free columns."""


class SearchBudgetExceeded(InputError):
    pass


class IndivisibleAmbient(InputError):
    pass


class EdgeNotInHost(InputError):
    pass


class SimplicityViolation(CheckError):
    """Two host edges share a vertex set; indicates a construction bug."""


class MissingEdge(CheckError):
    """A copy expected by construction is not present in the edge store."""


class InvariantViolation(CheckError):
    """An internal invariant of a reduction or search failed; indicates a bug."""


class ProgressionCeilingExceeded(CheckError):
    """A lift has more progressions than |S|^3/m^2; n is too small for m."""

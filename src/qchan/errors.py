"""Exception types shared across the library and mapped to CLI exit codes."""


class QchanError(Exception):
    """Base class for all library errors."""


class DomainError(QchanError, ValueError):
    """A parameter or state lies outside its documented range."""


class SolverError(QchanError, RuntimeError):
    """A numerical solver failed to bracket or converge."""


class BudgetExceededError(QchanError, RuntimeError):
    """The brute-force search would exceed its evaluation budget before its next step."""


class CertificationError(QchanError, RuntimeError):
    """An oracle cross-check disagrees with the solver beyond the declared bound."""

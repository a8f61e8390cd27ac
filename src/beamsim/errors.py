"""The package's one exception type."""


class DomainError(ValueError):
    """A rejected input: a value outside an operation's domain, or a run that
    cannot be made as configured (grid too coarse, trace too short, ...)."""

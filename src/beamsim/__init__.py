"""beamsim: stochastic-optics simulation and analysis toolkit."""

__version__ = "0.1.0"

from .errors import DomainError  # noqa: F401

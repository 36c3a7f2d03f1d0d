"""The harness and spectral errors that the command line maps to exit codes.

They live apart from :mod:`hyprelax.harness` and :mod:`hyprelax.spectral`,
which import them under their old names, so that ``check``, ``limit`` and
``sweep`` map them without importing either module.
"""

from __future__ import annotations

__all__ = [
    "HarnessError",
    "WrapAroundGuardError",
    "IoFailureError",
    "ConfigurationError",
    "SpectralError",
]


class HarnessError(Exception):
    """Base class for errors raised by :mod:`hyprelax.harness`."""


class WrapAroundGuardError(HarnessError):
    """The schedule would let the solution wrap around the periodic box."""


class IoFailureError(HarnessError):
    """Report files could not be written."""


class ConfigurationError(HarnessError):
    """An experiment configuration is malformed."""


class SpectralError(Exception):
    """Base class for errors raised by :mod:`hyprelax.spectral`."""

"""Shared exception types.

Exit-code mapping for the CLI lives in cli.py: CapExceeded -> 2; every
other GdecompError and an invalid parameter (ValueError) -> 3. That
includes UncertifiedRegion: an answer the built region cannot certify (a
lift past the truncated cover, the non-elementary check on a tree portion
of radius below 2) is not a cap that was hit, so it exits 3 like a failed
verification. The Tits type of a tree automorphism is read from normal
forms and never raises it.
"""


class GdecompError(Exception):
    pass


class BackendMismatch(GdecompError):
    """Two elements from different backends or different groups."""


class UnknownGenerator(GdecompError):
    pass


class CapExceeded(GdecompError):
    """A configured enumeration/size cap was hit before completion."""

    def __init__(self, message, reached=None):
        super().__init__(message)
        self.reached = reached


class VerificationFailure(GdecompError):
    """A checked invariant failed."""


class UncertifiedRegion(GdecompError):
    """An operation needed cover/tree data beyond the certified region."""


class SpecFormatError(GdecompError):
    """Malformed group-spec input file."""

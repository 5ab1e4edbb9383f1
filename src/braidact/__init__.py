"""Braid-group actions on free groups and their symplectic shadows.

The package provides exact word arithmetic in free groups and braid
groups, the twist action of the braid group on 2g+2 strands on the free
group of rank 2g, its abelianization into the symplectic modular group,
and verification suites that mechanically re-derive the identities
behind the genus-2 braid-type presentation of Sp_4(Z).

The package is pure Python.  Its hot word kernels live in one module,
``braidact._kernels``; ``kernel_backend`` names that implementation for
the benchmark's provenance.
"""

from .action import (
    GenusContext,
    braid_automorphism,
    descending_cycle,
    sturmian_g1,
    twist_automorphism,
    verify_center_vanishes,
    verify_u_braid_relations,
)
from .braids import (
    BraidWord,
    artin_action,
    braids_equal,
    format_braid,
    half_twist,
    parse_braid,
)
from .endo import Automorphism, Endomorphism, format_endomorphism
from .errors import (
    BraidactError,
    DimensionMismatchError,
    MalformedWordError,
    NonUnimodularError,
    NotInverseError,
    RankMismatchError,
    ResourceLimitError,
    StrandMismatchError,
    UsageError,
    WordSyntaxError,
    WorkBudgetError,
)
from .matrices import IntMatrix
from .report import Check, VerificationReport
from .symplectic import (
    braid_matrix,
    is_symplectic,
    sl2_matrices,
    standard_form,
    verify_symplectic_generators,
)
from .words import FreeWord, format_word, parse_word

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the word-kernel implementation: always "pure"."""
    return "pure"


__all__ = [
    "Automorphism",
    "BraidWord",
    "BraidactError",
    "Check",
    "DimensionMismatchError",
    "Endomorphism",
    "FreeWord",
    "GenusContext",
    "IntMatrix",
    "MalformedWordError",
    "NonUnimodularError",
    "NotInverseError",
    "RankMismatchError",
    "ResourceLimitError",
    "StrandMismatchError",
    "UsageError",
    "VerificationReport",
    "WordSyntaxError",
    "WorkBudgetError",
    "artin_action",
    "braid_automorphism",
    "braid_matrix",
    "braids_equal",
    "descending_cycle",
    "format_braid",
    "format_endomorphism",
    "format_word",
    "half_twist",
    "is_symplectic",
    "kernel_backend",
    "parse_braid",
    "parse_word",
    "sl2_matrices",
    "standard_form",
    "sturmian_g1",
    "twist_automorphism",
    "verify_center_vanishes",
    "verify_symplectic_generators",
    "verify_u_braid_relations",
]

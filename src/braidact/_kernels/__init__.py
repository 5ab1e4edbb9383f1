"""Word kernels: the compiled extension when it was built, else the pure twin.

Only whether ``_core`` was built decides which implementation is bound;
there is no switch.  Callers go through the module-level names
(``reduce_letters`` etc.).
"""

from __future__ import annotations

try:
    from . import _core as _impl
except ImportError:
    from . import _pure as _impl

reduce_letters = _impl.reduce_letters
concat_reduced = _impl.concat_reduced
invert_reduced = _impl.invert_reduced
substitute = _impl.substitute


def backend_name() -> str:
    """Name of the bound implementation: "compiled" or "pure"."""
    return _impl.BACKEND

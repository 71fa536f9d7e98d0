"""Deprecated process-global session helpers.

This module is the *only* place the pre-Session API is defined.  The old
model -- one mutable singleton session per process -- is replaced by the
thread-local session stack in :mod:`repro.core.session`; these shims keep
seed-era scripts and tests running while steering callers to the new API:

===========================  ==========================================
old                          new
===========================  ==========================================
``get_session()``            ``current_session()`` (read) or
                             ``with Session(...):`` (scoped state)
``reset_session(backend)``   ``with Session(backend=...):`` for scoped
                             runs; ``reset_root_session(backend)`` for
                             harnesses that truly need the root replaced
===========================  ==========================================
"""

from __future__ import annotations

import warnings


def get_session():
    """Deprecated: the current session (root unless one is active)."""
    warnings.warn(
        "get_session() is deprecated; use "
        "repro.core.session.current_session(), or run inside an explicit "
        "`with Session(...)` block",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.core.session import current_session

    return current_session()


def reset_session(backend: str = "dask"):
    """Deprecated: replace the root session (pre-Session benchmark hook)."""
    warnings.warn(
        "reset_session() is deprecated; use `with Session(backend=...)` "
        "for isolated runs, or repro.core.session.reset_root_session()",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.core.session import reset_root_session

    return reset_root_session(backend)

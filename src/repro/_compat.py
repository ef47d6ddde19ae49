"""Deprecation machinery for options that no longer do anything.

A public spelling whose option loses its meaning keeps accepting it for
two releases (the removal bar other modules cite as "the ``_compat``
policy"): the option defaults to ``None``, and a caller that passes
anything else gets a single :class:`DeprecationWarning` per spelling per
process from :func:`ignored_option`.  The value is never forwarded.
"""

from __future__ import annotations

import warnings
from typing import Any, Set

__all__ = ["ignored_option"]

_WARNED: Set[str] = set()


def ignored_option(spelling: str, value: Any) -> None:
    """Warn once that *spelling* was passed; it is ignored.

    ``value is None`` means the caller never passed the option, so
    nothing happens.  *spelling* names the public entry point and the
    option (e.g. ``"KernelServer(max_wait_us=)"``) and keys the
    once-per-process bookkeeping.
    """
    if value is None or spelling in _WARNED:
        return
    _WARNED.add(spelling)
    warnings.warn(f"{spelling} is deprecated and ignored; stop passing it",
                  DeprecationWarning, stacklevel=3)

"""Kernel backend selection.

The stencil derivative and the flow velocity dominate runtime, so they
exist twice: as a Cython extension (``_core``) and as a pure-numpy fallback
with identical semantics. The extension is preferred when importable.

Set ``KRFLOW_KERNEL=python`` to force the fallback, ``KRFLOW_KERNEL=cython``
to require the extension (ImportError when it is not built).
"""

import os

from . import numpy_backend

_REQUESTED = os.environ.get("KRFLOW_KERNEL", "auto").lower()
if _REQUESTED not in {"auto", "python", "cython"}:
    raise ImportError(f"KRFLOW_KERNEL must be auto, python or cython, got {_REQUESTED!r}")

if _REQUESTED == "python":
    _impl = numpy_backend
else:
    try:
        from . import _core as _impl
    except ImportError:
        if _REQUESTED == "cython":
            raise
        _impl = numpy_backend

backend_name = _impl.name
d_dx = _impl.d_dx
log_density = _impl.log_density
velocity = _impl.velocity
rk4_step = _impl.rk4_step


def available_backends():
    """Names of the backends importable in this environment."""
    names = ["python"]
    try:
        from . import _core  # noqa: F401
        names.append("cython")
    except ImportError:
        pass
    return names


"""Banded linear solves by LAPACK's banded LU with partial pivoting.

A matrix M of half-bandwidth w is stored by rows, ``band[i, k] = M[i, i + k
- w]``. ``factor`` gathers that band, diagonal by diagonal, into LAPACK's
column band storage of M with w sub- and w superdiagonals, preceded by w
zero rows for the fill-in that row interchanges create (Anderson et al.,
LAPACK Users' Guide, 3rd ed., 1999, section 5.3.3), and runs ``dgbtrf`` on
it; ``solve`` runs ``dgbtrs`` with TRANS = 'N'. The gather is paid once per
factorization, and so are ``dgbtrs``'s leading arguments (TRANS, the sizes
and the addresses of the read-only factors and pivots, which the factored
tuple keeps alive): every solve passes only its right-hand side.

The routines are the ones numpy itself links: its bundled scipy-openblas64
(ILP64, every integer 64-bit), found through the dependencies of
``numpy.linalg._umath_linalg``. This costs no import and maps no new shared
object, where ``scipy.linalg`` would add 28 MiB and 0.3 s.

The flow therefore needs a numpy >= 2.0 built with scipy-openblas64, as
numpy's PyPI wheels for Linux are; it is tested on the Linux x86-64 wheel.
Builds whose LAPACK exports other names (the openblas64_ of numpy 1.x,
Accelerate, MKL, a system LAPACK) or where the lookup does not search a
library's dependencies (Windows) cannot run the flow: the first
factorization raises KrflowError.
"""

import ctypes
from functools import lru_cache

import numpy as np

from .errors import KrflowError

_INT = ctypes.c_int64
_PTR = ctypes.c_void_p


def _routines(lib):
    """``(dgbtrf, dgbtrs)`` from the library handle ``lib``, with their
    argument types declared; raises KrflowError when ``lib`` lacks them."""
    try:
        trf, trs = lib.scipy_dgbtrf_64_, lib.scipy_dgbtrs_64_
    except AttributeError as exc:
        raise KrflowError(f"numpy's LAPACK has no banded LU ({exc}); the flow needs a "
                          "numpy >= 2.0 built with scipy-openblas64") from None
    ref = ctypes.POINTER(_INT)
    # dgbtrf(M, N, KL, KU, AB, LDAB, IPIV, INFO)
    trf.argtypes = [ref, ref, ref, ref, _PTR, ref, _PTR, ref]
    # dgbtrs(TRANS, N, KL, KU, NRHS, AB, LDAB, IPIV, B, LDB, INFO) and the
    # hidden length of the Fortran string TRANS
    trs.argtypes = [ctypes.c_char_p, ref, ref, ref, ref, _PTR, ref, _PTR, _PTR, ref, ref,
                    ctypes.c_size_t]
    trf.restype = trs.restype = None
    return trf, trs


@lru_cache(maxsize=1)
def _lapack():
    return _routines(ctypes.CDLL(np.linalg._umath_linalg.__file__))


def factor(band):
    """LU-factor the banded matrix ``band`` (rows x (2w + 1)); returns the
    ``(lu, pivots, dgbtrs arguments up to B)`` that ``solve`` takes. Raises
    numpy.linalg.LinAlgError when the matrix is exactly singular."""
    m, width = band.shape
    w = width // 2
    if width != 2 * w + 1:
        raise ValueError(f"band width must be odd, got {width}")
    # column j of M is row j of ``lu``: lu[j, 2w + i - j] = M[i, j]
    lu = np.zeros((m, width + w))
    for d in range(-w, w + 1):
        lo, hi = max(0, -d), min(m, m - d)
        lu[lo:hi, 2 * w + d] = band[lo + d:hi + d, w - d]
    pivots = np.empty(m, dtype=np.int64)
    info = _INT()
    size, half, ld = _INT(m), _INT(w), _INT(width + w)
    _lapack()[0](size, size, half, half, lu.ctypes.data, ld, pivots.ctypes.data, info)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"banded matrix is singular: pivot {info.value} is 0")
    if info.value < 0:
        raise ValueError(f"dgbtrf rejected argument {-info.value}")
    lu.flags.writeable = pivots.flags.writeable = False
    return lu, pivots, (b"N", size, half, half, _INT(1), lu.ctypes.data, ld, pivots.ctypes.data)


def solve(factored, rhs):
    """Solve M x = ``rhs`` with the factorization ``factor`` returned."""
    _, pivots, leading = factored
    x = np.array(rhs, dtype=np.float64)
    if x.shape != pivots.shape:
        raise ValueError(f"right-hand side must have shape {pivots.shape}, got {x.shape}")
    info = _INT()
    _lapack()[1](*leading, x.ctypes.data, leading[1], info, 1)  # B, LDB = N, INFO, len(TRANS)
    if info.value != 0:
        raise ValueError(f"dgbtrs rejected argument {-info.value}")
    return x

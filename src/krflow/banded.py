"""Banded linear solves by block cyclic reduction, in plain numpy.

A matrix of half-bandwidth w is stored by rows, ``band[i, k] = M[i, i + k -
w]``. Cut into diagonal blocks of size b >= w it is block tridiagonal;
padded with identity rows to p = 2^k - 1 blocks, it factors by block cyclic
reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970): each
level eliminates the even-numbered blocks of the level before, so k levels
of batched b x b inverses and products replace a sequential sweep. There is
no pivoting between blocks; the flow's matrices I - c J are dominated by
their diffusion part, whose diagonal blocks stay invertible.
"""

from functools import lru_cache

import numpy as np

MAX_BLOCK = 16


@lru_cache(maxsize=8)
def block_layout(size, half_width):
    """``(p, b, cols)`` for ``size`` unknowns: p = 2^k - 1 blocks of b >=
    ``half_width`` rows, the smallest such p with b <= MAX_BLOCK, and
    ``cols[r, k]``, where band entry k of a block's row r goes in that block
    row's [lower | upper | diagonal] blocks."""
    p = 1
    while -(-size // p) > MAX_BLOCK:
        p = 2 * p + 1
    b = max(half_width, -(-size // p))
    cols = np.arange(b)[:, None] + np.arange(2 * half_width + 1) + (b - half_width)
    # column c of the three blocks [lower | diagonal | upper], reordered
    cols = np.where(cols < b, cols, np.where(cols < 2 * b, cols + b, cols - b))
    cols.setflags(write=False)
    return p, b, cols


def factor(band):
    """Factor the banded matrix ``band`` (rows x (2w + 1)); returns the
    per-level operators that ``solve`` takes."""
    m, width = band.shape
    p, b, cols = block_layout(m, width // 2)
    padded = np.zeros((p * b, width))
    padded[:m] = band
    padded[m:, width // 2] = 1.0
    rows = np.zeros((p, b, 3 * b))
    rows[:, np.arange(b)[:, None], cols] = padded.reshape(p, b, width)
    off, diag = rows[:, :, :2 * b], rows[:, :, 2 * b:]
    levels = []
    while len(diag) > 1:
        inv = np.linalg.inv(diag[0::2])
        elim = off[0::2]
        # eliminating the even blocks adds left @ row(i-1) + right @ row(i+1)
        # to every odd block row i; lr holds [left | right], off and the
        # rows [lower | upper]
        lr = np.empty((len(inv) - 1, b, 2 * b))
        np.matmul(off[1::2, :, :b], inv[:-1], out=lr[:, :, :b])
        np.matmul(off[1::2, :, b:], inv[1:], out=lr[:, :, b:])
        lr *= -1.0
        levels.append((inv, elim, lr))
        new_off = lr[:, :, :b] @ elim[:-1]
        from_right = lr[:, :, b:] @ elim[1:]
        diag = diag[1::2] + new_off[:, :, b:] + from_right[:, :, :b]
        new_off[:, :, b:] = from_right[:, :, b:]
        off = new_off
    levels.append((np.linalg.inv(diag), None, None))
    return levels


def solve(levels, rhs):
    """Solve with the factorization ``levels`` for one right-hand side."""
    m = rhs.shape[0]
    b = levels[0][0].shape[1]
    d = np.zeros((2 * len(levels[0][0]) - 1, b))
    d.reshape(-1)[:m] = rhs
    stack = []
    for _, _, lr in levels[:-1]:
        stack.append(d)
        d = d[1::2] + _matvec(lr, _pairs(d[0::2]))
    x = _matvec(levels[-1][0], d)
    for (inv, elim, _), d in zip(levels[-2::-1], stack[::-1]):
        neighbours = np.zeros((len(x) + 2, b))
        neighbours[1:-1] = x
        out = np.empty((2 * len(x) + 1, b))
        out[0::2] = _matvec(inv, d[0::2] - _matvec(elim, _pairs(neighbours)))
        out[1::2] = x
        x = out
    return x.reshape(-1)[:m]


def _pairs(vectors):
    """Consecutive pairs [v_j, v_j+1] of the block vectors, as (len - 1, 2b)."""
    return np.concatenate((vectors[:-1], vectors[1:]), axis=1)


def _matvec(blocks, vectors):
    return (blocks @ vectors[:, :, None])[:, :, 0]

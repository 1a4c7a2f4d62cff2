"""An independent reference for E' = E K(s): scipy's DOP853 at rtol 1e-13.

K(s) is rebuilt here from the exact curvature polynomials as a matrix
polynomial, without the package's structure matrix or curvature evaluation.
"""

import numpy as np
from scipy.integrate import solve_ivp

# (row, column) of +kappa_i in K; -kappa_i sits at the transposed slot
_KAPPA_SLOTS = ((2, 1), (3, 1), (3, 2))


def _structure_coefficients(curv):
    """M_d with K(s) = sum_d M_d s^d, highest degree first."""
    coeffs = [[float(c) for c in p.t_coeffs()] for p in curv.kappa]
    mats = np.zeros((max(len(c) for c in coeffs), 4, 4))
    mats[0, 1, 0] = 1.0
    mats[0, 0, 1] = -curv.delta
    for (i, j), c in zip(_KAPPA_SLOTS, coeffs):
        mats[: len(c), i, j] += c
        mats[: len(c), j, i] -= c
    return mats[::-1]


def dop853_frames(curv, nodes, init=None):
    """Frames at ``nodes`` (increasing, nodes[0] the start) from a tight DOP853 run."""
    nodes = np.asarray(nodes, dtype=float)
    init = np.eye(4) if init is None else np.asarray(init, dtype=float)
    mats = _structure_coefficients(curv)

    def rhs(s, y):
        k = mats[0]
        for m in mats[1:]:
            k = k * s + m
        return (y.reshape(4, 4) @ k).ravel()

    sol = solve_ivp(rhs, (float(nodes[0]), float(nodes[-1])), init.ravel(),
                    method="DOP853", rtol=1e-13, atol=1e-14, t_eval=nodes)
    assert sol.success, sol.message
    return sol.y.T.reshape(-1, 4, 4)


def relative_frame_error(frames, reference):
    """Per node max|E - E_ref| / max|E_ref|."""
    err = np.max(np.abs(np.asarray(frames) - reference), axis=(1, 2))
    return err / np.max(np.abs(reference), axis=(1, 2))

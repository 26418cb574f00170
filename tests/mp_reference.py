"""50-digit mpmath reference for stability functions, shared by the tests."""

import mpmath


def mp_stage_form(tab, w):
    """lam(w) = 1 - w b^T (I + wA)^{-1} 1 in 50 digits for the float tableau.

    Stiffly accurate tableaux use b := A[-1], the weights the scheme is
    evaluated with.  Returns an mpmath complex; combine it with others under
    ``mpmath.workdps(50)`` to keep the digits.
    """
    with mpmath.workdps(50):
        s = tab.s
        A = mpmath.matrix([[mpmath.mpf(float(v)) for v in row]
                           for row in tab.A])
        b = (A[s - 1, :] if tab.stiffly_accurate
             else mpmath.matrix([[mpmath.mpf(float(v)) for v in tab.b]]))
        wm = mpmath.mpc(w.real, w.imag)
        x = mpmath.lu_solve(mpmath.eye(s) + wm * A, mpmath.ones(s, 1))
        return 1 - wm * sum(b[j] * x[j] for j in range(s))


def mp_det_q(tab, w):
    """Q(w) = det(I + wA) in 50 digits for the float tableau."""
    with mpmath.workdps(50):
        A = mpmath.matrix([[mpmath.mpf(float(v)) for v in row]
                           for row in tab.A])
        return mpmath.det(mpmath.eye(tab.s) + w * A)

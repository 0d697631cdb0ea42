"""Complex special-function kernel: Gamma, Pochhammer symbols and sine
products.

Gamma is scipy's complex Gamma behind an explicit pole guard: scipy returns
nan at a complex pole, the guard raises PoleAtNonpositiveInteger instead.
scipy.special is imported on the first Gamma evaluation (_special), not with
this module, so the exact commands (triangulations, fans, ladders and the
rational identities) never load scipy.
"""

import cmath
import math

import numpy as np

from .errors import PoleAtNonpositiveInteger, SineZero, UndefinedRatio

_POLE_TOL = 1e-12


def _special():
    """scipy.special, imported on the first call: every Gamma evaluation of
    the package reads its ufuncs (gamma, gammaln, loggamma) here."""
    import scipy.special
    return scipy.special


def _poles(x):
    """Whether each entry of the complex array x is within _POLE_TOL of a
    Gamma pole, with one float array of scratch (|rint(x) - x| is
    |x - rint(x)| bit for bit)."""
    near = np.rint(x.real)
    pole = near <= 0
    near -= x.real
    pole &= np.abs(near, out=near) <= _POLE_TOL
    pole &= np.abs(x.imag, out=near) <= _POLE_TOL
    return pole


def gamma(z):
    """Gamma(z) for complex z.  Raises PoleAtNonpositiveInteger at the
    poles."""
    z = complex(z)
    if _poles(np.array([z]))[0]:
        raise PoleAtNonpositiveInteger(f"Gamma pole at z={z}")
    return complex(_special().gamma(z))


def pochhammer(alpha, m):
    """(alpha)_m = Gamma(alpha + m) / Gamma(alpha) for an integer m, as a
    rising (or reciprocal falling) product (_rising), which stays finite
    when alpha sits on a Gamma pole but the ratio has a limit."""
    return _rising(complex(alpha), m)


def _rising(a, m):
    """(a)_m as a product from the int 1: a(a+1)...(a+m-1) for m >= 0, else
    1 / ((a-1)(a-2)...(a+m))."""
    out = 1
    if m >= 0:
        for i in range(m):
            out *= a + i
        return out
    for i in range(1, -m + 1):
        f = a - i
        if f == 0:
            raise UndefinedRatio(f"falling product hits zero at alpha={a}, beta={m}")
        out *= f
    return 1 / out


def sin_pi_product(v):
    """prod_i sin(pi v_i); raises SineZero if any entry is (nearly)
    integral."""
    out = 1.0 + 0j
    for x in v:
        x = complex(x)
        if abs(x.real - round(x.real)) <= _POLE_TOL and abs(x.imag) <= _POLE_TOL:
            raise SineZero(f"sin(pi z) vanishes at z={x}")
        out *= cmath.sin(math.pi * x)
    return out

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

from .errors import PoleAtNonpositiveInteger, SineZero, UndefinedRatio

_POLE_TOL = 1e-12


def _special():
    """scipy.special, imported on the first call: every Gamma evaluation of
    the package reads its ufuncs (gamma, gammaln, loggamma) here."""
    import scipy.special
    return scipy.special


def _is_nonpositive_integer(z):
    z = complex(z)
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= _POLE_TOL and abs(z.imag) <= _POLE_TOL


def gamma(z):
    """Gamma(z) for complex z.  Raises PoleAtNonpositiveInteger at the
    poles."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleAtNonpositiveInteger(f"Gamma pole at z={z}")
    return complex(_special().gamma(z))


def pochhammer(alpha, beta):
    """(alpha)_beta = Gamma(alpha + beta) / Gamma(alpha).

    For integer beta the value is computed as a rising (or reciprocal
    falling) product, which stays finite when alpha sits on a Gamma pole but
    the ratio has a limit.
    """
    if isinstance(beta, int) or (isinstance(beta, complex) is False
                                 and float(beta).is_integer()):
        return _rising(complex(alpha), int(beta), 1.0 + 0j)
    if isinstance(beta, complex) and abs(beta.imag) <= _POLE_TOL \
            and abs(beta.real - round(beta.real)) <= _POLE_TOL:
        return _rising(complex(alpha), round(beta.real), 1.0 + 0j)
    a, b = complex(alpha), complex(beta)
    if _is_nonpositive_integer(a + b):
        raise UndefinedRatio(f"Gamma pole at alpha+beta={a + b}")
    if _is_nonpositive_integer(a):
        raise UndefinedRatio(f"Gamma pole at alpha={a} with non-integer beta")
    return gamma(a + b) / gamma(a)


def _rising(a, m, one):
    """(a)_m as a product from `one`: a(a+1)...(a+m-1) for m >= 0, else
    1 / ((a-1)(a-2)...(a+m))."""
    out = one
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

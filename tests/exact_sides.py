"""Both sides of the identity for f(u) = C u^p in closed form, with no quadrature (test-only).

Six corpus functions are powers: const_zero and const_3_2 (p = 0), identity
(p = 1), square (p = 2), reciprocal (p = -1) and sqrtx (p = 1/2).  For them
each integral of the identity is a 2F1, taken from `hqfi.specialfn.hyp2f1`.

The lhs.  With t = 1/a - s (x - a)/(ax) in the left operator and
t = 1/b + s (b - x)/(bx) in the right one,

  Gamma(alpha+1) J_left  = wa f(a) 2F1(p, alpha; alpha+1; (x - a)/x),
  Gamma(alpha+1) J_right = wb f(x) 2F1(p, 1; alpha+1; (b - x)/b),

the second after Pfaff's transformation of 2F1(p, alpha; alpha+1; 1 - b/x),
whose argument is negative.

The rhs.  Each brace is pref (P - lam Q).  With A = x (1 - t z) and
z = 1 - end/x, A^(-2) f'(end x/A) = C p (end x)^(p-1) x^(-1-p) (1 - t z)^(-1-p),
and int_0^1 t^g (1 - t z)^(-1-p) dt = 2F1(1+p, g+1; g+2; z)/(g+1), with
g = alpha for P and g = 0 for Q.  On the left z >= 0 and the factor in front
is C p a^(p-1)/x^2.  On the right z < 0, and Pfaff's transformation
2F1(1+p, g+1; g+2; z) = (x/b)^(1+p) 2F1(1+p, 1; g+2; (b - x)/b) leaves the
factor C p x^(p-1)/b^2.

A 2F1 whose first parameter is 0 or -1 is a polynomial and is written out:
`hyp2f1` would send it, at z > 0.9, to the Euler integral, which is a
quadrature.  Each side is returned as its terms, so a test can both sum them
and scale an error by their size.
"""
import math

from hqfi.specialfn import hyp2f1

# (C, p) of each power function of the corpus
POWERS = {
    "const_zero": (0.0, 0.0),
    "const_3_2": (1.5, 0.0),
    "identity": (1.0, 1.0),
    "square": (1.0, 2.0),
    "reciprocal": (1.0, -1.0),
    "sqrtx": (1.0, 0.5),
}


def _f21(a, b, c, z):
    if a == 0.0:
        return 1.0
    if a == -1.0:
        return 1.0 - b * z / c
    return hyp2f1(a, b, c, z)


def lhs_terms(C, p, a, b, x, lam, alpha):
    """The six terms of identity_lhs: (1-lam) wa f(x), (1-lam) wb f(x), lam wa f(a), lam wb f(b), -J_left, -J_right."""
    wa = ((x - a) / (a * x)) ** alpha
    wb = ((b - x) / (b * x)) ** alpha
    fa, fb, fx = C * a**p, C * b**p, C * x**p
    j_left = wa * fa * _f21(p, alpha, alpha + 1.0, (x - a) / x)
    j_right = wb * fx * _f21(p, 1.0, alpha + 1.0, (b - x) / b)
    return ((1.0 - lam) * wa * fx, (1.0 - lam) * wb * fx, lam * wa * fa, lam * wb * fb, -j_left, -j_right)


def rhs_terms(C, p, a, b, x, lam, alpha):
    """The four terms of identity_rhs: pref_a P_a, -lam pref_a Q_a, -pref_b P_b and lam pref_b Q_b."""
    pref_a = (x - a) ** (alpha + 1.0) / (a * x) ** (alpha - 1.0)
    pref_b = (b - x) ** (alpha + 1.0) / (b * x) ** (alpha - 1.0)
    k_a = C * p * a ** (p - 1.0) / (x * x)
    k_b = C * p * x ** (p - 1.0) / (b * b)
    z, w = (x - a) / x, (b - x) / b
    p_a = k_a * _f21(1.0 + p, alpha + 1.0, alpha + 2.0, z) / (alpha + 1.0)
    q_a = k_a * _f21(1.0 + p, 1.0, 2.0, z)
    p_b = k_b * _f21(1.0 + p, 1.0, alpha + 2.0, w) / (alpha + 1.0)
    q_b = k_b * _f21(1.0 + p, 1.0, 2.0, w)
    return (pref_a * p_a, -lam * pref_a * q_a, -pref_b * p_b, lam * pref_b * q_b)


def side(terms):
    """(value, sum of |terms|) of one side."""
    return math.fsum(terms), math.fsum(abs(t) for t in terms)

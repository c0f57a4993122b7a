"""Fit the coefficients of keycap.numerics._erfcx and check them.

    python3 tools/fit_erfcx.py      # about half a minute; needs mpmath

The kernel writes erfcx(z) = exp(z^2) erfc(z), z >= 0, as

    erfcx(z) = R(t) / (z + K),   t = (z - K) / (z + K) = 1 - 2K / (z + K),

with R a polynomial of degree DEGREE in t, the variable in which Shepherd &
Laframboise (Math. Comp. 36, 1981) expand (1 + 2z) erfcx(z) in Chebyshev
polynomials. t maps [0, inf] onto [-1, 1], and R(t) = (z + K) erfcx(z)
runs from K at z = 0 to 1 / sqrt(pi) at z = inf.

The fit is a least-squares fit in relative error at Chebyshev points of t,
in 40-digit arithmetic, held to R(-1) = K and reweighted by Lawson's
iteration towards the minimax fit. Its constant term is then nudged by a
few units in the last place if double-precision Horner does not give
R(-1) = K, and so erfcx(0) = 1, exactly. The script prints the
coefficients, highest degree first, as keycap/numerics.py holds them, and
the largest relative error of the double-precision kernel against mpmath
on z in [0, 4000].
"""

import mpmath as mp
import numpy as np

K = 3.5
DEGREE = 21
POINTS = 240
LAWSON_STEPS = 40


def target(t):
    """(z + K) erfcx(z) at t = (z - K) / (z + K)."""
    if t == 1:
        return 1 / mp.sqrt(mp.pi)
    z = K * (1 + t) / (1 - t)
    return (z + K) * mp.exp(z * z) * mp.erfc(z)


def chebyshev_fit():
    """Chebyshev coefficients of the Lawson-weighted relative fit, held to
    R(-1) = K by eliminating the constant: a_0 = K - sum_k (-1)^k a_k."""
    ts = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / POINTS)
          for j in range(POINTS)] + [mp.mpf(1)]
    fs = [target(t) for t in ts]
    basis = []
    for t in ts:  # T_k(t) - T_k(-1), k = 1..DEGREE, by the recurrence
        row = [mp.mpf(1), t]
        while len(row) <= DEGREE:
            row.append(2 * t * row[-1] - row[-2])
        basis.append([row[k] - (-1) ** k for k in range(1, DEGREE + 1)])
    weights = [mp.mpf(1)] * len(ts)
    best = None
    for _ in range(LAWSON_STEPS):
        a = mp.matrix(len(ts), DEGREE)
        b = mp.matrix(len(ts), 1)
        for i, (row, f) in enumerate(zip(basis, fs)):
            scale = mp.sqrt(weights[i]) / f
            for k in range(DEGREE):
                a[i, k] = row[k] * scale
            b[i] = (f - K) * scale
        coef = mp.qr_solve(a, b)[0]
        err = [(K + mp.fsum(coef[k] * row[k] for k in range(DEGREE))) / f - 1
               for row, f in zip(basis, fs)]
        worst = max(abs(e) for e in err)
        if best is None or worst < best[0]:
            rest = [coef[k] for k in range(DEGREE)]
            a0 = K - mp.fsum((-1) ** k * c for k, c in enumerate(rest, 1))
            best = (worst, [a0] + rest)
        weights = [w * abs(e) for w, e in zip(weights, err)]
        total = mp.fsum(weights)
        weights = [w * len(ts) / total for w in weights]
    return best[1]


def monomial(cheb):
    """Power-basis coefficients, constant term first, of sum c_k T_k."""
    t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    out = [cheb[0]] + [mp.mpf(0)] * DEGREE
    for k in range(1, DEGREE + 1):
        for i, v in enumerate(t_cur):
            out[i] += cheb[k] * v
        t_next = [mp.mpf(0)] + [2 * v for v in t_cur]
        for i, v in enumerate(t_prev):
            t_next[i] -= v
        t_prev, t_cur = t_cur, t_next
    return out


def erfcx(z, coef):
    """The kernel of keycap.numerics, with coefficients highest first."""
    t = 1.0 - (2.0 * K) / (z + K)
    p = t * coef[0]
    for c in coef[1:-1]:
        p += c
        p *= t
    p += coef[-1]
    return p / (z + K)


def main():
    mp.mp.dps = 40
    coef = [float(v) for v in reversed(monomial(chebyshev_fit()))]
    # nudge the constant term until erfcx(0) = 1 exactly
    for k in sorted(range(-64, 65), key=abs):
        trial = coef[:-1] + [float(coef[-1] + k * np.spacing(coef[-1]))]
        if erfcx(np.zeros(1), trial)[0] == 1.0:
            coef = trial
            break
    else:
        raise RuntimeError("no nudge gives erfcx(0) = 1")
    z = np.concatenate([np.geomspace(1e-8, 1.0, 100),
                        np.linspace(0.0, 30.0, 3001),
                        np.geomspace(30.0, 4000.0, 500)])
    ref = np.array([float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v)))
                    for v in z])
    print("_ERFCX_R = (")
    for i in range(0, len(coef), 3):
        print("    " + " ".join(f"{c!r}," for c in coef[i:i + 3]))
    print(")")
    print(f"max relative error on [0, 4000]: "
          f"{np.max(np.abs(erfcx(z, coef) / ref - 1.0)):.2e}")


if __name__ == "__main__":
    main()

"""Two routines of scipy, ported so that the fading fits load only scipy.special.

``qagi`` is QUADPACK's DQAGIE (Piessens, de Doncker-Kapenga, Überhuber and
Kahaner, *QUADPACK*, Springer 1983) on [0, inf), with the transformed
15-point Gauss-Kronrod rule DQK15I, the error-list sort DQPSRT and Wynn's
epsilon algorithm DQELG, at the settings of
``scipy.integrate.quad(f, 0, inf, limit=400)``.  ``bounded_minimum`` is
Brent's bounded minimiser (Brent, *Algorithms for Minimization without
Derivatives*, 1973) as scipy's ``minimize_scalar(method="bounded")`` runs it
with ``xatol = 1e-10``.

Both do their arithmetic on Python floats in the order of the originals, so
they return scipy 1.17.1's values bit for bit; tests/test_numerics.py holds
them to scipy.  The lists of ``qagi`` are 1-based, as in QUADPACK, so each
index reads as in the Fortran.  Neither keeps state between calls.
"""

from __future__ import annotations

import sys

import numpy as np

_EPMACH = 2.0**-52
_UFLOW = 2.0**-1022
_OFLOW = sys.float_info.max
_EPSABS = _EPSREL = 1.49e-8
_LIMIT = 400
_LIMEXP = 50

# DQK15I: the 15-point Kronrod nodes xgk and weights wgk, and the weights wg
# of the 7-point Gauss rule on the same nodes (0 where it has no node).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693015,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)


def _nodes(a: float, b: float) -> list[float]:
    """The 15 DQK15I nodes on [a, b] within (0, 1]: the centre, 7 left, 7 right."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    return ([centr] + [centr - hlgth * x for x in _XGK]
            + [centr + hlgth * x for x in _XGK])


def _dqk15i(a: float, b: float, u: list[float], fu: list[float]):
    """DQK15I on [a, b] from the nodes u and f at their abscissae (1 - u)/u.

    Returns (result, abserr, resabs, resasc)."""
    hlgth = 0.5 * (b - a)
    fc, *fv = [(y / v) / v for y, v in zip(fu, u)]
    fv1, fv2 = fv[:7], fv[7:]
    resg = _WG[7] * fc
    resk = _WGK[7] * fc
    resabs = abs(resk)
    for wg, wgk, fval1, fval2 in zip(_WG, _WGK, fv1, fv2):
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for wgk, fval1, fval2 in zip(_WGK, fv1, fv2):
        resasc = resasc + wgk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # min(1, ratio**1.5), without the OverflowError of a huge ratio**1.5.
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio**1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(last: int, maxerr: int, elist: list[float], iord: list[int],
            nrmax: int) -> tuple[int, float, int]:
    """DQPSRT: keep iord sorted by descending error; (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = last
    if last > _LIMIT // 2 + 2:
        jupbn = _LIMIT + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    # Insert errmax by traversing the list top-down ...
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    # ... and errmin bottom-up.
    iord[i - 1] = maxerr
    k = jbnd
    for _ in range(i, jbnd + 1):
        isucc = iord[k]
        if errmin < elist[isucc]:
            iord[k + 1] = last
            break
        iord[k + 1] = isucc
        k -= 1
    else:
        iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list[float], res3la: list[float],
           nres: int) -> tuple[int, float, float, int]:
    """DQELG: the epsilon-algorithm limit of epstab[1..n]; (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged.
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # Two elements very close to each other, or irregular behaviour:
            # omit a part of the table.
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # Shift the table.
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _abscissae(u: list[float]) -> np.ndarray:
    """The points x = (1 - u)/u of [0, inf) that the nodes u of (0, 1] map to."""
    return np.array([(1.0 - v) / v for v in u])


def qagi(f) -> tuple[float, float]:
    """(integral, error estimate) of f over [0, inf), as QUADPACK's DQAGIE gives them.

    f maps a float array of abscissae to the integrand's values there; it is
    called once on the 15 nodes of [0, 1] and then once per bisection, on the
    30 nodes of both halves.  The tolerances are 1.49e-8, absolute and
    relative, and at most 400 subintervals are used.  Where QUADPACK would
    flag the result, the result and its error estimate are returned as they
    stand: the caller judges them.
    """
    alist = [0.0] * (_LIMIT + 1)
    blist = [0.0] * (_LIMIT + 1)
    rlist = [0.0] * (_LIMIT + 1)
    elist = [0.0] * (_LIMIT + 1)
    iord = [0] * (_LIMIT + 1)
    rlist2 = [0.0] * 53  # the epsilon table's 52 entries
    res3la = [0.0] * 4

    u = _nodes(0.0, 1.0)
    result, abserr, defabs, resabs = _dqk15i(0.0, 1.0, u, f(_abscissae(u)).tolist())
    errbnd = max(_EPSABS, _EPSREL * abs(result))
    # The first rule's result stands if roundoff already limits it, or it is
    # accurate enough, or exact.
    roundoff = abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd
    if roundoff or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr

    blist[1] = 1.0
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    rlist2[1] = result
    ier = 0
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    ktmin = 0
    numrl2 = 2
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    # Set at the first bisection, before they are read.
    small = erlarg = ertest = correc = 0.0

    for last in range(2, _LIMIT + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        u1 = _nodes(a1, b1)
        u2 = _nodes(a2, b2)
        values = f(_abscissae(u1 + u2)).tolist()
        area1, error1, _, defab1 = _dqk15i(a1, b1, u1, values[:15])
        area2, error2, _, defab2 = _dqk15i(a2, b2, u2, values[15:])

        # Improve the previous approximations to the integral and error,
        # and test for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(_EPSABS, _EPSREL * abs(area))

        # Roundoff, the subinterval limit, and bad integrand behaviour.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == _LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # Append the new subintervals to the list.
        if not error2 > error1:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        else:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        maxerr, errmax, nrmax = _dqpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _total(rlist, last), errsum
        if ier != 0:
            break
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: before bisecting,
            # decrease the error over the larger intervals and extrapolate.
            jupbnd = last
            if last > 2 + _LIMIT // 2:
                jupbnd = _LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # Extrapolate.
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # Prepare bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # Choose between the extrapolated result and the sum over subintervals.
    if abserr == _OFLOW:
        return _total(rlist, last), errsum
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _total(rlist, last), errsum
        elif abserr > errsum:
            return _total(rlist, last), errsum
    return result, abserr


def _total(rlist: list[float], last: int) -> float:
    """rlist[1] + ... + rlist[last], added left to right as QUADPACK adds them
    (``sum`` compensates its rounding from Python 3.12 on)."""
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result


def bounded_minimum(func, lower: float, upper: float) -> float:
    """The x in [lower, upper] where Brent's bounded search ends on func.

    scipy's ``minimize_scalar(func, bounds=(lower, upper), method="bounded",
    options={"xatol": 1e-10}).x``, at most 500 evaluations of func; numpy's
    abs, sign, maximum and sqrt steer it through NaN and inf as they steer
    scipy's.
    """
    xatol = 1e-10
    maxfun = 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for a parabolic fit.
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            # Is the parabola acceptable?
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1
        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf

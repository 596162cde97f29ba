"""Independent reference answers for the benchmark's checker.

Nothing here imports slspec.  Piecewise-constant problems are solved from the
closed-form constant-coefficient solutions: a float64 numpy version scans many
energies at once, and an mpmath version at 30 digits refines every root the
scan brackets.  Grid (piecewise-linear) potentials are integrated with
scipy's DOP853 at rtol 1e-10, node interval by node interval, for a whole
vector of energies at once.

A problem is the "problem" block of a slspec config (a plain dict).  The
boundary function F(E) = u(b) cos(psi_R) - u'(b) sin(psi_R) of the solution
launched from the left boundary angle vanishes exactly at eigenvalues and,
unlike the projective mismatch, has no wrap-around: its sign changes on a
dense energy scan bracket the roots.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

mp.mp.dps = 30

# ------------------------------------------------------------------ geometry


def jump_matrix(alpha, r, theta, lib=math):
    """P_alpha H_r E_theta as row-major (a, b, c, d)."""
    c, s = lib.cos(theta), lib.sin(theta)
    return (r * c + alpha * s / r, -r * s + alpha * c / r, s / r, c / r)


def class_angle(u, du, lib=math):
    """Angle in [0, pi) of the projective class of (u, u')."""
    return lib.atan2(u, du) % lib.pi


def proj_distance(p, q):
    d = abs(p - q) % math.pi
    return min(d, math.pi - d)


def alpha_fixed_angle(theta):
    """Class of (cos theta, -sin theta): the one every shear leaves alone."""
    return class_angle(math.cos(theta), -math.sin(theta))


def _pieces(potential, a, b):
    """(x0, x1, V) pieces covering [a, b] for constant/piecewise potentials."""
    if potential["kind"] == "constant":
        return [(a, b, potential["value"])]
    bps, vals = potential["breakpoints"], potential["values"]
    out = []
    for x0, x1, v in zip(bps, bps[1:], vals):
        lo, hi = max(x0, a), min(x1, b)
        if lo < hi:
            out.append((lo, hi, v))
    return out


def _events(problem, upto=None):
    """Smooth pieces and jumps from a to `upto` (default b), in order.

    Yields ("piece", x0, x1, V) and ("jump", x, alpha, r, theta).  With
    `upto` set to a site location the walk stops just left of that site.
    """
    a, b = problem["a"], problem["b"]
    end = b if upto is None else upto
    sites = sorted(problem["interactions"], key=lambda s: s["x"])
    cuts = [s["x"] for s in sites if s["x"] < end]
    pieces = _pieces(problem["potential"], a, b)
    out = []
    for x0, x1, v in pieces:
        if x0 >= end:
            break
        pts = [x0] + [c for c in cuts if x0 < c < min(x1, end)] + [min(x1, end)]
        out.extend(("piece", p, q, v) for p, q in zip(pts, pts[1:]))
    # interleave the jumps at their locations
    result = []
    jumps = [s for s in sites if s["x"] < end]
    ji = 0
    for ev in out:
        while ji < len(jumps) and jumps[ji]["x"] <= ev[1]:
            s = jumps[ji]
            result.append(("jump", s["x"], s["alpha"], s["r"], s["theta"]))
            ji += 1
        result.append(ev)
    for s in jumps[ji:]:
        result.append(("jump", s["x"], s["alpha"], s["r"], s["theta"]))
    return result


# ------------------------------------------------- exact route, numpy float64


def _np_piece(u, du, w2, dx):
    k = np.sqrt(np.abs(w2))
    z = k * dx
    osc = w2 > 0
    c = np.where(osc, np.cos(z), np.cosh(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(z > 1e-12, np.where(osc, np.sin(z), np.sinh(z)) / k, dx)
    ds = np.where(osc, -k * np.sin(z), k * np.sinh(z))
    return c * u + s * du, ds * u + c * du


def np_state(problem, energies):
    """Normalized (u, u') at b for an energy array."""
    e = np.asarray(energies, dtype=float)
    psi = problem["bc_left"]
    u = np.full_like(e, math.sin(psi))
    du = np.full_like(e, math.cos(psi))
    for ev in _events(problem):
        if ev[0] == "piece":
            u, du = _np_piece(u, du, e - ev[3], ev[2] - ev[1])
        else:
            ma, mb, mc, md = jump_matrix(*ev[2:])
            u, du = ma * u + mb * du, mc * u + md * du
        n = np.hypot(u, du)
        u, du = u / n, du / n
    return u, du


def boundary_function(u, du, psi_right, lib=np):
    return u * lib.cos(psi_right) - du * lib.sin(psi_right)


# --------------------------------------------------- exact route, mpmath


def mp_state(problem, e, upto=None):
    """(u, u') at b (or just left of `upto`) at energy e, in mpmath."""
    e = mp.mpf(e)
    psi = mp.mpf(problem["bc_left"])
    u, du = mp.sin(psi), mp.cos(psi)
    for ev in _events(problem, upto):
        if ev[0] == "piece":
            w2 = e - mp.mpf(ev[3])
            dx = mp.mpf(ev[2]) - mp.mpf(ev[1])
            if w2 > 0:
                k = mp.sqrt(w2)
                c, s, ds = mp.cos(k * dx), mp.sin(k * dx) / k, -k * mp.sin(k * dx)
            elif w2 < 0:
                k = mp.sqrt(-w2)
                c, s, ds = mp.cosh(k * dx), mp.sinh(k * dx) / k, k * mp.sinh(k * dx)
            else:
                c, s, ds = mp.mpf(1), dx, mp.mpf(0)
            u, du = c * u + s * du, ds * u + c * du
        else:
            ma, mb, mc, md = jump_matrix(*(mp.mpf(t) for t in ev[2:]), lib=mp)
            u, du = ma * u + mb * du, mc * u + md * du
    return u, du


def mp_boundary_function(problem, e):
    u, du = mp_state(problem, e)
    n = mp.sqrt(u * u + du * du)
    return boundary_function(u / n, du / n, mp.mpf(problem["bc_right"]), lib=mp)


def mp_mismatch(problem, e):
    u, du = mp_state(problem, e)
    return proj_distance(float(class_angle(u, du, lib=mp)), problem["bc_right"])


def mp_left_class(problem, e, site_index):
    """Class angle of the solution just left of one site, at energy e."""
    x = problem["interactions"][site_index]["x"]
    u, du = mp_state(problem, e, upto=x)
    return float(class_angle(u, du, lib=mp))


def mp_potential_matrix(problem, e):
    """Transfer matrix M(b, a; E) of the potential alone, row-major floats."""
    plain = dict(problem, interactions=[])
    cols = []
    for psi in (math.pi / 2, 0.0):  # (u, u') = (1, 0), then (0, 1)
        u, du = mp_state(dict(plain, bc_left=psi), e)
        cols.append((float(u), float(du)))
    (a, c), (b, d) = cols
    return (a, b, c, d)


def mp_root(f, lo, hi, width=1e-24):
    """Root of f in the sign-change bracket [lo, hi], by the Illinois rule."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo * fhi > 0:
        raise ArithmeticError(f"no sign change in [{lo}, {hi}]")
    side = 0
    for _ in range(400):
        if hi - lo <= width * max(1, abs(lo)):
            break
        mid = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < mid < hi:
            mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
            if side == -1:
                fhi /= 2
            side = -1
        else:
            hi, fhi = mid, fm
            if side == 1:
                flo /= 2
            side = 1
    return (lo + hi) / 2


def scan_root(f, lo, hi):
    """Refine a sign change found by a float64 scan.

    A root within rounding of a scan point can put the float64 sign change
    one interval off; the bracket then widens by one interval each side.
    """
    try:
        return mp_root(f, lo, hi)
    except ArithmeticError:
        return mp_root(f, 2 * lo - hi, 2 * hi - lo)


def _sign_changes(energies, f):
    """Scan points where f is exactly 0, and indices i with a sign change
    between energies[i] and energies[i + 1]."""
    return [float(e) for e in energies[f == 0.0]], np.nonzero(f[:-1] * f[1:] < 0)[0]


def exact_eigenvalues(problem, e_lo, e_hi, spacing=2e-3):
    """Eigenvalues in [e_lo, e_hi]: float64 scan, then mpmath refinement."""
    n = max(2000, int(math.ceil((e_hi - e_lo) / spacing)) + 1)
    es = np.linspace(e_lo, e_hi, n)
    u, du = np_state(problem, es)
    f = boundary_function(u, du, problem["bc_right"])
    roots, changes = _sign_changes(es, f)
    for i in changes:
        roots.append(float(scan_root(lambda t: mp_boundary_function(problem, t),
                                     es[i], es[i + 1])))
    return sorted(roots)


# ------------------------------------------------ degenerate construction


def _mp_u_at(problem, e, x):
    return mp_state(dict(problem, interactions=[]), e, upto=x)


def _march_u(base, e, xs):
    """u at the increasing points xs of a jump-free problem (float64)."""
    pieces = _pieces(base["potential"], base["a"], base["b"])
    u, du = math.sin(base["bc_left"]), math.cos(base["bc_left"])
    x, k = xs[0], 0
    out = [u]
    for target in xs[1:]:
        while x < target:
            x0, x1, v = pieces[k]
            nxt = min(x1, target)
            un, dun = _np_piece(u, du, np.float64(e - v), nxt - x)
            u, du, x = float(un), float(dun), nxt
            if x >= x1 and k < len(pieces) - 1:
                k += 1
        n = math.hypot(u, du)
        u, du = u / n, du / n
        out.append(u)
    return out


def degenerate_sites(base, e, thetas, n_scan=4000):
    """Site locations the degenerate construction must produce.

    Site i sits between the i-th and (i+1)-th interior zeros of the
    unperturbed eigenfunction, where its class equals (cos theta_i,
    -sin theta_i).  The problems are generated with E above the potential,
    so the class turns monotonically and that point is unique.
    """
    a, b = base["a"], base["b"]
    xs = np.linspace(a, b, n_scan)
    us = _march_u(base, e, xs)
    zeros = []
    margin = 1e-7 * (b - a) + 1e-12
    # the end intervals are skipped: a zero sitting on an endpoint (Dirichlet)
    # is not interior, and float noise there can fake a sign change
    for i in range(1, n_scan - 2):
        if us[i] * us[i + 1] < 0:
            z = scan_root(lambda x: _mp_u_at(base, e, x)[0], xs[i], xs[i + 1])
            if a + margin < z < b - margin:
                zeros.append(z)
    if len(zeros) < len(thetas) + 1:
        raise ArithmeticError(f"{len(zeros)} interior zeros for {len(thetas)} sites")
    sites = []
    for i, theta in enumerate(thetas):
        tau = mp.mpf(alpha_fixed_angle(theta))

        def h(x):
            u, du = _mp_u_at(base, e, x)
            return u * mp.cos(tau) - du * mp.sin(tau)

        sites.append(float(mp_root(h, zeros[i], zeros[i + 1])))
    return sites


# ------------------------------------------------------ grid route, scipy

_RTOL, _ATOL = 1e-10, 1e-12


def _grid_segments(problem):
    """(p, q, v0, slope, jump) along [a, b]: V is linear on each segment and
    `jump` is the site applied at q, if any."""
    a, b = problem["a"], problem["b"]
    xs, vals = problem["potential"]["x"], problem["potential"]["values"]
    sites = {s["x"]: s for s in problem["interactions"]}
    pts = sorted({a, b} | {x for x in xs if a < x < b} | set(sites))
    segs = []
    j = 0
    for p, q in zip(pts, pts[1:]):
        while j < len(xs) - 2 and xs[j + 1] <= p:
            j += 1
        slope = (vals[j + 1] - vals[j]) / (xs[j + 1] - xs[j])
        segs.append((p, q, vals[j] + slope * (p - xs[j]), slope, sites.get(q)))
    return segs


def grid_boundary_function(problem, energies):
    e = np.asarray(energies, dtype=float)
    k = len(e)
    psi = problem["bc_left"]
    y = np.concatenate([np.full(k, math.sin(psi)), np.full(k, math.cos(psi))])
    for p, q, v0, slope, site in _grid_segments(problem):
        def rhs(x, y, v0=v0, slope=slope, p=p):
            return np.concatenate([y[k:], (v0 + slope * (x - p) - e) * y[:k]])

        sol = solve_ivp(rhs, (p, q), y, method="DOP853", rtol=_RTOL, atol=_ATOL,
                        first_step=q - p)
        if not sol.success:
            raise ArithmeticError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
        if site is not None:
            ma, mb, mc, md = jump_matrix(site["alpha"], site["r"], site["theta"])
            y = np.concatenate([ma * y[:k] + mb * y[k:], mc * y[:k] + md * y[k:]])
        n = np.hypot(y[:k], y[k:])
        y = y / np.concatenate([n, n])
    return boundary_function(y[:k], y[k:], problem["bc_right"])


def grid_eigenvalues(problem, e_lo, e_hi, n_scan=3000, tol=1e-10):
    """Eigenvalues of a grid problem in [e_lo, e_hi] (scan, then Illinois)."""
    es = np.linspace(e_lo, e_hi, n_scan)
    fs = grid_boundary_function(problem, es)
    exact, i = _sign_changes(es, fs)
    if not len(i):
        return sorted(exact)
    lo, hi, flo, fhi = es[i], es[i + 1], fs[i], fs[i + 1]
    side = np.zeros(len(lo))
    for _ in range(100):
        if np.all(hi - lo <= tol * np.maximum(1.0, np.abs(lo))):
            break
        mid = (lo * fhi - hi * flo) / (fhi - flo)
        mid = np.where((mid > lo) & (mid < hi), mid, 0.5 * (lo + hi))
        fm = grid_boundary_function(problem, mid)
        left = np.sign(fm) == np.sign(flo)
        # Illinois: halve the stale end's value when the same side repeats
        fhi = np.where(left & (side == 1), 0.5 * fhi, fhi)
        flo = np.where(~left & (side == -1), 0.5 * flo, flo)
        lo, flo = np.where(left, mid, lo), np.where(left, fm, flo)
        hi, fhi = np.where(left, hi, mid), np.where(left, fhi, fm)
        side = np.where(left, 1, -1)
        exact.extend(mid[fm == 0.0])
        keep = fm != 0.0
        lo, hi, flo, fhi, side = lo[keep], hi[keep], flo[keep], fhi[keep], side[keep]
    else:
        raise ArithmeticError("reference refinement did not converge")
    return sorted(exact + list(0.5 * (lo + hi)))

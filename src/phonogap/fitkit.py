"""Damped least-squares engine and the measurement curve models.

One Levenberg-Marquardt core drives every iterative fit: the 1-D curve fits
(exponential recovery, tether waist) and the geometric refinement of the
conic fits (ellipse, circle) on orthogonal distances, which start from
algebraic initializations.  Standard errors of the curve fits come from the
inverse weighted normal matrix and therefore assume the supplied sigmas are
absolute one-sigma uncertainties.

The engine stops on the first of three tests: the gradient norm falls below
``GRAD_TOL``; the full Gauss-Newton step predicts a decrease of the sum of
squares of at most machine epsilon times the sum, less than one rounding of
it (MINPACK's reduction test, Moré 1978); or an accepted step moves every
parameter by less than ``STEP_TOL`` relative.  The second ends most fits:
without it a parameter near 0, such as a centred ellipse's centre, holds
off the third while trials whose sums differ in the last digit are
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import FitError, InvalidParameterError, NonConvergenceError

MAX_ITERATIONS = 200
STEP_TOL = 1e-10
GRAD_TOL = 1e-12
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CurveModel:
    """A parametric 1-D model with analytic derivatives."""

    tag: str
    param_names: tuple[str, ...]
    predict: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def n_params(self) -> int:
        return len(self.param_names)


@dataclass
class FitResult:
    """Converged parameters with covariance-based standard errors."""

    tag: str
    param_names: tuple[str, ...]
    params: np.ndarray
    stderr: np.ndarray
    wrss: float
    dof: int
    n_iterations: int
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def error_of(self, name: str) -> float:
        return float(self.stderr[self.param_names.index(name)])


# --------------------------------------------------------------------------
# Built-in models


def _recovery_predict(x, p):
    return 1.0 - np.exp(-x / p[0])


def _recovery_jacobian(x, p):
    return (-np.exp(-x / p[0]) * x / p[0] ** 2)[:, None]


def _waist_predict(x, p):
    y0, x0, curv, span = p
    q = x - x0
    soft = 1.0 + np.abs(q) / span
    return y0 + curv * q * q / soft


def _waist_jacobian(x, p):
    y0, x0, curv, span = p
    q = x - x0
    soft = 1.0 + np.abs(q) / span
    jac = np.empty((x.size, 4))
    jac[:, 0] = 1.0
    jac[:, 1] = -curv * (2.0 * q * soft - q * q * np.sign(q) / span) / soft**2
    jac[:, 2] = q * q / soft
    jac[:, 3] = curv * q * q * np.abs(q) / (span * soft) ** 2
    return jac


MODELS: dict[str, CurveModel] = {
    m.tag: m
    for m in (
        CurveModel("recovery", ("t1",), _recovery_predict, _recovery_jacobian),
        CurveModel(
            "waist", ("y0", "x0", "curvature", "softening"), _waist_predict,
            _waist_jacobian,
        ),
    )
}


# --------------------------------------------------------------------------
# Engine


def _as_arrays(x, y, sigma, n_params):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidParameterError("x and y must be 1-D arrays of equal length")
    if sigma is None:
        sigma = np.ones_like(y)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != y.shape:
            raise InvalidParameterError("sigma must match the data length")
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise InvalidParameterError("sigma values must be positive")
    if x.size < n_params:
        raise FitError(
            f"need at least {n_params} points to fit, got {x.size}"
        )
    return x, y, sigma


def fit_nonlinear(
    model: CurveModel,
    x: Sequence[float],
    y: Sequence[float],
    sigma: Sequence[float] | None,
    init: Sequence[float],
) -> FitResult:
    """Levenberg-Marquardt weighted least squares.

    Damping starts at 1e-3 on the normal-matrix diagonal and adapts by
    factors of ten.  Convergence requires a gradient norm below 1e-12, a
    full Gauss-Newton step that predicts a decrease of at most machine
    epsilon times the weighted residual sum of squares, or a relative
    parameter step below 1e-10; a stall, or running out of the
    ``MAX_ITERATIONS`` iterations, raises :class:`NonConvergenceError`
    carrying the best parameters so far.

    When ``sigma`` is given, the standard errors treat it as absolute
    one-sigma uncertainties; otherwise the covariance is rescaled by the
    reduced chi-square, as usual for unweighted fits.
    """
    absolute_sigma = sigma is not None
    x, y, sigma = _as_arrays(x, y, sigma, model.n_params)
    params = np.asarray(init, dtype=float).copy()
    if params.shape != (model.n_params,):
        raise InvalidParameterError(
            f"{model.tag} expects {model.n_params} initial parameters"
        )

    params, wrss, n_iter, status = _levenberg_marquardt(
        lambda p: (model.predict(x, p) - y) / sigma,
        lambda p: model.jacobian(x, p) / sigma[:, None],
        params,
    )
    result = _finalize(model, x, sigma, params, wrss, n_iter, absolute_sigma)
    if status == "stalled":
        raise NonConvergenceError(
            f"{model.tag} fit stalled (damping exhausted)", best=result
        )
    if status == "capped":
        raise NonConvergenceError(
            f"{model.tag} fit exceeded {MAX_ITERATIONS} iterations", best=result
        )
    return result


def _levenberg_marquardt(residual, jacobian, params):
    """Minimize ``|residual(p)|^2`` from ``params`` by damped Gauss-Newton.

    Damping starts at 1e-3 on the normal-matrix diagonal, falls tenfold
    after an accepted step and rises tenfold after a rejected one; a trial
    whose sum of squares is not finite is rejected.  Returns the best
    parameters, their sum of squares, the iteration count and a status:
    ``"converged"``, ``"stalled"`` (damping reached 1e12 without an
    improving step) or ``"capped"`` (``MAX_ITERATIONS`` steps taken).

    Before each step the fit counts as converged, with no further residual
    evaluated, when the gradient norm is below GRAD_TOL or when the
    Gauss-Newton decrement |J s|^2 is at most EPS times the sum of squares,
    s being the least-squares solution of J s = -r: a full step then
    predicts a decrease below one rounding of the sum.  After an accepted
    step it counts as converged when the step is below STEP_TOL relative.
    """
    resid = residual(params)
    wrss = float(resid @ resid)
    lam = 1e-3
    for n_iter in range(1, MAX_ITERATIONS + 1):
        jac = jacobian(params)
        grad = jac.T @ resid
        grad_norm = np.linalg.norm(grad)
        if grad_norm < GRAD_TOL:
            return params, wrss, n_iter - 1, "converged"
        # From lstsq, |J s|^2 is >= 0 even for a rank-deficient J.  A
        # non-finite J or residual (a non-finite gradient) is left to the
        # damping, which rejects its trials.
        if math.isfinite(grad_norm):
            predicted = jac @ np.linalg.lstsq(jac, resid, rcond=None)[0]
            if predicted @ predicted <= EPS * wrss:
                return params, wrss, n_iter - 1, "converged"
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        diag[diag == 0] = 1.0
        while lam < 1e12:
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + step
            trial_resid = residual(trial)
            trial_wrss = float(trial_resid @ trial_resid)
            if np.isfinite(trial_wrss) and trial_wrss <= wrss:
                break
            lam *= 10.0
        else:
            return params, wrss, n_iter, "stalled"
        rel_step = np.max(np.abs(step) / (np.abs(params) + 1e-30))
        params, resid, wrss = trial, trial_resid, trial_wrss
        lam = max(lam / 10.0, 1e-15)
        if rel_step < STEP_TOL:
            return params, wrss, n_iter, "converged"
    return params, wrss, MAX_ITERATIONS, "capped"


def _finalize(model, x, sigma, params, wrss, n_iter, absolute_sigma=True):
    jac = model.jacobian(x, params) / sigma[:, None]
    normal = jac.T @ jac
    flags: tuple[str, ...] = ()
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(normal)
        flags = ("singular-normal-matrix",)
    dof = x.size - params.size
    if not absolute_sigma and dof > 0:
        cov = cov * (wrss / dof)
    stderr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        tag=model.tag,
        param_names=model.param_names,
        params=params,
        stderr=stderr,
        wrss=wrss,
        dof=dof,
        n_iterations=n_iter,
        flags=flags,
    )


# --------------------------------------------------------------------------
# Measurement-specific wrappers


def fit_recovery(
    taus_ns: Sequence[float],
    ratios: Sequence[float],
    sigma: Sequence[float] | None = None,
) -> FitResult:
    """One-parameter fit of the recovery curve 1 - exp(-tau/T1)."""
    taus = np.asarray(taus_ns, dtype=float)
    vals = np.asarray(ratios, dtype=float)
    if taus.size < 3:
        raise FitError("recovery fit needs at least 3 delay points")
    if np.all(vals <= 0):
        raise FitError("all recovery ratios are non-positive; nothing to fit")
    if np.all(vals >= 1.0 - 1e-9):
        raise FitError(
            "all ratios are saturated at 1; T1 is not identifiable from "
            "fully thermalized delays"
        )
    usable = (vals > 0) & (vals < 1)
    guesses = -taus[usable] / np.log1p(-np.clip(vals[usable], 0.0, 1 - 1e-12))
    init = float(np.median(guesses)) if usable.any() else float(np.median(taus))
    return fit_nonlinear(MODELS["recovery"], taus, vals, sigma, [init])


# --------------------------------------------------------------------------
# Conic fits


@dataclass(frozen=True)
class EllipseFit:
    center_x: float
    center_y: float
    semi_x: float  # along the axis within 45 degrees of x
    semi_y: float
    rotation_rad: float  # of the semi_x axis, in [-pi/4, pi/4); 0 for circles
    rms_distance: float


@dataclass(frozen=True)
class CircleFit:
    center_x: float
    center_y: float
    radius: float
    rms_distance: float


def _point_array(points, minimum, label):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidParameterError(f"{label} points must be an (N, 2) array")
    if pts.shape[0] < minimum:
        raise FitError(f"{label} fit needs at least {minimum} points")
    return pts


def _direct_ellipse_coeffs(pts: np.ndarray) -> np.ndarray:
    """Determinant-constrained direct ellipse fit (numerically stabilized).

    Returns conic coefficients (a, b, c, d, e, f) for
    a x^2 + b x y + c y^2 + d x + e y + f = 0 guaranteed elliptical.
    """
    x, y = pts[:, 0], pts[:, 1]
    d1 = np.stack([x * x, x * y, y * y], axis=1)
    d2 = np.stack([x, y, np.ones_like(x)], axis=1)
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t_mat = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise FitError("degenerate point set for ellipse fitting")
    m = s1 + s2 @ t_mat
    # Constraint 4ac - b^2 = 1 via the reduced scatter matrix.
    reduced = np.array([m[2] / 2.0, -m[1], m[0] / 2.0])
    _, eigvecs = np.linalg.eig(reduced)
    eigvecs = np.real(eigvecs)
    cond = 4.0 * eigvecs[0] * eigvecs[2] - eigvecs[1] ** 2
    valid = np.where(cond > 0)[0]
    if valid.size == 0:
        raise FitError("points do not determine an ellipse")
    a1 = eigvecs[:, valid[0]]
    return np.concatenate([a1, t_mat @ a1])


def _conic_to_geometry(coeffs: np.ndarray) -> tuple[float, float, float, float, float]:
    a, b, c, d, e, f = coeffs
    disc = 4.0 * a * c - b * b
    if disc <= 0:
        raise FitError("fitted conic is not an ellipse")
    cx = (b * e - 2.0 * c * d) / disc
    cy = (b * d - 2.0 * a * e) / disc
    # Value of the quadratic form at the centre.
    f_c = f + 0.5 * (d * cx + e * cy)
    mat = np.array([[a, b / 2.0], [b / 2.0, c]])
    evals, evecs = np.linalg.eigh(mat)
    if evals[0] * evals[1] <= 0:
        raise FitError("fitted conic is not an ellipse")
    scale = -f_c
    if evals[0] < 0:
        evals, scale = -evals, -scale
    if scale <= 0:
        raise FitError("fitted conic is not an ellipse")
    # eigh returns ascending eigenvalues, so axes[0] >= axes[1].
    axes = np.sqrt(scale / evals)
    angle = math.atan2(evecs[1, 0], evecs[0, 0])
    return float(cx), float(cy), float(axes[0]), float(axes[1]), angle


def _ellipse_foot(pts: np.ndarray, geom: np.ndarray):
    """Each point in the ellipse frame, (u, v), and the parameter t of its
    nearest ellipse point (ax cos t, ay sin t)."""
    cx, cy, ax, ay, phi = geom
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    u = (pts[:, 0] - cx) * cos_p + (pts[:, 1] - cy) * sin_p
    v = -(pts[:, 0] - cx) * sin_p + (pts[:, 1] - cy) * cos_p
    t = np.arctan2(ay * v, ax * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(30):
            ct, st = np.cos(t), np.sin(t)
            ex, ey = ax * ct, ay * st
            # Stationarity of squared distance w.r.t. the ellipse parameter.
            g = (ax * st) * (ex - u) - (ay * ct) * (ey - v)
            gp = (ax * ct) * (ex - u) + (ay * st) * (ey - v) - (
                ax * st
            ) ** 2 - (ay * ct) ** 2
            delta = np.where(np.abs(gp) > 0, g / gp, 0.0)
            t = t - delta
            if np.max(np.abs(delta)) < 1e-14:
                break
    return u, v, t


def _ellipse_distances(pts: np.ndarray, geom: np.ndarray, foot=None) -> np.ndarray:
    """Orthogonal distances of the points from the ellipse; ``foot`` is
    ``_ellipse_foot(pts, geom)`` when the caller already holds it."""
    u, v, t = _ellipse_foot(pts, geom) if foot is None else foot
    return np.hypot(geom[2] * np.cos(t) - u, geom[3] * np.sin(t) - v)


def _ellipse_jacobian(pts: np.ndarray, geom: np.ndarray, foot=None) -> np.ndarray:
    """Derivatives of the orthogonal distances by (cx, cy, ax, ay, phi);
    ``foot`` as for ``_ellipse_distances``.

    The foot point is stationary in t, so each derivative is the unit normal
    n = (E(t) - (u, v)) / d dotted with the derivative of E(t) - (u, v) at
    fixed t.  A point on the ellipse (d = 0) has no normal and a zero row.
    """
    u, v, t = _ellipse_foot(pts, geom) if foot is None else foot
    ct, st = np.cos(t), np.sin(t)
    rx, ry = geom[2] * ct - u, geom[3] * st - v
    d = np.hypot(rx, ry)
    inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    nx, ny = rx * inv_d, ry * inv_d
    cos_p, sin_p = math.cos(geom[4]), math.sin(geom[4])
    return np.stack([
        nx * cos_p - ny * sin_p,
        nx * sin_p + ny * cos_p,
        nx * ct,
        ny * st,
        ny * u - nx * v,
    ], axis=1)


def fit_ellipse(points) -> EllipseFit:
    """Direct least-squares ellipse fit refined on geometric distances."""
    pts = _point_array(points, 6, "ellipse")
    coeffs = _direct_ellipse_coeffs(pts)
    geom = np.array(_conic_to_geometry(coeffs))

    latest = [None, None]  # the geometry of the latest residual, its feet

    def distances(g):
        # A non-positive semi-axis is no ellipse: reject the trial.
        if g[2] <= 0 or g[3] <= 0:
            return np.full(pts.shape[0], np.inf)
        latest[:] = g, _ellipse_foot(pts, g)
        return _ellipse_distances(pts, g, latest[1])

    def jacobian(g):
        # The engine evaluates the residual at a geometry before it asks
        # for the Jacobian there, so the feet are already solved for.
        return _ellipse_jacobian(pts, g, latest[1] if g is latest[0] else None)

    # A stall or the iteration cap still leaves the best geometry found.
    best, best_val, _, _ = _levenberg_marquardt(distances, jacobian, geom)

    cx, cy, ax, ay, phi = best
    # Quarter turns bring the first axis within 45 degrees of x; each odd
    # one swaps the axes.
    turns = math.floor(phi / (math.pi / 2.0) + 0.5)
    phi -= turns * (math.pi / 2.0)
    if turns % 2:
        ax, ay = ay, ax
    if abs(ax - ay) < 1e-9 * (ax + ay):
        phi = 0.0
    rms = math.sqrt(best_val / pts.shape[0])
    return EllipseFit(cx, cy, float(ax), float(ay), float(phi), rms)


def fit_circle(points) -> CircleFit:
    """Algebraic circle fit refined on radial distances."""
    pts = _point_array(points, 3, "circle")
    x, y = pts[:, 0], pts[:, 1]
    design = np.stack([x, y, np.ones_like(x)], axis=1)
    rhs = x * x + y * y
    sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 3:
        raise FitError("points are collinear; no circle fits them")
    cx, cy = sol[0] / 2.0, sol[1] / 2.0
    r_sq = sol[2] + cx * cx + cy * cy
    if r_sq <= 0:
        raise FitError("degenerate circle fit")
    params = np.array([cx, cy, math.sqrt(r_sq)])

    def jacobian(p):
        dx, dy = x - p[0], y - p[1]
        dist = np.hypot(dx, dy)
        if np.any(dist == 0):
            raise FitError("a point coincides with the circle centre")
        return np.stack([-dx / dist, -dy / dist, -np.ones_like(dist)], axis=1)

    # A stall or the iteration cap still leaves the best circle found.
    params, rss, _, _ = _levenberg_marquardt(
        lambda p: np.hypot(x - p[0], y - p[1]) - p[2], jacobian, params
    )
    rms = math.sqrt(rss / pts.shape[0])
    return CircleFit(float(params[0]), float(params[1]), float(params[2]), rms)


# --------------------------------------------------------------------------
# Tether waist


@dataclass(frozen=True)
class TetherFit:
    width_nm: float
    waist_x_nm: float
    upper: FitResult
    lower: FitResult


def _fit_edge(pts: np.ndarray, flip: bool, label: str) -> FitResult:
    x = pts[:, 0]
    y = -pts[:, 1] if flip else pts[:, 1]
    inner = np.argmin(y)
    # Interior in x, whatever order the points are listed in.
    if x[inner] in (x.min(), x.max()):
        raise FitError(
            f"{label} edge has no interior waist; profile is monotone"
        )
    span = max(np.ptp(x) / 4.0, 1e-3)
    rise = max(float(y.max() - y.min()), 1e-9)
    curv = rise / max((np.ptp(x) / 2.0) ** 2, 1e-12)
    init = [float(y[inner]), float(x[inner]), curv, span]
    return fit_nonlinear(MODELS["waist"], x, y, None, init)


def fit_tether_width(first_edge, second_edge) -> TetherFit:
    """Tether thickness from waist fits of the two opposing edge contours.

    The edges may come in either order, the one of larger mean height
    being the upper, and each edge's points in any order along x.  Both
    are fitted with the symmetric waist profile
    y(x) = y0 + c*(x - x0)^2 / (1 + |x - x0|/s); the thickness is the sum
    of the two waist offsets (the lower edge is mirrored before fitting).
    """
    # A stable sort: on a tie the first edge stays the upper one.
    top, bottom = sorted(
        (_point_array(edge, 5, "tether edge") for edge in (first_edge, second_edge)),
        key=lambda pts: np.mean(pts[:, 1]), reverse=True,
    )
    upper = _fit_edge(top, flip=False, label="upper tether")
    lower = _fit_edge(bottom, flip=True, label="lower tether")
    width = upper["y0"] + lower["y0"]
    waist_x = 0.5 * (upper["x0"] + lower["x0"])
    return TetherFit(float(width), float(waist_x), upper, lower)

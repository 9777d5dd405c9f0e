"""Statistical verification against the exact stationary law.

Three instruments, all aimed at the product-Dirichlet target:

* closed-form first and second stationary moments,
* per-coordinate Kolmogorov-Smirnov tests against the Beta marginal,
* a binned total-variation distance between the sample and the exact
  binned stationary law (:func:`binned_law`, the stationary mass of every
  cell): ``0.5 * sum |p_hat - p|`` over the cells, a consistent estimator
  of the TV over the binned algebra and therefore of a lower bound on the
  true total variation.

A :class:`ConvergenceTally` takes the ensemble one sample time at a time,
as :func:`run_ensemble <cdexchange.simulate.run_ensemble>` reaches it, and
:func:`convergence_report` completes the report from the tally.  The
tally builds each good's binned law once and keeps the Beta CDF value of
every holding from one time to the next: ``betainc`` runs again only on
the holdings that changed since the previous sample time (most
trajectories see no event between two close sample times).  Each value is
the same elementwise computation that a plain :func:`marginal_ks` call
makes, so the KS results are unchanged to the bit.

``scipy.special`` (``betainc``, ``kolmogorov``, ``eval_jacobi``) is
imported inside the functions that call it, so only ``verify`` pays for
loading scipy, on its first call; importing this module does not.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .economy import DirichletSpec, good_spec, sample_dirichlet
from .simulate import SimulationPlan, derived_rng, plan_digest, validate_plan

__all__ = [
    "EmptySample",
    "DegenerateParameters",
    "TooFewSamples",
    "BinningMismatch",
    "KsResult",
    "HistogramBinning",
    "BinnedLaw",
    "default_binning",
    "binned_law",
    "dirichlet_moments",
    "marginal_ks",
    "binned_tv",
    "moment_z_scores",
    "ConvergenceReport",
    "ConvergenceTally",
    "convergence_report",
]

# Spawn-key namespace of the baseline draws (trajectories use 0, tests 3).
_NS_BASELINE = 2

_MIN_KS_SAMPLES = 35  # below this the asymptotic Kolmogorov p-value is junk
_BASELINE_REPLICATES = 8  # stationary samples behind the TV noise floor
_MAX_JOINT_CELLS = 16_000_000
_LAW_NODES = 16  # quadrature nodes per x_1-bin of a 3-coordinate joint law


class EmptySample(ValueError):
    pass


class DegenerateParameters(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


class BinningMismatch(ValueError):
    pass


KsResult = namedtuple("KsResult", ["statistic", "pvalue"])


def dirichlet_moments(spec: DirichletSpec):
    """Exact stationary mean vector and covariance matrix.

    mean_i = G * a_i / s,
    cov_ij = G^2 * (delta_ij * a_i * s - a_i * a_j) / (s^2 * (s + 1)).
    """
    a = spec.alphas
    s = spec.exponent_sum
    g = spec.total
    mean = g * a / s
    cov = (g * g) * (np.diag(a) * s - np.outer(a, a)) / (s * s * (s + 1.0))
    return mean, cov


def _beta_cdf(alpha, beta, x, total):
    """CDF of ``total * Beta(alpha, beta)`` at ``x``, elementwise."""
    from scipy.special import betainc

    return betainc(alpha, beta, np.clip(x / total, 0.0, 1.0))


def marginal_ks(
    samples, alpha_i: float, exponent_sum: float, total: float, *, cdf=None
) -> KsResult:
    """Two-sided KS statistic of ``samples`` against the stationary
    marginal of one coordinate, ``total * Beta(alpha_i, exponent_sum -
    alpha_i)``, with the asymptotic Kolmogorov p-value.

    ``cdf``, if given, holds that marginal's CDF at each sample, in
    sample order: a caller that already has these values passes them to
    skip ``betainc``.  By default they are computed here.
    """
    from scipy.special import kolmogorov

    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise EmptySample("no samples")
    if x.size < _MIN_KS_SAMPLES:
        raise TooFewSamples(
            f"need at least {_MIN_KS_SAMPLES} samples for the asymptotic p-value"
        )
    if not (alpha_i > 0.0 and total > 0.0):
        raise DegenerateParameters("alpha_i and total must be positive")
    b = exponent_sum - alpha_i
    if b <= 0.0:
        raise DegenerateParameters(
            "exponent_sum must exceed alpha_i (one coordinate of >= 2 agents)"
        )
    if np.any(x < -1e-12 * total) or np.any(x > total * (1.0 + 1e-12)):
        raise ValueError("samples fall outside [0, total]")
    if cdf is None:
        cdf = _beta_cdf(alpha_i, b, x, total)
    else:
        cdf = np.asarray(cdf, dtype=float).ravel()
        if cdf.shape != x.shape:
            raise ValueError("cdf must hold one value per sample")
    # Tied samples have bit-identical CDF values, so the order among them
    # does not matter.
    cdf = cdf[np.argsort(x)]
    n = x.size
    grid = np.arange(n + 1) / n
    stat = float(max((grid[1:] - cdf).max(), (cdf - grid[:-1]).max()))
    return KsResult(stat, float(kolmogorov(math.sqrt(n) * stat)))


@dataclass(frozen=True)
class HistogramBinning:
    """Fixed equal-width binning, one axis per coordinate.

    mode "joint" counts on the d-dimensional product grid; mode
    "marginal" bins each coordinate alone (the TV reported is then the
    max over coordinates, a weaker but always-feasible lower bound).
    """

    lower: np.ndarray
    upper: np.ndarray
    bins: int
    mode: str = "joint"

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float).ravel()
        hi = np.array(self.upper, dtype=float).ravel()
        if lo.size != hi.size or lo.size == 0:
            raise BinningMismatch("lower and upper must have equal, positive length")
        if np.any(hi <= lo):
            raise BinningMismatch("upper must exceed lower on every axis")
        if not isinstance(self.bins, (int, np.integer)) or self.bins < 1:
            raise BinningMismatch("bins must be a positive integer")
        if self.mode not in ("joint", "marginal"):
            raise BinningMismatch(f"unknown mode {self.mode!r}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "bins", int(self.bins))

    @property
    def n_coords(self) -> int:
        return self.lower.size


def default_binning(n_samples: int, totals) -> HistogramBinning:
    """House rule: ceil(n^(1/3)) equal-width bins per coordinate, capped
    at 64; joint counting up to 3 coordinates, marginal above."""
    totals = np.asarray(totals, dtype=float).ravel()
    bins = min(64, int(math.ceil(n_samples ** (1.0 / 3.0))))
    mode = "joint" if totals.size <= 3 else "marginal"
    return HistogramBinning(np.zeros_like(totals), totals, max(bins, 1), mode)


def _as_points(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise BinningMismatch("samples must be a (n,) or (n, d) array")
    return x


def _bin_indices(x, binning):
    width = (binning.upper - binning.lower) / binning.bins
    pos = x - binning.lower
    pos /= width
    idx = np.floor(pos, out=pos).astype(np.int64)
    return np.clip(idx, 0, binning.bins - 1, out=idx)


@dataclass(frozen=True)
class BinnedLaw:
    """The exact stationary mass of every cell of ``binning``, laid out as
    a sample's cell shares are: one row per coordinate in marginal mode,
    one row over the whole grid in joint mode.  :func:`binned_law` builds
    it; :func:`binned_tv` takes it as a reference."""

    binning: HistogramBinning
    masses: np.ndarray


def binned_law(spec: DirichletSpec, binning: HistogramBinning) -> BinnedLaw:
    """The stationary law of ``spec`` on the cells of ``binning``.

    Marginal mode: Beta CDF differences at each coordinate's bin edges;
    the end bins also take the mass beyond the axis, as the binning puts
    samples there.  Joint mode needs every axis to span [0, total] and
    at most 3 coordinates.  The law lives on the simplex x_1 + ... + x_N
    = total, so with 2 coordinates bin i of x_1 is cell (i, bins-1-i),
    and with 3 each x_1-bin's exact mass is split over the (x_2, x_3)
    cells by quadrature (:func:`_joint3_masses`).
    """
    a = spec.alphas
    n, bins = a.size, binning.bins
    if binning.n_coords != n:
        raise BinningMismatch(f"binning has {binning.n_coords} coordinates, the law {n}")
    if binning.mode == "marginal":
        width = (binning.upper - binning.lower) / bins
        edges = binning.lower[:, None] + width[:, None] * np.arange(1, bins)
        masses = _increments(_beta_cdf(a[:, None], (spec.exponent_sum - a)[:, None],
                                       edges, spec.total))
    else:
        if not (np.all(binning.lower == 0.0) and np.all(binning.upper == spec.total)):
            raise BinningMismatch("a joint law needs every axis to span [0, total]")
        if n > 3:
            raise BinningMismatch("a joint law has at most 3 coordinates; use mode='marginal'")
        _check_joint_cells(binning)
        first = _increments(_beta_cdf(a[0], spec.exponent_sum - a[0],
                                      np.arange(1, bins) / bins, 1.0))
        if n == 2:
            masses = np.zeros((bins, bins))
            masses[np.arange(bins), np.arange(bins)[::-1]] = first
        else:
            masses = _joint3_masses(a, first)
        masses = masses.reshape(1, -1)
    masses.setflags(write=False)
    return BinnedLaw(binning, masses)


def _increments(cdf):
    """Masses between consecutive CDF values along the last axis, with 0
    before the first and 1 after the last; the running maximum keeps
    rounding from making any of them negative."""
    return np.diff(np.maximum.accumulate(cdf, axis=-1), axis=-1, prepend=0.0, append=1.0)


def _joint3_masses(alphas, first):
    """Cell masses (bins, bins, bins) of a 3-coordinate law on [0, G]^3,
    given the masses ``first`` of the x_1-bins.

    In units of the bin width, let x_1 lie in bin i, m = bins - i and
    r = G - x_1 = m - 1 + phi with phi in (0, 1].  Given x_1, x_2 = r U
    with U ~ Beta(a_2, a_3), and x_3 = r - x_2.  The x_2 edges j and the
    x_3 edges, seen on the x_2 axis at r - j, interleave as
    0, phi, 1, 1 + phi, ..., m - 1, r: x_2 in [j, j + phi) is cell
    (j, m-1-j) and x_2 in [j + phi, j + 1) is cell (j, m-2-j).  Every
    axis has the same width, so that order holds across the whole bin,
    and each cell's conditional mass is smooth in phi except as phi -> 0,
    where it goes like phi^a_2 or phi^a_3.  The substitution phi = t^4
    flattens that end, and Gauss-Legendre nodes in t integrate against the
    x_1 density (Gauss-Jacobi in bin 0, whose weight (1 - t)^(a_1 - 1)
    takes the density's x_1^(a_1 - 1)).  Each bin's exact mass is split in
    the quadrature's proportions, so the masses still sum to 1.  The last
    bin (m = 1) lies wholly in cell (bins-1, 0, 0).
    """
    from scipy.special import betainc

    a1, a2, a3 = alphas
    bins = first.size
    out = np.zeros((bins, bins, bins))
    out[-1, 0, 0] = first[-1]
    rules = (_gauss_jacobi(_LAW_NODES, a1 - 1.0), _gauss_jacobi(_LAW_NODES, 0.0))
    for i in range(bins - 1):
        s, ws = rules[i > 0]
        t = 0.5 * (s + 1.0)
        phi = t**4
        # x_1 is (1 + t)(1 + t^2)(1 - t) in bin 0, where the Jacobi weight
        # carries the (1 - t), and i + 1 - phi after
        x1 = (1.0 + t) * (1.0 + t * t) if i == 0 else i + 1.0 - phi
        rho = bins - i - 1.0 + phi
        logw = np.log(ws * t**3) + (a1 - 1.0) * np.log(x1) + (a2 + a3 - 1.0) * np.log(rho)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        m = bins - i
        v = np.arange(1, m) / rho[:, None]
        # CDF of x_2 at phi, 1, 1 + phi, ..., m - 1 (0 and r are implied)
        c = np.empty((t.size, 2 * m - 2))
        c[:, 0::2] = 1.0 - betainc(a3, a2, v[:, ::-1])
        c[:, 1::2] = betainc(a2, a3, v)
        split = w @ _increments(c)
        j = np.arange(m)
        out[i, j, m - 1 - j] = first[i] * split[0::2]
        out[i, j[:-1], m - 2 - j[:-1]] = first[i] * split[1::2]
    return out


def _gauss_jacobi(n, alpha):
    """Nodes and weights (up to a common factor) of the n-point Gauss rule
    for the weight (1 - s)^alpha on [-1, 1], alpha > -1: the roots of the
    Jacobi polynomial P_n^(alpha, 0), found together by Aberth's method
    from their asymptotic places, and the weights
    1 / ((1 - s^2) P_n'(s)^2).  scipy's ``roots_jacobi`` gives the same
    rule but loads ``scipy.linalg``, which costs ``verify`` memory."""
    from scipy.special import eval_jacobi

    def slope(x):
        return 0.5 * (n + alpha + 1.0) * eval_jacobi(n - 1, alpha + 1.0, 1.0, x)

    x = np.cos((np.arange(1, n + 1) + 0.5 * alpha - 0.25) * np.pi / (n + 0.5 * alpha + 0.5))
    for _ in range(100):
        step = eval_jacobi(n, alpha, 0.0, x) / slope(x)
        gap = x[:, None] - x
        np.fill_diagonal(gap, np.inf)
        step /= 1.0 - step * (1.0 / gap).sum(axis=1)
        x -= step
        if np.abs(step).max() < 1e-15:
            break
    return x, 1.0 / ((1.0 - x * x) * slope(x) ** 2)


def _check_joint_cells(binning):
    if binning.mode == "joint" and binning.bins**binning.n_coords > _MAX_JOINT_CELLS:
        raise BinningMismatch(
            "joint binning would need too many cells; use mode='marginal'"
        )


def _same_binning(a: HistogramBinning, b: HistogramBinning) -> bool:
    return (a.bins == b.bins and a.mode == b.mode
            and np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper))


def binned_tv(samples, reference, binning: HistogramBinning) -> float:
    """0.5 * sum_cells |p_hat - p| over the binning's cells, where p_hat
    is the share of ``samples`` in each cell.  ``reference`` is either a
    :class:`BinnedLaw` on the same binning, whose exact masses are p (the
    one-sample distance to that law), or a second sample, whose shares
    are p (the two-sample distance).  In marginal mode the result is the
    largest over the coordinates.

    Consistent for the TV between the binned laws, hence a lower bound on
    the true total variation (up to sampling noise).
    """
    law = isinstance(reference, BinnedLaw)
    sets = [_as_points(samples)] + ([] if law else [_as_points(reference)])
    if any(x.shape[0] == 0 for x in sets):
        raise EmptySample("every sample set must be non-empty")
    d = binning.n_coords
    if any(x.shape[1] != d for x in sets):
        raise BinningMismatch(
            f"samples have {[x.shape[1] for x in sets]} coordinates, binning has {d}"
        )
    _check_joint_cells(binning)
    if law and not _same_binning(reference.binning, binning):
        raise BinningMismatch("the law was built on another binning")
    p = reference.masses if law else _cell_shares(sets[1], binning)
    diff = np.abs(_cell_shares(sets[0], binning) - p)
    return 0.5 * float(diff.sum(axis=1).max())


def _cell_shares(x, binning):
    """Share of the points ``x`` in each cell: one row per coordinate in
    marginal mode, one row over the whole grid in joint mode."""
    idx = _bin_indices(x, binning)
    if binning.mode == "marginal":
        counts = [np.bincount(col, minlength=binning.bins) for col in idx.T]
        return np.array(counts) / x.shape[0]
    flat = idx[:, 0].copy()  # row-major cell number
    for c in range(1, binning.n_coords):
        flat *= binning.bins
        flat += idx[:, c]
    return np.bincount(flat, minlength=binning.bins**binning.n_coords)[None] / x.shape[0]


def _z(diff, se):
    return np.where(se > 0.0, diff / se, np.where(diff == 0.0, 0.0, np.inf))


def moment_z_scores(points, spec: DirichletSpec) -> np.ndarray:
    """Standardized discrepancies of sample first/second moments from the
    stationary targets.  Entries: N means, N variances, N(N-1)/2
    covariances; each is (estimate - target) / (Monte Carlo SE)."""
    x = np.asarray(points, dtype=float)
    n, d = x.shape
    if d != spec.alphas.size:
        raise BinningMismatch("points do not match the Dirichlet parameter count")
    if n < 2:
        raise TooFewSamples("need at least two points for moment z-scores")
    t_mean, t_cov = dirichlet_moments(spec)
    # One row per coordinate, so that every reduction runs over a
    # contiguous row and sums exactly as it would over that one column.
    ct = np.ascontiguousarray(x.T)
    mean_diff = ct.mean(axis=1) - t_mean
    ct -= x.mean(axis=0)[:, None]
    cov_diff = []
    cov_se = []
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_se = ct.std(axis=1, ddof=1) / math.sqrt(n)
        sq = ct**2
        v = sq.sum(axis=1) / (n - 1)
        # (c^2)^2, not c**4: numpy's power is 10-20x slower on negative
        # bases, and the two differ by at most an ulp or so.
        np.square(sq, out=sq)
        m4 = sq.mean(axis=1)
        del sq
        var_se = np.sqrt(np.maximum(m4 - v * v, 0.0) / n)
        # The pairs (i, j > i) of one i at a time, in upper-triangle
        # order: the products never outgrow the points.
        for i in range(d - 1):
            p = ct[i] * ct[i + 1:]
            cv = p.sum(axis=1) / (n - 1)
            np.square(p, out=p)
            m22 = p.mean(axis=1)
            cov_se.append(np.sqrt(np.maximum(m22 - cv * cv, 0.0) / n))
            cov_diff.append(cv - t_cov[i, i + 1:])
        return np.concatenate([
            _z(mean_diff, mean_se),
            _z(v - np.diag(t_cov), var_se),
            _z(np.concatenate(cov_diff), np.concatenate(cov_se)),
        ])


@dataclass
class ConvergenceReport:
    """Distance-to-equilibrium diagnostics at every sample time."""

    sample_times: np.ndarray
    n_trajectories: int
    max_moment_z: np.ndarray      # (T,)
    ks_statistic: np.ndarray      # (T, N, M)
    ks_pvalue: np.ndarray         # (T, N, M)
    tv: np.ndarray                # (T, M), to the exact binned law
    baseline_tv_mean: np.ndarray  # (M,), a stationary sample's distance to it
    baseline_tv_std: np.ndarray   # (M,)
    baseline_replicates: int
    bins_per_coordinate: np.ndarray  # (M,)
    binning_modes: list
    plan_digest: str
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "plan_digest": self.plan_digest,
            "seed": int(self.seed),
            "n_trajectories": int(self.n_trajectories),
            "sample_times": self.sample_times.tolist(),
            "max_moment_z": self.max_moment_z.tolist(),
            "ks_statistic": self.ks_statistic.tolist(),
            "ks_pvalue": self.ks_pvalue.tolist(),
            "tv": self.tv.tolist(),
            "baseline_tv_mean": self.baseline_tv_mean.tolist(),
            "baseline_tv_std": self.baseline_tv_std.tolist(),
            "baseline_replicates": int(self.baseline_replicates),
            "bins_per_coordinate": [int(b) for b in self.bins_per_coordinate],
            "binning_modes": list(self.binning_modes),
        }

    def write_csv(self, path) -> None:
        """One row per sample time; columns are agent-major within good."""
        t_cnt, n, m = self.ks_statistic.shape
        with open(path, "w", newline="") as fh:
            fh.write(f"# plan_digest: {self.plan_digest}\n")
            fh.write(f"# seed: {self.seed}\n")
            w = csv.writer(fh)
            header = ["sample_time", "max_moment_z"]
            header += [f"tv_g{g}" for g in range(m)]
            header += [f"ks_a{i}_g{g}" for i in range(n) for g in range(m)]
            header += [f"ks_p_a{i}_g{g}" for i in range(n) for g in range(m)]
            w.writerow(header)
            for t in range(t_cnt):
                row = [repr(float(self.sample_times[t])), repr(float(self.max_moment_z[t]))]
                row += [repr(float(self.tv[t, g])) for g in range(m)]
                row += [
                    repr(float(self.ks_statistic[t, i, g]))
                    for i in range(n)
                    for g in range(m)
                ]
                row += [
                    repr(float(self.ks_pvalue[t, i, g]))
                    for i in range(n)
                    for g in range(m)
                ]
                w.writerow(row)


class ConvergenceTally:
    """The per-sample-time part of a convergence report, taken while a
    plan's ensemble streams past::

        tally = ConvergenceTally(plan)
        run_ensemble(tally.plan, each=tally.add)
        report = convergence_report(tally)

    ``tally.plan`` is ``plan`` cut at its last sample time, after which
    the report reads nothing.  The tally keeps the previous sample time's
    holdings and their Beta CDF values.  Each good is binned by
    :func:`default_binning`, and its exact binned stationary law
    (:func:`binned_law`) is built once, here: the TV at each (time, good)
    is the one-sample distance of the holdings to that law, and draws
    nothing.
    """

    def __init__(self, plan: SimulationPlan):
        plan = validate_plan(plan)
        self.plan_digest = plan_digest(plan)
        self.plan = replace(plan, t_end=float(plan.sample_times[-1]))
        cfg = plan.cfg
        t_cnt = plan.sample_times.size
        n_samples, n, m = plan.n_trajectories, cfg.n_agents, cfg.n_goods
        self.specs = [good_spec(cfg, g) for g in range(m)]
        self.laws = [binned_law(spec, default_binning(n_samples, np.full(n, spec.total)))
                     for spec in self.specs]
        self.count = 0
        self.max_z = np.empty(t_cnt)
        self.ks_stat = np.empty((t_cnt, n, m))
        self.ks_p = np.empty((t_cnt, n, m))
        self.tv = np.empty((t_cnt, m))
        self._cdf = np.empty((m, n, n_samples))
        self._prev = np.empty((n_samples, n, m))

    def add(self, t: int, holdings) -> None:
        """Take sample time ``t``'s (n_trajectories, N, M) holdings; the
        times must come in order."""
        if t != self.count:
            raise ValueError(f"expected sample time {self.count}, got {t}")
        for g, (spec, law) in enumerate(zip(self.specs, self.laws)):
            betas = spec.exponent_sum - spec.alphas
            pts = holdings[:, :, g]
            self.tv[t, g] = binned_tv(pts, law, law.binning)
            for i in range(pts.shape[1]):
                x = pts[:, i]
                redo = slice(None) if t == 0 else np.flatnonzero(x != self._prev[:, i, g])
                self._cdf[g, i, redo] = _beta_cdf(spec.alphas[i], betas[i], x[redo],
                                                  spec.total)
                res = marginal_ks(x, spec.alphas[i], spec.exponent_sum, spec.total,
                                  cdf=self._cdf[g, i])
                self.ks_stat[t, i, g] = res.statistic
                self.ks_p[t, i, g] = res.pvalue
        self.max_z[t] = max(np.abs(moment_z_scores(holdings[:, :, g], spec)).max()
                            for g, spec in enumerate(self.specs))
        np.copyto(self._prev, holdings)
        self.count += 1


def convergence_report(tally: ConvergenceTally) -> ConvergenceReport:
    """Compare a plan's ensemble against the exact stationary law, from a
    tally that has taken every sample time (see :class:`ConvergenceTally`).

    ``tv`` and the baseline are one-sample distances to each good's exact
    binned law.  The baseline is the mean/std of that distance over 8
    independent stationary samples of the ensemble's size (the
    estimator's noise floor): at an equilibrium start each ``tv`` has
    exactly the law of one baseline replicate.  The report is the same
    for any ``workers`` of the run that filled the tally.
    """
    plan = tally.plan
    if tally.count != plan.sample_times.size:
        raise ValueError(f"the tally has taken {tally.count} of "
                         f"{plan.sample_times.size} sample times")
    cfg = plan.cfg
    n_samples, m = plan.n_trajectories, cfg.n_goods
    base_mean = np.empty(m)
    base_std = np.empty(m)
    for g, (spec, law) in enumerate(zip(tally.specs, tally.laws)):
        reps = [binned_tv(sample_dirichlet(spec, derived_rng(cfg.seed, _NS_BASELINE, r, g),
                                           size=n_samples), law, law.binning)
                for r in range(_BASELINE_REPLICATES)]
        base_mean[g] = float(np.mean(reps))
        base_std[g] = float(np.std(reps, ddof=1))

    return ConvergenceReport(
        sample_times=plan.sample_times,
        n_trajectories=n_samples,
        max_moment_z=tally.max_z,
        ks_statistic=tally.ks_stat,
        ks_pvalue=tally.ks_p,
        tv=tally.tv,
        baseline_tv_mean=base_mean,
        baseline_tv_std=base_std,
        baseline_replicates=_BASELINE_REPLICATES,
        bins_per_coordinate=np.array([law.binning.bins for law in tally.laws],
                                     dtype=np.int64),
        binning_modes=[law.binning.mode for law in tally.laws],
        plan_digest=tally.plan_digest,
        seed=cfg.seed,
    )

"""Statistical verification against the exact stationary law.

Three instruments, all aimed at the product-Dirichlet target:

* closed-form first and second stationary moments,
* per-coordinate Kolmogorov-Smirnov tests against the Beta marginal,
* a binned total-variation estimate against a fresh stationary sample,
  which is a consistent estimator of TV over the binned algebra and
  therefore a lower bound on the true total variation.

A :class:`ConvergenceTally` takes the ensemble one sample time at a time,
as :func:`run_ensemble <cdexchange.simulate.run_ensemble>` reaches it, and
:func:`convergence_report` completes the report from the tally.  The
tally keeps the Beta CDF value of every holding from one time to the next:
``betainc`` runs again only on the holdings that changed since the
previous sample time (most trajectories see no event between two close
sample times).  Each value is the same elementwise computation that a
plain :func:`marginal_ks` call makes, so the KS results are unchanged to
the bit.

``scipy.special`` (``betainc``, ``kolmogorov``) is imported inside the
functions that call it, so only ``verify`` pays for loading scipy, on its
first call; importing this module does not.
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
    "default_binning",
    "dirichlet_moments",
    "marginal_ks",
    "binned_tv",
    "moment_z_scores",
    "ConvergenceReport",
    "ConvergenceTally",
    "convergence_report",
]

# Spawn-key namespaces for reference draws (trajectories use 0).
_NS_REFERENCE = 1
_NS_BASELINE = 2

_MIN_KS_SAMPLES = 35  # below this the asymptotic Kolmogorov p-value is junk
_BASELINE_REPLICATES = 8  # stationary sample pairs behind the TV noise floor


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


def binned_tv(samples_a, samples_b, binning: HistogramBinning) -> float:
    """0.5 * sum_cells |p_hat_a - p_hat_b| over the binning's cells.

    Consistent for the TV between the binned laws, hence a lower bound on
    the true total variation (up to sampling noise).
    """
    a = _as_points(samples_a)
    b = _as_points(samples_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptySample("both sample sets must be non-empty")
    d = binning.n_coords
    if a.shape[1] != d or b.shape[1] != d:
        raise BinningMismatch(
            f"samples have {a.shape[1]} and {b.shape[1]} coordinates, binning has {d}"
        )
    if binning.mode == "joint" and binning.bins**d > 16_000_000:
        raise BinningMismatch(
            "joint binning would need too many cells; use mode='marginal'"
        )
    diff = np.abs(_cell_shares(a, binning) - _cell_shares(b, binning))
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
    tv: np.ndarray                # (T, M), against a fresh stationary sample
    baseline_tv_mean: np.ndarray  # (M,), two-sample self-distance floor
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
    :func:`default_binning`; the TV reference at each (time, good) is a
    fresh stationary sample of equal size from a dedicated stream.
    """

    def __init__(self, plan: SimulationPlan):
        plan = validate_plan(plan)
        self.plan_digest = plan_digest(plan)
        self.plan = replace(plan, t_end=float(plan.sample_times[-1]))
        cfg = plan.cfg
        t_cnt = plan.sample_times.size
        n_samples, n, m = plan.n_trajectories, cfg.n_agents, cfg.n_goods
        self.specs = [good_spec(cfg, g) for g in range(m)]
        self.binnings = [default_binning(n_samples, np.full(n, spec.total))
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
        for g, spec in enumerate(self.specs):
            betas = spec.exponent_sum - spec.alphas
            pts = holdings[:, :, g]
            rng = derived_rng(self.plan.cfg.seed, _NS_REFERENCE, t, g)
            self.tv[t, g] = binned_tv(pts, sample_dirichlet(spec, rng, size=pts.shape[0]),
                                      self.binnings[g])
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

    The reported baseline is the mean/std of the binned TV between 8
    pairs of independent stationary samples (the estimator's noise
    floor).  The report is the same for any ``workers`` of the run that
    filled the tally.
    """
    plan = tally.plan
    if tally.count != plan.sample_times.size:
        raise ValueError(f"the tally has taken {tally.count} of "
                         f"{plan.sample_times.size} sample times")
    cfg = plan.cfg
    n_samples, m = plan.n_trajectories, cfg.n_goods
    base_mean = np.empty(m)
    base_std = np.empty(m)
    for g in range(m):
        reps = []
        for r in range(_BASELINE_REPLICATES):
            rng = derived_rng(cfg.seed, _NS_BASELINE, r, g)
            sa = sample_dirichlet(tally.specs[g], rng, size=n_samples)
            sb = sample_dirichlet(tally.specs[g], rng, size=n_samples)
            reps.append(binned_tv(sa, sb, tally.binnings[g]))
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
        bins_per_coordinate=np.array([b.bins for b in tally.binnings], dtype=np.int64),
        binning_modes=[b.mode for b in tally.binnings],
        plan_digest=tally.plan_digest,
        seed=cfg.seed,
    )

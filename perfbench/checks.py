"""Output checks, computed from the config documents alone (no cdexchange
import), so a broken program cannot vouch for itself.

Every check returns ``(name, ok, detail)``.  The statistical checks use
family-wise levels small enough that a correct program fails one of them
far less often than once per thousand benchmark runs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.special import gammaln, ndtri

FAMILY_ALPHA = 1e-5
# Binned TV may exceed the two-sample baseline mean by this many baseline
# standard deviations.  The std comes from only 8 replicates and is often
# half its true value, so correct runs reach 7 of these "sigmas"; passing
# 20 needs both a rare TV and a std estimate below a fifth of the truth.
TV_SIGMAS = 20.0
PROBE_POINTS = 4096
# Relative slack for the probe's own floating-point evaluation of the
# function a floor bounds; a true floor can still sit an ulp above a
# rounded evaluation at the exact minimizer.
PROBE_RTOL = 1e-12


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _schema_check(name, doc, schema_path):
    import jsonschema

    try:
        jsonschema.validate(doc, _load(schema_path))
    except jsonschema.ValidationError as err:
        return name, False, f"{'/'.join(map(str, err.absolute_path))}: {err.message}"
    return name, True, ""


def _stationary_means(economy):
    a = np.asarray(economy["exponents"], dtype=float)
    totals = np.asarray(economy["endowments"], dtype=float).sum(axis=0)
    return totals * a / a.sum(axis=0)


def simulate_means(out_dir, config):
    """Every per-time mean lies within a Bonferroni z bound of the exact
    stationary mean (trajectories start at equilibrium, so the law is
    stationary at every sample time)."""
    doc = _load(os.path.join(out_dir, "simulate.json"))
    means = np.asarray(doc["means"], dtype=float)
    var = np.asarray(doc["variances"], dtype=float)
    target = _stationary_means(config["economy"])
    z = np.abs(means - target) / np.sqrt(var / doc["n_trajectories"])
    bound = float(ndtri(1.0 - FAMILY_ALPHA / (2 * z.size)))
    worst = float(z.max())
    return "means_z", worst <= bound, f"max |z| {worst:.3f} vs {bound:.3f}"


def same_bytes(name, dir_a, dir_b, files):
    for f in files:
        pa, pb = os.path.join(dir_a, f), os.path.join(dir_b, f)
        if not (os.path.exists(pa) and os.path.exists(pb)) or _read(pa) != _read(pb):
            return name, False, f"{f} differs between {dir_a} and {dir_b}"
    return name, True, ""


def verify_report(out_dir, schema_dir):
    """Schema, family-wise KS level, and TV within the noise floor."""
    doc = _load(os.path.join(out_dir, "convergence.json"))
    out = [_schema_check("convergence_schema", doc,
                         os.path.join(schema_dir, "convergence_report.schema.json"))]
    p = np.asarray(doc["ks_pvalue"], dtype=float)
    level = FAMILY_ALPHA / p.size
    out.append(("ks_family", float(p.min()) >= level,
                f"min p {float(p.min()):.3g} vs {level:.3g}"))
    tv = np.asarray(doc["tv"], dtype=float)
    limit = np.asarray(doc["baseline_tv_mean"]) + TV_SIGMAS * np.asarray(doc["baseline_tv_std"])
    excess = float((tv - limit).max())
    out.append(("tv_noise_floor", excess <= 0.0, f"max tv - limit {excess:.4g}"))
    return out


def _density_values(a, b, level, rng):
    # (x - y)**(a - 1) * x**(1 - a - b) on y in [0, 1/(level+1)],
    # x in [y + delta, 1]: the region's four vertices plus random points.
    delta = 1.0 / (level * (level + 1.0))
    top = 1.0 / (level + 1.0)
    y = np.concatenate([[0.0, 0.0, top, top], rng.uniform(0.0, top, PROBE_POINTS)])
    x = np.concatenate([[delta, 1.0, top + delta, 1.0],
                        rng.uniform(y[4:] + delta, 1.0)])
    return np.power(x - y, a - 1.0) * np.power(x, 1.0 - a - b)


def _gamma_values(alphas, level, rng):
    # Gamma(a+b)/Gamma(a) * Gamma(s)/Gamma(s+b) for random in-play sets:
    # agent i plus level-1 others, newcomer j outside the set.
    perm = rng.permuted(np.tile(np.arange(alphas.size), (PROBE_POINTS, 1)), axis=1)
    a, b = alphas[perm[:, 0]], alphas[perm[:, 1]]
    s = a + alphas[perm[:, 2:level + 1]].sum(axis=1)
    return np.exp(gammaln(a + b) - gammaln(a) + gammaln(s) - gammaln(s + b))


def bound_report(out_dir, config, schema_dir, seed):
    """Schema, every floor at or below a probe of the function it bounds,
    and a finite positive certified rate."""
    doc = _load(os.path.join(out_dir, "doeblin.json"))
    out = [_schema_check("doeblin_schema", doc,
                         os.path.join(schema_dir, "doeblin_report.schema.json"))]
    exponents = np.asarray(config["economy"]["exponents"], dtype=float)
    rng = np.random.default_rng(seed)
    worst = []
    for good in doc["goods"]:
        alphas = exponents[:, good["good"]]
        for lv in good["levels"]:
            if lv["density_floor"] is not None:
                pairs = sorted({(alphas[i], alphas[j]) for i in range(alphas.size)
                                for j in range(alphas.size) if i != j})
                probe = min(_density_values(a, b, lv["n"], rng).min() for a, b in pairs)
                worst.append(lv["density_floor"] / probe)
            if lv["gamma_floor"] is not None:
                probe = _gamma_values(alphas, lv["n"], rng).min()
                worst.append(lv["gamma_floor"] / probe)
    ratio = max(worst, default=0.0)
    out.append(("floors_below_probe", ratio <= 1.0 + PROBE_RTOL,
                f"max floor/probe {ratio:.15g}"))
    rate = doc["certified_rate"]
    out.append(("rate_positive", math.isfinite(rate) and rate > 0.0, f"rate {rate!r}"))
    return out

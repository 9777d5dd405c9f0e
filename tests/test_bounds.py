import heapq
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammainc, gammaincc, gammaln

from cdexchange import (
    NonPositiveExponent,
    NumericalNonConvergence,
    density_ratio_floor,
    derived_rng,
    doeblin_report,
    gamma_ratio_floor,
    minorization_check,
    minorization_coefficients,
    minorization_mass,
    optimize_rate,
    rate_ratio,
)
from cdexchange.bounds import (
    _LOG_SLACK,
    _exp_floor,
    _exponents_for,
    _poisson_split,
    _worst_sums,
)

from util import make_config, uniform_config

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def kac_config(n, seed=0):
    return make_config(
        rates=np.ones((n, n)) - np.eye(n),
        exponents=np.full((n, 1), 0.5),
        endowments=np.full((n, 1), 1.0 / n),
        seed=seed,
    )


def comparison_fn(a, b, y, x):
    return (x - y) ** (a - 1.0) * x ** (1.0 - a - b)


# ---------------------------------------------------------------- rate ratio

def test_rate_ratio():
    assert rate_ratio(uniform_config(4)) == 1.0
    assert rate_ratio(uniform_config(2, rate=7.0)) == 1.0
    cfg = make_config(
        rates=[[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]],
        exponents=np.ones((3, 1)),
        endowments=np.full((3, 1), 1 / 3),
    )
    assert rate_ratio(cfg) == 0.25


# ---------------------------------------------------------------- density floor

def region_vertices(level):
    """(y, x) corners of the admissible region: y in [0, c],
    x in [y + delta, 1], c = 1/(level+1), delta = 1/(level(level+1))."""
    c = 1.0 / (level + 1.0)
    delta = 1.0 / (level * (level + 1.0))
    return np.array([0.0, 0.0, c, c]), np.array([delta, 1.0, c + delta, 1.0])


def region_points(level, rng, size):
    c = 1.0 / (level + 1.0)
    delta = 1.0 / (level * (level + 1.0))
    y = rng.uniform(0.0, c, size=size)
    x = y + delta + rng.random(size) * (1.0 - y - delta)
    return y, x


def _grid_cell_floor(a, b, delta, y0, y1, x0, x1):
    # Lower bound of (x-y)**(a-1) * x**(1-a-b) on [y0,y1] x [x0,x1]
    # intersected with the wedge {x >= y + delta}.  Both factors are
    # monotone in their own variable (u = x - y and x respectively), so
    # the bound is a product of corner values; cells that miss the wedge
    # contribute +inf.
    valid = x1 > y0 + delta
    u_lo = np.maximum(delta, x0 - y1)
    u_hi = np.maximum(x1 - y0, u_lo)
    u_at = u_lo if a >= 1.0 else u_hi
    m1 = np.power(np.where(valid, u_at, 1.0), a - 1.0)
    x_min = np.maximum(x0, y0 + delta)
    e2 = 1.0 - a - b
    x_at = x_min if e2 >= 0.0 else x1
    m2 = np.power(np.where(valid, x_at, 1.0), e2)
    return np.where(valid, m1 * m2, np.inf)


def grid_pair_floor(a, b, level, grid=64, refine=0):
    """Oracle: floor of (x-y)**(a-1) * x**(1-a-b) over the region from
    per-cell corner bounds on a grid x grid mesh, then ``refine`` local
    bisections of the cell holding the current minimum.  Every cell bound
    is below the function on its cell, so the oracle never exceeds the
    true minimum (up to its own rounding), and refining only raises it."""
    delta = 1.0 / (level * (level + 1.0))
    ys = np.linspace(0.0, 1.0 / (level + 1.0), grid + 1)
    xs = np.linspace(delta, 1.0, grid + 1)
    bounds = _grid_cell_floor(
        a, b, delta,
        ys[:-1][:, None], ys[1:][:, None],
        xs[:-1][None, :], xs[1:][None, :],
    )
    if not refine:
        return float(bounds.min())
    yi, xi = np.nonzero(np.isfinite(bounds))
    heap = [
        (float(bounds[r, c]), k,
         float(ys[r]), float(ys[r + 1]), float(xs[c]), float(xs[c + 1]))
        for k, (r, c) in enumerate(zip(yi, xi))
    ]
    heapq.heapify(heap)
    counter = len(heap)
    for _ in range(refine):
        _, _, y0, y1, x0, x1 = heapq.heappop(heap)
        ym, xm = 0.5 * (y0 + y1), 0.5 * (x0 + x1)
        for cy0, cy1 in ((y0, ym), (ym, y1)):
            for cx0, cx1 in ((x0, xm), (xm, x1)):
                v = float(_grid_cell_floor(a, b, delta, cy0, cy1, cx0, cx1))
                if math.isfinite(v):
                    heapq.heappush(heap, (v, counter, cy0, cy1, cx0, cx1))
                    counter += 1
    return heap[0][0]


def grid_density_floor(level, alphas, grid=64, refine=0):
    """The grid oracle minimized over all ordered exponent pairs."""
    pairs = set(itertools.permutations(np.asarray(alphas, dtype=float), 2))
    return min(grid_pair_floor(a, b, level, grid, refine) for a, b in pairs)


def test_density_floor_all_ones_is_exactly_one():
    # a = b = 1 makes the comparison function constant 1
    assert density_ratio_floor(2, [1.0, 1.0, 1.0]) == 1.0
    assert density_ratio_floor(3, np.ones(4)) == 1.0


def test_density_floor_kac_is_exactly_one():
    # a = b = 1/2: first factor is minimized at the far corner u = 1,
    # second factor is constant, so the floor is 1
    assert density_ratio_floor(2, [0.5, 0.5, 0.5]) == 1.0


def test_density_floor_closed_form():
    # a = 3, b = 1/2 at level 2: min(V(x=1/2), V(x=1)) with
    # V(x=1) = (3/2)**-2 = 4/9 and V(x=1/2) = 4/9 * 2**(-3/2)
    floor = density_ratio_floor(2, [3.0, 0.5, 3.0])
    want = 4.0 / 9.0 * 2.0 ** -1.5
    assert want * (1.0 - 1e-13) < floor < want


def test_density_floor_is_true_lower_bound():
    rng = derived_rng(0, 3, 20)
    for level in (2, 3):
        for _ in range(3):
            alphas = rng.uniform(0.5, 3.0, size=level + 1)
            floor = density_ratio_floor(level, alphas)
            y, x = region_points(level, rng, 10_000)
            probe = math.inf
            for a, b in itertools.permutations(alphas, 2):
                probe = min(probe, comparison_fn(a, b, y, x).min())
            assert floor <= probe * (1.0 + 1e-12)
            assert floor > 0.0


def test_density_floor_refinement_is_sandwiched():
    # grid oracle, coarse and refined, below the exact floor, which sits
    # just under a dense probe of the true minimum
    alphas = [2.3, 0.7, 1.1]
    coarse = grid_density_floor(2, alphas, grid=64, refine=0)
    tight = grid_density_floor(2, alphas, grid=64, refine=2000)
    exact = density_ratio_floor(2, alphas)
    assert coarse <= tight <= exact * (1.0 + 1e-12)
    ys = np.linspace(0.0, 1.0 / 3.0, 400)
    xs = np.linspace(1.0 / 6.0, 1.0, 400)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    mask = xx >= yy + 1.0 / 6.0
    yv, xv = region_vertices(2)
    y, x = np.concatenate([yv, yy[mask]]), np.concatenate([xv, xx[mask]])
    probe = math.inf
    for a, b in itertools.permutations(alphas, 2):
        probe = min(probe, comparison_fn(a, b, y, x).min())
    assert exact <= probe
    # the probe includes the minimizing vertex, so the floor is tight
    assert exact >= probe * (1.0 - 1e-13)


def test_density_floor_validation():
    with pytest.raises(ValueError):
        density_ratio_floor(1, [1.0, 1.0])
    with pytest.raises(ValueError):
        density_ratio_floor(2, [1.0, 1.0])  # needs level + 1 exponents
    with pytest.raises(ValueError):
        density_ratio_floor(2.0, [1.0, 1.0, 1.0])
    with pytest.raises(NonPositiveExponent):
        density_ratio_floor(2, [1.0, -1.0, 1.0])


# Exponents that stress the corner choice: near 1 (the a <= 1 switch) and
# pairs with a + b near 1 (the sign of the x exponent), plus a wide range.
_NEAR_ONE = st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3])
exponent = st.one_of(
    st.floats(0.05, 20.0),
    st.builds(lambda e, sign: 1.0 + sign * e, _NEAR_ONE, st.sampled_from([-1.0, 1.0])),
    st.sampled_from([0.5, 1.0, 2.0]),
)


@st.composite
def floor_inputs(draw, max_level=12, max_extra=3):
    level = draw(st.integers(2, max_level))
    size = level + 1 + draw(st.integers(0, max_extra))
    alphas = draw(st.lists(exponent, min_size=size, max_size=size))
    if alphas[0] < 1.0 and draw(st.booleans()):
        alphas[1] = 1.0 - alphas[0] + draw(_NEAR_ONE)  # a + b just above 1
    return level, np.array(alphas)


@st.composite
def palette_inputs(draw, max_level=12, max_extra=3):
    """Like ``floor_inputs``, but every exponent is one of two or three
    values, so that several agents share each value."""
    level = draw(st.integers(2, max_level))
    size = level + 1 + draw(st.integers(0, max_extra))
    palette = draw(st.lists(exponent, min_size=2, max_size=3, unique=True))
    alphas = draw(st.lists(st.sampled_from(palette), min_size=size, max_size=size))
    return level, np.array(alphas)


def any_inputs(max_level=12, max_extra=3):
    return st.one_of(
        floor_inputs(max_level, max_extra), palette_inputs(max_level, max_extra)
    )


@settings(max_examples=200, deadline=None)
@given(inputs=floor_inputs(), seed=st.integers(0, 2**32 - 1))
def test_density_floor_below_vertices_and_points(inputs, seed):
    level, alphas = inputs
    floor = density_ratio_floor(level, alphas)
    yv, xv = region_vertices(level)
    y, x = region_points(level, np.random.default_rng(seed), 256)
    y, x = np.concatenate([yv, y]), np.concatenate([xv, x])
    for a, b in itertools.permutations(alphas, 2):
        assert floor <= comparison_fn(a, b, y, x).min()
    if alphas.max() <= 1.0:
        assert floor == 1.0


@settings(max_examples=60, deadline=None)
@given(inputs=any_inputs(max_level=8, max_extra=1))
def test_grid_oracle_below_density_floor(inputs):
    level, alphas = inputs
    oracle = grid_density_floor(level, alphas, grid=64)
    # the oracle carries no rounding margin of its own
    assert oracle <= density_ratio_floor(level, alphas) * (1.0 + 1e-12)


# ---------------------------------------------------------------- gamma floor

def test_gamma_floor_symmetric_oracle():
    # a = b = 1, s = 2: Gamma(2)/Gamma(1) * Gamma(2)/Gamma(3) = 1/2
    assert abs(gamma_ratio_floor(2, [1.0, 1.0, 1.0]) - 0.5) < 1e-12


def test_gamma_floor_kac_oracle():
    # a = b = 1/2, s = 1: Gamma(1)/Gamma(1/2) * Gamma(1)/Gamma(3/2) = 2/pi
    assert abs(gamma_ratio_floor(2, [0.5, 0.5, 0.5]) - 2.0 / math.pi) < 1e-12


def test_gamma_floor_permutation_invariant():
    alphas = [0.7, 2.2, 1.4, 0.9]
    base = gamma_ratio_floor(3, alphas)
    for perm in itertools.permutations(alphas):
        assert gamma_ratio_floor(3, list(perm)) == base


def log_gamma_ratio(a, b, s):
    return math.lgamma(a + b) - math.lgamma(a) + math.lgamma(s) - math.lgamma(s + b)


def brute_force_gamma_floor(level, alphas):
    # Independent route: minimize the ratio over every ordered (a, b)
    # choice and every admissible set of in-play exponents.
    a = np.asarray(alphas, dtype=float)
    best = math.inf
    for i in range(a.size):
        for j in range(a.size):
            if i == j:
                continue
            rest = [k for k in range(a.size) if k not in (i, j)]
            for sub in itertools.combinations(rest, level - 1):
                s = math.fsum([a[i], *a[list(sub)]])
                best = min(best, log_gamma_ratio(a[i], a[j], s))
    return math.exp(best)


def loop_gamma_pairs(level, alphas):
    # Pair-by-pair route: for each ordered (a, b), the level - 1 largest
    # remaining exponents join a in s.
    a = np.asarray(alphas, dtype=float)
    order = np.argsort(a)[::-1]
    for i in range(a.size):
        for j in range(a.size):
            if i != j:
                rest = [k for k in order if k != i and k != j]
                yield a[i], a[j], a[i] + a[rest[: level - 1]].sum()


def loop_gamma_floor(level, alphas):
    return math.exp(min(log_gamma_ratio(*p) for p in loop_gamma_pairs(level, alphas)))


def gamma_floor_size(level, a, b, s):
    # The error size gamma_ratio_floor documents for one pair: each
    # log-Gamma term plus one, and (level + 3) ulps of s + b through the
    # digamma slope.
    terms = (math.lgamma(a + b), math.lgamma(a), math.lgamma(s), math.lgamma(s + b))
    slope = digamma(s + b) - digamma(s)
    return sum(abs(t) + 1.0 for t in terms) + (level + 3.0) * (s + b) * slope


def test_gamma_floor_matches_brute_force():
    rng = derived_rng(0, 3, 21)
    for level, size in ((2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (4, 7)):
        for palette in (None, 2, 3):  # distinct exponents, or ties
            values = rng.uniform(0.3, 4.0, size=palette or size)
            alphas = values if palette is None else rng.choice(values, size=size)
            fast = gamma_ratio_floor(level, alphas)
            slow = brute_force_gamma_floor(level, alphas)
            assert math.isclose(fast, slow, rel_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(inputs=any_inputs(max_level=5, max_extra=1))
def test_gamma_floor_below_every_relabeling(inputs):
    level, alphas = inputs
    floor = gamma_ratio_floor(level, alphas)
    assert floor <= brute_force_gamma_floor(level, alphas)


@settings(max_examples=150, deadline=None)
@given(inputs=any_inputs(max_level=20, max_extra=4))
@example(inputs=(18, np.array([1.0] * 6 + [3.0] + [5.0] * 10 + [4.5] * 2)))
@example(inputs=(10, np.array([0.3] * 14)))
def test_gamma_floor_matches_pairwise_loop(inputs):
    # The floor lowers its log by _LOG_SLACK times the error size of the
    # pair that binds it, after an error of at most that much in its own
    # log; the oracle's math.lgamma sum errs by at most that much again.
    level, alphas = inputs
    alphas = np.minimum(alphas, 5.0)
    fast = gamma_ratio_floor(level, alphas)
    pairs = list(loop_gamma_pairs(level, alphas))
    logs = np.array([log_gamma_ratio(*p) for p in pairs])
    sizes = np.array([gamma_floor_size(level, *p) for p in pairs])
    slow = math.exp(logs.min())
    size = sizes[np.argmin(logs - _LOG_SLACK * sizes)]
    assert slow * math.exp(-3.0 * _LOG_SLACK * size) <= fast <= slow


# ---------------------------------------------------------------- all agent pairs

def all_agent_pairs(values):
    i, j = np.nonzero(~np.eye(values.size, dtype=bool))
    return values[i], values[j]


def all_pairs_density_floor(level, alphas):
    # Reference route: the density floor's formula and margin over every
    # ordered pair of agents, N(N - 1) pairs, duplicates and all.
    a, b = all_agent_pairs(np.asarray(alphas, dtype=float))
    log_step, log_n = math.log1p(1.0 / level), math.log(level)
    binds = a > 1.0
    log_f = (1.0 - a) * log_step + np.minimum(0.0, 1.0 + b - a) * log_n
    size = (1.0 + a) * log_step + (1.0 + a + b) * log_n
    return _exp_floor(np.where(binds, log_f, 0.0), np.where(binds, size, 0.0))


def all_pairs_worst_sums(level, alphas):
    # Reference route: the gamma floor's worst s for every ordered pair of
    # agents, each agent at its own rank in the sort.
    alphas = np.asarray(alphas, dtype=float)
    order = np.argsort(alphas)[::-1]
    rank = np.empty(alphas.size, dtype=np.intp)
    rank[order] = np.arange(alphas.size)
    prefix = np.concatenate(([0.0], np.cumsum(alphas[order])))
    a, b = all_agent_pairs(alphas)
    ra, rb = all_agent_pairs(rank)
    m = level - 1
    lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    taken = m + (lo < m) + (hi <= m)
    s = prefix[taken] + np.where(ra < taken, 0.0, a) - np.where(rb < taken, b, 0.0)
    return a, b, s


def all_pairs_gamma_floor(level, alphas):
    # Reference route: the gamma floor's margin over all_pairs_worst_sums.
    a, b, s = all_pairs_worst_sums(level, alphas)
    terms = np.stack([gammaln(a + b), -gammaln(a), gammaln(s), -gammaln(s + b)])
    size = (np.abs(terms) + 1.0).sum(axis=0) + (level + 3.0) * (s + b) * (
        digamma(s + b) - digamma(s)
    )
    return _exp_floor(terms.sum(axis=0), size)


@settings(max_examples=300, deadline=None)
@given(inputs=any_inputs(max_level=20, max_extra=6))
def test_floors_match_all_agent_pairs(inputs):
    # Over distinct exponent values the floors see the same (a, b, s)
    # doubles as over every pair of agents, so they agree bit for bit,
    # with distinct exponents and with ties.
    level, alphas = inputs
    assert density_ratio_floor(level, alphas) == all_pairs_density_floor(level, alphas)
    assert gamma_ratio_floor(level, alphas) == all_pairs_gamma_floor(level, alphas)


@settings(max_examples=200, deadline=None)
@given(inputs=any_inputs(max_level=20, max_extra=6))
def test_worst_sums_meet_every_agent_pair(inputs):
    # Agents that share a value give the same s up to rounding, and the
    # rounding depends on their ranks.  The pairs the gamma floor keeps
    # give every (a, b, s) triple, rounding included, that some ordered
    # pair of agents gives, and no other.
    level, alphas = inputs
    kept = zip(*_worst_sums(level, _exponents_for(alphas.tobytes())))
    assert set(kept) == set(zip(*all_pairs_worst_sums(level, alphas)))


@pytest.mark.parametrize("value", [0.3, 0.7, 1.3, 2.7])
def test_floors_match_all_agent_pairs_on_equal_exponents(value):
    # For these values the prefix sums round differently by rank: the
    # gamma floor over one pair of ranks alone differs from the all-pairs
    # floor at one or two levels of each.
    alphas = np.full(40, value)
    for level in range(2, alphas.size):
        assert density_ratio_floor(level, alphas) == all_pairs_density_floor(level, alphas)
        assert gamma_ratio_floor(level, alphas) == all_pairs_gamma_floor(level, alphas)


def test_exponent_table_is_shared_and_read_only():
    alphas = np.array([2.0, 0.5, 2.0, 1.5, 0.5, 0.5])
    table = _exponents_for(alphas.tobytes())
    assert _exponents_for(alphas.copy().tobytes()) is table
    assert table.desc.tolist() == [2.0, 2.0, 1.5, 0.5, 0.5, 0.5]
    assert table.first.tolist() == [0, 2, 3]
    assert table.twins.tolist() == [0, 3]
    pairs = sorted(set(zip(table.pair_a.tolist(), table.pair_b.tolist())))
    assert pairs == sorted(set(itertools.permutations(alphas.tolist(), 2)))
    assert not any(a.flags.writeable for a in table)


def test_gamma_floor_below_one():
    rng = derived_rng(0, 3, 22)
    for _ in range(5):
        alphas = rng.uniform(0.3, 4.0, size=4)
        assert 0.0 < gamma_ratio_floor(2, alphas) < 1.0


# ---------------------------------------------------------------- coefficients

def test_coefficient_two_agents_is_one():
    levels = minorization_coefficients(uniform_config(2), 0)
    assert len(levels) == 1
    assert levels[0].coefficient == 1.0
    assert levels[0].log_coefficient == 0.0
    assert levels[0].density_floor is None and levels[0].gamma_floor is None


def test_coefficient_three_agents_oracle():
    # uniform rates, unit exponents: the three-agent coefficient is 1/18
    levels = minorization_coefficients(uniform_config(3), 0)
    assert abs(levels[-1].coefficient - 1.0 / 18.0) < 1e-12
    assert levels[0].coefficient == 1.0
    assert levels[0].density_floor == 1.0
    assert abs(levels[0].gamma_floor - 0.5) < 1e-12


def test_coefficient_kac_three_agents_oracle():
    levels = minorization_coefficients(kac_config(3), 0)
    assert abs(levels[-1].coefficient - 2.0 / (9.0 * math.pi)) < 1e-12


def test_coefficients_strictly_decreasing():
    levels = minorization_coefficients(uniform_config(5), 0)
    cs = [lv.coefficient for lv in levels]
    assert all(b < a for a, b in zip(cs, cs[1:]))
    assert [lv.n for lv in levels] == [2, 3, 4, 5]
    for lv in levels:
        assert math.isclose(lv.coefficient, math.exp(lv.log_coefficient), rel_tol=1e-15)


def test_uniform_ladder_of_a_thousand_agents():
    # 1000 equal exponents take a few exponent pairs per level.  With
    # a = b = 1/2 every relabeling gives s = n a, so each gamma floor sits
    # within its documented margin under Gamma(2a)/Gamma(a) *
    # Gamma(na)/Gamma(na + a), and each density floor is exactly 1.
    mp = pytest.importorskip("mpmath")
    a = 0.5
    levels = minorization_coefficients(kac_config(1000), 0)
    assert len(levels) == 999
    with mp.workdps(30):
        for lv in levels[:-1]:
            n = lv.n
            exact = mp.exp(
                mp.loggamma(2 * a) - mp.loggamma(a)
                + mp.loggamma(n * a) - mp.loggamma(n * a + a)
            )
            margin = mp.exp(-2.0 * _LOG_SLACK * gamma_floor_size(n, a, a, n * a))
            assert exact * margin * (1 - mp.mpf(2) ** -52) <= lv.gamma_floor <= exact
            assert lv.density_floor == 1.0


def test_coefficients_bad_good_index():
    with pytest.raises(IndexError):
        minorization_coefficients(uniform_config(3), 1)


# ---------------------------------------------------------------- Poisson split

def test_poisson_split_dual_route():
    # direct summation against the incomplete-Gamma identity
    for k in (1, 2, 3, 7, 20, 64):
        for lam in (1e-8, 0.1, 1.0, 5.0, 12.0, 29.9):
            head, tail = _poisson_split(k, lam)
            direct = math.fsum(
                math.exp(-lam) * lam**j / math.factorial(j) for j in range(k)
            )
            assert math.isclose(head, direct, rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(head, float(gammaincc(k, lam)), rel_tol=1e-10, abs_tol=1e-300)
            assert math.isclose(tail, float(gammainc(k, lam)), rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(head + tail, 1.0, rel_tol=1e-12)


def test_poisson_split_closed_forms():
    lam = 3.7
    head, tail = _poisson_split(1, lam)
    assert math.isclose(tail, -math.expm1(-lam), rel_tol=1e-14)
    head, tail = _poisson_split(2, lam)
    assert math.isclose(tail, 1.0 - math.exp(-lam) * (1.0 + lam), rel_tol=1e-13)
    assert _poisson_split(0, lam) == (0.0, 1.0)
    assert _poisson_split(3, 0.0) == (1.0, 0.0)


def test_poisson_split_large_lambda_branch():
    head, tail = _poisson_split(2, 50.0)
    assert math.isclose(tail, 1.0 - math.exp(-50.0) * 51.0, rel_tol=1e-12)
    assert head > 0.0


# ---------------------------------------------------------------- mass

def test_mass_closed_forms():
    # the mass is rounded down, by far less than 1e-13 relative
    # two agents: mass = c * (1 - exp(-K tau))
    for c, K, tau in ((1.0, 2.0, 0.3), (0.25, 5.0, 1.7)):
        got = minorization_mass(c, K, 2, tau)
        want = c * -math.expm1(-K * tau)
        assert want * (1.0 - 1e-13) <= got < want
    # three agents: mass = c * (1 - exp(-L)(1 + L)), L = K tau
    c, K, tau = 1.0 / 18.0, 3.0, 0.8
    L = K * tau
    want = c * (1.0 - math.exp(-L) * (1.0 + L))
    assert want * (1.0 - 1e-13) <= minorization_mass(c, K, 3, tau) < want


def test_mass_validation():
    with pytest.raises(ValueError):
        minorization_mass(0.0, 1.0, 3, 1.0)
    with pytest.raises(ValueError):
        minorization_mass(1.5, 1.0, 3, 1.0)
    with pytest.raises(ValueError):
        minorization_mass(0.5, 0.0, 3, 1.0)
    with pytest.raises(ValueError):
        minorization_mass(0.5, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        minorization_mass(0.5, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        minorization_mass(0.5, 1.0, 3, 0.0)
    with pytest.raises(ValueError):
        minorization_mass(0.5, 1.0, 3, math.inf)


@settings(max_examples=80, deadline=None)
@given(
    c=st.floats(1e-6, 1.0),
    n=st.integers(2, 6),
    t1=st.floats(1e-3, 1e3),
    t2=st.floats(1e-3, 1e3),
)
def test_mass_monotone_in_tau(c, n, t1, t2):
    lo, hi = sorted((t1, t2))
    m_lo = minorization_mass(c, 1.0, n, lo)
    m_hi = minorization_mass(c, 1.0, n, hi)
    assert 0.0 <= m_lo <= m_hi <= c


# ---------------------------------------------------------------- optimizer

def test_optimize_rate_recompute():
    for c, K, n in ((1.0 / 18.0, 3.0, 3), (0.004, 1.0, 4), (0.3, 10.0, 3)):
        tau, rate = optimize_rate(c, K, n)
        mass = minorization_mass(c, K, n, tau)
        again = -math.log1p(-mass) / tau
        assert math.isclose(rate, again, rel_tol=1e-10)
        assert tau > 0.0 and rate > 0.0


def test_optimize_rate_scaling_is_exact():
    c, n = 1.0 / 18.0, 3
    tau1, r1 = optimize_rate(c, 1.0, n)
    tau2, r2 = optimize_rate(c, 2.0, n)
    assert tau2 == tau1 / 2.0
    assert r2 == 2.0 * r1


def test_optimize_rate_stationarity():
    c, K, n = 1.0 / 18.0, 3.0, 3
    tau, rate = optimize_rate(c, K, n)
    for bump in (1.0 + 1e-6, 1.0 - 1e-6):
        t = tau * bump
        r = -math.log1p(-minorization_mass(c, K, n, t)) / t
        assert r <= rate * (1.0 + 5e-13)


def test_optimize_rate_tau_star_ignores_last_bit_moves():
    # A coefficient that moves in its last bits, as the rounded-down ladder
    # does, must not move tau_star: the search stops where doubles still
    # resolve the flat maximum, not where rounding noise decides.
    rng = np.random.default_rng(0)
    for _ in range(60):
        c = math.exp(rng.uniform(math.log(1e-6), math.log(0.9)))
        k_rate = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
        n = int(rng.integers(3, 31))
        tau, _ = optimize_rate(c, k_rate, n)
        for d in (1e-13, 2e-13, 5e-13, 1e-12):
            assert optimize_rate(c * (1.0 - d), k_rate, n)[0] == tau


def test_optimize_rate_flat_two_agent_profile():
    # coefficient 1 with two agents: every tau certifies rate == K, which
    # the rounded-down rate approaches from below
    tau, rate = optimize_rate(1.0, 4.0, 2)
    assert 4.0 * (1.0 - 1e-13) <= rate < 4.0
    assert tau > 0.0


def test_optimize_rate_monotone_profiles_raise():
    with pytest.raises(NumericalNonConvergence):
        optimize_rate(0.5, 1.0, 2)  # decreasing: best tau -> 0
    with pytest.raises(NumericalNonConvergence):
        optimize_rate(1.0, 1.0, 3)  # increasing: best tau -> infinity


def test_optimize_rate_validation():
    with pytest.raises(ValueError):
        optimize_rate(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        optimize_rate(0.5, -1.0, 3)
    with pytest.raises(ValueError):
        optimize_rate(0.5, 1.0, 1)


# ---------------------------------------------------------------- reports

def test_doeblin_report_three_agents():
    rep = doeblin_report(uniform_config(3, rate=2.0))
    assert rep.n_agents == 3 and rep.n_goods == 1
    assert rep.total_rate == 6.0
    assert rep.rate_ratio == 1.0
    gb = rep.goods[0]
    assert abs(gb.levels[-1].coefficient - 1.0 / 18.0) < 1e-12
    assert rep.certified_rate == gb.certified_rate
    assert 0.0 < gb.mass < 1.0
    want = -math.log1p(-gb.mass) / gb.tau_star
    assert math.isclose(gb.certified_rate, want, rel_tol=1e-12)


def test_doeblin_report_min_over_goods():
    # good 0 has unit exponents, good 1 the heavier-tailed 1/2 exponents;
    # the combined certificate must be the slower of the two
    cfg = make_config(
        rates=np.ones((3, 3)) - np.eye(3),
        exponents=[[1.0, 0.5]] * 3,
        endowments=[[1 / 3, 1 / 3]] * 3,
    )
    rep = doeblin_report(cfg)
    rates = [gb.certified_rate for gb in rep.goods]
    assert rep.certified_rate == min(rates)
    c0 = rep.goods[0].levels[-1].coefficient
    c1 = rep.goods[1].levels[-1].coefficient
    assert abs(c0 - 1.0 / 18.0) < 1e-12
    assert abs(c1 - 2.0 / (9.0 * math.pi)) < 1e-12
    # smaller coefficient certifies less mass, hence a slower rate
    assert rates[0] < rates[1]
    assert rep.certified_rate == rates[0]


def test_doeblin_report_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    rep = doeblin_report(uniform_config(4))
    payload = rep.to_json_dict()
    schema = json.loads((SCHEMA_DIR / "doeblin_report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["schema_version"] == 2 and "grid" not in payload
    assert payload["goods"][0]["levels"][-1]["density_floor"] is None
    assert json.loads(json.dumps(payload)) == payload


def test_doeblin_report_twenty_distinct_agents():
    # every floor of an N = 20 ladder with distinct exponents (minutes with
    # the former grid search) sits just under a probe that includes the
    # minimizing vertices and relabelings
    n = 20
    alphas = derived_rng(0, 3, 23).uniform(0.3, 3.0, size=n)
    cfg = make_config(
        rates=np.ones((n, n)) - np.eye(n),
        exponents=alphas[:, None],
        endowments=np.full((n, 1), 1.0 / n),
    )
    rep = doeblin_report(cfg)
    rng = derived_rng(0, 3, 24)
    for lv in rep.goods[0].levels[:-1]:
        yv, xv = region_vertices(lv.n)
        y, x = region_points(lv.n, rng, 500)
        y, x = np.concatenate([yv, y]), np.concatenate([xv, x])
        probe = min(
            comparison_fn(a, b, y, x).min() for a, b in itertools.permutations(alphas, 2)
        )
        assert probe * (1.0 - 1e-12) <= lv.density_floor <= probe
        slow = loop_gamma_floor(lv.n, alphas)
        assert slow * (1.0 - 1e-12) <= lv.gamma_floor <= slow
    assert 0.0 < rep.certified_rate < cfg.total_rate


@st.composite
def one_good_economies(draw):
    n = draw(st.integers(2, 15))
    pairs = n * (n - 1) // 2
    alphas = draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n))
    upper = draw(st.lists(st.floats(0.5, 2.0), min_size=pairs, max_size=pairs))
    rates = np.zeros((n, n))
    rates[np.triu_indices(n, 1)] = upper
    return make_config(rates + rates.T, np.array(alphas)[:, None], np.full((n, 1), 1.0 / n))


@settings(max_examples=60, deadline=None)
@given(cfg=one_good_economies())
def test_certificate_below_exact_recomputation(cfg):
    # Taking the reported floors as exact, a 60-digit recomputation of the
    # ladder, of the mass and of the rate at tau_star never falls below the
    # reported numbers, which stay within 1e-12 of it.
    mp = pytest.importorskip("mpmath")
    gb = doeblin_report(cfg).goods[0]
    with mp.workdps(60):
        rho = mp.mpf(cfg.min_rate) / mp.mpf(cfg.max_rate)
        c = mp.mpf(1)
        for lv in gb.levels:
            assert c * (1 - mp.mpf(1e-12)) <= lv.coefficient <= c
            assert lv.log_coefficient <= mp.log(c)
            if lv.density_floor is not None:
                n = lv.n
                c *= (
                    (1 + 2 / ((n - 1) * rho)) ** (1 - n) * 2 * rho / (n * (n + 1))
                    * lv.gamma_floor * lv.density_floor
                )
        total_rate = mp.fsum(cfg.rates[np.triu_indices(cfg.n_agents, 1)].tolist())
        tau = mp.mpf(gb.tau_star)
        mass = c * mp.gammainc(cfg.n_agents - 1, 0, total_rate * tau, regularized=True)
        rate = -mp.log1p(-mass) / tau
        assert mass * (1 - mp.mpf(1e-12)) <= gb.mass <= mass
        assert rate * (1 - mp.mpf(1e-12)) <= gb.certified_rate <= rate


# ---------------------------------------------------------------- empirical check

def test_minorization_check_two_agents():
    cfg = uniform_config(2, seed=5)
    res = minorization_check(cfg, 20_000, derived_rng(cfg.seed, 3, 30))
    assert res.ok
    assert res.steps == 1
    # one step from anywhere is already stationary: the two batches agree
    assert res.tv[0] < res.self_tv[0] + 3.0 / math.sqrt(20_000) + 0.05


def test_minorization_check_three_agents():
    cfg = uniform_config(3, seed=6)
    res = minorization_check(cfg, 20_000, derived_rng(cfg.seed, 3, 31))
    assert res.ok
    assert res.steps == 2
    assert res.tv[0] <= res.threshold[0]
    assert res.coefficients[0] == pytest.approx(1.0 / 18.0, abs=1e-12)


def test_minorization_check_zero_steps_fails():
    # negative control: without any mixing steps the two starts are
    # disjoint and the TV hits 1, far above the allowed threshold.  The
    # sample count must be large enough that 3/sqrt(n) does not push the
    # threshold past 1 (the check has no power below that).
    cfg = uniform_config(3, seed=7)
    res = minorization_check(cfg, 20_000, derived_rng(cfg.seed, 3, 32), steps=0)
    assert not res.ok
    assert res.tv[0] == 1.0
    assert res.threshold[0] < 1.0


def test_minorization_check_validation():
    cfg = uniform_config(3)
    rng = derived_rng(0, 3, 33)
    with pytest.raises(ValueError):
        minorization_check(cfg, 1, rng)
    with pytest.raises(ValueError):
        minorization_check(cfg, 1000, rng, steps=-1)
    with pytest.raises(ValueError):
        minorization_check(cfg, 1000, rng, steps=1.5)

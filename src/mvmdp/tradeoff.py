"""Grid approximation of the mean-variance tradeoff curve.

The exact curve v*(lam) = min{Var(W_T) : E[W_T] >= lam} is expensive to
tabulate directly, so this module builds a step-function approximation on a
uniform grid over [-KT, KT] (K the largest absolute reward, T the horizon).
Each grid cell records the cheapest achievable second moment over the means
it covers; subtracting a dominating endpoint square turns that into a
per-cell variance estimate that never exceeds the true curve, and suffix
minima assemble the estimates into the step function v-hat.

For a grid step delta, the curve satisfies, for every lam:

    v*(lam - delta) - 3*delta*K*T  <=  v-hat(lam)  <=  v*(lam)

The requested tolerances (epsilon, nu) are honored by choosing
delta = min(epsilon / (3KT), nu, KT).

The mirror curve lambda-hat(v) (largest mean reachable with variance at most
v) is built from the same grid with the opposite rounding, so every reported
mean is genuinely reachable at the queried variance budget.

The root moment polygon is exact for any rational rewards, so both curves
take any rational rewards as they are, and `approximate_v_star` alone meets
(epsilon, nu) with v-hat <= v* for every MDP; the CLI builds it for every
MDP. `general_reward_v_hat` is the paper's flooring pipeline: rewards
floored to a fine multiple, then the same grid at half the tolerances. Its
upper side is only v*(lam + nu) + epsilon.

The module only computes: a curve is its exact fields, and the CLI renders
them as it renders every other answer.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import Mdp
from .rationals import Rat, ZERO, rat
from .setdp import compute_pmq, exact_frontier

# Largest grid a frontier query may build; the step is set by the
# tolerances, so without a cap a tiny epsilon asks for unbounded work.
MAX_GRID_CELLS = 10**6


class TradeoffCurve:
    """Step-function estimate of the minimum variance at a mean floor.

    grid holds lam_1 < ... < lam_n with lam_1 = -KT and lam_{n-1} <= KT <
    lam_n; cell i covers [grid[i], grid[i+1]].  qhat[i] is the cheapest
    second moment over means in cell i (None when no mean in the cell is
    achievable), uhat[i] subtracts the dominating endpoint square, and
    cell_values[i] is the suffix minimum of uhat from cell i on (None for
    plus infinity).  epsilon is the certified value slack 3*delta*KT.
    """

    __slots__ = ("mean_bound", "delta", "epsilon", "grid", "qhat", "uhat",
                 "cell_values")

    def __init__(self, mean_bound: Rat, delta: Rat, epsilon: Rat, grid: tuple,
                 qhat: tuple, uhat: tuple, cell_values: tuple):
        self.mean_bound = mean_bound
        self.delta = delta
        self.epsilon = epsilon
        self.grid = grid
        self.qhat = qhat
        self.uhat = uhat
        self.cell_values = cell_values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def value(self, lam) -> Rat | None:
        """v-hat(lam); None means plus infinity (no certified mean >= lam).

        Queries below the grid return the first cell's value (the exact
        curve is constant left of -KT); queries past the last grid point
        return None.  A query on a shared cell endpoint is answered by the
        cell lying to its left.
        """
        lam = rat(lam)
        if not self.cell_values:
            # Degenerate all-rewards-zero curve: the only achievable
            # moment pair is (0, 0).
            return ZERO if lam <= self.mean_bound else None
        if lam > self.grid[-1]:
            return None
        cell = max(bisect_left(self.grid, lam) - 1, 0)
        return self.cell_values[cell]


class MeanCurve:
    """Step-function estimate of the largest mean at a variance cap.

    cell_caps[i] is a certified reachable variance for some mean in cell i
    (None when the cell holds no achievable mean); suffix_caps[i] is the
    minimum cap over cells i and later.  A query reports the left endpoint
    of the rightmost cell whose suffix cap fits the budget, which keeps
    every answer genuinely reachable: lambda-hat(v) <= lambda*(v), and
    lambda-hat(v) >= lambda*(v - epsilon) - delta with epsilon = 3*delta*KT.
    """

    __slots__ = ("mean_bound", "delta", "epsilon", "grid", "cell_caps",
                 "suffix_caps")

    def __init__(self, mean_bound: Rat, delta: Rat, epsilon: Rat, grid: tuple,
                 cell_caps: tuple, suffix_caps: tuple):
        self.mean_bound = mean_bound
        self.delta = delta
        self.epsilon = epsilon
        self.grid = grid
        self.cell_caps = cell_caps
        self.suffix_caps = suffix_caps

    def mean_for(self, v) -> Rat | None:
        """lambda-hat(v); None means no mean is certified (minus infinity)."""
        v = rat(v)
        if v < 0:
            return None
        if not self.suffix_caps:
            # Degenerate all-rewards-zero curve: mean 0 at variance 0.
            return ZERO
        best = None
        for lam, cap in zip(self.grid, self.suffix_caps):
            if cap is not None and cap <= v:
                best = lam
        return best


def _tolerances(epsilon, nu) -> tuple:
    """(epsilon, nu) as exact rationals; a nonpositive one raises ValueError."""
    eps, slack = rat(epsilon), rat(nu)
    if eps <= 0 or slack <= 0:
        raise ValueError("epsilon and nu must be positive")
    return eps, slack


def _grid_cells(mdp: Mdp, epsilon, nu, square):
    """The grid both curves share: (bound, step, grid, qhat, cells).

    qhat[i] is the cheapest second moment over the means in cell i, read off
    the lower boundary of the exact root moment polygon. cells[i] is qhat[i]
    minus square(lo*lo, hi*hi) over the cell's endpoints; both are None when
    no mean in the cell is achievable. Nonpositive tolerances raise
    ValueError. When every reward is zero the grid is the one point 0, with
    no cells.
    """
    eps, slack = _tolerances(epsilon, nu)
    bound = mdp.mean_bound
    if bound == ZERO:
        return ZERO, slack, (ZERO,), (), ()
    # The step keeps both tolerances honored: 3*step*bound bounds the value
    # slack and step itself bounds the argument shift.  Capping at bound
    # keeps the squared-endpoint gap of every cell within 3*step*bound.
    step = min(eps / (3 * bound), slack, bound)
    # Points -bound + k*step for k = 0..cells: the last is the first > bound.
    cells = 2 * bound // step + 1
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"{cells} grid cells exceed the cap {MAX_GRID_CELLS}")
    grid = tuple(-bound + k * step for k in range(cells + 1))
    frontier = exact_frontier(compute_pmq(mdp))
    qhat = tuple(
        frontier.min_second_moment(lo, hi) for lo, hi in zip(grid, grid[1:])
    )
    values = tuple(
        None if q is None else q - square(lo * lo, hi * hi)
        for q, lo, hi in zip(qhat, grid, grid[1:])
    )
    return bound, step, grid, qhat, values


def _suffix_minima(values) -> tuple:
    out = [None] * len(values)
    best = None
    for i in reversed(range(len(values))):
        v = values[i]
        if v is not None and (best is None or v < best):
            best = v
        out[i] = best
    return tuple(out)


def approximate_v_star(mdp: Mdp, epsilon, nu) -> TradeoffCurve:
    """Tabulate an underestimate of v*(lam) on a uniform mean grid.

    Takes any rational rewards and positive tolerances.  The result
    satisfies, at every lam,

        v*(lam - nu) - epsilon <= v-hat(lam) <= v*(lam)

    with both curves read as plus infinity past the largest achievable
    mean.  The proof uses no integrality: only that qhat is exact and that
    every cell's endpoint squares differ by at most 3*delta*KT, which holds
    since delta <= KT.
    """
    # Subtract the larger endpoint square: every mean in the cell has its
    # square between the endpoint squares, so the cell estimate stays at or
    # below the true minimum variance over the cell (cells left of zero
    # carry the larger square at their left endpoint).
    bound, step, grid, qhat, uhat = _grid_cells(mdp, epsilon, nu, max)
    return TradeoffCurve(
        mean_bound=bound,
        delta=step,
        epsilon=3 * step * bound,
        grid=grid,
        qhat=qhat,
        uhat=uhat,
        cell_values=_suffix_minima(uhat),
    )


def approximate_lambda_star(mdp: Mdp, epsilon, nu) -> MeanCurve:
    """Tabulate a reachable underestimate of lambda*(v) on the same grid.

    Takes any rational rewards and positive tolerances.  Each cell cap
    certifies that some mean in the cell reaches variance at most the cap,
    so every reported mean is reachable within the queried budget:

        lambda*(v - epsilon) - delta <= lambda-hat(v) <= lambda*(v)

    where epsilon = 3*delta*KT is stored on the curve and lambda* of a
    negative argument reads as minus infinity.  As for approximate_v_star,
    the proof needs an exact qhat and delta <= KT, not integer rewards.
    """
    # Subtract the smaller endpoint square: the cell's cheapest second
    # moment q is attained at some mean m in the cell with m*m at least the
    # smaller square, so q - min(...) is a variance that m really achieves
    # at most.  Reporting the cell's left endpoint therefore never
    # overstates the reachable mean.
    bound, step, grid, _, caps = _grid_cells(mdp, epsilon, nu, min)
    return MeanCurve(
        mean_bound=bound,
        delta=step,
        epsilon=3 * step * bound,
        grid=grid,
        cell_caps=caps,
        suffix_caps=_suffix_minima(caps),
    )


def discretize_rewards(mdp: Mdp, delta) -> Mdp:
    """Floor every reward to a multiple of delta and merge equal values.

    Transition kernels are unchanged; each reward pmf keeps its total mass.
    """
    step = rat(delta)
    if step <= 0:
        raise ValueError("delta must be positive")
    rewards = {}
    for key, pmf in mdp.rewards.items():
        merged: dict = {}
        for value, prob in pmf.items():
            snapped = value // step * step
            merged[snapped] = merged.get(snapped, ZERO) + prob
        rewards[key] = merged
    return mdp.with_rewards(rewards)


def general_reward_v_hat(mdp: Mdp, epsilon, nu) -> TradeoffCurve:
    """Approximate v* through the paper's reward flooring.

    Rewards that are not all integers are floored to multiples of a step
    small enough that half of each tolerance covers the flooring error
    (variance moves by at most 2KT^2 * step under flooring, means by at
    most T * step); integer rewards are kept as they are.  The grid is then
    built at the remaining half tolerances.  For every lam,

        v*(lam - nu) - epsilon <= v-hat(lam) <= v*(lam + nu) + epsilon

    against the exact curve of the original MDP.  approximate_v_star on the
    unfloored MDP meets the same (epsilon, nu) with the one-sided v-hat <=
    v* on a grid half as fine, so this pipeline stays only as the paper's
    general-reward algorithm.
    """
    eps, slack = _tolerances(epsilon, nu)
    if not mdp.integer_rewards():
        horizon = mdp.horizon
        step = min(
            eps / (4 * mdp.reward_bound * horizon * horizon),
            slack / (2 * horizon),
        )
        mdp = discretize_rewards(mdp, step)
    return approximate_v_star(mdp, eps / 2, slack / 2)


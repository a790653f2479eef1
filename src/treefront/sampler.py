"""Posterior sampling for additive regression tree models.

One chain per output: Bayesian backfitting over m trees, where each tree
gets a birth/death Metropolis step on its topology (leaf means integrated
out analytically) followed by conjugate draws of its leaf means, and the
error variance gets a scaled-inverse-chi-square draw.  Outputs are fit
independently, each on its own random stream, and draws are emitted as
immutable ensembles in raw output units.

A tree being sampled keeps its leaves in one left-to-right list, and each
node fixes its depth and table of valid cuts when it is created, so a birth
or death only swaps list entries and no step re-walks the tree.  Nodes keep
no box: a valid cut lies inside its node's box by the row counts alone.

The sampler works in integer code space, as the R ``BART`` package does
with its cut matrix: each input is coded once, as the number of its
variable's grid values at or below it, so ``x < grid[j]`` holds exactly
when ``code <= j``.  A node's cut table is then one count of its rows'
codes rather than a sort of its rows.  Cuts stay the grid's floats, and a
tree step sums each leaf's residuals once: the leaf-mean draw reuses the
sums the Metropolis ratio took, in the same order, so the chain's RNG use
and arithmetic are those of the float formulation.

Conventions fixed here rather than tuned per run:

* outputs are centered/rescaled so observed min/max map to -/+ 0.5;
* per variable, the cutpoint grid is a fixed set of equally spaced interior
  values over the observed input range;
* a split is valid only when its cut lies strictly inside the node's box
  and both children keep at least ``min_leaf_obs`` training points;
* split probability at depth D is ``alpha * (1 + D)^-beta``, and a node
  with no valid split is a leaf with probability one (the same truncation
  is applied by the prior simulator, so chain and prior agree exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .trees import (
    Domain,
    Ensemble,
    Leaf,
    MultiEnsemble,
    Node,
    OutputTransform,
    Split,
    Tree,
)


class DegenerateDataError(ValueError):
    """The response column carries no information to scale against."""


RngLike = Union[int, None, np.random.SeedSequence, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class BartConfig:
    """Hyperparameters of one single-output tree-ensemble fit."""

    m: int = 30
    kappa: float = 1.0
    nu: float = 3.0
    lam: float = 0.0001
    n_cutpoints: int = 30
    min_leaf_obs: int = 10
    tree_prior_alpha: float = 0.95
    tree_prior_beta: float = 2.0
    n_burn: int = 1000
    n_draws: int = 500

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one tree")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.n_cutpoints < 2:
            raise ValueError("need at least two cutpoints")
        if self.min_leaf_obs < 1:
            raise ValueError("min_leaf_obs must be >= 1")
        if self.n_burn < 0:
            raise ValueError(f"n_burn={self.n_burn} must be >= 0")
        if self.n_draws < 1:
            raise ValueError(f"n_draws={self.n_draws} must be >= 1")

    @property
    def sigma_mu2(self) -> float:
        """Leaf-mean prior variance; m of them sum to (2 kappa)^-2 spread."""
        return 1.0 / (4.0 * self.kappa ** 2 * self.m)


@dataclass(frozen=True)
class Dataset:
    """Training inputs and the full output matrix over a box domain."""

    inputs: np.ndarray
    outputs: np.ndarray
    domain: Domain

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        Y = np.asarray(self.outputs, dtype=float)
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "outputs", Y)
        if X.ndim != 2 or Y.ndim != 2 or len(X) != len(Y):
            raise ValueError("inputs must be (n, p) and outputs (n, d) with equal n")
        if X.shape[1] != self.domain.p:
            raise ValueError("input dimension disagrees with domain")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("non-finite training values")
        if np.any(X < self.domain.lo) or np.any(X > self.domain.hi):
            raise ValueError("training inputs outside domain")

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def d(self) -> int:
        return self.outputs.shape[1]


@dataclass(frozen=True)
class PosteriorDraw:
    me: MultiEnsemble
    sigma2: np.ndarray


def scale_outputs(y) -> tuple[np.ndarray, OutputTransform]:
    """Map the observed response range onto [-0.5, 0.5]."""
    y = np.asarray(y, dtype=float)
    ymin, ymax = float(np.min(y)), float(np.max(y))
    if not ymax > ymin:
        raise DegenerateDataError("response column is constant")
    transform = OutputTransform(center=(ymin + ymax) / 2.0, scale=ymax - ymin)
    return transform.to_scaled(y), transform


def log_marginal_leaf(leaf_stats, sigma2: float, sigma_mu2: float) -> float:
    """Log marginal likelihood of leaf residuals with the mean integrated out.

    ``leaf_stats`` is a sequence of (count, sum, sum-of-squares) triples, one
    per leaf.  Empty leaves contribute zero; a single observation reduces to
    a normal density with the two variances convolved.
    """
    total = 0.0
    for k, s, q in leaf_stats:
        if k == 0:
            continue
        denom = sigma2 + k * sigma_mu2
        total += (
            -0.5 * k * math.log(2.0 * math.pi * sigma2)
            + 0.5 * math.log(sigma2 / denom)
            - q / (2.0 * sigma2)
            + sigma_mu2 * s * s / (2.0 * sigma2 * denom)
        )
    return total


def sample_sigma2(residuals, nu: float, lam: float, rng: RngLike) -> float:
    """Scaled-inverse-chi-square draw conditioned on the residuals."""
    r = np.asarray(residuals, dtype=float)
    n = r.size
    nu_post = nu + n
    lam_post = (nu * lam + float(np.sum(r * r))) / nu_post
    gen = as_generator(rng)
    return nu_post * lam_post / gen.chisquare(nu_post)


# ---------------------------------------------------------------------------
# internal mutable tree used during sampling


@dataclass(eq=False, slots=True)
class _SNode:
    """A node of a tree being sampled; it is a leaf while ``left`` is None.

    Its ``depth`` and cut table ``cuts`` never change, as its training rows
    do not.  ``cuts`` maps each variable that has a valid cut, in ascending
    order, to those cuts.  ``idx`` is set while it is a leaf.
    """

    idx: np.ndarray
    depth: int
    cuts: dict
    parent: Optional[_SNode] = None
    var: int = -1
    cut: float = 0.0
    left: Optional[_SNode] = None
    right: Optional[_SNode] = None
    mu: float = 0.0


class _TreeState:
    """One tree plus the shared training design, cutpoint grids and input codes.

    ``leaves`` lists the leaves left to right: a birth replaces a leaf's entry
    with its two children, a death replaces two sibling leaves with their parent.

    Inputs are coded when the state is made: ``codes[i, v]`` is the number of
    grid values of variable ``v`` at or below ``X[i, v]``, plus the offset
    ``v * width``, so ``X[i, v] < grids[v][j]`` holds exactly when
    ``codes[i, v] - v * width <= j`` and all variables share one count vector
    of ``p * width`` bins.

    ``mh_step`` keeps the residual sums its proposal takes, and
    ``draw_leaf_means`` on the same residual array reuses those of the
    current leaves instead of summing their rows again.
    """

    def __init__(self, X: np.ndarray, domain: Domain, grids: list[np.ndarray], cfg: BartConfig):
        if np.any(X < domain.lo) or np.any(X > domain.hi):
            raise ValueError("training inputs outside domain")
        self.X = X
        self.grids = grids
        self.cfg = cfg
        self.width = max(len(g) for g in grids) + 1
        self.codes = np.column_stack(
            [np.searchsorted(g, X[:, v], side="right") + v * self.width for v, g in enumerate(grids)]
        )
        self.sums_resid: Optional[np.ndarray] = None
        self.sums: dict = {}
        self.root = self.new_node(np.arange(len(X)), 0)
        self.leaves = [self.root]

    # -- split bookkeeping ---------------------------------------------------

    def new_node(self, idx: np.ndarray, depth: int, parent: Optional[_SNode] = None) -> _SNode:
        """A node over training rows ``idx``, with its cut table.

        A grid cut is valid when it leaves at least ``min_leaf_obs`` of the
        ``k`` rows on each side.  The table is read off one count of the
        rows' codes: after a cumulative sum along each variable's bins,
        ``n_left[v, j]`` is the number of rows with ``x[v] < grids[v][j]``.
        It does not fall as ``j`` grows, so the valid ``j`` with
        ``m <= n_left[v, j] <= k - m`` form one run, and bins past the end of
        a shorter grid hold ``n_left = k`` and are never in it.

        So the node needs no box: a valid cut lies strictly inside it, because
        the rows lie in the box and ``min_leaf_obs >= 1``.  A cut at or below
        the box's ``lo[v]`` leaves no row on the left, and a cut at or above
        its ``hi[v]`` leaves all ``k`` there (``hi[v]`` is then an earlier
        cut, as grid values lie below the largest input and so below the
        domain's face).
        """
        k, m = len(idx), self.cfg.min_leaf_obs
        cuts = {}
        if k >= 2 * m:
            p = len(self.grids)
            counts = np.bincount(self.codes[idx].ravel(), minlength=p * self.width)
            n_left = counts.reshape(p, self.width).cumsum(axis=1)
            first = (n_left < m).sum(axis=1).tolist()
            stop = (n_left <= k - m).sum(axis=1).tolist()
            for v in range(p):
                if first[v] < stop[v]:
                    cuts[v] = self.grids[v][first[v]:stop[v]]
        return _SNode(idx, depth, cuts, parent)

    def p_split(self, depth: int) -> float:
        return self.cfg.tree_prior_alpha * (1.0 + depth) ** (-self.cfg.tree_prior_beta)

    def growable(self) -> list[_SNode]:
        return [lf for lf in self.leaves if lf.cuts]

    def prunable(self) -> list[_SNode]:
        """Nodes whose children are both leaves, in left-to-right order."""
        return [
            lf.parent for lf in self.leaves
            if lf.parent is not None and lf.parent.left is lf and lf.parent.right.left is None
        ]

    def split(self, node: _SNode, var: int, cut: float) -> tuple[_SNode, _SNode]:
        """The two children that splitting leaf ``node`` at ``x[var] < cut`` makes."""
        mask = self.X[node.idx, var] < cut
        return (
            self.new_node(node.idx[mask], node.depth + 1, node),
            self.new_node(node.idx[~mask], node.depth + 1, node),
        )

    def draw_split(self, node: _SNode, rng: np.random.Generator) -> tuple[int, float]:
        """A uniform variable among those with a valid cut, then a uniform cut."""
        vs = list(node.cuts)
        var = vs[int(rng.integers(len(vs)))]
        cuts = node.cuts[var]
        return var, float(cuts[int(rng.integers(len(cuts)))])

    # -- moves ----------------------------------------------------------------

    def apply_birth(self, node: _SNode, var: int, cut: float,
                    children: tuple[_SNode, _SNode]) -> None:
        """Turn leaf ``node`` into a split with ``children`` from ``split``."""
        left, right = children
        left.mu = right.mu = node.mu
        node.var, node.cut, node.left, node.right = var, cut, left, right
        node.idx = np.empty(0, dtype=int)
        i = self.leaves.index(node)
        self.leaves[i:i + 1] = children

    def apply_death(self, node: _SNode) -> None:
        i = self.leaves.index(node.left)
        self.leaves[i:i + 2] = [node]
        node.idx = np.concatenate([node.left.idx, node.right.idx])
        node.mu = node.left.mu
        node.left = node.right = None

    # -- Metropolis step -------------------------------------------------------

    def _leaf_stats(self, idx: np.ndarray, resid: np.ndarray):
        r = resid[idx]
        return (len(r), float(np.add.reduce(r)), float(np.add.reduce(r * r)))

    def _proposal_stats(self, resid: np.ndarray, nodes: tuple, rows: tuple) -> list:
        """Leaf stats of ``resid`` over each of ``rows``.  The sums are kept for
        ``draw_leaf_means``, keyed by ``nodes``: whichever of them are leaves
        after the proposal hold exactly those rows in that order."""
        stats = [self._leaf_stats(idx, resid) for idx in rows]
        self.sums_resid = resid
        self.sums = {nd: st[1] for nd, st in zip(nodes, stats)}
        return stats

    def mh_step(self, resid: np.ndarray, sigma2: float, rng: np.random.Generator,
                flat_likelihood: bool = False) -> bool:
        """One birth-or-death proposal; returns whether it was accepted."""
        self.sums_resid, self.sums = None, {}
        smu2 = self.cfg.sigma_mu2
        if rng.random() < 0.5:
            # birth
            growable = self.growable()
            if not growable:
                return False
            node = growable[int(rng.integers(len(growable)))]
            var, cut = self.draw_split(node, rng)
            child_l, child_r = self.split(node, var, cut)
            p_d = self.p_split(node.depth)
            p_d1 = self.p_split(node.depth + 1)
            f_l = (1.0 - p_d1) if child_l.cuts else 1.0
            f_r = (1.0 - p_d1) if child_r.cuts else 1.0

            parent_was_prunable = (
                node.parent is not None
                and node.parent.left.left is None
                and node.parent.right.left is None
            )
            n_prunable_new = len(self.prunable()) + 1 - int(parent_was_prunable)

            log_ratio = (
                math.log(p_d) - math.log1p(-p_d)
                + math.log(f_l) + math.log(f_r)
                + math.log(len(growable)) - math.log(n_prunable_new)
            )
            if not flat_likelihood:
                st_node, st_l, st_r = self._proposal_stats(
                    resid, (node, child_l, child_r), (node.idx, child_l.idx, child_r.idx))
                log_ratio += log_marginal_leaf([st_l, st_r], sigma2, smu2)
                log_ratio -= log_marginal_leaf([st_node], sigma2, smu2)
            if math.log(rng.random()) < log_ratio:
                self.apply_birth(node, var, cut, (child_l, child_r))
                return True
            return False

        # death
        prunable = self.prunable()
        if not prunable:
            return False
        node = prunable[int(rng.integers(len(prunable)))]
        p_d = self.p_split(node.depth)
        p_d1 = self.p_split(node.depth + 1)
        f_l = (1.0 - p_d1) if node.left.cuts else 1.0
        f_r = (1.0 - p_d1) if node.right.cuts else 1.0
        # the merged node is growable again; its children leave the count
        n_growable_after = 1 + sum(1 for lf in self.leaves if lf.cuts and lf.parent is not node)

        log_ratio = (
            math.log1p(-p_d) - math.log(p_d)
            - math.log(f_l) - math.log(f_r)
            - math.log(n_growable_after) + math.log(len(prunable))
        )
        if not flat_likelihood:
            # the merged rows are left then right, as apply_death sets them
            merged = np.concatenate([node.left.idx, node.right.idx])
            st_node, st_l, st_r = self._proposal_stats(
                resid, (node, node.left, node.right), (merged, node.left.idx, node.right.idx))
            log_ratio += log_marginal_leaf([st_node], sigma2, smu2)
            log_ratio -= log_marginal_leaf([st_l, st_r], sigma2, smu2)
        if math.log(rng.random()) < log_ratio:
            self.apply_death(node)
            return True
        return False

    # -- conditional draws ------------------------------------------------------

    def draw_leaf_means(self, resid: np.ndarray, sigma2: float, sigma_mu2: float,
                        rng: np.random.Generator) -> None:
        """Conjugate normal draw of every leaf mean, left to right."""
        known = self.sums if resid is self.sums_resid else {}
        self.sums_resid, self.sums = None, {}
        zs = rng.standard_normal(len(self.leaves)).tolist()
        for node, z in zip(self.leaves, zs):
            s = known.get(node)
            if s is None:
                s = float(np.add.reduce(resid[node.idx]))
            var_post = 1.0 / (len(node.idx) / sigma2 + 1.0 / sigma_mu2)
            mean_post = var_post * s / sigma2
            node.mu = mean_post + math.sqrt(var_post) * z

    def predict(self) -> np.ndarray:
        fit = np.empty(len(self.X))
        for node in self.leaves:
            fit[node.idx] = node.mu
        return fit

    # -- conversions --------------------------------------------------------------

    def to_tree(self) -> Tree:
        def rec(node: _SNode) -> Node:
            if node.left is None:
                return Leaf(node.mu)
            return Split(node.var, node.cut, rec(node.left), rec(node.right))

        return Tree(rec(self.root))


def cutpoint_grids(X: np.ndarray, n_cutpoints: int) -> list[np.ndarray]:
    """Equally spaced interior cutpoints over each observed input range."""
    grids = []
    for v in range(X.shape[1]):
        lo, hi = float(X[:, v].min()), float(X[:, v].max())
        if hi <= lo:
            grids.append(np.empty(0))
            continue
        steps = np.arange(1, n_cutpoints + 1) / (n_cutpoints + 1)
        grids.append(lo + (hi - lo) * steps)
    return grids


def sample_prior_tree(X: np.ndarray, domain: Domain, cfg: BartConfig,
                      rng: RngLike) -> Tree:
    """Direct draw from the tree prior truncated to splits valid for X."""
    gen = as_generator(rng)
    state = _TreeState(np.asarray(X, dtype=float), domain, cutpoint_grids(X, cfg.n_cutpoints), cfg)

    def rec(node: _SNode) -> None:
        if not node.cuts or gen.random() >= state.p_split(node.depth):
            return
        var, cut = state.draw_split(node, gen)
        state.apply_birth(node, var, cut, state.split(node, var, cut))
        rec(node.left)
        rec(node.right)

    rec(state.root)
    return state.to_tree()


def fit_bart(X, y, domain: Domain, cfg: BartConfig, rng: RngLike) -> list[tuple[Ensemble, float]]:
    """Posterior draws for one output column.

    Returns ``cfg.n_draws`` post-burn-in (ensemble, error variance) pairs,
    the variance already back in raw output units.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(X)
    if n != len(y):
        raise ValueError("input/output length mismatch")
    if n < 2 * cfg.min_leaf_obs:
        raise ValueError(f"need at least {2 * cfg.min_leaf_obs} observations")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training data")
    gen = as_generator(rng)

    y_scaled, transform = scale_outputs(y)
    grids = cutpoint_grids(X, cfg.n_cutpoints)
    states = [_TreeState(X, domain, grids, cfg) for _ in range(cfg.m)]
    fits = np.zeros((cfg.m, n))
    total = fits.sum(axis=0)
    sigma2 = max(float(np.var(y_scaled)), 1e-10)

    draws: list[tuple[Ensemble, float]] = []
    for sweep in range(cfg.n_burn + cfg.n_draws):
        for t, state in enumerate(states):
            resid_t = y_scaled - total + fits[t]
            state.mh_step(resid_t, sigma2, gen)
            state.draw_leaf_means(resid_t, sigma2, cfg.sigma_mu2, gen)
            new_fit = state.predict()
            total += new_fit - fits[t]
            fits[t] = new_fit
        total = fits.sum(axis=0)  # kill incremental drift once per sweep
        sigma2 = sample_sigma2(y_scaled - total, cfg.nu, cfg.lam, gen)
        if sweep >= cfg.n_burn:
            ens = Ensemble(
                trees=tuple(s.to_tree() for s in states),
                transform=transform,
                domain=domain,
            )
            draws.append((ens, sigma2 * transform.scale ** 2))
    return draws


def fit_multi_bart(
    dataset: Dataset,
    cfg: BartConfig,
    seed: Union[int, np.random.SeedSequence, None] = None,
    per_output_seeds: Optional[Sequence] = None,
) -> list[PosteriorDraw]:
    """Independent per-output fits assembled into joint posterior draws.

    Each output runs on its own stream: by default the streams are spawned
    from ``seed`` by output position, or pass ``per_output_seeds`` to pin
    them (fitting a column is then invariant to where the column sits).
    """
    d = dataset.d
    if dataset.n < 2 * cfg.min_leaf_obs:
        raise ValueError(f"need at least {2 * cfg.min_leaf_obs} observations")
    if per_output_seeds is not None:
        if len(per_output_seeds) != d:
            raise ValueError("need one seed per output")
        streams = list(per_output_seeds)
    else:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        streams = root.spawn(d)

    per_output = [
        fit_bart(dataset.inputs, dataset.outputs[:, j], dataset.domain, cfg, streams[j])
        for j in range(d)
    ]
    draws = []
    for i in range(cfg.n_draws):
        ensembles = tuple(per_output[j][i][0] for j in range(d))
        sigma2 = np.array([per_output[j][i][1] for j in range(d)])
        draws.append(PosteriorDraw(MultiEnsemble(ensembles), sigma2))
    return draws

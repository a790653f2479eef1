"""Piecewise-constant regression trees and additive tree ensembles.

A tree splits an axis-aligned box domain into leaf boxes and assigns a
constant to each.  An ensemble is a sum of such trees, stored in a scaled
output unit together with the affine transform back to raw units.  A
multi-output ensemble stacks one ensemble per objective over a shared
domain.

Boxes follow a half-open convention [lo, hi) in every dimension, except
that a box touching the domain's upper face is closed there.  This makes
the leaf boxes of any tree a true partition of the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


class DomainError(ValueError):
    """An input point lies outside the model domain."""


@dataclass(frozen=True)
class Domain:
    """Bounded axis-aligned box of admissible inputs."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.bounds) == 0:
            raise ValueError("domain needs at least one dimension")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid domain interval [{lo}, {hi}]")

    @property
    def p(self) -> int:
        return len(self.bounds)

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def require(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise DomainError(f"expected point of dimension {self.p}, got shape {x.shape}")
        if not self.contains(x):
            raise DomainError(f"point {x} outside domain")
        return x

    @staticmethod
    def unit(p: int) -> "Domain":
        return Domain(tuple((0.0, 1.0) for _ in range(p)))


@dataclass(frozen=True)
class Hyperrectangle:
    """Axis-aligned box, half-open at its upper faces unless those coincide
    with the domain's upper faces (closure decided at containment time)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")

    @property
    def p(self) -> int:
        return len(self.lo)

    @property
    def empty(self) -> bool:
        return any(l >= h for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> float:
        if self.empty:
            return 0.0
        return float(np.prod(np.array(self.hi) - np.array(self.lo)))

    def midpoint(self) -> np.ndarray:
        return (np.array(self.lo) + np.array(self.hi)) / 2.0

    def contains(self, x, domain: Domain) -> bool:
        """Membership under the half-open rule, closed at the domain top face."""
        x = np.asarray(x, dtype=float)
        dom_hi = domain.hi
        for j in range(self.p):
            if x[j] < self.lo[j]:
                return False
            if x[j] < self.hi[j]:
                continue
            # upper edge: only allowed when this face is the domain's face
            if not (self.hi[j] >= dom_hi[j] and x[j] <= self.hi[j]):
                return False
        return True


@dataclass(frozen=True)
class Leaf:
    mu: float


@dataclass(frozen=True)
class Split:
    var: int
    cut: float
    left: "Node"
    right: "Node"


Node = Union[Leaf, Split]


@dataclass(frozen=True)
class Tree:
    """Binary regression tree; routing sends x left iff x[var] < cut."""

    root: Node

    def validate(self, domain: Domain) -> None:
        """Check split vars and cuts against the boxes they refine.

        A cut on a box edge would create an empty leaf region, so it is
        rejected here rather than silently producing a degenerate partition.
        """
        lo, hi = map(list, zip(*domain.bounds))
        for _ in _leaf_boxes(self.root, lo, hi, domain.p):
            pass


def _leaf_boxes(root: Node, lo: list, hi: list, p: int):
    """Yield ``(lo, hi, mu)`` for each leaf of the tree over box [lo, hi), left to right.

    This is the one walk of a tree's boxes.  Each split's variable must be
    one of the ``p`` inputs and its cut must lie strictly inside the box it
    refines, so the leaf boxes partition the root's box; splits are checked
    in preorder, left subtree first.
    """
    stack = [(root, lo, hi)]
    while stack:
        node, lo, hi = stack.pop()
        if isinstance(node, Leaf):
            yield lo, hi, node.mu
            continue
        var, cut = node.var, node.cut
        if not 0 <= var < p:
            raise ValueError(f"split variable {var} out of range")
        if not lo[var] < cut < hi[var]:
            raise ValueError(
                f"cut {cut} not strictly inside [{lo[var]}, {hi[var]}] for variable {var}")
        left_hi = list(hi)
        left_hi[var] = cut
        right_lo = list(lo)
        right_lo[var] = cut
        stack.append((node.right, right_lo, hi))
        stack.append((node.left, lo, left_hi))


@dataclass(frozen=True)
class OutputTransform:
    """Affine map between raw output units and the training scale.

    scaled = (raw - center) / scale, raw = center + scale * scaled.
    """

    center: float
    scale: float

    def to_scaled(self, y):
        return (np.asarray(y, dtype=float) - self.center) / self.scale

    def to_raw(self, s):
        return self.center + self.scale * np.asarray(s, dtype=float)

    @staticmethod
    def identity() -> "OutputTransform":
        return OutputTransform(0.0, 1.0)


@dataclass(frozen=True)
class Ensemble:
    """Sum of trees over a domain; leaf values live in scaled units."""

    trees: tuple[Tree, ...]
    transform: OutputTransform
    domain: Domain

    def __post_init__(self):
        if len(self.trees) < 1:
            raise ValueError("ensemble needs at least one tree")
        for t in self.trees:
            t.validate(self.domain)

    @property
    def m(self) -> int:
        return len(self.trees)


@dataclass(frozen=True)
class MultiEnsemble:
    """One ensemble per output dimension, all over the same domain."""

    outputs: tuple[Ensemble, ...]

    def __post_init__(self):
        if len(self.outputs) < 1:
            raise ValueError("need at least one output")
        dom = self.outputs[0].domain
        for e in self.outputs:
            if e.domain != dom:
                raise ValueError("all outputs must share one domain")

    @property
    def d(self) -> int:
        return len(self.outputs)

    @property
    def domain(self) -> Domain:
        return self.outputs[0].domain


def eval_tree(tree: Tree, x, domain: Domain) -> float:
    """Value of the unique leaf whose path rules x satisfies."""
    x = domain.require(x)
    node = tree.root
    while isinstance(node, Split):
        node = node.left if x[node.var] < node.cut else node.right
    return node.mu


def eval_ensemble(ens: Ensemble, x) -> float:
    """Sum of per-tree values at x, in raw units."""
    total = 0.0
    for tree in ens.trees:
        total += eval_tree(tree, x, ens.domain)
    return float(ens.transform.to_raw(total))


def eval_multi(me: MultiEnsemble, x) -> np.ndarray:
    """Componentwise ensemble evaluation in raw units."""
    return np.array([eval_ensemble(e, x) for e in me.outputs])


def tree_leaf_regions(tree: Tree, domain: Domain) -> list[tuple[Hyperrectangle, float]]:
    """Leaf boxes of the tree and their values; the boxes partition the domain."""
    return [
        (Hyperrectangle(tuple(lo), tuple(hi)), mu)
        for lo, hi, mu in _leaf_boxes(tree.root, list(domain.lo), list(domain.hi), domain.p)
    ]


# ---------------------------------------------------------------------------
# JSON serialization.  Nodes become nested objects {var, cut, left, right}
# for splits and {mu} for leaves; floats go through json as binary64 repr so
# values round-trip exactly.

def node_to_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"mu": node.mu}
    return {
        "var": node.var,
        "cut": node.cut,
        "left": node_to_dict(node.left),
        "right": node_to_dict(node.right),
    }


def node_from_dict(obj: dict) -> Node:
    if "mu" in obj:
        return Leaf(float(obj["mu"]))
    return Split(
        int(obj["var"]),
        float(obj["cut"]),
        node_from_dict(obj["left"]),
        node_from_dict(obj["right"]),
    )


def domain_to_dict(domain: Domain) -> dict:
    return {"lo": [b[0] for b in domain.bounds], "hi": [b[1] for b in domain.bounds]}


def domain_from_dict(obj: dict) -> Domain:
    return Domain(tuple(zip(map(float, obj["lo"]), map(float, obj["hi"]))))


def ensemble_to_dict(ens: Ensemble) -> dict:
    return {
        "center": ens.transform.center,
        "scale": ens.transform.scale,
        "domain": domain_to_dict(ens.domain),
        "trees": [node_to_dict(t.root) for t in ens.trees],
    }


def ensemble_from_dict(obj: dict) -> Ensemble:
    return Ensemble(
        trees=tuple(Tree(node_from_dict(t)) for t in obj["trees"]),
        transform=OutputTransform(float(obj["center"]), float(obj["scale"])),
        domain=domain_from_dict(obj["domain"]),
    )

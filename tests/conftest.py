from treefront import (
    CPF,
    Domain,
    Ensemble,
    Leaf,
    MultiEnsemble,
    OutputTransform,
    Split,
    Tree,
    kung_front,
)


def stump(var, cut, mu_left, mu_right):
    return Tree(Split(var, cut, Leaf(mu_left), Leaf(mu_right)))


def paired_stump_ensembles():
    """Two 3-stump ensembles on the unit square used as a golden case.

    By direct arithmetic their joint image has 16 points and the
    nondominated one is (-6, -15), attained on [0, 0.3) x [0, 0.2).
    """
    dom = Domain.unit(2)
    ident = OutputTransform.identity()
    e1 = Ensemble(
        (stump(0, 0.3, -1, 1), stump(0, 0.6, -2, 2), stump(1, 0.8, -3, 3)),
        ident,
        dom,
    )
    e2 = Ensemble(
        (stump(1, 0.2, -4, 4), stump(1, 0.5, -5, 5), stump(0, 0.5, -6, 6)),
        ident,
        dom,
    )
    return MultiEnsemble((e1, e2))


PAIRED_STUMP_IMAGE = {
    (0.0, 3.0), (-6.0, 3.0), (-6.0, -15.0), (2.0, 3.0), (-4.0, 3.0),
    (-4.0, -7.0), (-4.0, -15.0), (2.0, 15.0), (-4.0, 15.0), (-4.0, 5.0),
    (-4.0, -3.0), (6.0, 15.0), (0.0, 15.0), (0.0, 5.0), (0.0, -3.0),
    (-6.0, -7.0),
}


def front_boxes(atlas, result):
    """Boxes of a pf_ps result's front cells, in front order."""
    return tuple(atlas.box(r) for fp in result.front for r in fp.cell_refs)


def random_tree(rng, domain, max_depth=3, split_prob=0.7):
    """Random valid tree: cuts drawn strictly inside the running box."""

    def build(lo, hi, depth):
        if depth >= max_depth or rng.random() > split_prob:
            return Leaf(float(rng.normal()))
        var = int(rng.integers(domain.p))
        frac = 0.1 + 0.8 * rng.random()
        cut = float(lo[var] + frac * (hi[var] - lo[var]))
        left_hi = hi.copy()
        left_hi[var] = cut
        right_lo = lo.copy()
        right_lo[var] = cut
        return Split(var, cut, build(lo, left_hi, depth + 1), build(right_lo, hi, depth + 1))

    return Tree(build(domain.lo, domain.hi, 0))


def random_ensemble(rng, domain, m=5, transform=None, max_depth=3):
    trees = tuple(random_tree(rng, domain, max_depth) for _ in range(m))
    if transform is None:
        transform = OutputTransform(float(rng.normal()), float(0.5 + rng.random()))
    return Ensemble(trees, transform, domain)


def random_multi(rng, p=2, d=2, m=4, max_depth=3):
    domain = Domain.unit(p)
    return MultiEnsemble(
        tuple(random_ensemble(rng, domain, m, max_depth=max_depth) for _ in range(d))
    )


def random_cpf(rng, draw_index=0, n_raw=12, d=2, scale=1.0):
    """Random nondominated point set (front of a random scatter)."""
    pts = rng.random((n_raw, d)) * scale
    return CPF.from_points(draw_index, kung_front(pts))


def random_cpfs(rng, n_cpfs, n_raw=12, d=2, scale=1.0):
    return [random_cpf(rng, i, n_raw, d, scale) for i in range(n_cpfs)]

"""Reference implementations that tests compare the package against."""

import numpy as np

from treefront.trees import Domain, Ensemble, tree_leaf_regions


def leaf_box_fold(ensembles: tuple[Ensemble, ...], domain: Domain):
    """The atlas fold by intersecting every cell with every leaf box.

    Returns (sums, los, his) in the layout of treefront.atlas._fold, which
    must match it byte for byte: same cells, same order, same float sums.
    """
    p = domain.p
    d = len(ensembles)
    los = domain.lo.reshape(1, p)
    his = domain.hi.reshape(1, p)
    sums = np.zeros((1, d))
    for j, ens in enumerate(ensembles):
        for tree in ens.trees:
            regions = tree_leaf_regions(tree, domain)
            new_lo, new_hi, new_sum = [], [], []
            for box, mu in regions:
                lo = np.maximum(los, np.array(box.lo))
                hi = np.minimum(his, np.array(box.hi))
                keep = np.all(lo < hi, axis=1)
                if not np.any(keep):
                    continue
                s = sums[keep].copy()
                s[:, j] += mu
                new_lo.append(lo[keep])
                new_hi.append(hi[keep])
                new_sum.append(s)
            los = np.vstack(new_lo)
            his = np.vstack(new_hi)
            sums = np.vstack(new_sum)
    return sums, los, his

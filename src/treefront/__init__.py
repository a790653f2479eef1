"""Multiobjective optimization of noisy black boxes with tree-ensemble
posteriors: exact front/set extraction per posterior draw plus attainment-
and depth-based uncertainty clouds."""

from .atlas import ImageAtlas, multi_cells
from .band_depth import (
    DepthResult,
    Staircase,
    band_contains,
    band_depth,
    h_cut,
    modified_band_depth,
    pf_cloud_mbd,
)
from .benchmarks import (
    Benchmark,
    benchmark_names,
    dtlz2m,
    get_benchmark,
    mop2,
    turning_costs,
    unit_scale,
    zdt3,
)
from .harness import (
    Scenario,
    ScenarioReport,
    TurningResult,
    generate_data,
    maximin_lhs,
    run_scenario,
    run_turning,
)
from .metrics import avg_dist, coverage, dist_point_to_set, ps_cloud_to_points
from .pareto import FrontPoint, ParetoResult, kung_front, pf_ps
from .random_sets import (
    CPF,
    CellRefError,
    CloudPoint,
    ObjectiveBox,
    PFCloud,
    PSCloud,
    SourcedBox,
    eaf,
    pf_cloud_rs,
    ps_cloud,
)
from .sampler import (
    BartConfig,
    Dataset,
    DegenerateDataError,
    PosteriorDraw,
    fit_bart,
    fit_multi_bart,
    log_marginal_leaf,
    sample_prior_tree,
    sample_sigma2,
    scale_outputs,
)
from .trees import (
    Domain,
    DomainError,
    Ensemble,
    Hyperrectangle,
    Leaf,
    MultiEnsemble,
    OutputTransform,
    Split,
    Tree,
    eval_ensemble,
    eval_multi,
    eval_tree,
    tree_leaf_regions,
)

__version__ = "0.1.0"

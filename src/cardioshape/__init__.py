"""Multi-chamber cardiac mesh reconstruction and statistical shape modelling."""

from .ffd import ControlGrid, bspline_basis, compose_warp, warp_points
from .fitting import FitConfig, extract_surface_points, fit_sequence
from .mesh import (
    STRUCTURES,
    ChamberSet,
    MeshSequence,
    Topology,
    TriMesh,
    devectorize,
    graph_laplacian,
    inflate_along_normals,
    mean_curvature,
    rigid_align,
    vectorize,
    vertex_normals,
)
from .motion import SlicePlane, ViewSet, eval_intersections, mc_objective, mc_optimize
from .objectives import (
    TargetClouds,
    dice,
    pearson_r,
    surface_distances,
    total_loss,
)
from .phenotypes import PhenotypeTable, mesh_volume, phenotype_table, wall_thickness
from .population import (
    FeatureMatrix,
    knn_retrieve,
    precision_at_k,
    recall_at_k,
    signed_variation,
    vertex_correlation,
)
from .ssm import (
    ShapeModel,
    compactness,
    complete_sequence,
    decode,
    encode,
    fit_to_contours,
    generalization_error,
    ipca_partial_fit,
    sample_mode,
)
from .synth import SynthConfig, make_template, synth_population

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

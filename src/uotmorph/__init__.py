"""Unbalanced optimal transport features for morphometric population analysis.

Measures on regular grids are transported to a cohort template by an exact
network-simplex solver for the locally mass-balanced unbalanced transport
program; the resulting plans yield per-subject mass-allocation and
transport-cost images whose voxel-wise correlations with clinical
covariates form the analysis output.
"""

from .analytic import (
    PopulationModel,
    allocation_distribution,
    correlation_curves,
    otf_correlation,
    vbm_correlation,
)
from .features import (
    allocation_image,
    extract_features,
    smooth,
    transport_cost_image,
)
from .grid import (
    GridDomain,
    GridMeasure,
    SubjectManifest,
    downsample,
    load_field,
    load_manifest,
    load_measure,
    save_field,
    save_manifest,
    save_measure,
)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .solver import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    solve_multiscale,
    solve_unbalanced,
)
from .stats import CorrelationMap, correlate_stack, correlation_p, export_map
from .synth import AnnulusSpec, StripSpec, generate_annuli, generate_strips
from .templates import TemplateSpec, euclidean_mean, ot_barycenter, sparse_mean

__version__ = "0.1.0"

"""Randomized sketches of graph Laplacians, SDD and PSD matrices that answer
cut and spectral quadratic-form queries to 1 +/- eps relative accuracy with
constant per-query success probability, plus a simulated distributed
minimum-cut protocol built from those sketches."""

__version__ = "0.1.0"

from .errors import (
    GraphFormatError,
    QuadsketchError,
    QueryError,
    SketchConsistencyError,
    TooLargeError,
)
from .graph import (
    WeightedGraph,
    cheeger_exact,
    conductance,
    connected_components,
    cut_weight,
    degrees,
    load_graph,
    parse_graph,
    quadratic_form,
    save_graph,
)
from .sparsify import SparsifierConfig, sparsify
from .partition import (
    DegreeClassPartition,
    PartitionResult,
    assign_direction,
    cut_preprocessing,
    degree_class_partition,
    find_sparse_cut,
    spectral_preprocessing,
)
from .cutsketch import (
    CutSketchGeneral,
    CutSketchPoly,
    S1Sketch,
    amplified_estimate,
    cut_basic_build,
    cut_s1_build,
    cut_sketch_build,
    mst_max,
)
from .spectral import (
    S2Sketch,
    S3Sketch,
    SpectralBasicSketch,
    SpectralImprovedSketch,
    spectral_basic_build,
    spectral_improved_build,
    spectral_s2_build,
    spectral_s3_build,
)
from .psdsdd import (
    JlSketch,
    SddSketch,
    jl_build,
    sdd_sketch_build,
    sdd_to_laplacian,
)
from .oracle import (
    expansion_exact,
    lambda1_normalized,
    min_cut_exact,
)
from .distmincut import (
    ProtocolTranscript,
    ServerShare,
    partition_edges,
    run_protocol,
)

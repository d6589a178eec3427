"""Dual-axis structural representation toolkit for H/C/N/O/F molecules.

One axis encodes each heavy atom's local valence environment as a
hierarchical string code with exact enumeration and counting of the code
spaces; the other decomposes molecules at cut vertices and bridges into
canonical ring/cage topologies. On top of both sit scalar electronic
descriptors, dataset coverage analytics and linear cross-protocol energy
alignment, all exposed through one command line tool.
"""

from .align import (
    AlignmentModel,
    FeatureVector,
    ResidualStats,
    apply,
    build_features,
    fit,
    load_model,
    residual_stats,
    save_model,
)
from .coverage import (
    CompositionReport,
    CoverageReport,
    DatasetRecord,
    DatasetTable,
    Histogram,
    KlMatrix,
    RejectEntry,
    accept_record,
    composition_key,
    composition_uniformity,
    coverage_report,
    expansion_subsets,
    histogram,
    ingest,
    kl_matrix,
    overlap_report,
    structure_complement,
    type_set,
)
from .descriptors import (
    GroupStats,
    OrbitalRecord,
    binding_energy,
    e_gcn0,
    group_stats,
)
from .errors import (
    DegenerateWeights,
    DuplicateRecord,
    EmptyDistribution,
    InvalidArgument,
    InvalidEnvironment,
    InvalidHydrogenCount,
    InvalidHydrogenTopology,
    MissingProperty,
    MissingReference,
    MolspaceError,
    ParseError,
    RankDeficient,
    TooLarge,
    UnseenFeature,
    UnsupportedBondOrder,
    UnsupportedElement,
)
from .gcn import (
    GCN0_TABLE,
    atom_codes,
    count_gcn2,
    enumerate_gcn0,
    enumerate_gcn1,
    enumerate_gcn2_stream,
    gcn0_of_atom,
    gcn1_of_atom,
    gcn2_of_atom,
    gcn2_level,
    parse_gcn_code,
)
from .molgraph import (
    HeavyGraph,
    HydrogenClampWarning,
    MolGraph,
    heavy_graph,
    parse_molfile,
    parse_record_line,
    validate,
)
from .nbg import (
    CutDecomposition,
    NbgPlusClass,
    NbgTopology,
    canonical_signature,
    cut_decomposition,
    decode_signature,
    isovalent_substitutions,
    nbg0_extract,
    nbg0_generate,
    nbg_plus_class,
    scaffold,
)

__version__ = "0.1.0"

"""Frequency-bin photonic circuit simulator built around AOM mode maps.

Public API: sparse Fock states over (path, frequency-bin) modes, evolved by
an array engine over occupation matrices (:mod:`aomsim.engine`), optical
elements (AOM, biphoton source, bin filter), heralded post-selection, the
two built-in experiments (entanglement swap, three-photon GHZ generation),
a dense verification oracle, and the circuit description language.
"""

from .errors import (
    CapExceededError,
    CompileError,
    FactorizationError,
    NonFiniteError,
    OverlappingPathsError,
    SimulatorError,
    SpecInvariantError,
    UnexpectedFrequencyError,
    ZeroStateError,
)
from .states import (
    DensityMatrix,
    FockKet,
    ModeLabel,
    StateVector,
    entanglement_entropy,
    ghz_fidelity,
    inner,
    ket,
    normalize,
    reduced_density,
    tensor,
)
from .elements import (
    AomSpec,
    BandwidthCheck,
    Convention,
    ElementOp,
    FilterSpec,
    SourceSpec,
    apply_element,
    apply_filter,
    check_bandwidth,
    make_aom,
    make_source,
)
from .oracle import dense_oracle_apply, permanent
from .experiments import (
    GhzResult,
    GhzSweep,
    HeraldOutcome,
    HeraldRule,
    SwapResult,
    enumerate_outcomes,
    post_select,
    restrict_to_paths,
    run_ghz,
    run_swap,
)
from .dsl import CircuitAst, ParseError, Pipeline, compile_circuit, format_circuit, parse

__version__ = "0.1.0"

__all__ = [
    "AomSpec",
    "BandwidthCheck",
    "CapExceededError",
    "CircuitAst",
    "CompileError",
    "Convention",
    "DensityMatrix",
    "ElementOp",
    "FactorizationError",
    "FilterSpec",
    "FockKet",
    "GhzResult",
    "GhzSweep",
    "HeraldOutcome",
    "HeraldRule",
    "ModeLabel",
    "NonFiniteError",
    "OverlappingPathsError",
    "ParseError",
    "Pipeline",
    "SimulatorError",
    "SourceSpec",
    "SpecInvariantError",
    "StateVector",
    "SwapResult",
    "UnexpectedFrequencyError",
    "ZeroStateError",
    "apply_element",
    "apply_filter",
    "check_bandwidth",
    "compile_circuit",
    "dense_oracle_apply",
    "enumerate_outcomes",
    "entanglement_entropy",
    "format_circuit",
    "ghz_fidelity",
    "inner",
    "ket",
    "make_aom",
    "make_source",
    "normalize",
    "parse",
    "permanent",
    "post_select",
    "reduced_density",
    "restrict_to_paths",
    "run_ghz",
    "run_swap",
    "tensor",
]

"""eigensample: a desk-scale laboratory for spectral sampling problems.

Exact statevector simulation, phase and eigenvalue sampling, average-
eigenvalue estimation, clock-Hamiltonian reductions, and a transportation
checker for (epsilon, delta)-closeness of sampled spectra.
"""
import os as _os

# Honored before numpy first loads its BLAS thread pools.
_threads = _os.environ.get("EIGENSAMPLE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .averages import (
    AverageEstimate,
    hadamard_test_probabilities,
    luae_estimate,
    luae_unguided,
    samples_per_component,
)
from .circuits import (
    GATE_MATRICES,
    BasisLabel,
    Circuit,
    Gate,
    OutputSplit,
    StateVector,
    apply_circuit,
    apply_gate,
    circuit_diagonal,
    circuit_unitary,
    gate_unitary,
    invert_circuit,
    named_gate,
    output_split,
    parse_circuit,
    serialize_circuit,
)
from .distributions import (
    ApproxCheckInstance,
    FlowNetwork,
    SpectralDistribution,
    approx_check,
    empirical_approx_check,
    empirical_feasibility,
    exact_distribution,
    make_distribution,
    max_flow,
    point_distance,
    sample_values,
    total_variation,
)
from .errors import (
    DimensionMismatch,
    EigensampleError,
    EmptyCircuit,
    EmptyHamiltonian,
    MetricMismatch,
    NotHermitian,
    NotUnitary,
    OracleFailure,
    ParseError,
    TermTooLarge,
    TooLarge,
)
from .hamiltonians import (
    LocalHamiltonian,
    LocalTerm,
    PreparedEigenvalueSampler,
    ScaleInfo,
    dense_hamiltonian,
    exact_average_eigenvalue,
    parse_hamiltonian,
    prepare_lhes,
    scale_hamiltonian,
    serialize_hamiltonian,
    trotter_circuit,
    trotter_deviation,
    trotter_step_count,
)
from .linalg import (
    SpectralDecomposition,
    exp_i_hermitian,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    operator_norm,
    unitary_eig,
)
from .phase_estimation import (
    PreparedPhaseEstimation,
    SamplingRequest,
    ancilla_bits,
    ceil_log2,
    prepare_pes,
    prepare_phase_estimation,
)
from .reductions import (
    ClockPropagator,
    HistoryAnalysis,
    LhesInstance,
    MarkedCircuit,
    UnaryClockHamiltonian,
    analyze_history,
    build_clock_hamiltonian,
    build_clock_propagator,
    build_lhes_instance,
    build_unary_clock,
    decide_via_lhes,
    decide_via_luae,
    decide_via_pes,
    eigenvalue_grids,
    exact_lhes_oracle,
    exact_luae_oracle,
    exact_pes_oracle,
    history_start_label,
    mark_circuit,
    quantum_lhes_oracle,
    quantum_luae_oracle,
    quantum_pes_oracle,
    reduction_report,
    unary_embedding_isometry,
)
from .seeding import master_rng, substream, substream_uniforms

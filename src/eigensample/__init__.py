"""eigensample: a desk-scale laboratory for spectral sampling problems.

Exact statevector simulation, phase and eigenvalue sampling, average-
eigenvalue estimation, clock-Hamiltonian reductions, and a transportation
checker for (epsilon, delta)-closeness of sampled spectra.

The public names below load their submodule on first use (PEP 562), so a
command-line child imports only the modules its command runs.
"""
import os as _os
from importlib import import_module as _import_module

# Honored before numpy first loads its BLAS thread pools.
_threads = _os.environ.get("EIGENSAMPLE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "averages": (
        "AverageEstimate", "hadamard_test_probabilities", "luae_estimate",
        "luae_unguided", "samples_per_component",
    ),
    "circuits": (
        "GATE_MATRICES", "BasisLabel", "Circuit", "Gate", "OutputSplit",
        "circuit_diagonal", "circuit_unitary", "invert_circuit", "named_gate",
        "output_split", "parse_circuit",
    ),
    "distributions": (
        "ApproxCheckInstance", "FlowNetwork", "SpectralDistribution",
        "approx_check", "empirical_approx_check", "empirical_feasibility",
        "exact_distribution", "make_distribution", "max_flow",
        "point_distance", "sample_values", "total_variation",
    ),
    "errors": (
        "DimensionMismatch", "EigensampleError", "EmptyCircuit",
        "EmptyHamiltonian", "MetricMismatch", "NotHermitian", "NotUnitary",
        "OracleFailure", "ParseError", "TermTooLarge", "TooLarge",
    ),
    "hamiltonians": (
        "LocalHamiltonian", "LocalTerm", "PreparedEigenvalueSampler",
        "ScaleInfo", "dense_hamiltonian", "exact_average_eigenvalue",
        "parse_hamiltonian", "prepare_lhes", "scale_hamiltonian",
        "serialize_hamiltonian", "trotter_circuit", "trotter_deviation",
        "trotter_step_count",
    ),
    "linalg": (
        "SpectralDecomposition", "exp_i_hermitian", "hermitian_eig",
        "is_hermitian", "is_unitary", "operator_norm", "unitary_eig",
    ),
    "phase_estimation": (
        "PreparedPhaseEstimation", "SamplingRequest", "ancilla_bits",
        "ceil_log2", "prepare_pes",
    ),
    "reductions": (
        "HistoryAnalysis", "MarkedCircuit", "UnaryClockHamiltonian",
        "analyze_history", "build_clock_hamiltonian", "build_clock_propagator",
        "build_unary_clock", "decide_via_lhes", "decide_via_luae",
        "decide_via_pes", "eigenvalue_grids",
        "exact_lhes_oracle", "exact_luae_oracle", "exact_pes_oracle",
        "history_start_label", "lhes_epsilon", "mark_circuit", "marked_law",
        "quantum_lhes_oracle", "quantum_luae_oracle", "quantum_pes_oracle",
        "reduction_report", "unary_embedding_isometry",
    ),
    "seeding": (
        "master_rng", "substream", "substream_uniforms",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # bound from now on, as an eager import binds it
    return value

"""Single-photon dual-rail entanglement simulator with steering certification."""

from .circuit import Circuit, ElementSpec, format_circuit, parse_circuit, run_circuit
from .core import (
    BasisDecl,
    BasisKet,
    DensityOperator,
    StateVector,
    apply_local_unitary,
    expectation_value,
    fidelity,
    inner_product,
    normalize,
    to_density,
)
from .measurement import (
    MeasurementSetting,
    OutcomeRecord,
    born_probabilities,
    collapse,
    oam_setting,
    occupation_setting,
    polarization_setting,
    reduced_state,
    sample_outcome,
    sample_outcomes,
)
from .scenarios import (
    FIG1_CIRCUIT,
    QPLATE_CIRCUIT,
    eq1_state,
    hardy_state,
    noisy_state,
    preset,
    qplate_tripartite_state,
    scenario_report,
    twc_state,
)
from .steering import (
    Assemblage,
    ChshResult,
    SteeringVerdict,
    chsh_optimize,
    chsh_value,
    cjwr_value,
    compute_assemblage,
    joint_measurability_margin,
    lhs_feasibility,
    pol_path_qubits,
    replay_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

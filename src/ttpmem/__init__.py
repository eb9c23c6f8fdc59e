"""TDMA ring membership with clique avoidance.

Concrete N-station simulator with asymmetric-fault injection, the matching
counter abstraction (single-fault automaton and multi-fault counter tree),
and an explicit-state checker that verifies the counting properties and the
two-round convergence claim, cross-validating concrete runs against the
abstraction.

The names imported below are the package's public API.
"""

from .protocol import (
    CheckPhase,
    Frame,
    Location,
    MembershipVector,
    SoundnessError,
    StationId,
    StationState,
    check_first_successor,
    check_second_successor,
    clique_gate,
    crc_correct,
    full_vector,
    initial_station,
    receive_step,
    reintegrate_step,
    vector_str,
)
from .ring import (
    Convergence,
    FaultSpec,
    IntegrationSpec,
    Ring,
    Scenario,
    ScenarioError,
    SlotEvent,
    StabilizationReport,
    check_stabilization,
    convergence,
    is_single_clique,
    parse_scenario,
    parse_scenario_lines,
    partition_classes,
    render_run_tables,
    run_scenario,
    scenario_text,
    trace_lines,
)
from .abstraction import (
    AbstractInputs,
    AbstractState,
    AbstractTransition,
    abstract_init,
    abstract_inputs_for_slot,
    abstract_successors,
    abstraction_map,
    conserves_population,
)
from .kfault import (
    CounterTree,
    GateCheck,
    counting_gate_checks,
    expected_counter_count,
    tree_gate_checks,
)
from .checker import (
    PropertyVerdict,
    ResourceCap,
    StateGraph,
    SweepResult,
    check_properties,
    cross_check,
    explore,
    x_values,
)

__version__ = "0.1.0"

"""Verification toolkit for structure-conditioned 4-choosability of planar
graphs: structural condition detection, even/odd Eulerian orientation
certificates, reducible-configuration extension checks, and an
exact-rational discharging engine."""

from .core import (
    Face,
    Graph,
    Orientation,
    PlaneGraph,
    build_graph,
    faces_of,
    parse_graph6,
)
from .structures import (
    ConditionReport,
    StepBudget,
    TrioOccurrence,
    VertexRole,
    check_conditions,
    classify_role,
)
from .alon_tarsi import (
    AtCertificate,
    EulerianCount,
    count_eulerian,
    find_certificate,
)
from .choosability import (
    ListAssignment,
    ReducibleConfig,
    check_extension,
    is_k_choosable,
)
from .discharging import (
    ChargeLedger,
    RuleSet,
    TransferRecord,
    apply_rules,
    final_report,
)

__version__ = "0.1.0"

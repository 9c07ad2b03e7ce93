"""Executable boundary contracts for finite binary traces.

Parse bounded temporal formulas from text, monitor them over sampled
binary traces with obligation-restricted scoring, extract and match
event intervals, and report guard vectors, witnesses, tolerance sweeps,
streaming verdicts, and risk-ordered contract selection.
"""

__version__ = "0.1.0"

from .lexer import LexError, SourceSpan, Token, TokenKind, tokenize
from .parser import (
    Always,
    And,
    Atom,
    Formula,
    Future,
    Implies,
    Near,
    Not,
    Or,
    ParseError,
    Until,
    atom_names,
    format_formula,
    node_count,
    parse,
    parse_text,
    radius_sum,
    temporal_depth,
)
from .frames import (
    EvaluationPlan,
    EvalStats,
    ObligationScore,
    Reach,
    TraceEnvironment,
    UnknownAtomError,
    derive_edge_atoms,
    evaluate,
    radius_frames,
    score,
    share_subformulas,
)
from .streaming import StreamingMonitor
from .intervals import (
    AuditBoundError,
    CandidateTable,
    Interval,
    Matching,
    MatcherAudit,
    boundary_f1,
    candidates,
    extract_intervals,
    match_exact,
    match_greedy,
    matcher_audit,
)
from .contracts import (
    ClassMonitorResult,
    Contract,
    ContractError,
    ContractSyntaxError,
    EventClause,
    FrameClause,
    GuardCoordinate,
    GuardVector,
    MonitorResult,
    SweepResult,
    WitnessReport,
    compile_contract,
    contract_to_text,
    default_contract,
    default_contract_text,
    load_contract,
    mean_logic,
    monitor,
    monitor_classes,
    parse_contract_text,
    retolerance,
    soft_boundary,
    tolerance_sweep,
)
from .basis import (
    CalibrationCase,
    SelectionResult,
    load_calibration,
    observational_classes,
    retained_basis,
    save_calibration,
    select_contract,
)
from .fixtures import TracePathology, apply_pathology, calibration_cases, make_trace
from .tracefile import TraceFile, TraceFormatError, load_trace, save_trace

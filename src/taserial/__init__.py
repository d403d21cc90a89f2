"""Lock-based transaction control for abstract state machines, with trace
recording and serializability checking."""

from .asm import (
    FALSE,
    Location,
    State,
    TRUE,
    UNDEF,
    apply_updates,
    eval_formula,
    eval_term,
    yields,
)
from .checker import (
    Verdict,
    brute_force_serializable,
    check_serializable,
    cleanse,
)
from .controller import LockPair
from .dsl import MachineProgram, ParseError, parse_program, print_program
from .engine import (
    MalformedTrace,
    RunConfig,
    Trace,
    load_trace,
    run,
    write_trace,
)
from .rwloc import RwSet, rw_formula, rw_rule, rw_term

__all__ = [
    "FALSE",
    "Location",
    "LockPair",
    "MachineProgram",
    "MalformedTrace",
    "ParseError",
    "RunConfig",
    "RwSet",
    "State",
    "TRUE",
    "Trace",
    "UNDEF",
    "Verdict",
    "apply_updates",
    "brute_force_serializable",
    "check_serializable",
    "cleanse",
    "eval_formula",
    "eval_term",
    "load_trace",
    "parse_program",
    "print_program",
    "run",
    "rw_formula",
    "rw_rule",
    "rw_term",
    "write_trace",
    "yields",
]

__version__ = "0.1.0"

"""Positionality analysis for transition-based parity automata.

The package decides whether the omega-regular objective recognised by a
deterministic parity automaton is positional (and bipositional), via two
independent polynomial procedures, and produces machine-checkable
certificates (signature automata, eps-completions, universal graphs) or
counterexample witnesses validated by a brute-force game oracle.
"""

from .automaton import (
    EPS,
    Congruence,
    ParityAutomaton,
    Transition,
    UPWord,
    build,
    emit_dpa,
    parse_dpa,
    parse_upword,
    safe_components,
    up_membership,
    upword,
)
from .epscomplete import (
    EpsCompleteAutomaton,
    decide_positionality_p2,
    eps_complete_from_signature,
    priority_close,
    validate_eps_complete,
)
from .games import (
    GameArena,
    brute_force_positional,
    completion_gadget,
    gadget_for_witness,
    gadget_progress,
    gadget_residual,
    gadget_two_loops,
    solve,
)
from .lang import (
    complement_det,
    incl_det,
    incl_nd_in_det,
    residual_automaton,
    residual_preorder,
    safe_incl,
)
from .normalform import normalize
from .progress import (
    check_full_progress_consistency,
    check_progress_consistency,
    decide_bipositionality,
)
from .signature import (
    NestedPreorders,
    SignatureAutomaton,
    decide_positionality_p1,
    emit_sig,
    parse_sig,
    validate_signature,
)
from .ugraph import (
    MonotoneGraph,
    build_uaut,
    build_upar,
    check_monotone,
    check_universality_bounded,
    with_top,
)
from .witnesses import NotPositional, Positional

__version__ = "0.1.0"

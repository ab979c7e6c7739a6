"""Differential-testing and fuzzing subsystem.

The correctness layer over the whole stack: :mod:`genprog` generates
adversarial inverse-operator programs, :mod:`oracle` checks that every
vectorizer configuration preserves the scalar semantics, :mod:`reduce`
shrinks failures to minimal reproducers, and :mod:`campaign` runs
budgeted campaigns behind the ``repro fuzz`` CLI command.
"""

from .genprog import (
    FUZZ_SHAPES,
    FuzzProgram,
    FuzzSpec,
    generate_program,
    is_nonzero_global,
    make_inputs,
    random_spec,
)
from .oracle import (
    ConfigOutcome,
    OracleReport,
    failure_signature,
    run_oracle,
    ulp_distance,
    values_close,
)
from .reduce import count_instructions, reduce_module, write_reproducer
from .campaign import (
    CampaignResult,
    FailureArtifact,
    parse_budget,
    replay_file,
    run_campaign,
)

__all__ = [
    "FUZZ_SHAPES",
    "FuzzProgram",
    "FuzzSpec",
    "generate_program",
    "is_nonzero_global",
    "make_inputs",
    "random_spec",
    "ConfigOutcome",
    "OracleReport",
    "failure_signature",
    "run_oracle",
    "ulp_distance",
    "values_close",
    "count_instructions",
    "reduce_module",
    "write_reproducer",
    "CampaignResult",
    "FailureArtifact",
    "parse_budget",
    "replay_file",
    "run_campaign",
]

"""Crash bundles: self-contained ``failure-NNNN/`` artifact directories.

When the guarded driver rolls back a crash-class failure (exception or
verifier rejection — budget blowouts are timing-dependent and not worth
shrinking), :func:`write_crash_bundle` persists everything needed to
reproduce and localize it offline::

    <out>/failure-NNNN/
        original.ir     the module as handed to guarded_compile
        snapshot.ir     the pre-phase checkpoint the failing phase saw
        reduced.ir      delta-debugged minimal reproducer (fuzz/reduce.py)
        report.json     recovery records, crash context, reduction stats
        remarks.jsonl   recovery remarks from re-compiling the reproducer

Replay with ``repro bisect failure-NNNN/reduced.ir --config <cfg>`` to
localize the first faulty vectorization decision, or ``repro compile
failure-NNNN/original.ir --guard`` to watch the recovery fire again.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from ..ir.module import Module
from ..ir.verifier import VerificationError
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe.session import write_remarks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .guard import GuardedResult


def next_bundle_dir(out_dir: str) -> str:
    """The first free ``failure-NNNN`` directory under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    index = 0
    while True:
        candidate = os.path.join(out_dir, f"failure-{index:04d}")
        if not os.path.exists(candidate):
            return candidate
        index += 1


def _reproduces(module: Module, config_name: str, target: TargetMachine,
                unroll_factor: int, kind: str) -> bool:
    """Does an *unguarded* compile of ``module`` still fail the same way?"""
    from ..vectorizer import compile_module, config_named

    try:
        compile_module(
            module, config_named(config_name), target, unroll_factor=unroll_factor
        )
    except VerificationError:
        return kind == "verifier"
    except Exception:  # noqa: BLE001 - the crash we are preserving
        return kind == "exception"
    return False


def write_crash_bundle(
    out_dir: str,
    module: Module,
    outcome: "GuardedResult",
    target: TargetMachine = DEFAULT_TARGET,
    unroll_factor: int = 0,
    reduce_failure: bool = True,
) -> str:
    """Write a ``failure-NNNN/`` bundle for ``outcome.crash``.

    Reduction reuses the fuzzing subsystem's delta debugger with the
    predicate "an unguarded compile under the failing config still fails
    with the same kind" — deterministic whenever the underlying fault is
    (injected faults always are).  Returns the bundle directory.
    """
    from ..fuzz.reduce import reduce_module, write_reproducer
    from ..vectorizer import config_named
    from .guard import guarded_compile

    crash = outcome.crash
    assert crash is not None, "write_crash_bundle needs a captured crash"
    directory = next_bundle_dir(out_dir)
    os.makedirs(directory, exist_ok=True)

    write_reproducer(module, os.path.join(directory, "original.ir"))
    with open(os.path.join(directory, "snapshot.ir"), "w") as handle:
        handle.write(crash.snapshot_text)

    document = {
        "crash": {
            "config": crash.config,
            "phase": crash.phase,
            "kind": crash.kind,
            "detail": crash.detail,
        },
        "requested_config": outcome.requested_config,
        "config_used": outcome.config_used,
        "recoveries": [record.to_dict() for record in outcome.recoveries],
        "counters": outcome.result.counters if outcome.result is not None else {},
        "replay": (
            f"repro bisect reduced.ir --config {crash.config}"
            if reduce_failure
            else f"repro compile original.ir --config {crash.config}"
        ),
    }

    reproducer = module
    if reduce_failure and _reproduces(
        module, crash.config, target, unroll_factor, crash.kind
    ):
        reduction = reduce_module(
            module,
            lambda candidate: _reproduces(
                candidate, crash.config, target, unroll_factor, crash.kind
            ),
        )
        reproducer = reduction.module
        write_reproducer(reproducer, os.path.join(directory, "reduced.ir"))
        document["reduction"] = {
            "instructions_before": reduction.instructions_before,
            "instructions_after": reduction.instructions_after,
            "edits_applied": reduction.edits_applied,
            "candidates_tried": reduction.candidates_tried,
        }

    # Re-run the *guarded* driver over the reproducer so the bundle
    # carries its recovery remarks.
    write_remarks(
        os.path.join(directory, "remarks.jsonl"),
        lambda: guarded_compile(
            reproducer, config_named(crash.config), target,
            unroll_factor=unroll_factor,
        ),
    )
    with open(os.path.join(directory, "report.json"), "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return directory

#!/usr/bin/env python3
"""Compile fingerprint: the printed IR and counters of a fixed compile corpus.

The corpus is every suite kernel under every config, and every
``supernode-wide`` benchmark source (``benchmarks/e2e/minic.py``, drawn as
the workload draws them) at seeds 20190216 and 7 under every config:
1,216 compiles.  One row per (suite kernel, config) and per
(``supernode-wide`` stratum, config, seed), where a stratum is one
(lanes, terms, type) cell and holds one source per round.  A row holds a
sha256 of its programs' printed IR, one of their sorted counters, and a
short digest pair per program, which names the program that moved.

The ``frontend`` family pins the frontend at its own boundary: one row per
(``supernode-wide`` stratum, seed) holding a sha256 of the printed modules
its sources lower to (``compile_source`` output, before any pass), with
``-`` for the config and the counters.

    PYTHONPATH=src python scripts/fingerprint.py --out scripts/fingerprint.tsv
    PYTHONPATH=src python scripts/fingerprint.py --check scripts/fingerprint.tsv

``--check`` recomputes every row and exits 1 naming the first row,
program and column that differ.  A change that moves output on purpose
regenerates the file, so its diff names the rows that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from minic import draw_signed_sum  # noqa: E402

from repro.frontend import compile_source  # noqa: E402
from repro.ir.printer import print_module  # noqa: E402
from repro.kernels.suite import all_kernels  # noqa: E402
from repro.machine import DEFAULT_TARGET  # noqa: E402
from repro.vectorizer import ALL_CONFIGS, compile_module  # noqa: E402

#: the ``supernode-wide`` draw: seeds, rounds and strata (workloads.py)
SEEDS = (20190216, 7)
ROUNDS = 4
LANES = (2, 4, 8)
TERMS = tuple(range(3, 9))
CTYPES = ("double", "long")

COLUMNS = ("family", "name", "config", "seed", "ir_sha256", "counters_sha256", "programs")

#: hex digits of each per-program digest in the ``programs`` column
SHORT = 12

Row = Dict[str, str]


def _stratum_sources(seed: int) -> Dict[str, List[Tuple[str, str]]]:
    """stratum -> [(program name, source)] in round order."""
    rng = random.Random(f"{seed}:supernode-wide")
    strata = [(l, t, c) for l in LANES for t in TERMS for c in CTYPES]
    by_stratum: Dict[str, List[Tuple[str, str]]] = {
        f"{l}x{t}-{c}": [] for l, t, c in strata
    }
    for r in range(ROUNDS):
        batch = [
            draw_signed_sum(rng, f"sn{r}_{i}", lanes, terms, ctype)
            for i, (lanes, terms, ctype) in enumerate(strata)
        ]
        rng.shuffle(batch)  # the workload's op order; the draw is done
        for program in batch:
            key = f"{program.lanes}x{program.terms}-{program.ctype}"
            by_stratum[key].append((program.name, program.source()))
    return by_stratum


def _row(family: str, name: str, config, seed: str, modules) -> Row:
    """Compile each (program name, module) under ``config`` into one row."""
    ir = hashlib.sha256()
    counters = hashlib.sha256()
    programs = []
    for program, module in modules:
        compiled = compile_module(module, config, DEFAULT_TARGET)
        text = print_module(compiled.module).encode()
        counts = json.dumps(sorted(compiled.counters.items())).encode()
        ir.update(text)
        counters.update(counts)
        programs.append(
            f"{program}:{hashlib.sha256(text).hexdigest()[:SHORT]}"
            f":{hashlib.sha256(counts).hexdigest()[:SHORT]}"
        )
    return {
        "family": family, "name": name, "config": config.name, "seed": seed,
        "ir_sha256": ir.hexdigest(), "counters_sha256": counters.hexdigest(),
        "programs": ",".join(programs),
    }


def _frontend_row(name: str, seed: str, sources) -> Row:
    """The printed, unoptimised modules of one stratum's sources.  Each
    source is lowered afresh: printing names a module's values, which would
    move the compile rows' output if it happened to the modules they use."""
    ir = hashlib.sha256()
    programs = []
    for program, source in sources:
        text = print_module(compile_source(source, program)).encode()
        ir.update(text)
        programs.append(f"{program}:{hashlib.sha256(text).hexdigest()[:SHORT]}:-")
    return {
        "family": "frontend", "name": name, "config": "-", "seed": seed,
        "ir_sha256": ir.hexdigest(), "counters_sha256": "-",
        "programs": ",".join(programs),
    }


def fingerprint_rows() -> Iterator[Row]:
    for kernel in all_kernels():
        for config in ALL_CONFIGS:
            yield _row("suite", kernel.name, config, "-", [(kernel.name, kernel.build())])
    frontend = []
    for seed in SEEDS:
        for stratum, sources in _stratum_sources(seed).items():
            modules = [(name, compile_source(text, name)) for name, text in sources]
            frontend.append(_frontend_row(stratum, str(seed), sources))
            for config in ALL_CONFIGS:
                yield _row("supernode-wide", stratum, config, str(seed), modules)
    yield from frontend


def _key(row: Row) -> str:
    return " ".join(row[column] for column in ("family", "name", "config", "seed"))


def write(rows: List[Row], out) -> None:
    out.write("\t".join(COLUMNS) + "\n")
    for row in rows:
        out.write("\t".join(row[column] for column in COLUMNS) + "\n")


def read(path: Path) -> List[Row]:
    lines = path.read_text().splitlines()
    if not lines or tuple(lines[0].split("\t")) != COLUMNS:
        raise SystemExit(f"{path}: not a fingerprint file (header {COLUMNS})")
    return [dict(zip(COLUMNS, line.split("\t"))) for line in lines[1:]]


def first_difference(expected: List[Row], actual: List[Row]) -> str:
    """The first differing row, program and column, or '' when equal."""
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        if _key(want) != _key(got):
            return f"row {number}: expected {_key(want)!r}, computed {_key(got)!r}"
        if want == got:
            continue
        wanted = [part.split(":") for part in want["programs"].split(",")]
        computed = [part.split(":") for part in got["programs"].split(",")]
        for (name, want_ir, want_counters), (_, got_ir, got_counters) in zip(
            wanted, computed
        ):
            for column, a, b in (
                ("ir_sha256", want_ir, got_ir),
                ("counters_sha256", want_counters, got_counters),
            ):
                if a != b:
                    return f"row {number} ({_key(want)}): program {name}: {column} differs"
        return f"row {number} ({_key(want)}): programs differ"
    if len(expected) != len(actual):
        return f"{len(expected)} rows expected, {len(actual)} computed"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--out", type=Path, help="write the fingerprint file")
    group.add_argument("--check", type=Path, help="compare against a fingerprint file")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    rows = list(fingerprint_rows())
    seconds = time.perf_counter() - started
    if args.check is not None:
        problem = first_difference(read(args.check), rows)
        if problem:
            print(f"fingerprint differs: {problem}", file=sys.stderr)
            return 1
        print(f"fingerprint unchanged: {len(rows)} rows in {seconds:.1f} s")
        return 0
    if args.out is not None:
        with args.out.open("w") as out:
            write(rows, out)
        print(f"wrote {len(rows)} rows to {args.out} in {seconds:.1f} s")
    else:
        write(rows, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
